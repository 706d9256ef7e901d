"""Per-op output checks that do not trust the solver under test.

Each check reads the op's argv and captured stdout and recomputes what it
needs in numpy from the closed forms in PAPER.md: the channel functions

    F(k) = sin(kl) sin(theta/2) + k L0 cos(kl) cos(theta/2),
    G(kappa) = sinh(kappa l) sin(theta/2) + kappa L0 cosh(kappa l) cos(theta/2),

the eigenphases of the defect matrix (for --matrix input from
``numpy.linalg.eigvals``, never from the package), and the junction
condition (U - I) Phi + i L0 (U + I) Phi' = 0.  Nothing here imports
``defectline``.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# |F/F'| per level, relative to 1 + k.  The worst step seen on correct
# output away from the threshold is about 2e-14.
NEWTON_TOL = 1e-10
# Rounding the CLI may do on an eigenphase on its way from the flags to the
# channel: a few units in the last place of 2 pi.
THETA_EPS = 1e-14
# Gates of the self-adjointness witnesses, as in the acceptance suite.  They
# are applied to witnesses divided by the scale of the boundary data, because
# l and L0 here span four decades.
RESIDUAL_TOL = 1e-8
MISMATCH_TOL = 1e-10
# Isospectral sweep with the det solver: the acceptance suite's absolute gate
# at l = 1, scaled with the energy unit 1 / l^2 for smaller boxes.
ISO_TOL = 1e-8
# oracle-compare's own default tolerances.
TOL_DET = 1e-9
TOL_FD = 5e-3

_I2 = np.eye(2)


class CheckFailed(Exception):
    """The output of an op is wrong, incomplete or malformed."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parse_flags(argv) -> dict[str, str]:
    """``--name=value`` and ``-n N`` flags of an op, by long name."""
    flags: dict[str, str] = {}
    items = list(argv[1:])
    while items:
        item = items.pop(0)
        if item == "-n":
            flags["levels"] = items.pop(0)
        else:
            name, _, value = item[2:].partition("=")
            flags[name] = value
    return flags


class System:
    """The defect as given on the command line: eigenphases, U, l and L0."""

    def __init__(self, flags: dict[str, str]):
        self.l = float(flags.get("l", 1.0))
        self.L0 = float(flags.get("L0", 1.0))
        if "matrix" in flags:
            p = [float(x) for x in flags["matrix"].split(",")]
            self.u = np.array([[p[0] + 1j * p[1], p[2] + 1j * p[3]],
                               [p[4] + 1j * p[5], p[6] + 1j * p[7]]])
            self.thetas = np.angle(np.linalg.eigvals(self.u))
            return
        mu, nu = float(flags.get("mu", 0.0)), float(flags.get("nu", 0.0))
        if "theta-plus" in flags or "theta-minus" in flags:
            tp = float(flags.get("theta-plus", 0.0))
            tm = float(flags.get("theta-minus", 0.0))
        else:
            xi, rho = float(flags.get("xi", 0.0)), float(flags.get("rho", 0.0))
            tp, tm = xi + rho, xi - rho
        self.thetas = np.array([tp, tm])
        c, s = math.cos(mu / 2.0), math.sin(mu / 2.0)
        v = np.array([[c, s], [-s, c]]) @ np.diag(np.exp([0.5j * nu, -0.5j * nu]))
        self.u = v.conj().T @ np.diag(np.exp(1j * self.thetas)) @ v


def newton_ratio(theta, E, l: float, L0: float) -> np.ndarray:
    """Newton step |F/F'| at each E over what it may be; a level passes at <= 1.

    The step may be NEWTON_TOL (1 + k), plus how far the root moves when
    theta moves by THETA_EPS: near the threshold T = 0 the root k is so
    sensitive to theta that rounding theta alone moves it by more than
    NEWTON_TOL.  Below zero the same holds for G and kappa; at E = 0 the
    quantity is |T| against NEWTON_TOL (l + L0).  ``theta`` broadcasts
    against ``E``.
    """
    E = np.asarray(E, dtype=float)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), E.shape)
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    k = np.sqrt(np.abs(E))
    x = k * l
    pos = E > 0
    sign = np.where(pos, -1.0, 1.0)  # d cos = -sin, d cosh = +sinh
    with np.errstate(all="ignore"):  # the branch np.where drops may overflow
        trig = (np.where(pos, np.sin(x), np.sinh(x)), np.where(pos, np.cos(x), np.cosh(x)))
        f = trig[0] * s + k * L0 * trig[1] * c
        df = l * trig[1] * s + L0 * trig[1] * c + sign * k * L0 * l * trig[0] * c
        f_theta = 0.5 * (trig[0] * c - k * L0 * trig[1] * s)
        ratio = np.abs(f) / (NEWTON_TOL * (1.0 + k) * np.abs(df) + THETA_EPS * np.abs(f_theta))
    t = l * s + L0 * c
    t_theta = 0.5 * (l * c - L0 * s)
    at_zero = np.abs(t) / (NEWTON_TOL * (l + L0) + THETA_EPS * np.abs(t_theta))
    return np.where(E == 0.0, at_zero, ratio)


def _best_fit(defect: System, E, shift=0.0) -> float:
    """Worst Newton ratio of ``E`` on the eigenphase (plus ``shift``) whose channel fits best."""
    return min(float(np.max(newton_ratio(theta + shift, E, defect.l, defect.L0))) for theta in defect.thetas)


def _check_kind(rec: dict) -> None:
    e, k, kind = rec["E"], rec["k_or_kappa"], rec["kind"]
    want = {"positive": k * k, "bound": -k * k, "zero": 0.0}[kind]
    _require(abs(e - want) <= 4e-16 * abs(e), f"E = {e!r} does not match {kind} k = {k!r}")


def _check_ladder(defect: System, recs: list[dict]) -> None:
    """Per channel label: a root of one eigenphase's channel, with no rung skipped.

    For m >= 1, tan(kl) = -(L0 cos/sin(theta/2)) k has exactly one root on
    each branch ((m - 1/2) pi / l, (m + 1/2) pi / l), and all of them sit on
    the same side of m pi / l; branch 0 holds at most one.  So within one
    channel the first positive k l / pi is below 3/2 and consecutive ones
    differ by more than 1/2 and less than 3/2.
    """
    for label in sorted({r["channel"] for r in recs}):
        group = [r for r in recs if r["channel"] == label]
        _require([r["index"] for r in group] == list(range(len(group))),
                 f"{label} channel indices are not 0, 1, 2, ...")
        kinds = [r["kind"] for r in group]
        _require(kinds.count("bound") <= 1 and kinds.count("zero") <= 1,
                 f"{label} channel has more than one bound or zero level")
        worst = _best_fit(defect, [r["E"] for r in group])
        _require(worst <= 1.0, f"{label} channel Newton step {worst:.3g} times its tolerance")
        rungs = np.array([r["k_or_kappa"] for r in group if r["kind"] == "positive"]) * defect.l / math.pi
        if rungs.size:
            gaps = np.diff(rungs)
            _require(rungs[0] < 1.5 + 1e-9 and np.all(gaps > 0.5 - 1e-9) and np.all(gaps < 1.5 + 1e-9),
                     f"{label} channel skips a rung: k l / pi = {rungs[:4]} ...")


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def check_spectrum(argv, out: str) -> None:
    flags = parse_flags(argv)
    recs = _records(out)
    n = int(flags.get("levels", 8))
    _require(len(recs) == n, f"{len(recs)} levels printed, {n} requested")
    energies = [r["E"] for r in recs]
    _require(all(a <= b for a, b in zip(energies, energies[1:])), "levels are not in ascending order")
    for r in recs:
        _check_kind(r)
    _check_ladder(System(flags), recs)


def _profile(kind: str, k: float, arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wall-anchored basis profile and its derivative at ``arg`` = x -+ l."""
    if kind == "positive":
        return np.sin(k * arg), k * np.cos(k * arg)
    if kind == "bound":
        return np.sinh(k * arg), k * np.cosh(k * arg)
    return arg, np.ones_like(arg)


def check_eigenfunction(argv, out: str) -> None:
    flags = parse_flags(argv)
    defect = System(flags)
    recs = _records(out)
    meta, rows = recs[0], recs[1:]
    _check_kind(meta)
    worst = _best_fit(defect, [meta["E"]])
    _require(worst <= 1.0, f"level Newton step {worst:.3g} times its tolerance")

    m = int(flags.get("samples", 200)) // 2
    _require(len(rows) == 2 * m, f"{len(rows)} samples printed, {2 * m} expected")
    x = np.array([r["x"] for r in rows])
    v = np.array([r["re"] + 1j * r["im"] for r in rows])
    grid = np.concatenate([np.linspace(-defect.l, 0.0, m, endpoint=False),
                           np.linspace(defect.l, 0.0, m, endpoint=False)[::-1]])
    _require(np.allclose(x, grid, rtol=0.0, atol=1e-15 * defect.l), "sample grid is wrong")

    # Fit one amplitude per side to the samples, then rebuild the boundary
    # data at the defect from the fitted function.
    kind, k = meta["kind"], meta["k_or_kappa"]
    phi, dphi = [], []
    for side, wall in ((x > 0, defect.l), (x < 0, -defect.l)):  # (0+, 0-) order
        p, _ = _profile(kind, k, x[side] - wall)
        amp = np.dot(p, v[side]) / np.dot(p, p)
        fit = np.max(np.abs(v[side] - amp * p))
        _require(fit <= 1e-9 * np.max(np.abs(v)), f"samples are not one eigenfunction (misfit {fit:.3g})")
        val, der = _profile(kind, k, np.array([-wall]))
        phi.append(amp * val[0])
        dphi.append(amp * der[0])
    phi = np.array(phi)
    dphi = np.array([-dphi[0], dphi[1]])  # derivatives toward the defect
    scale = np.linalg.norm(phi) + defect.L0 * np.linalg.norm(dphi)
    residual = np.linalg.norm((defect.u - _I2) @ phi + 1j * defect.L0 * (defect.u + _I2) @ dphi) / scale
    mismatch = abs(np.vdot(dphi, phi) - np.vdot(phi, dphi)) / (np.linalg.norm(phi) * np.linalg.norm(dphi))
    _require(residual <= RESIDUAL_TOL, f"junction residual {residual:.3g} > {RESIDUAL_TOL}")
    _require(mismatch <= MISMATCH_TOL, f"current mismatch {mismatch:.3g} > {MISMATCH_TOL}")
    _require(meta["residual"] / scale <= RESIDUAL_TOL, "printed residual exceeds its gate")
    _require(meta["current_mismatch"] / (np.linalg.norm(phi) * np.linalg.norm(dphi)) <= MISMATCH_TOL,
             "printed current mismatch exceeds its gate")


def check_oracle_compare(argv, out: str, code: int) -> None:
    """Channel levels are roots; exit code 1 exactly when a printed delta is over tolerance."""
    flags = parse_flags(argv)
    defect = System(flags)
    recs = _records(out)
    n = int(flags.get("levels", 8))
    _require([r["level"] for r in recs] == list(range(n)), "level column is not 0..n-1")
    e_ch = np.array([r["E_channel"] for r in recs])
    _require(np.all(np.diff(e_ch) >= 0.0), "channel levels are not in ascending order")
    ratios = np.min([newton_ratio(t, e_ch, defect.l, defect.L0) for t in defect.thetas], axis=0)
    worst = float(np.max(ratios))
    _require(worst <= 1.0, f"channel Newton step {worst:.3g} times its tolerance")
    ok = True
    for r in recs:
        d_det = abs(r["E_channel"] - r["E_det"])
        d_fd = abs(r["E_channel"] - r["E_fd"]) / (1.0 + abs(r["E_channel"]))
        _require(d_det == r["delta_det"] and d_fd == r["delta_fd"], "printed deltas do not match the levels")
        ok = ok and d_det <= TOL_DET and d_fd <= TOL_FD
    _require(code == (0 if ok else 1), f"exit code {code} but deltas say {'pass' if ok else 'fail'}")


def check_isospectral(argv, out: str) -> None:
    flags = parse_flags(argv)
    (rec,) = _records(out)
    frames = 2 + int(flags["grid-mu"]) * int(flags["grid-nu"])
    _require(rec["grid_points"] == frames, f"{rec['grid_points']} frames swept, {frames} expected")
    _require(rec["n_levels_checked"] == int(flags.get("levels", 8)), "wrong level count")
    _require(rec["solver_used"] == "determinant", f"solver {rec['solver_used']!r} used")
    dev = rec["max_level_deviation"]
    tol = ISO_TOL * max(1.0, float(flags.get("l", 1.0)) ** -2)
    _require(0.0 <= dev <= tol, f"isospectral deviation {dev:.3g} > {tol:.3g}")


def check_trace(argv, out: str) -> None:
    """Shifts equal the windings; every traced point is a level of its loop."""
    flags = parse_flags(argv)
    defect = System(flags)
    winding = {"plus": int(flags.get("w-plus", 0)), "minus": int(flags.get("w-minus", 0))}
    recs = _records(out)
    summary = recs[-1]
    _require(summary["record"] == "summary", "no summary record")
    shifts = (summary["s_plus"], summary["s_minus"])
    _require(shifts == (winding["plus"], winding["minus"]), f"shifts {shifts} != windings")
    heads = [r for r in recs if r["record"] == "trajectory"]
    _require(len(heads) == int(flags.get("tracked", 8)), "wrong trajectory count")
    points: dict[int, list] = {}
    for r in recs:
        if r["record"] == "point":
            points.setdefault(r["trajectory"], []).append((r["t"], r["E"]))
    for label in ("plus", "minus"):
        w = winding[label]
        t_all, e_all = [], []
        for h in heads:
            if h["channel"] != label:
                continue
            t, e = np.array(points[h["trajectory"]]).T
            _require(t[0] == 0.0 and np.all(np.diff(t) > 0.0), "t does not rise from 0")
            if not h["floored_out"]:
                # The walk stops once t is within 1e-12 of 1.
                _require(t[-1] >= 1.0 - 1e-12, "surviving trajectory does not close the loop")
                _require(h["end_index"] - h["start_index"] == w, "branch shift differs from winding")
            t_all.append(t)
            e_all.append(e)
        if not t_all:
            continue
        t, e = np.concatenate(t_all), np.concatenate(e_all)
        worst = _best_fit(defect, e, 2.0 * math.pi * w * t)
        _require(worst <= 1.0, f"{label} trajectory Newton step {worst:.3g} times its tolerance")


CHECKS = {
    "spectrum": check_spectrum,
    "eigenfunction": check_eigenfunction,
    "isospectral": check_isospectral,
    "trace": check_trace,
}
