"""Acceptance gate: the nine headline guarantees, one test per guarantee.

Each test prints one PASS line with the measured worst-case number and the
wall time; run `pytest tests/test_acceptance.py -v -s` to see the lines as
the suite progresses.  Tolerances and runtime budgets are asserted, so a
regression flips the corresponding test red rather than just reading worse.
"""

import math
import time

import numpy as np

from defectline import (
    BoundaryCondition,
    Channel,
    PathSpec,
    SphereGrid,
    UnitaryParams,
    boundary_residual,
    build_eigenfunction,
    check_isospectral,
    current_mismatch,
    det_spectrum,
    fd_spectrum,
    level_eigenbasis,
    sample_eigenfunction,
    loop_shift,
    matrix_to_params,
    params_to_matrix,
    parity_conjugate,
    solve_spectrum,
    trace_path,
    trajectory_shifts,
)
from defectline.spectrum import solve_channel
from defectline.unitary import SIGMA1, SIGMA2, SIGMA3
from helpers import l2_inner, random_unitary

TWO_PI = 2.0 * math.pi
SEED = 20260814


def _report(num: int, label: str, detail: str, t0: float) -> float:
    dt = time.perf_counter() - t0
    print(f"PASS [{num}] {label}: {detail} ({dt:.2f} s)")
    return dt


def _random_bc(rng) -> BoundaryCondition:
    return BoundaryCondition(params_to_matrix(UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))))


def test_01_closed_form_anchors():
    t0 = time.perf_counter()
    worst = 0.0
    for theta, refs in (
        (math.pi, (math.pi, 2 * math.pi, 3 * math.pi)),
        (0.0, (math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2)),
    ):
        levels = solve_channel(Channel(theta), 3).levels
        for lev, ref in zip(levels, refs):
            worst = max(worst, abs(lev.k_or_kappa - ref))
    assert worst <= 1e-10
    dt = _report(1, "closed-form anchors", f"max |k - k_ref| = {worst:.2e}", t0)
    assert dt < 1.0


def test_02_channel_vs_determinant_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        bc = _random_bc(rng)
        ref = np.array([lev.E for lev in solve_spectrum(bc, 12).levels])
        alt = det_spectrum(bc, 12).E
        worst = max(worst, float(np.max(np.abs(ref - alt))))
    assert worst <= 1e-9
    dt = _report(
        2, "channel vs determinant solver",
        f"50 draws x 12 levels, max |dE| = {worst:.2e}", t0,
    )
    assert dt < 30.0


def test_03_fd_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    worst_final = 0.0
    worst_order = math.inf
    for _ in range(5):
        bc = _random_bc(rng)
        ref = det_spectrum(bc, 4).E
        errs = []
        for n_int in (64, 128, 256, 512):
            fd = fd_spectrum(bc, 4, n_interior=n_int)
            errs.append(float(np.max(np.abs((fd.E - ref) / (1.0 + np.abs(ref))))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        worst_order = min(worst_order, min(orders))
        worst_final = max(worst_final, errs[-1])
    assert worst_order >= 1.0
    assert worst_final <= 5e-3
    dt = _report(
        3, "fd oracle convergence",
        f"order >= {worst_order:.2f}, final rel err = {worst_final:.2e}", t0,
    )
    assert dt < 120.0


def test_04_isospectral_sphere():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    grid = SphereGrid.default()  # 8 x 8 interior plus both poles
    worst = 0.0
    for _ in range(5):
        xi = float(rng.uniform(0.0, TWO_PI))
        rho = float(rng.uniform(0.0, math.pi))
        report = check_isospectral((xi, rho), grid, 8, solver="determinant")
        worst = max(worst, report.max_level_deviation)
    assert worst <= 1e-8
    dt = _report(
        4, "isospectral sphere",
        f"5 seeds x {len(grid)} frames x 8 levels, max |dE| = {worst:.2e}", t0,
    )
    assert dt < 120.0


def test_05_parity_isospectrality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(10):
        bc = _random_bc(rng)
        ref = np.sort(det_spectrum(bc, 8).E)
        raw = rng.normal(size=(16, 3))
        for c in raw / np.linalg.norm(raw, axis=1, keepdims=True):
            mirrored = BoundaryCondition(parity_conjugate(bc.u, c))
            got = np.sort(det_spectrum(mirrored, 8).E)
            worst = max(worst, float(np.max(np.abs(ref - got))))
    assert worst <= 1e-9
    _report(
        5, "parity isospectrality",
        f"10 matrices x 16 directions, max |dE| = {worst:.2e}", t0,
    )


def test_06_swap_gives_identical_multisets():
    t0 = time.perf_counter()
    thetas = np.linspace(0.0, TWO_PI, 10, endpoint=False)
    worst = 0.0
    for tp in thetas:
        for tm in thetas:
            a = _merged(tp, tm)
            b = _merged(tm, tp)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-12
    _report(
        6, "eigenphase swap symmetry",
        f"10x10 torus grid, max multiset deviation = {worst:.2e}", t0,
    )


def _merged(tp: float, tm: float) -> np.ndarray:
    params = UnitaryParams(xi=(0.5 * (tp + tm)) % TWO_PI, rho=(0.5 * (tp - tm)) % TWO_PI)
    bc = BoundaryCondition(params_to_matrix(params))
    return np.sort([lev.E for lev in solve_spectrum(bc, 8).levels])


def test_07_anholonomy_shifts():
    base = UnitaryParams(xi=2.2, rho=0.8)

    t0 = time.perf_counter()
    single = PathSpec(winding=(1, 0), base=base)
    trajectories = trace_path(single)
    per_branch = {
        ch: {tr.end_index - tr.start_index for tr in trajectories if tr.channel == ch}
        for ch in ("plus", "minus")
    }
    assert per_branch["plus"] == {1}  # every plus branch moves one rung, the same way
    assert per_branch["minus"] == {0}
    s = trajectory_shifts(trajectories, single.winding)[0]
    assert abs(s) == 1
    dt = time.perf_counter() - t0
    assert dt < 60.0

    for w in ((2, 0), (3, 0), (0, 2), (1, 1), (-1, 0)):
        t_loop = time.perf_counter()
        expected = (w[0] * s, w[1] * s)
        assert loop_shift(PathSpec(winding=w, base=base)) == expected
        assert time.perf_counter() - t_loop < 60.0
    _report(
        7, "anholonomy winding shifts",
        f"s = {s:+d} per winding, additive for |w| <= 3", t0,
    )


def test_08_self_adjointness_witnesses():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    worst_res = worst_mis = worst_gram = 0.0
    for _ in range(10):
        bc = _random_bc(rng)
        levels = solve_spectrum(bc, 6).levels
        functions = []
        for lev in levels:
            if lev.degenerate_with is not None:
                pair_seen = any(f.k == lev.k_or_kappa for f in functions)
                if pair_seen:
                    continue
                functions.extend(level_eigenbasis(bc, lev))
            else:
                functions.append(build_eigenfunction(bc, lev))
        for f in functions:
            v = f.boundary_vectors()
            worst_res = max(worst_res, boundary_residual(bc, v))
            worst_mis = max(worst_mis, current_mismatch(v))
        samplers = [lambda xs, f=f: sample_eigenfunction(f, xs) for f in functions]
        for i, fi in enumerate(samplers):
            for fj in samplers[i + 1 :]:
                worst_gram = max(worst_gram, abs(l2_inner(fi, fj)))
    assert worst_res <= 1e-8
    assert worst_mis <= 1e-10
    assert worst_gram <= 1e-8
    _report(
        8, "self-adjointness witnesses",
        f"residual {worst_res:.2e}, mismatch {worst_mis:.2e}, overlap {worst_gram:.2e}",
        t0,
    )


def test_09_pauli_algebra_and_round_trips():
    t0 = time.perf_counter()
    paulis = (SIGMA1, SIGMA2, SIGMA3)
    eye = np.eye(2, dtype=complex)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    worst_alg = 0.0
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            expected = (eye if i == j else 0.0 * eye) + 1j * sum(
                eps[i, j, k] * sk for k, sk in enumerate(paulis)
            )
            worst_alg = max(worst_alg, float(np.max(np.abs(si @ sj - expected))))
    assert worst_alg <= 1e-12

    rng = np.random.default_rng(SEED + 9)
    worst_rt = 0.0
    for _ in range(50):
        u = random_unitary(rng)
        back = params_to_matrix(matrix_to_params(u))
        worst_rt = max(worst_rt, float(np.max(np.abs(u - back))))
        p = UnitaryParams(
            xi=float(rng.uniform(0.0, math.pi)),
            rho=float(rng.uniform(0.0, math.pi)),
            mu=float(rng.uniform(0.0, math.pi)),
            nu=float(rng.uniform(0.0, TWO_PI)),
        )
        m = params_to_matrix(p)
        again = params_to_matrix(matrix_to_params(m))
        worst_rt = max(worst_rt, float(np.max(np.abs(m - again))))
    assert worst_rt <= 1e-10
    _report(
        9, "pauli algebra and round-trips",
        f"algebra {worst_alg:.2e}, round-trip {worst_rt:.2e}", t0,
    )
