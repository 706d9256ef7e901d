"""Seeded input generator for the three benchmark workloads.

Standard library only, so the orchestrator and the set-up probes can import
it without paying for numpy.  Every op is a ``defectline`` argv plus the
input-property tags it was drawn with; the same (workload, seed) always
gives the same ops in the same order.

A pass is a fixed multiset of op shapes (ladder lengths and eigenfunction
indices; FD grids and level counts; trace steps, tracked levels and
windings; sphere grids) in seeded order, so the cost of a pass hardly moves
from seed to seed, while the defect, geometry and input form of every op
are drawn afresh.  The defect is drawn from one of the edge regions below or from the
generic region, and the counts per region are fixed, so each pass carries
every edge region the solvers are sensitive to:

* ``theta0`` / ``thetapi``: one eigenphase within 1e-9..1e-2 of 0 or pi;
* ``threshold``: one channel exactly at T = l sin(theta/2) + L0 cos(theta/2)
  = 0, and ``threshold_near`` within 1e-9..1e-3 of it;
* ``degenerate``: rho = 0 or pi exactly, ``degenerate_near`` within
  1e-9..1e-3 of them (both channels share their levels);
* ``floor``: a bound state at kappa l = 50 (1 + eps), |eps| <= 0.2, on both
  sides of the floor below which every solver drops a level.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
KAPPA_FLOOR = 50.0

# Ops per pass.  At least 100, so p90 has ten samples beyond it.
PASS_OPS = 100

# The op shared by every workload that checks byte-identity with the README.
README_ARGV = ("spectrum", "--xi", "2.0", "--rho", "0.9", "-n", "2")
README_STDOUT = (
    '{"index": 0, "channel": "minus", "kind": "positive", '
    '"k_or_kappa": 1.8852237200532831, "E": 3.5540684746515394, "degenerate": false}\n'
    '{"index": 0, "channel": "plus", "kind": "positive", '
    '"k_or_kappa": 2.8125884873330338, "E": 7.9106539990783231, "degenerate": false}\n'
)

EDGES_ALL = {
    "generic": 44, "theta0": 8, "thetapi": 8, "threshold": 6, "threshold_near": 8,
    "degenerate": 6, "degenerate_near": 10, "floor": 10,
}
# trace rejects a degenerate start by contract (DegeneratePath, exit 3), so
# its defects come from the regions where continuation is defined.
EDGES_TRACE = {
    "generic": 40, "theta0": 12, "thetapi": 12, "threshold": 8,
    "threshold_near": 12, "floor": 16,
}
FORMS = ("angles", "eigenphases", "matrix")


@dataclass(frozen=True)
class Op:
    """One CLI call and the input properties it was drawn with."""

    argv: tuple[str, ...]
    props: tuple[tuple[str, str], ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def fmt(x: float) -> str:
    """A float as the CLI must receive it: 17 significant digits."""
    return format(float(x), ".17g")


def _flag(name: str, value) -> str:
    # --name=value keeps argparse from reading a negative exponent such as
    # -1e-09 as an option.
    return f"--{name}={value}"


def _fill(rng: random.Random, counts: dict, n: int) -> list:
    """``n`` labels in seeded order, with shares fixed by ``counts``."""
    total = sum(counts.values())
    out = []
    for label, c in counts.items():
        out.extend([label] * (c * n // total))
    labels = list(counts)
    for i in range(n - len(out)):  # rounding shortfall, one per label in order
        out.append(labels[i % len(labels)])
    rng.shuffle(out)
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _decade(x: float) -> str:
    return str(math.floor(math.log10(x)))


def _threshold_theta(l: float, L0: float) -> float:
    # T = l sin(theta/2) + L0 cos(theta/2) = 0.
    return (2.0 * math.atan2(-L0, l)) % TWO_PI


def _floor_theta(kappa: float, l: float, L0: float) -> float:
    # G(kappa) = 0 with sin(theta/2) > 0 > cos(theta/2).
    return 2.0 * (math.pi - math.atan(kappa * L0 / math.tanh(kappa * l)))


def _defect(rng: random.Random, edge: str, l: float, L0: float) -> tuple[float, float]:
    """Eigenphase pair (theta_plus, theta_minus) in the given region."""
    a, b = rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)
    delta = _log_uniform(rng, 1e-9, 1e-3)
    sign = rng.choice((-1.0, 1.0))
    if edge == "theta0":
        a = (sign * _log_uniform(rng, 1e-9, 1e-2)) % TWO_PI
    elif edge == "thetapi":
        a = math.pi + sign * _log_uniform(rng, 1e-9, 1e-2)
    elif edge == "threshold":
        a = _threshold_theta(l, L0)
    elif edge == "threshold_near":
        a = _threshold_theta(l, L0) + sign * delta
    elif edge in ("degenerate", "degenerate_near"):
        xi = rng.uniform(0.0, TWO_PI)
        rho = rng.choice((0.0, math.pi))
        if edge == "degenerate_near":
            rho += delta if rho == 0.0 else -delta
        return xi + rho, xi - rho
    elif edge == "floor":
        a = _floor_theta(KAPPA_FLOOR * (1.0 + rng.uniform(-0.2, 0.2)) / l, l, L0)
    if rng.random() < 0.5:
        a, b = b, a
    return a, b


def _matrix(tp: float, tm: float, mu: float, nu: float) -> list[complex]:
    """Row-major entries of U = V^dagger diag(e^{i tp}, e^{i tm}) V."""
    c, s = math.cos(mu / 2.0), math.sin(mu / 2.0)
    zp, zm = cmath.exp(0.5j * nu), cmath.exp(-0.5j * nu)
    v = [[c * zp, s * zm], [-s * zp, c * zm]]  # e^{i mu s2/2} e^{i nu s3/2}
    d = (cmath.exp(1j * tp), cmath.exp(1j * tm))
    return [
        sum(v[k][i].conjugate() * d[k] * v[k][j] for k in range(2))
        for i in range(2) for j in range(2)
    ]


def _defect_flags(tp: float, tm: float, mu: float, nu: float, form: str) -> list[str]:
    if form == "angles":
        xi, rho = 0.5 * (tp + tm), 0.5 * (tp - tm)
        return [_flag("xi", fmt(xi)), _flag("rho", fmt(rho)),
                _flag("mu", fmt(mu)), _flag("nu", fmt(nu))]
    if form == "eigenphases":
        return [_flag("theta-plus", fmt(tp)), _flag("theta-minus", fmt(tm)),
                _flag("mu", fmt(mu)), _flag("nu", fmt(nu))]
    entries = _matrix(tp, tm, mu, nu)
    return [_flag("matrix", ",".join(fmt(p) for z in entries for p in (z.real, z.imag)))]


def _system(rng: random.Random, edge: str, form: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Defect and geometry flags plus their property tags."""
    l, L0 = _log_uniform(rng, 1e-2, 1e2), _log_uniform(rng, 1e-2, 1e2)
    tp, tm = _defect(rng, edge, l, L0)
    mu, nu = rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI)
    flags = _defect_flags(tp, tm, mu, nu, form)
    flags += [_flag("l", fmt(l)), _flag("L0", fmt(L0))]
    props = [("edge", edge), ("form", form), ("l_decade", _decade(l)), ("L0_decade", _decade(L0))]
    return flags, props


def _shapes(rng: random.Random, combos: list, n: int) -> list:
    """``n`` op shapes cycling through ``combos``, in seeded order.

    Every seed gets the same multiset of shapes, so the ops that set p50 and
    p90 are alike from seed to seed.
    """
    out = [combos[i % len(combos)] for i in range(n)]
    rng.shuffle(out)
    return out


def _ladder(rng: random.Random, n: int) -> list[Op]:
    # Why: the channel solver does nearly all the work.  Small ops hold p50
    # (65 %) and 2000-level ladders hold p90 (15 %).
    eigenfunctions = [("eigenfunction", i, s) for i, s in ((0, 200), (1, 64), (3, 400), (5, 200), (7, 64))]
    lengths = [8] * 8 + eigenfunctions + [64] * 2 + [512] * 2 + [2000] * 3  # 40/25/10/10/15 %
    edges = _fill(rng, EDGES_ALL, n)
    forms = _fill(rng, {f: 1 for f in FORMS}, n)
    ops = []
    for shape, edge, form in zip(_shapes(rng, lengths, n), edges, forms):
        flags, props = _system(rng, edge, form)
        if isinstance(shape, tuple):
            _, index, samples = shape
            argv = ["eigenfunction", *flags, _flag("index", index), _flag("samples", samples)]
            props.append(("ladder_length", str(index + 1)))
        else:
            argv = ["spectrum", *flags, "-n", str(shape)]
            props.append(("ladder_length", str(shape)))
        ops.append(Op(tuple(argv), tuple([("command", argv[0]), *props])))
    return ops


def _crosscheck(rng: random.Random, n: int) -> list[Op]:
    # Why: the dense FD eigensolve does nearly all the work.  Grid shares put
    # p50 among the 64-cell ops and p90 among the 256-cell ops (15 %); 256 is
    # left to the CLI default.
    grids = [64] * 15 + [128] * 2 + [256] * 3  # 20 grids: 75/10/15 %
    shapes = [(g, 4 + i % 5) for i, g in enumerate(grids)]
    edges = _fill(rng, EDGES_ALL, n)
    forms = _fill(rng, {f: 1 for f in FORMS}, n)
    ops = []
    for (grid, levels), edge, form in zip(_shapes(rng, shapes, n), edges, forms):
        flags, props = _system(rng, edge, form)
        argv = ["oracle-compare", *flags, "-n", str(levels)]
        if grid != 256:
            argv.append(_flag("n-interior", grid))
        props += [("ladder_length", str(levels)), ("n_interior", str(grid))]
        ops.append(Op(tuple(argv), tuple([("command", argv[0]), *props])))
    return ops


WINDINGS = ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (2, -1))


def _geometry(rng: random.Random, n: int) -> list[Op]:
    # Why: thousands of small channel solves inside continuation (anholonomy)
    # and many small det solves across frames (isospectral).  trace holds
    # 60 % of the ops, so p50 falls among them.
    traces = [("trace", s, t, WINDINGS[i % len(WINDINGS)])
              for i, (s, t) in enumerate((s, t) for s in (64, 96, 128, 192, 256) for t in (4, 5, 6, 8))]
    sweeps = [("isospectral", m, v, 4 + (m * 3 + v) % 5) for m in (1, 2, 3) for v in (1, 2, 3)]
    shapes = _shapes(rng, traces * 3 + sweeps * 4 + sweeps[:4], n)  # 60 + 40 per 100
    kinds = [shape[0] for shape in shapes]
    trace_edges = _fill(rng, EDGES_TRACE, kinds.count("trace"))
    trace_forms = _fill(rng, {f: 1 for f in FORMS}, kinds.count("trace"))
    iso_edges = _fill(rng, EDGES_ALL, kinds.count("isospectral"))
    ops = []
    for shape in shapes:
        if shape[0] == "trace":
            _, n_steps, n_tracked, (wp, wm) = shape
            flags, props = _system(rng, trace_edges.pop(), trace_forms.pop())
            argv = ["trace", *flags, _flag("w-plus", wp), _flag("w-minus", wm),
                    _flag("steps", n_steps), _flag("tracked", n_tracked)]
            props += [("winding", f"{wp},{wm}"), ("steps", str(n_steps)),
                      ("ladder_length", str(n_tracked))]
        else:
            _, gm, gv, levels = shape
            # isospectral reads the defect as (xi, rho) only.
            flags, props = _system(rng, iso_edges.pop(), "angles")
            flags = [f for f in flags if not f.startswith(("--mu=", "--nu="))]
            argv = ["isospectral", *flags, "-n", str(levels),
                    _flag("grid-mu", gm), _flag("grid-nu", gv)]
            props += [("frames", str(2 + gm * gv)), ("ladder_length", str(levels))]
        ops.append(Op(tuple(argv), tuple([("command", argv[0]), *props])))
    return ops


@dataclass(frozen=True)
class Workload:
    """A named op generator and the smallest op of its kind, run as warm-up."""

    name: str
    warmup: tuple[str, ...]
    build: object

    def ops(self, seed: int, n: int = PASS_OPS) -> list[Op]:
        """The pass of ``n`` ops for this seed."""
        return self.build(random.Random(f"{self.name}:{seed}"), n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder", README_ARGV, _ladder),
        Workload("crosscheck", ("oracle-compare", "--xi=2.0", "--rho=0.9", "-n", "2", "--n-interior=64"),
                 _crosscheck),
        Workload("geometry", ("isospectral", "--xi=2.0", "--rho=0.9", "-n", "2", "--grid-mu=1", "--grid-nu=1"),
                 _geometry),
    )
}


def property_shares(ops: list[Op]) -> dict[str, dict[str, float]]:
    """Measured share of every input property value over ``ops``."""
    counts: dict[str, dict[str, int]] = {}
    for op in ops:
        for key, value in op.props:
            bucket = counts.setdefault(key, {})
            bucket[value] = bucket.get(value, 0) + 1
    return {
        key: {v: round(c / len(ops), 4) for v, c in sorted(bucket.items())}
        for key, bucket in sorted(counts.items())
    }
