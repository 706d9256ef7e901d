"""Tests for the two independent cross-check solvers: the determinant sweep
and the finite-difference discretization."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defectline import (
    BoundaryCondition,
    Channel,
    EigenSolverFailure,
    ScanExhausted,
    SolverError,
    UnitaryParams,
    channel_function,
    det_spectrum,
    fd_spectrum,
    params_to_matrix,
    solve_spectrum,
)
from defectline import oracles
from defectline.levels import KAPPA_CEILING, KIND_BOUND, KIND_ZERO, _brentq
from defectline.spectrum import solve_channel
from defectline.unitary import SIGMA1, SIGMA2, SIGMA3
import referee
from helpers import det_matrix

TWO_PI = 2.0 * math.pi


def _random_bc(rng, l=1.0, L0=1.0) -> BoundaryCondition:
    p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
    return BoundaryCondition(params_to_matrix(p), l, L0)


def _det(bc, k):
    return np.linalg.det(det_matrix(bc, k))


# ------------------------------------------------------------- det M itself


def test_det_matrix_rejects_zero_wavenumber():
    bc = BoundaryCondition(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        det_matrix(bc, 0.0)


def test_det_proportional_to_sin_squared_for_dirichlet():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    ks = np.linspace(0.3, 9.0, 40)
    ratios = np.array([_det(bc, k) / math.sin(k) ** 2 for k in ks])
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-10 * abs(ratios[0])


def test_det_proportional_to_k_cos_squared_for_neumann():
    bc = BoundaryCondition(np.eye(2, dtype=complex))
    ks = np.linspace(0.3, 9.0, 40)
    ratios = np.array([_det(bc, k) / (k * math.cos(k)) ** 2 for k in ks])
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-10 * abs(ratios[0])


def test_det_factorizes_into_channel_functions():
    # det M(k) = 4 e^{i(theta+ + theta-)/2} F(k; theta+) F(k; theta-),
    # including the constant phase, for full (mu, nu) matrices.
    rng = np.random.default_rng(67)
    for _ in range(15):
        p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
        bc = BoundaryCondition(params_to_matrix(p))
        phase = 4.0 * cmath.exp(0.5j * (p.theta_plus + p.theta_minus))
        cp, cm = Channel(p.theta_plus), Channel(p.theta_minus)
        for k in rng.uniform(0.2, 12.0, 6):
            expected = phase * float(channel_function(cp, k)) * float(channel_function(cm, k))
            assert abs(_det(bc, k) - expected) <= 1e-10 * (1.0 + abs(expected))


# -------------------------------------------------------------- det spectrum


def test_det_spectrum_root_quality_up_to_a_ceiling():
    # Every level below the ceiling, each positive one a zero of det M.
    rng = np.random.default_rng(71)
    bc = _random_bc(rng)
    ref = [lv for lv in solve_spectrum(bc, 16).levels if lv.kind != "positive" or lv.k_or_kappa <= 15.0]
    got = det_spectrum(bc, len(ref), k_max=15.0).levels
    with pytest.raises(ScanExhausted):
        det_spectrum(bc, len(ref) + 1, k_max=15.0)
    size = max(abs(_det(bc, k)) for k in np.linspace(0.1, 15.0, 200))
    roots = [lv.k_or_kappa for lv in got if lv.kind == "positive"]
    assert len(roots) > 0
    for r in roots:
        assert abs(_det(bc, r)) <= 1e-9 * size
    assert np.max(np.abs(np.array([lv.E for lv in ref]) - [lv.E for lv in got])) <= 1e-9


@pytest.mark.parametrize("k_max", [-1.0, math.nan, math.inf])
def test_det_spectrum_rejects_a_bad_ceiling(k_max):
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        det_spectrum(bc, 2, k_max)


def test_det_spectrum_matches_channel_solver():
    rng = np.random.default_rng(73)
    for _ in range(15):
        bc = _random_bc(rng)
        ref = [lv.E for lv in solve_spectrum(bc, 10).levels]
        got = det_spectrum(bc, 10).E
        assert len(got) == 10
        assert np.max(np.abs(np.array(ref) - got)) <= 1e-9


def test_det_spectrum_geometry_variants():
    rng = np.random.default_rng(79)
    for l, L0 in ((1.7, 0.4), (0.6, 2.2)):
        bc = _random_bc(rng, l, L0)
        ref = [lv.E for lv in solve_spectrum(bc, 8).levels]
        got = det_spectrum(bc, 8).E
        assert np.max(np.abs(np.array(ref) - got)) <= 1e-9


def test_det_spectrum_dirichlet_doubles():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    levels = det_spectrum(bc, 4).levels
    assert [lv.kind for lv in levels] == ["positive"] * 4
    assert abs(levels[0].E - math.pi ** 2) <= 1e-9
    assert abs(levels[2].E - 4 * math.pi ** 2) <= 1e-9
    assert levels[0].degenerate_with == (None, 1)
    assert levels[1].degenerate_with == (None, 0)
    assert all(lv.channel is None for lv in levels)


def test_det_spectrum_generic_position_doubles():
    # U = e^{i xi} I has every level doubly degenerate at generic k values:
    # each is a touch of g, at the vertex knot of its turn.
    for xi in (0.9, 2.37, 5.1):
        bc = BoundaryCondition(cmath.exp(1j * xi) * np.eye(2))
        ref = [lv.E for lv in solve_spectrum(bc, 8).levels]
        got = det_spectrum(bc, 8).levels
        assert np.max(np.abs(np.array(ref) - [lv.E for lv in got])) <= 1e-9
        assert all(lv.degenerate_with is not None for lv in got)


def test_det_spectrum_resolves_close_pairs():
    # Two simple roots ~1e-4 apart share one turn, one on each side of its
    # vertex knot; the solver must split them, not merge or drop them.
    base = UnitaryParams(math.pi / 2, 0.0)
    tweak = 2.0e-4
    p = UnitaryParams(base.xi + tweak / 2.0, tweak / 2.0, 0.7, 1.3)
    bc = BoundaryCondition(params_to_matrix(p))
    ref = [lv.E for lv in solve_spectrum(bc, 8).levels]
    got = det_spectrum(bc, 8).E
    diffs = np.diff(ref)
    assert np.min(diffs) < 2e-3  # the construction really makes tight pairs
    assert np.max(np.abs(np.array(ref) - got)) <= 1e-9


def test_det_spectrum_bound_and_zero_kinds():
    t = 3 * math.pi / 2 - 0.4
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(t, 0.0)))
    levels = det_spectrum(bc, 3).levels
    assert levels[0].kind == "bound" and levels[1].kind == "bound"
    assert levels[0].degenerate_with == (None, 1)
    ref = solve_spectrum(bc, 3).levels
    assert np.max(np.abs([a.E - b.E for a, b in zip(levels, ref)])) <= 1e-9

    t_star = 3 * math.pi / 2
    bc_z = BoundaryCondition(
        params_to_matrix(UnitaryParams((t_star + 0.7) / 2 % TWO_PI, (t_star - 0.7) / 2))
    )
    levels_z = det_spectrum(bc_z, 3).levels
    assert levels_z[0].kind == "zero" and levels_z[0].E == 0.0
    refs_z = solve_spectrum(bc_z, 3).levels
    assert np.max(np.abs([a.E - b.E for a, b in zip(levels_z, refs_z)])) <= 1e-9


def test_det_spectrum_double_zero_level():
    bc = BoundaryCondition(cmath.exp(1.5j * math.pi) * np.eye(2))
    levels = det_spectrum(bc, 4).levels
    assert [lv.kind for lv in levels[:2]] == ["zero", "zero"]
    assert levels[0].degenerate_with == (None, 1)
    ref = [lv.E for lv in solve_spectrum(bc, 4).levels]
    assert np.max(np.abs(np.array(ref) - [lv.E for lv in levels])) <= 1e-9


def test_det_spectrum_double_bound_level():
    bc = BoundaryCondition(cmath.exp(4.0j) * np.eye(2))
    levels = det_spectrum(bc, 4).levels
    assert [lv.kind for lv in levels[:2]] == ["bound", "bound"]
    ref = [lv.E for lv in solve_spectrum(bc, 4).levels]
    assert np.max(np.abs(np.array(ref) - [lv.E for lv in levels])) <= 1e-9


def test_det_spectrum_pauli_conjugation_invariance():
    rng = np.random.default_rng(83)
    bc = _random_bc(rng)
    ref = np.sort(det_spectrum(bc, 8).E)
    for sigma in (SIGMA1, SIGMA2, SIGMA3):
        bc2 = BoundaryCondition(sigma @ bc.u @ sigma, bc.l, bc.L0)
        got = np.sort(det_spectrum(bc2, 8).E)
        assert np.max(np.abs(ref - got)) <= 1e-9


def test_det_spectrum_scan_exhausted():
    rng = np.random.default_rng(89)
    bc = _random_bc(rng)
    with pytest.raises(ScanExhausted):
        det_spectrum(bc, 12, k_max=3.0)
    with pytest.raises(ValueError):
        det_spectrum(bc, 0)
    for k_max in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            det_spectrum(bc, 2, k_max=k_max)
    # A count that is no integer is rejected at entry: the walk stops only
    # when it holds n + 1 roots, so 2.5 would walk on without end.
    for n in (2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="integer"):
            det_spectrum(bc, n)
    assert det_spectrum(bc, 2.0).E.tobytes() == det_spectrum(bc, 2).E.tobytes()


def test_det_flags_do_not_depend_on_the_cut():
    # rho = 0: every level is one of a pair, the n-th too when its twin is
    # the (n + 1)-th.
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(2.0, 0.0)))
    assert all(lv.degenerate_with is not None for lv in det_spectrum(bc, 3).levels)
    rng = np.random.default_rng(97)
    for _ in range(5):
        bc = _random_bc(rng)
        deeper = det_spectrum(bc, 9).levels[:4]
        assert [lv.degenerate_with for lv in det_spectrum(bc, 4).levels] == [
            lv.degenerate_with for lv in deeper
        ]


def _det_vs_channel(bc, n):
    ref = np.array([lv.E for lv in solve_spectrum(bc, n).levels])
    got = det_spectrum(bc, n).E
    return np.max(np.abs(ref - got))


def test_det_spectrum_splits_pairs_whose_dip_misses_the_grid():
    # rho = 1.9e-5 puts a close pair on one turn from level 28 on.  A
    # bounded minimization of |g| landed just outside such a pair, and the
    # pair was dropped: 36 of 64 levels were wrong.
    p = UnitaryParams(xi=1.195, rho=1.9e-5, mu=0.4, nu=1.0)
    bc = BoundaryCondition(params_to_matrix(p), l=9.62, L0=2.8)
    assert _det_vs_channel(bc, 64) <= 1e-9


def test_det_spectrum_finds_every_level_of_a_generic_defect():
    # A generic defect whose levels come in close pairs; det once stopped at
    # 34 of 64 levels with ScanExhausted.
    p = UnitaryParams(
        xi=4.527684267381938, rho=0.046076242014224764, mu=1.185070963945692,
        nu=0.3434634178783089,
    )
    bc = BoundaryCondition(params_to_matrix(p), l=0.17850284783966383, L0=6.444296877824732)
    assert _det_vs_channel(bc, 64) <= 1e-9


def test_det_spectrum_ignores_rounding_dips_on_a_flat_projection():
    # U = I up to the rounding of its frame: on the bound side g is constant
    # but for its rounding, whose dips have no vertex and hold no root.
    p = UnitaryParams(xi=0.0, rho=0.0, mu=0.7949815694970668, nu=4.092772283024661)
    bc = BoundaryCondition(params_to_matrix(p), l=8.61553067899761, L0=4.20225032239046)
    assert _det_vs_channel(bc, 8) <= 1e-9


# Eigenphase half-differences: generic, within 1e-9...1e-2 of 0 or pi (close
# pairs, which one turn of det M holds together), and exactly 0 or pi (exact
# doubles).
_near = st.floats(-9.0, -2.0).map(lambda e: 10.0**e)
_rhos = st.one_of(
    st.floats(1e-2, math.pi - 1e-2),
    _near,
    _near.map(lambda d: -d),
    _near.map(lambda d: math.pi - d),
    st.sampled_from([0.0, math.pi]),
)
_sizes = st.floats(-0.5, 0.5).map(lambda e: 10.0**e)
# Offsets of an eigenphase from the threshold T = 0: none, or 1e-9...1e-3 to
# either side.
_near_threshold = st.floats(-9.0, -3.0).map(lambda e: 10.0**e)
_threshold_offsets = st.one_of(st.just(0.0), _near_threshold, _near_threshold.map(lambda d: -d))


@st.composite
def _gate_defects(draw):
    """A defect whose half-difference comes from _rhos, on a box with l and
    L0 in 10^(+-0.5); in one draw of two its plus eigenphase sits on the
    threshold T = 0 or near it, elsewhere it is generic.

    The kappa l = 50 floor is left out, and the gate does not loosen for
    it.  There |E| reaches 2e4, where the absolute 1e-9 gate asks for 5e-14
    relative: 1 of 2,000 floor draws missed it by 1.4e-9.  A bound root
    within rounding of the floor is also one that each solver, and the
    referee, may place on either side of it.
    """
    l, L0, rho = draw(_sizes), draw(_sizes), draw(_rhos)
    if draw(st.booleans()):
        theta_plus = 2.0 * math.atan2(L0, -l) + draw(_threshold_offsets)
    else:
        theta_plus = draw(st.floats(0.0, TWO_PI))
    p = UnitaryParams(theta_plus - rho, rho, draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, TWO_PI)))
    return BoundaryCondition(params_to_matrix(p), l, L0)


@given(_gate_defects())
def test_det_spectrum_matches_channel_solver_at_the_gate(bc):
    # A zero level is a root within 1e-9 of E = 0 to the referee.
    want = sorted(referee.bound_levels(bc) + referee.positive_levels(bc, 8))[:8]
    assert _matches_referee(det_spectrum(bc, 8).E, want)


def test_det_spectrum_splits_a_close_pair_next_to_a_zero_level():
    # The plus channel sits 1.2e-7 below the threshold and rho = 6.2e-9 puts
    # the minus channel's levels 8e-8 from the plus channel's.  det dropped
    # the bound level and reported the pair at E = 42.748 as one double root.
    p = UnitaryParams(xi=3.8554804765050585, rho=6.189447028523374e-09,
                      mu=2.6297070935138342, nu=5.435272103849228)
    bc = BoundaryCondition(params_to_matrix(p), l=0.6872546027135319, L0=1.8429118643281133)
    assert _det_vs_channel(bc, 4) <= 1e-9


_EDGE_MATRICES = [
    np.eye(2), -np.eye(2), np.diag([1.0, -1.0]), SIGMA1, cmath.exp(0.9j) * np.eye(2),
    params_to_matrix(UnitaryParams(0.0, 0.0, 0.7, 1.3)),
]


@pytest.mark.parametrize("l, L0", [(1.0, 1.0), (0.3, 7.0), (100.0, 100.0), (0.01, 0.01)])
def test_det_spectrum_keeps_every_double_root_and_root_on_a_knot(l, L0):
    # Scalar U makes every level a double root; diag(1, -1) and sigma1 put
    # roots exactly on kl = m pi and on the poles, where the closed-form end
    # knots lie.
    for u in _EDGE_MATRICES:
        bc = BoundaryCondition(np.asarray(u, dtype=complex), l, L0)
        for n in (64, 200):
            ref = np.array([lv.E for lv in solve_spectrum(bc, n).levels])
            got = det_spectrum(bc, n).E
            assert np.all(np.abs(ref - got) <= np.maximum(1e-9, 1e-14 * np.abs(ref)))


@st.composite
def _floor_defects(draw):
    """A defect whose plus channel has its bound level at kappa l = 50 f:
    f is 1 (on the floor) or within 20 % of it."""
    l, L0, rho = draw(_sizes), draw(_sizes), draw(_rhos)
    kappa = KAPPA_CEILING * draw(st.one_of(st.just(1.0), st.floats(0.8, 1.2))) / l
    theta_plus = 2.0 * (math.pi - math.atan(kappa * L0 / math.tanh(kappa * l)))
    p = UnitaryParams(theta_plus - rho, rho, draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, TWO_PI)))
    return BoundaryCondition(params_to_matrix(p), l, L0)


@given(
    st.one_of(_gate_defects(), _floor_defects()),
    st.integers(1, 40),
    st.one_of(st.none(), st.floats(0.5, 60.0)),
)
def test_det_spectrum_does_not_depend_on_how_far_it_walks(bc, n, reach):
    # det_spectrum refines only the lowest n + 1 positive roots; a deeper
    # call refines more, and a ceiling at kl = reach ends the walk early.
    # The first n levels are the same doubles whenever the walk reaches them.
    deeper = det_spectrum(bc, n + 20).levels
    assert det_spectrum(bc, n).levels == deeper[:n]
    if reach is None:
        return
    k_max = reach / bc.l
    below = [lv for lv in deeper if lv.kind != "positive" or lv.k_or_kappa <= k_max]
    if len(below) < n:
        with pytest.raises(ScanExhausted):
            det_spectrum(bc, n, k_max)
    else:
        capped = det_spectrum(bc, n, k_max).levels
        assert [(lv.E, lv.k_or_kappa, lv.kind) for lv in capped] == [
            (lv.E, lv.k_or_kappa, lv.kind) for lv in deeper[:n]
        ]


# Defects for the referee: l and L0 in 10^(+-0.5), and the plus eigenphase
# generic, within 1e-9...1e-3 of the threshold T = 0, or with its bound level
# at kappa l in 40...49.95 or 50.05...60, off the floor.  rho is generic,
# exactly 0 or pi, where every level is an exact double, or within
# 1e-9...1e-2 of 0 or pi, a close pair.
@st.composite
def _referee_defects(draw):
    l, L0 = draw(_sizes), draw(_sizes)
    rho = draw(_rhos)
    kind = draw(st.sampled_from(["generic", "threshold", "floor"]))
    if kind == "threshold":
        offset = draw(_near_threshold) * draw(st.sampled_from([-1.0, 1.0]))
        theta_plus = 2.0 * math.atan2(L0, -l) + offset
    elif kind == "floor":
        kappa = KAPPA_CEILING * draw(st.one_of(st.floats(0.8, 0.999), st.floats(1.001, 1.2))) / l
        theta_plus = 2.0 * (math.pi - math.atan(kappa * L0 / math.tanh(kappa * l)))
    else:
        theta_plus = draw(st.floats(0.0, TWO_PI))
    p = UnitaryParams(theta_plus - rho, rho, draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, TWO_PI)))
    return BoundaryCondition(params_to_matrix(p), l, L0)


def _det_bound_levels(bc):
    return [lv.E for lv in det_spectrum(bc, 3).levels if lv.kind == KIND_BOUND]


def _matches_referee(got, want):
    return len(got) == len(want) and all(abs(a - b) <= 1e-9 for a, b in zip(got, want))


@given(_referee_defects())
def test_det_bound_levels_match_the_referee(bc):
    assert _matches_referee(_det_bound_levels(bc), referee.bound_levels(bc))


def test_det_spectrum_of_a_defect_without_bound_levels_scans_no_bound_grid(monkeypatch):
    # g at the floor and at a knot below E = 0, if a direction has one
    # there: at most three evaluations of g below E = 0 decide.
    calls = []
    g = oracles._Projection.g

    def counting(proj, y):
        calls.append(y)
        return g(proj, y)

    monkeypatch.setattr(oracles._Projection, "g", counting)
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(2.2, 0.8, 0.7, 4.1)))
    assert "bound" not in solve_spectrum(bc, 6).kind
    assert _det_vs_channel(bc, 6) <= 1e-9
    assert len([y for y in calls if y < 0.0]) <= 3


def test_det_spectrum_of_a_wide_box_reports_no_zero_level():
    # U = I on a box 1e13 times wider than L0: T = L0 = 1, so neither
    # channel has a zero level, and both lowest levels lie at (pi / 2l)^2.
    # A zero-level test scaled by l + L0 once took them for two zero levels.
    bc = BoundaryCondition(np.eye(2, dtype=complex), l=1e13)
    levels = det_spectrum(bc, 2).levels
    assert [lv.kind for lv in levels] == ["positive", "positive"]
    assert referee.positive_levels(bc, 2) == [2.4674011002723395e-26] * 2
    assert [lv.E for lv in levels] == pytest.approx([2.4674011002723395e-26] * 2, rel=1e-12)


def test_det_spectrum_puts_a_level_just_above_the_threshold_off_zero():
    # The lowest level lies 2.0e-8 above E = 0, where g is not within its
    # rounding bound; an SVD zero-level count called it a zero level.
    p = UnitaryParams(1.8985251150561036, 1.3972803198436572, 0.9513912490863285, 2.4792817935229987)
    bc = BoundaryCondition(params_to_matrix(p), 0.0389184739120101, 0.5037366477867038)
    lowest = det_spectrum(bc, 1).levels[0]
    want = sorted(referee.bound_levels(bc) + referee.positive_levels(bc, 1))[0]
    assert lowest.kind == "positive"
    assert abs(lowest.E - want) <= 1e-9 and abs(want - 2.045917e-8) <= 1e-13


def _form_steps(node, scope=()) -> list[str]:
    # The function (as Class.method or outer.inner) of every w = conj(alpha)
    # - alpha t, the form's step, in node.
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _form_steps(child, (*scope, child.name))
            continue
        if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Sub)
                and isinstance(child.left, ast.Call) and getattr(child.left.func, "attr", None) == "conjugate"
                and isinstance(child.right, ast.BinOp) and isinstance(child.right.op, ast.Mult)):
            found.append(".".join(scope))
        found += _form_steps(child, scope)
    return found


def test_det_and_fd_share_one_form_and_one_turn_rule():
    # One class sets the form's coefficients and owns its direction rule,
    # one function returns turn brackets, and one walk calls it: _roots,
    # which det and FD both call.  The form's arithmetic exists in the form's
    # own call and in one inline kernel per solver, the g Brent's method
    # calls; each read calls the form.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    forms, turns, callers, methods = [], [], {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods[node.name] = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if any(isinstance(t, ast.Attribute) and t.attr in ("a2", "a1", "a0")
                   for a in ast.walk(node) if isinstance(a, ast.Assign) for t in a.targets):
                forms.append(node.name)
        elif isinstance(node, ast.FunctionDef):
            returns = ast.unparse(node.returns) if node.returns else ""
            if "turn" in node.name or "tuple[float, float, float, float]" in returns:
                turns.append(node.name)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            callers[node.name] = {
                getattr(c.func, "id", None) for c in ast.walk(node) if isinstance(c, ast.Call)}
    assert forms == ["_Form"]
    assert "directions" in methods["_Form"]
    assert not any("directions" in name for name in callers)
    assert turns == ["_turn"]
    assert [name for name, called in callers.items() if "_turn" in called] == ["_roots"]
    assert "_roots" in callers["det_spectrum"] and "_roots" in callers["fd_spectrum"]
    assert sorted(_form_steps(tree)) == ["_Form.__call__", "_Projection.g", "fd_spectrum.g"]


def test_det_and_fd_place_every_knot_by_one_rule():
    # Every knot is a closed-form point, the solver's own Newton step or the
    # walk's one Brent solve on c sigma - s tau: _brentq is named only by
    # _knots, which places knots, and _roots, which refines levels.  Det's
    # Newton step declines the floor piece (j = -1), branch 0 (j = 0) and a
    # direction of c = 0, and FD's declines the piece below E = 0.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    users = sorted({node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    for name in ast.walk(node) if isinstance(name, ast.Name) and name.id == "_brentq"})
    assert users == ["_knots", "_roots"]
    for l in (0.3, 1.0, 7.0):
        for c, s in ((0.6, 0.8), (1.0, 0.0), (0.6, -0.8), (1e-12, 1.0)):
            assert oracles._knot(l, -1, c, s) is None and oracles._knot(l, 0, c, s) is None
            assert oracles._fd_knot(64, -1, c, s) is None
        for j in range(-1, 6):
            assert oracles._knot(l, j, 0.0, 1.0) is None and oracles._knot(l, j, 0.0, -1.0) is None


_angles = st.floats(0.0, TWO_PI)


@given(
    st.tuples(_angles, _angles, _angles, _angles),
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    st.floats(-100.0, 100.0),
    st.floats(-100.0, 100.0),
)
def test_the_form_is_the_phased_determinant_and_its_quadratic(angles, L0, sigma, tau):
    # g = -Re(det(alpha U - conj(alpha) I) conj(sqrt(det U))) with alpha =
    # sigma + i L0 tau, and g = a2 sigma^2 + a1 sigma tau + a0 tau^2.  Each
    # side is a sum of a few products of entries up to 2 |alpha|, so each
    # rounds by a few tens of eps |alpha|^2; 128 eps |alpha|^2 holds both.
    u = params_to_matrix(UnitaryParams(*angles))
    form = oracles._Form(u, L0, abs(sigma))
    alpha = complex(sigma, L0 * tau)
    alpha_, w, z, g = form(sigma, tau)
    assert alpha_ == alpha
    det = np.linalg.det(alpha * u - alpha.conjugate() * np.eye(2))
    want = -(det * np.conj(np.sqrt(np.linalg.det(u)))).real
    scale = 128.0 * np.finfo(float).eps * abs(alpha) ** 2
    assert abs(g - want) <= scale
    assert abs(g - (form.a2 * sigma * sigma + form.a1 * sigma * tau + form.a0 * tau * tau)) <= scale
    assert form.end_sign == (1.0 if form.a0 + form.a2 >= 0.0 else -1.0)


@pytest.mark.parametrize("L0, sigma_max", [(1e154, 1.0), (1.0, 1e154), (math.inf, 1.0)])
def test_a_form_that_overflows_a_double_is_a_solver_error(L0, sigma_max):
    with pytest.raises(SolverError, match="overflows a double"):
        oracles._Form(np.eye(2, dtype=complex), L0, sigma_max)


def _fd_read_reference(form, n: int, e: float) -> float:
    # FD's read as the form's own call on _fd_wave gives it, under FD's
    # rounding-bound rule (fd_spectrum's read).
    eps = np.finfo(float).eps
    alpha, w, z, value = form(*oracles._fd_wave(n, e))
    x, c = 1.0 + math.sqrt(abs(e)), 0.5 * abs(e) / (n * n)
    a, b, t, d4 = abs(alpha), abs(w), abs(form.t), abs(form.d4)
    d_tau = 4.0 * eps * x * (1.0 + c + c * c * n)
    da = 2.0 * eps * x + form.L0 * d_tau
    dw = da * (1.0 + t) + eps * a * (1.0 + 3.0 * t)
    bound = 2.0 * b * dw + dw * dw + 2.0 * a * d4 * da + eps * (
        2.0 * b * b + 3.0 * a * a * d4 + 2.0 * abs(z))
    return 0.0 if abs(value) <= bound else value


def _det_read_reference(proj, y: float) -> float:
    # det's read as the form's own call on _wave gives it, under det's
    # rounding-bound rule (_Projection.read).
    eps = np.finfo(float).eps
    tau_err = 1.0 + y * proj.l if y >= 0.0 else 0.0
    alpha, w, z, g = oracles._Form.__call__(proj, *proj._wave(y))
    a, b = abs(alpha), abs(w)
    ad, dw = 2.0 * a * abs(proj.d4), a * (1.0 + 3.0 * abs(proj.t))
    bound = eps * (
        proj.l * (2.0 * b * abs(1.0 - proj.t) + ad)
        + tau_err * proj.L0 * (2.0 * b * abs(1.0 + proj.t) + ad)
        + 2.0 * b * dw + 2.0 * b * b + 3.0 * a * ad + 2.0 * abs(z) + eps * dw * dw
    )
    return 0.0 if abs(g) <= bound else g


@given(
    st.tuples(_angles, _angles, _angles, _angles),
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    st.floats(-60.0, 300.0),
    st.floats(-3000.0, 3000.0),
    st.sampled_from([64, 128, 256, 4096]),
    st.integers(0, 2**32 - 1),
)
def test_the_inline_kernels_are_the_form_bit_for_bit(angles, l, L0, x, e, n_int, seed):
    # det's g and FD's g, the functions Brent's method calls, evaluate their
    # wave and the form inline; each must return the double the form's own
    # call gives, so the copies cannot drift from _Form.  Each read, the
    # wave, the form's call and a rounding bound, must match its reference.
    # Each runs at the drawn point and at 32 more from the seed, x = y l and
    # e across E = 0.
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(*angles)), l, L0)
    rng = np.random.default_rng(seed)
    proj = oracles._Projection(bc)
    # Next to a root g lies near its rounding bound, so there the bound
    # decides what read returns.
    near = 2.0 ** np.arange(-52.0, -20.0, 2.0)
    spec = det_spectrum(bc, 3)
    roots = np.copysign(spec.k_or_kappa, spec.E)
    for y in [x / l, *rng.uniform(-60.0, 300.0, 32) / l, *np.outer(roots, 1.0 + near).ravel(),
              *np.outer(roots, 1.0 - near).ravel()]:
        y = float(y)
        assert proj.g(y).hex() == oracles._Form.__call__(proj, *proj._wave(y))[3].hex()
        assert proj.read(y).hex() == _det_read_reference(proj, y).hex()
    captured, roots_, knots_ = {}, oracles._roots, oracles._knots

    def capture_g(*args):
        captured["g"] = args[4]
        return roots_(*args)

    def capture_read(*args):
        captured["read"] = args[2]
        return knots_(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_roots", capture_g)
        mp.setattr(oracles, "_knots", capture_read)
        roots = fd_spectrum(bc, 3, n_int).E * l * l
    form = oracles._Form(bc.u, bc.L0 / bc.l, 1.0)
    for e in [e, *rng.uniform(-3000.0, 3000.0, 32), *np.outer(roots, 1.0 + near).ravel(),
              *np.outer(roots, 1.0 - near).ravel()]:
        e = float(e)
        assert captured["g"](e).hex() == form(*oracles._fd_wave(n_int, e))[3].hex()
        assert captured["read"](e).hex() == _fd_read_reference(form, n_int, e).hex()


def test_det_bound_levels_at_the_threshold_and_the_floor():
    # T = 0 puts a root of Q on the window's end s = l, and a bound root on
    # the kappa l = 50 floor one on its end s = l tanh(50) / 50, where g lies
    # within rounding of 0.  At T = 0 det reports the zero level as the
    # channel solver does; at the floor its bound levels are the referee's.
    rng = np.random.default_rng(131)
    for l, L0 in ((1.0, 1.0), (0.3, 2.0), (5.0, 0.2)):
        kappa = KAPPA_CEILING / l
        for at_threshold, theta_plus in (
            (True, 2.0 * math.atan2(L0, -l)),
            (False, 2.0 * (math.pi - math.atan(kappa * L0 / math.tanh(kappa * l)))),
        ):
            for rho, mu, nu in rng.uniform(0.05, 3.0, (5, 3)):
                p = UnitaryParams(theta_plus - rho, rho, mu, nu)
                bc = BoundaryCondition(params_to_matrix(p), l, L0)
                if at_threshold:
                    assert KIND_ZERO in [lv.kind for lv in det_spectrum(bc, 3).levels]
                    assert _det_vs_channel(bc, 3) <= 1e-9
                else:
                    assert _matches_referee(_det_bound_levels(bc), referee.bound_levels(bc))
    # A bound root within rounding of the floor: g there takes its sign from
    # rational arithmetic, and det holds the referee's one level, not the
    # floor itself as well.
    p = UnitaryParams(xi=3.182587321536094, rho=-0.001, mu=1.5703728657700096, nu=0.0)
    bc = BoundaryCondition(params_to_matrix(p))
    assert _matches_referee(_det_bound_levels(bc), referee.bound_levels(bc))


def test_det_counts_an_exact_zero_at_the_vertex_as_a_root():
    # rho = pi - 1.1e-9 puts a close pair across the kappa l = 50 floor, and
    # Q's vertex just inside it.  g is -0.72 at E = 0, exactly -0.0 at the
    # vertex and +8e-20 at the floor, so no piece changes sign, but the
    # referee holds one bound level, 2.3e-8 (relative) above the floor.  A
    # pair this close is beyond det's resolution, so only the count is held.
    u = np.array([
        [-0.9798106674661619 - 0.1999276267040504j, -3.859839078505539e-10 + 8.34001459912591e-10j],
        [2.838036559071314e-11 + 9.185513196828054e-10j, -0.979810667727169 - 0.19992762542490025j],
    ])
    bc = BoundaryCondition(u, 0.43630195384856546, 0.08641079618615904)
    assert len(_det_bound_levels(bc)) == len(referee.bound_levels(bc)) == 1


def test_det_spectrum_refines_only_the_roots_it_reads(monkeypatch):
    # Generic defects have no double root and no zero-energy level, so each
    # refinement of g, in x or in t beside a vertex, is one root.  Only the
    # n + 1 levels that det_spectrum reads are refined, bound roots
    # included, even where a turn holds one root past them.  The knot
    # solves refine no root and are left out.
    calls = []

    def counting(f, *args):
        calls.append(f.__name__)
        return _brentq(f, *args)

    monkeypatch.setattr(oracles, "_brentq", counting)
    rng = np.random.default_rng(113)
    for n in (1, 4, 6, 8, 20):
        for _ in range(5):
            p = UnitaryParams(rng.uniform(0.0, TWO_PI), rng.uniform(0.3, math.pi - 0.3),
                              rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI))
            calls.clear()
            det_spectrum(BoundaryCondition(params_to_matrix(p)), n)
            assert len(calls) - calls.count("knot_function") == n + 1


# ------------------------------------------------------------------ FD solver


def test_fd_anchor_energies():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    fd = fd_spectrum(bc, 2, 256)
    assert abs(fd.E[0] - math.pi ** 2) <= 1e-3
    assert abs(fd.E[1] - math.pi ** 2) <= 1e-3
    assert fd.h == 1.0 / 256 and fd.n_interior == 256

    bc = BoundaryCondition(np.eye(2, dtype=complex))
    fd = fd_spectrum(bc, 1, 256)
    assert abs(fd.E[0] - (math.pi / 2) ** 2) <= 1e-3


def test_fd_matches_det_solver_at_fine_resolution():
    rng = np.random.default_rng(97)
    bc = _random_bc(rng)
    ref = det_spectrum(bc, 6).E
    fd = fd_spectrum(bc, 6, 512)
    rel = [abs(a - b) / (1.0 + abs(b)) for a, b in zip(fd.E, ref)]
    assert max(rel) <= 5e-3


def test_fd_first_order_convergence_or_better():
    rng = np.random.default_rng(101)
    bc = _random_bc(rng)
    ref = det_spectrum(bc, 4).E
    errs = []
    for n_int in (64, 128, 256, 512):
        fd = fd_spectrum(bc, 4, n_int)
        errs.append(np.max(np.abs((fd.E - ref) / (1.0 + np.abs(ref)))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.0
    assert errs[-1] <= 5e-3


def test_fd_matches_det_where_the_junction_block_is_singular():
    # The junction block J = (U - I) + (3 i L0 / 2h)(U + I) is singular when
    # an eigenphase hits -2 atan(3 L0 / (2h)): that channel's level of the
    # eliminated operator lies at infinity.  Build exactly that defect and
    # check the other levels still reproduce the reference spectrum.
    n_int = 128
    h = 1.0 / n_int
    theta_sing = (-2.0 * math.atan(3.0 / (2.0 * h))) % TWO_PI
    u = np.diag([cmath.exp(1j * theta_sing), cmath.exp(0.7j)])
    bc = BoundaryCondition(u)
    j_block = (u - np.eye(2)) + (3j / (2.0 * h)) * (u + np.eye(2))
    assert np.linalg.cond(j_block) > 1e10  # really singular
    fd = fd_spectrum(bc, 5, n_int)
    ref = det_spectrum(bc, 5).E
    rel = [abs(a - b) / (1.0 + abs(b)) for a, b in zip(fd.E, ref)]
    assert max(rel) <= 5e-3


def test_fd_bound_state_energy():
    t = 3 * math.pi / 2 - 0.4
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(t, 0.0)))
    fd = fd_spectrum(bc, 1, 512)
    ref = solve_spectrum(bc, 1).levels[0].E
    assert ref < 0.0
    assert abs(fd.E[0] - ref) / (1.0 + abs(ref)) <= 5e-3


def test_fd_validation_and_failure():
    bc = BoundaryCondition(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        fd_spectrum(bc, 1, 32)
    with pytest.raises(ValueError):
        fd_spectrum(bc, 0)
    for n, n_int in ((2.5, 64), (math.nan, 64), (math.inf, 64),
                     (4, 100.5), (4, math.nan), (4, math.inf)):
        with pytest.raises(ValueError, match="integer"):
            fd_spectrum(bc, n, n_int)
    assert fd_spectrum(bc, 2.0, 64.0).E.tobytes() == fd_spectrum(bc, 2, 64).E.tobytes()
    with pytest.raises(EigenSolverFailure):
        fd_spectrum(bc, 200, 64)  # only 126 interior unknowns exist, so only 126 levels
    with pytest.raises(SolverError):
        fd_spectrum(BoundaryCondition(np.eye(2, dtype=complex), l=1e-300), 2, 64)  # 1/h^2


def test_fd_levels_sorted():
    rng = np.random.default_rng(103)
    bc = _random_bc(rng)
    fd = fd_spectrum(bc, 8, 128)
    assert list(fd.E) == sorted(fd.E)


def test_fd_spectrum_refines_only_the_roots_it_reads(monkeypatch):
    # FD's twin of test_det_spectrum_refines_only_the_roots_it_reads: on
    # generic defects each refinement of g is one root, and FD reads n.
    # Its knots above E = 0 are piece ends or Newton's, with no Brent
    # fallback on these defects; below E = 0 Brent's method places them, 10
    # solves over all 25 (Brent placed all 220 knots before Newton's method).
    calls = []

    def counting(f, *args):
        calls.append((f.__name__, args[1]))
        return _brentq(f, *args)

    monkeypatch.setattr(oracles, "_brentq", counting)
    rng = np.random.default_rng(113)
    knot_solves = 0
    for n in (1, 4, 6, 8, 20):
        for _ in range(5):
            p = UnitaryParams(rng.uniform(0.0, TWO_PI), rng.uniform(0.3, math.pi - 0.3),
                              rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI))
            calls.clear()
            fd_spectrum(BoundaryCondition(params_to_matrix(p)), n, 128)
            knots = [hi for name, hi in calls if name == "knot_function"]
            assert len(calls) - len(knots) == n
            assert all(hi <= 0.0 for hi in knots)
            knot_solves += len(knots)
    assert knot_solves == 10


def test_det_and_fd_refine_a_root_in_few_evaluations_of_g(monkeypatch):
    # Every bracket that ends at a turn's vertex, where q is stationary, is
    # refined in t = ((x - v) / (far - v))^2, in which g is nearly linear
    # there: on generic defects and on close pairs, each solver takes at
    # most 9 evaluations of its raw g per refined root.  Brent's method in
    # x crept from the vertex end, in about 14 and 32.
    counts = {"g": 0, "roots": 0}
    roots_ = oracles._roots

    def counting_roots(knots, start, end_sign, g0, g, *rest):
        def counted(x):
            counts["g"] += 1
            return g(x)
        return roots_(knots, start, end_sign, g0, counted, *rest)

    def counting_brentq(f, *args):
        counts["roots"] += f.__name__ != "knot_function"
        return _brentq(f, *args)

    monkeypatch.setattr(oracles, "_roots", counting_roots)
    monkeypatch.setattr(oracles, "_brentq", counting_brentq)
    rng = np.random.default_rng(41)
    for near_pair in (False, True):
        for solve in (lambda bc: det_spectrum(bc, 6), lambda bc: fd_spectrum(bc, 6, 128)):
            counts.update(g=0, roots=0)
            for _ in range(20):
                xi, rho, mu, nu = rng.uniform(0.0, TWO_PI, 4)
                if near_pair:
                    delta = 10.0 ** rng.uniform(-9.0, -3.0)
                    rho = rng.choice((delta, math.pi - delta))
                l, L0 = 10.0 ** rng.uniform(-2.0, 2.0, 2)
                solve(BoundaryCondition(params_to_matrix(UnitaryParams(xi, rho, mu, nu)), l, L0))
            assert counts["roots"] >= 100 and counts["g"] <= 9 * counts["roots"]


def test_det_levels_scale_exactly_on_boxes_scaled_by_powers_of_two():
    # E(s l, s L0) = E(l, L0) / s^2, and for s a power of 2 the scaled box
    # is exact.  g then scales by s^2 exactly, and beside a vertex Brent's
    # method stops within a few ulps of the root, so det's levels times l^2
    # hold the l = 1 levels to 8 eps (an absolute stop in x missed them by
    # up to 14 % at l = 2^66).
    u = params_to_matrix(UnitaryParams(2.0, 0.9))
    want = det_spectrum(BoundaryCondition(u), 3).E
    for j in (-40, 40, 66):
        l = 2.0 ** j
        got = det_spectrum(BoundaryCondition(u, l, l), 3).E * (l * l)
        assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * want)


def _edge_bc(rng, edge: str) -> BoundaryCondition:
    """A random defect on a box of random size, in one edge region."""
    l, L0 = 10.0 ** rng.uniform(-2.0, 2.0, 2)
    a, b = rng.uniform(0.0, TWO_PI, 2)
    if edge == "theta0":
        a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -2.0)
    elif edge == "thetapi":
        a = math.pi + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -2.0)
    elif edge == "threshold":  # T = l sin(a/2) + L0 cos(a/2) = 0
        a = 2.0 * math.atan2(-L0, l)
    elif edge == "floor":  # a bound level near kappa l = KAPPA_CEILING
        kappa = KAPPA_CEILING * rng.uniform(0.8, 1.2) / l
        a = 2.0 * (math.pi - math.atan(kappa * L0 / math.tanh(kappa * l)))
    elif edge == "degenerate":
        b = a
    p = UnitaryParams(0.5 * (a + b), 0.5 * (a - b), rng.uniform(0.0, math.pi), rng.uniform(0.0, TWO_PI))
    return BoundaryCondition(params_to_matrix(p), l, L0)


def _fd_matches_referee(bc, n_int, n, gate=1e-6) -> None:
    """Check fd_spectrum against the 50-digit roots of its own secular equation."""
    ref = np.array(referee.fd_levels(bc, n, n_int))
    got = fd_spectrum(bc, n, n_int).E
    assert got.size == ref.size == n
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= gate


def test_fd_matches_the_referee_on_edge_defects():
    # The referee's levels are the eigenvalues of the eliminated operator
    # (test_fd_referee_levels_are_the_eigenvalues_of_the_assembled_operator),
    # to 50 digits rather than through a dense solve of a non-normal matrix.
    # The walk holds them to 1e-12 (worst 5e-14 here), and next to the floor
    # to 1e-11 (1.6e-12): Brent's method refines on the raw g, which stops
    # where the root is, not where g first reads 0 (7.3e-11 then).  At the
    # threshold conditioning, not the walk, sets the miss (up to 2.7e-9).
    rng = np.random.default_rng(107)
    edges = ("generic", "theta0", "thetapi", "threshold", "floor", "degenerate")
    for n_int, count in ((64, 86), (128, 12), (256, 4)):
        for i in range(count):
            edge = edges[i % len(edges)]
            gate = {"threshold": 1e-6, "floor": 1e-11}.get(edge, 1e-12)
            _fd_matches_referee(_edge_bc(rng, edge), n_int, 4 + i % 5, gate)


def test_fd_refines_a_deep_bound_level_to_the_referee():
    # A bound level at E l^2 = -2214, where g reads 0 within 4e-9 (relative)
    # of the root: Brent's method on the read g stopped where it first read
    # 0, 1.0e-9 off.  On the raw g it stops at the root (1.4e-13 off).
    p = UnitaryParams(2.6271408093536386, 0.51484319036078396, 2.9868439043405575, 2.6428766341319583)
    bc = BoundaryCondition(params_to_matrix(p), 0.27886100680564596, 34.544577252725325)
    want = referee.fd_levels(bc, 5, 64)[0]
    assert want == pytest.approx(-28466.4504567746, rel=1e-15)
    assert abs(fd_spectrum(bc, 5, 64).E[0] - want) <= 1e-12 * (1.0 + abs(want))


def _fd_matrix(bc, n_int) -> np.ndarray:
    """The FD operator with the junction values eliminated, from the scheme itself.

    The unknowns are the nodes x = -l + h ... -h and h ... l - h.  Each row is
    the 3-point stencil (-phi_left + 2 phi - phi_right) / h^2, with phi = 0
    at the walls and the junction values z = (phi(0+), phi(0-)) next to the
    defect.  The junction rows (U - I) z + i L0 (U + I) z' = 0 take
    z' = (-phi'(0+), phi'(0-)) as the one-sided second-order differences
    (3 z - 4 phi(+-h) + phi(+-2h)) / (2h), and give z in terms of the nodes.
    """
    h = bc.l / n_int
    nw = n_int - 1
    eye = np.eye(2)
    ham = (np.diag(np.full(2 * nw, 2.0)) - np.diag(np.ones(2 * nw - 1), 1)
           - np.diag(np.ones(2 * nw - 1), -1)).astype(complex) / h ** 2
    ham[nw - 1, nw] = ham[nw, nw - 1] = 0.0  # the halves meet only through z
    j_block = (bc.u - eye) + (3j * bc.L0 / (2.0 * h)) * (bc.u + eye)
    d_nodes = np.zeros((2, 2 * nw))  # (z' - 3 z / (2h)) on the nodes
    d_nodes[0, nw], d_nodes[0, nw + 1] = -4.0 / (2.0 * h), 1.0 / (2.0 * h)
    d_nodes[1, nw - 1], d_nodes[1, nw - 2] = -4.0 / (2.0 * h), 1.0 / (2.0 * h)
    z = -np.linalg.solve(j_block, 1j * bc.L0 * (bc.u + eye) @ d_nodes)
    ham[nw] -= z[0] / h ** 2  # x = h is next to phi(0+)
    ham[nw - 1] -= z[1] / h ** 2  # x = -h is next to phi(0-)
    return ham


def test_fd_referee_levels_are_the_eigenvalues_of_the_assembled_operator():
    rng = np.random.default_rng(113)
    for _ in range(10):
        l, L0 = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        bc = _random_bc(rng, l, L0)
        ev = np.linalg.eigvals(_fd_matrix(bc, 64))
        real = np.sort(ev[np.abs(ev.imag) <= 1e-6 * (1.0 + np.abs(ev.real))].real)
        want = real[real > -((KAPPA_CEILING / l) ** 2)][:8]
        got = np.array(referee.fd_levels(bc, 8, 64))
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-9


def test_fd_levels_do_not_depend_on_the_level_count():
    rng = np.random.default_rng(127)
    for edge in ("generic", "degenerate", "threshold", "floor"):
        bc = _edge_bc(rng, edge)
        levels = fd_spectrum(bc, 12, 64).E.tolist()
        for k in (1, 3, 4, 7):
            assert fd_spectrum(bc, k, 64).E.tolist() == levels[:k]


@pytest.mark.parametrize("n_int", [64, 4096])
@pytest.mark.parametrize(
    "u",
    [np.diag([-1.0 + 0j, cmath.exp(0.7j)]), cmath.exp(0.9j) * np.eye(2)],
    ids=["theta-pi-channel", "scalar"],
)
def test_fd_matches_the_referee_where_roots_sit_on_piece_ends_or_touch(u, n_int):
    # A theta = pi channel puts a root exactly at ql = m pi, where sin(ql)
    # vanishes; a scalar U makes every level a double root.
    bc = BoundaryCondition(u, 1.0, 0.7)
    _fd_matches_referee(bc, n_int, 20)


def test_fd_touches_are_exact_double_levels():
    # Every level of a scalar U is a double root, at a vertex knot where g
    # lies within its rounding bound: it is reported as one double, twice.
    for phase in np.linspace(0.05, 6.2, 40):
        for l, L0 in ((1.0, 0.7), (0.3, 5.0), (20.0, 0.1)):
            for n_int in (64, 4096):
                bc = BoundaryCondition(cmath.exp(1j * phase) * np.eye(2), l, L0)
                levels = fd_spectrum(bc, 20, n_int).E.tolist()
                assert levels[0::2] == levels[1::2]


def test_fd_threshold_level_under_a_deep_floor():
    # The floor lies twelve decades below a level within 1e-10 of E = 0.
    # On that bracket Brent's method needs values within g's rounding bound
    # to count as zeros, or it crawls past its iteration cap.
    p = UnitaryParams(-0.6948944537940503, -2.41917296355872, 0.7929310989208525, 1.8568613531152385)
    bc = BoundaryCondition(params_to_matrix(p), 0.0002805719181328048, 0.020378871928222683)
    _fd_matches_referee(bc, 1024, 9)


def test_fd_levels_scale_with_the_box():
    # In units of l the scheme depends only on n_interior and L0 / l, so
    # E l^2 is one set of numbers from a box of 1e-60 to one of 1e60.
    u = params_to_matrix(UnitaryParams(4.0, 1.7, 0.26, 0.1))
    unit = fd_spectrum(BoundaryCondition(u, 1.0, 0.5), 6, 256).E
    for l in (1e-60, 1e-20, 1e20, 1e60):
        got = fd_spectrum(BoundaryCondition(u, l, 0.5 * l), 6, 256).E * l * l
        assert np.max(np.abs(got - unit) / np.abs(unit)) <= 1e-13


def test_fd_repeated_calls_give_identical_doubles():
    rng = np.random.default_rng(109)
    for edge in ("generic", "degenerate", "floor"):
        bc = _edge_bc(rng, edge)
        assert fd_spectrum(bc, 8, 128).E.tolist() == fd_spectrum(bc, 8, 128).E.tolist()


# At 64 cells an eigenphase theta with tan(theta/2) between -3 L0/(2h) and
# -L0/h gives the junction coupling block of the eliminated operator a
# negative eigenvalue, so that operator is not similar to a symmetric one:
# theta_plus = 3.1676 at l = L0 = 1.
_NOT_POSITIVE_DEFINITE = BoundaryCondition(
    params_to_matrix(UnitaryParams(0.5 * (3.1676 + 2.0), 0.5 * (3.1676 - 2.0)))
)


def test_fd_matches_the_channel_solver_where_the_coupling_block_is_indefinite():
    bc = _NOT_POSITIVE_DEFINITE
    ref = solve_spectrum(bc, 4).E
    got = fd_spectrum(bc, 4, 64).E
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 5e-3


_ANGLE = st.floats(0.0, TWO_PI, exclude_max=True)
_LENGTH = st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x)


@given(_ANGLE, _ANGLE, _ANGLE, _ANGLE, _LENGTH, _LENGTH)
def test_fd_matches_the_referee_everywhere(xi, rho, mu, nu, l, L0):
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi, rho, mu, nu)), l, L0)
    _fd_matches_referee(bc, 64, 6)
