"""Tests for the frame-conjugation and parity isospectral families."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from defectline import (
    BoundaryCondition,
    IsoReport,
    SphereGrid,
    UnitaryParams,
    check_isospectral,
    det_spectrum,
    isospectral_family,
    params_to_matrix,
    parity_family,
)
from defectline import isospectral, oracles
from defectline.levels import KAPPA_CEILING

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------- grids


def test_default_grid_size_and_pole_dedup():
    grid = SphereGrid.default()
    assert len(grid) == 66  # 2 poles + 8 x 8 interior
    pts = list(grid.points())
    assert len(pts) == 66
    assert pts[0] == (0.0, 0.0) and pts[-1] == (math.pi, 0.0)
    # each pole appears exactly once, whatever nu resolution was asked for
    assert sum(1 for m, _ in pts if m == 0.0) == 1
    assert sum(1 for m, _ in pts if m == math.pi) == 1
    assert len(set(pts)) == len(pts)


def test_grid_validation():
    with pytest.raises(ValueError):
        SphereGrid(mu_points=(0.0, 1.0), nu_points=(0.0,))  # missing pi pole
    with pytest.raises(ValueError):
        SphereGrid(mu_points=(0.5, math.pi), nu_points=(0.0,))  # missing 0
    with pytest.raises(ValueError):
        SphereGrid(mu_points=(0.0, math.pi), nu_points=(TWO_PI,))  # nu range
    with pytest.raises(ValueError):
        SphereGrid(mu_points=(0.0, 4.0), nu_points=(0.0,))  # mu range
    with pytest.raises(ValueError):
        SphereGrid(mu_points=(), nu_points=(0.0,))
    with pytest.raises(ValueError):
        SphereGrid.default(0, 4)


def test_default_grid_sizes_take_integers_only():
    # 2.5, NaN and inf raised TypeError from numpy; each size is an integer
    # of at least 1, or a ValueError that names it.
    for value in (2.5, math.nan, math.inf, 0):
        with pytest.raises(ValueError, match="^n_mu_interior must be an integer of at least 1, "):
            SphereGrid.default(value, 4)
        with pytest.raises(ValueError, match="^n_nu must be an integer of at least 1, "):
            SphereGrid.default(4, value)
    assert SphereGrid.default(2.0, 3.0) == SphereGrid.default(2, 3)


# ----------------------------------------------------------------- families


def test_family_preserves_trace_and_det():
    grid = SphereGrid.default(4, 4)
    xi, rho = 2.0, 0.9
    base = params_to_matrix(UnitaryParams(xi=xi, rho=rho))
    members = isospectral_family((xi, rho), grid)
    assert len(members) == len(grid)
    tr, dt = np.trace(base), np.linalg.det(base)
    for m in members:
        assert abs(np.trace(m) - tr) <= 1e-12
        assert abs(np.linalg.det(m) - dt) <= 1e-12
        ev = np.sort_complex(np.linalg.eigvals(m))
        assert np.max(np.abs(ev - np.sort_complex(np.linalg.eigvals(base)))) <= 1e-10


def test_family_collapses_when_d_is_scalar():
    grid = SphereGrid.default(3, 5)
    members = isospectral_family((1.3, 0.0), grid)
    for m in members:
        assert np.max(np.abs(m - members[0])) <= 1e-12


def test_family_antipode_swaps_eigenphases():
    xi, rho = 1.1, 0.6
    grid = SphereGrid(mu_points=(0.0, math.pi), nu_points=(0.0,))
    north, south = isospectral_family((xi, rho), grid)
    d = np.diag(np.exp(1j * np.array([xi + rho, xi - rho])))
    assert np.max(np.abs(north - d)) <= 1e-12
    assert np.max(np.abs(south - d[::-1, ::-1])) <= 1e-12


# -------------------------------------------------------------------- checks


def test_check_isospectral_determinant_solver():
    report = check_isospectral((2.0, 0.9), SphereGrid.default(3, 4), 6)
    assert report.solver_used == "determinant"
    assert report.n_levels_checked == 6
    assert report.max_level_deviation <= 1e-9
    assert report.base_params == UnitaryParams(xi=2.0, rho=0.9)


def test_check_isospectral_random_d_params():
    rng = np.random.default_rng(109)
    grid = SphereGrid.default(2, 3)
    for _ in range(4):
        xi = float(rng.uniform(0.0, TWO_PI))
        rho = float(rng.uniform(0.05, math.pi - 0.05))
        report = check_isospectral((xi, rho), grid, 5)
        assert report.max_level_deviation <= 1e-8


def test_check_isospectral_worst_point_is_on_grid():
    grid = SphereGrid.default(3, 4)
    report = check_isospectral((0.8, 1.4), grid, 4)
    assert report.worst_point in set(grid.points())


def test_check_isospectral_channel_solver():
    report = check_isospectral(
        (2.6, 1.1), SphereGrid.default(2, 4), 5, solver="channel"
    )
    assert report.max_level_deviation <= 1e-12


def test_check_isospectral_fd_solver():
    # The mirror-symmetric discretization conjugates along with the defect
    # matrix, so even the coarse solver sees the family as one spectrum.
    report = check_isospectral(
        (2.0, 0.9), SphereGrid.default(2, 2), 3, solver="fd", n_interior=128
    )
    assert report.solver_used == "fd"
    assert report.max_level_deviation <= 5e-3


def _sweep_solving_the_pole(d_params, grid, n, solver, n_interior, l=1.0, L0=1.0):
    # check_isospectral as it was before it read the mu = 0 pole from the
    # base solve and shared one solve among the members of one problem:
    # every grid point solved, the pole too.
    xi, rho = d_params
    def energies(mu, nu):
        u = params_to_matrix(UnitaryParams(xi, rho, mu, nu))
        return isospectral._solve(BoundaryCondition(u, l=l, L0=L0), solver, n, n_interior).E

    base = energies(0.0, 0.0)
    scale = 1.0 + np.abs(base) if solver == "fd" else np.ones_like(base)
    worst, worst_point = -1.0, (0.0, 0.0)
    for mu, nu in grid.points():
        dev = float(np.max(np.abs(energies(mu, nu) - base) / scale))
        if dev > worst:
            worst, worst_point = dev, (mu, nu)
    return worst, worst_point


def _keys(d_params, grid, solver, l=1.0, L0=1.0):
    # What each member's solver reads of U, built from the solvers' own
    # objects: det's projection, with g at its floor knot, or FD's form.
    keys = []
    for u in isospectral_family(d_params, grid):
        if solver == "determinant":
            keys.append(oracles._Projection(BoundaryCondition(u, l=l, L0=L0)).key())
        else:
            form = oracles._Form(u, L0 / l, 1.0)
            keys.append(oracles._key(form.t, form.d4, form.phase))
    return keys


@pytest.mark.parametrize(
    "solver, d_params, grid",
    [("determinant", (2.0, 0.9), SphereGrid.default(2, 3)),
     ("channel", (2.6, 1.1), SphereGrid.default(2, 3)),
     ("fd", (0.8, 1.4), SphereGrid.default(1, 2))],
)
def test_check_isospectral_reads_the_pole_from_the_base_solve(monkeypatch, solver, d_params, grid):
    # The mu = 0 pole is the base matrix bit for bit, so a sweep solves the
    # base and every other distinct problem once: for det and fd, one solve
    # per distinct key, none twice; the channel solver solves len(grid)
    # matrices, not len(grid) + 1.
    reference = _sweep_solving_the_pole(d_params, grid, 4, solver, 64)
    solved = []
    solve = isospectral._solve

    def counting(bc, *args):
        if solver == "determinant":
            solved.append(bc.key())
        elif solver == "fd":
            solved.append(oracles._key(*oracles._reads(bc.u)))
        else:
            solved.append(None)
        return solve(bc, *args)

    monkeypatch.setattr(isospectral, "_solve", counting)
    report = check_isospectral(d_params, grid, 4, solver=solver, n_interior=64)
    if solver == "channel":
        assert len(solved) == len(grid)
    else:
        assert len(solved) == len(set(solved)) == len(set(_keys(d_params, grid, solver)))
    assert (report.max_level_deviation, report.worst_point) == reference


def test_the_sweep_solves_each_distinct_det_problem_once(monkeypatch):
    # det_spectrum runs once per distinct key, on the projection the key was
    # read from, and within one call only: a second identical call solves
    # again.  The mu = pi pole of (2.0, 0.9) is not D's matrix bit for bit,
    # but its form's t, d4 and phase are, and so is g at the floor, so it
    # takes the base's solve.
    walks = []
    det_spectrum = isospectral.det_spectrum

    def counting(proj, *args, **kwargs):
        assert isinstance(proj, oracles._Projection)
        walks.append(proj.key())
        return det_spectrum(proj, *args, **kwargs)

    monkeypatch.setattr(isospectral, "det_spectrum", counting)
    grid = SphereGrid.default()
    keys = _keys((2.0, 0.9), grid, "determinant")
    for _ in range(2):
        walks.clear()
        check_isospectral((2.0, 0.9), grid, 4)
        assert sorted(walks) == sorted(set(keys)) and len(walks) < len(grid)

    poles = SphereGrid(mu_points=(0.0, math.pi), nu_points=(0.0,))
    base, pole = isospectral_family((2.0, 0.9), poles)
    assert base.tobytes() != pole.tobytes()
    walks.clear()
    check_isospectral((2.0, 0.9), poles, 4)
    assert len(walks) == 1


def _floor_touch(l, L0, rho):
    # theta_plus puts the plus channel's bound root on the kappa l = 50
    # floor, as test_det_bound_levels_at_the_threshold_and_the_floor builds
    # it: g there reads 0, and det takes it from U's exact entries.
    kappa = KAPPA_CEILING / l
    theta_plus = 2.0 * (math.pi - math.atan(kappa * L0 / math.tanh(kappa * l)))
    return theta_plus - rho, rho


@st.composite
def _sweeps(draw):
    l, L0 = (10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(2))
    xi = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    kind = draw(st.sampled_from(["generic", "scalar", "antiscalar", "floor"]))
    if kind == "generic":
        d_params = (xi, draw(st.floats(0.05, math.pi - 0.05)))
    elif kind == "floor":
        d_params = _floor_touch(l, L0, draw(st.floats(0.05, 3.0)))
    else:  # rho = 0 or pi: D and every frame are scalar, up to rounding
        d_params = (xi, 0.0 if kind == "scalar" else math.pi)
    grid = SphereGrid.default(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return kind, d_params, grid, draw(st.integers(1, 5)), l, L0


# A floor touch whose frames share t, d4 and phase with frames whose g at
# the floor has the other sign: a bound level at the floor in one and not
# in the other, so members of one form still pose det different problems.
_FLOOR_SPLIT = (1.1150298626945476, 63.36578001821514, 0.47527085752291953)


@pytest.mark.parametrize("solver", ["determinant", "fd"])
@given(_sweeps())
@example(("floor", _floor_touch(*_FLOOR_SPLIT), SphereGrid.default(), 3, *_FLOOR_SPLIT[:2]))
def test_the_sweep_gives_the_report_of_a_sweep_that_solves_every_member(solver, drawn):
    # The deviation bit for bit and the worst point are those of a sweep
    # that solves every grid point, the pole too, and every member's levels
    # are its own solve's, bit for bit, whether solved or shared.
    kind, d_params, grid, n, l, L0 = drawn
    if kind == "floor" and solver == "determinant":
        proj = oracles._Projection(BoundaryCondition(isospectral_family(d_params, grid)[0], l, L0))
        assert proj.read(proj.start[0]) == 0.0
    worst, worst_point = _sweep_solving_the_pole(d_params, grid, n, solver, 64, l, L0)
    energies, members = isospectral._energies, []

    def checked(u, *args):
        E = energies(u, *args)
        members.append(E.tobytes() == isospectral._solve(BoundaryCondition(u, l, L0), solver, n, 64).E.tobytes())
        return E

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isospectral, "_energies", checked)
        report = check_isospectral(d_params, grid, n, solver=solver, l=l, L0=L0, n_interior=64)
    assert len(members) == len(grid) and all(members)
    assert report.max_level_deviation.hex() == worst.hex()
    assert report.worst_point == worst_point


@pytest.mark.parametrize("solver", ["determinant", "channel", "fd"])
@pytest.mark.parametrize("n_levels", [2.5, math.nan])
def test_check_isospectral_takes_a_whole_level_count(solver, n_levels):
    # The sweep checks its own count by the solvers' rule, so the error names
    # n_levels, not the solver's n.
    with pytest.raises(ValueError, match="^n_levels must be an integer"):
        check_isospectral((1.0, 0.5), SphereGrid.default(2, 2), n_levels, solver=solver, n_interior=64)


def test_check_isospectral_validation():
    grid = SphereGrid.default(2, 2)
    with pytest.raises(ValueError):
        check_isospectral((1.0, 0.5), grid, 0)
    with pytest.raises(ValueError):
        check_isospectral((1.0, 0.5), grid, 3, solver="shooting")
    with pytest.raises(ValueError):
        IsoReport(
            base_params=UnitaryParams(1.0, 0.5),
            max_level_deviation=-1.0,
            worst_point=(0.0, 0.0),
            n_levels_checked=3,
            solver_used="determinant",
        )


# -------------------------------------------------------------------- parity


def test_parity_family_axis_examples():
    d = np.diag(np.exp(1j * np.array([0.4, 2.9])))
    fam = parity_family(d, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    assert np.max(np.abs(fam[0] - d[::-1, ::-1])) <= 1e-12  # sigma_x swaps
    assert np.max(np.abs(fam[1] - d[::-1, ::-1])) <= 1e-12  # sigma_y swaps
    assert np.max(np.abs(fam[2] - d)) <= 1e-12  # sigma_z fixes diagonals


def test_parity_family_fixes_identity():
    fam = parity_family(np.eye(2, dtype=complex), [(0.6, 0.8, 0.0), (0.0, 0.0, 1.0)])
    for m in fam:
        assert np.max(np.abs(m - np.eye(2))) <= 1e-12


def test_parity_family_preserves_spectrum():
    rng = np.random.default_rng(113)
    p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
    u = params_to_matrix(p)
    ref = det_spectrum(BoundaryCondition(u), 6).E
    raw = rng.normal(size=(4, 3))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    for m in parity_family(u, dirs):
        got = det_spectrum(BoundaryCondition(m), 6).E
        assert np.max(np.abs(np.sort(ref) - np.sort(got))) <= 1e-9
