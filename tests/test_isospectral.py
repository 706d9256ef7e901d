"""Tests for the frame-conjugation and parity isospectral families."""

import math

import numpy as np
import pytest

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
from defectline import isospectral

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


def _sweep_solving_the_pole(d_params, grid, n, solver, n_interior):
    # check_isospectral as it was before it read the mu = 0 pole from the
    # base solve: every grid point solved, the pole too.
    xi, rho = d_params
    def energies(mu, nu):
        u = params_to_matrix(UnitaryParams(xi, rho, mu, nu))
        return isospectral._energies(u, solver, n, 1.0, 1.0, n_interior)

    base = energies(0.0, 0.0)
    scale = 1.0 + np.abs(base) if solver == "fd" else np.ones_like(base)
    worst, worst_point = -1.0, (0.0, 0.0)
    for mu, nu in grid.points():
        dev = float(np.max(np.abs(energies(mu, nu) - base) / scale))
        if dev > worst:
            worst, worst_point = dev, (mu, nu)
    return worst, worst_point


@pytest.mark.parametrize(
    "solver, d_params, grid",
    [("determinant", (2.0, 0.9), SphereGrid.default(2, 3)),
     ("channel", (2.6, 1.1), SphereGrid.default(2, 3)),
     ("fd", (0.8, 1.4), SphereGrid.default(1, 2))],
)
def test_check_isospectral_reads_the_pole_from_the_base_solve(monkeypatch, solver, d_params, grid):
    # The mu = 0 pole is the base matrix bit for bit, so a sweep solves the
    # base and every other grid point: len(grid) matrices, not len(grid) + 1.
    reference = _sweep_solving_the_pole(d_params, grid, 4, solver, 64)
    solved = []
    energies = isospectral._energies

    def counting(u, *args):
        solved.append(u)
        return energies(u, *args)

    monkeypatch.setattr(isospectral, "_energies", counting)
    report = check_isospectral(d_params, grid, 4, solver=solver, n_interior=64)
    assert len(solved) == len(grid)
    assert (report.max_level_deviation, report.worst_point) == reference


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
