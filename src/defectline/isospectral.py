"""Families of defect matrices that share one spectrum.

Conjugating a diagonal defect matrix D by any SU(2) frame V leaves the
spectrum of the box untouched, because the frame only rotates which linear
combinations of boundary data feel which eigenphase.  The set of such
conjugates { V^-1 D V } sweeps a two-sphere coordinatized by the frame
angles (mu, nu) — unless D is a multiple of the identity, in which case the
whole sphere collapses, up to rounding, to the single point D: the rounded
entries of V^-1 D V differ in their last bits from frame to frame, so at
(xi, rho) = (1.3, 0) the 66 members of the default grid pose 65 distinct
det problems (oracles._Projection.key).

Parity acts on the defect matrix by conjugation with sigma(c) = c . sigma
for a unit direction c, which again preserves eigenvalues and therefore the
spectrum.  Both families are generated here and checked numerically with a
solver that consumes the full matrix (the determinant solver by default);
checking them with the channel solver would be circular, since it reads the
spectrum off the eigenphases that conjugation preserves by construction.
A sweep solves each distinct problem once.  SphereGrid.points yields the
mu = 0 pole first, and that pole's matrix is D's bit for bit, so it is the
base every member is compared with.  The determinant and FD solvers read U
only through the bits of its form's t, d4 and phase (oracles._key), and
det also through g at the floor (oracles._Projection.key), so members with
equal keys, as the mu = pi pole and the base mostly are, share one solve
within the call.  The channel solver solves every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .boundary import BoundaryCondition
from .levels import Spectrum, _count
from .oracles import _key, _Projection, _reads, det_spectrum, fd_spectrum
from .spectrum import solve_spectrum
from .unitary import UnitaryParams, params_to_matrix, parity_conjugate

__all__ = [
    "SOLVER_CHANNEL",
    "SOLVER_DETERMINANT",
    "SOLVER_FD",
    "SphereGrid",
    "IsoReport",
    "isospectral_family",
    "check_isospectral",
    "parity_family",
]

SOLVER_CHANNEL = "channel"
SOLVER_DETERMINANT = "determinant"
SOLVER_FD = "fd"


@dataclass(frozen=True)
class SphereGrid:
    """Sample points (mu, nu) on the conjugation-frame sphere.

    mu runs over [0, pi] and must include both poles; nu runs over [0, 2*pi).
    At the poles every nu produces the same conjugate, so iteration yields
    each pole exactly once and the interior points as a full product grid.
    """

    mu_points: tuple[float, ...]
    nu_points: tuple[float, ...]

    def __post_init__(self):
        mu = tuple(float(m) for m in self.mu_points)
        nu = tuple(float(v) for v in self.nu_points)
        if not mu or not nu:
            raise ValueError("grid needs at least one mu and one nu value")
        if any(m < 0.0 or m > math.pi for m in mu):
            raise ValueError("mu values must lie in [0, pi]")
        if any(v < 0.0 or v >= 2.0 * math.pi for v in nu):
            raise ValueError("nu values must lie in [0, 2*pi)")
        if mu[0] != 0.0 or mu[-1] != math.pi:
            raise ValueError("mu_points must include both poles 0 and pi")
        object.__setattr__(self, "mu_points", mu)
        object.__setattr__(self, "nu_points", nu)

    @classmethod
    def default(cls, n_mu_interior: int = 8, n_nu: int = 8) -> "SphereGrid":
        """Poles plus an n_mu_interior x n_nu product grid in between."""
        n_mu_interior, n_nu = _count("n_mu_interior", n_mu_interior, 1), _count("n_nu", n_nu, 1)
        mu = np.linspace(0.0, math.pi, n_mu_interior + 2)
        nu = np.linspace(0.0, 2.0 * math.pi, n_nu, endpoint=False)
        return cls(mu_points=tuple(mu), nu_points=tuple(nu))

    def points(self) -> Iterator[tuple[float, float]]:
        yield (0.0, 0.0)
        for m in self.mu_points[1:-1]:
            for v in self.nu_points:
                yield (m, v)
        yield (math.pi, 0.0)

    def __len__(self) -> int:
        return 2 + (len(self.mu_points) - 2) * len(self.nu_points)


@dataclass(frozen=True)
class IsoReport:
    """Outcome of sweeping one family and comparing every member's spectrum."""

    base_params: UnitaryParams
    max_level_deviation: float
    worst_point: tuple[float, float]
    n_levels_checked: int
    solver_used: str

    def __post_init__(self):
        if self.max_level_deviation < 0.0:
            raise ValueError("max_level_deviation must be nonnegative")


def isospectral_family(
    d_params: tuple[float, float], grid: SphereGrid
) -> list[np.ndarray]:
    """One conjugated matrix V^-1 D V per grid point, in grid iteration order."""
    xi, rho = d_params
    return [
        params_to_matrix(UnitaryParams(xi=xi, rho=rho, mu=mu, nu=nu))
        for mu, nu in grid.points()
    ]


def _solve(
    bc: BoundaryCondition | _Projection, solver: str, n: int, n_interior: int, k_max: float | None = None
) -> Spectrum:
    """The lowest n levels of bc by the solver named ``solver``; only det takes k_max."""
    if solver == SOLVER_CHANNEL:
        return solve_spectrum(bc, n)
    if solver == SOLVER_DETERMINANT:
        return det_spectrum(bc, n, k_max=k_max)
    if solver == SOLVER_FD:
        return fd_spectrum(bc, n, n_interior=n_interior)
    raise ValueError(f"unknown solver {solver!r}")


def _energies(
    u: np.ndarray, solved: dict[bytes, np.ndarray], solver: str, n: int, l: float, L0: float,
    n_interior: int,
) -> np.ndarray:
    """The levels of u: those kept in solved under u's key, else its solve's, kept there.

    Det's key needs its projection, which det_spectrum then takes as built.
    The channel solver has no key and keeps nothing.
    """
    bc = BoundaryCondition(u, l=l, L0=L0)
    if solver == SOLVER_DETERMINANT:
        bc = _Projection(bc)
        key = bc.key()
    elif solver == SOLVER_FD:
        key = _key(*_reads(bc.u))
    else:
        return _solve(bc, solver, n, n_interior).E
    if key not in solved:
        solved[key] = _solve(bc, solver, n, n_interior).E
    return solved[key]


def check_isospectral(
    d_params: tuple[float, float],
    grid: SphereGrid,
    n_levels: int,
    solver: str = SOLVER_DETERMINANT,
    *,
    l: float = 1.0,
    L0: float = 1.0,
    n_interior: int = 256,
) -> IsoReport:
    """Solve each distinct problem of the family once and report the worst per-level deviation.

    Deviations are absolute |E_i - E_i'| after ascending sort for the channel
    and determinant solvers.  For the fd solver they are measured relative to
    1 + |E_i| instead, because discretization error grows with the level and
    an absolute number would only reflect the highest level requested.

    The base is the family's first member, the mu = 0 pole, whose matrix is
    D's bit for bit; it is solved once.  Its deviation is still |base -
    base|, so a NaN base level acts as it did when the pole was solved again.
    A det or fd member whose key an earlier member had takes that solve's
    levels, which are its own bit for bit.  The key holds the bits of the
    form's t, d4 and phase, and for det g at the floor too (_energies); the
    keys are kept for this call only.  ValueError is raised unless n_levels
    is an integer of at least 1.
    """
    n_levels = _count("n_levels", n_levels, 1)
    members = isospectral_family(d_params, grid)
    solved: dict[bytes, np.ndarray] = {}
    base = _energies(members[0], solved, solver, n_levels, l, L0, n_interior)
    scale = 1.0 + np.abs(base) if solver == SOLVER_FD else 1.0

    worst = -1.0
    worst_point = (0.0, 0.0)
    for i, (u, (mu, nu)) in enumerate(zip(members, grid.points())):
        member = base if i == 0 else _energies(u, solved, solver, n_levels, l, L0, n_interior)
        dev = float(np.max(np.abs(member - base) / scale))
        if dev > worst:
            worst = dev
            worst_point = (mu, nu)
    return IsoReport(
        base_params=UnitaryParams(*d_params),
        max_level_deviation=worst,
        worst_point=worst_point,
        n_levels_checked=n_levels,
        solver_used=solver,
    )


def parity_family(
    u: np.ndarray, directions: Sequence[Sequence[float]]
) -> list[np.ndarray]:
    """sigma(c) U sigma(c) for each unit direction c; all share U's spectrum."""
    return [parity_conjugate(u, c) for c in directions]
