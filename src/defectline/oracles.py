"""Two matrix-level solvers that never diagonalize the defect matrix.

Both exist to cross-check the channel solver through entirely different
arithmetic.  The determinant solver builds the 2x2 matrix M(k) of the
connection condition over the wall-anchored basis and locates zeros of
det M(k); the finite-difference solver discretizes the kinetic operator on a
uniform grid with the connection condition encoded in two junction rows.

det M(k) is complex but carries a constant phase: it is the product of the
two channel functions times 4 e^{i arg(det U)/2}, so dividing by a square
root of det U and taking the real part yields a sign-carrying real function
g.  The scan works on g divided by E (an entire function of E with a finite,
generically nonzero limit at E = 0), which removes the spurious zero every
system has at k = 0 and keeps near-threshold roots bracketable from the
origin.  On the bound side g is additionally divided by cosh^2(kappa l) to
strip the exponential growth, which leaves a real quadratic Q in
s = l tanh(kappa l) / (kappa l): det M is a quadratic form in (sin, k cos),
and on the bound side both entries divided by cosh(kappa l) are s and 1.  s
is monotone on the bound window, so g is monotone between the window's ends
and Q's vertex, and these three knots bracket every bound root: no grid.

One rule decides every pair, for every U.  Above E = 0 a sign change of g on
the grid is a simple root, and a dip of |g| between two grid neighbours of
its own sign is a pair closer than the grid, or a touch when U is scalar.
The value of g at the vertex, the root of the closed-form dg/dE (below
E = 0, Q's vertex, where both ends of the window share a sign), decides:
two simple roots if g crosses zero there by more than its rounding bound,
one double root if it lies within that bound, and none otherwise.  Where
g(0) lies within its rounding bound inside a dip, it is taken as 0, so a
touch or a pair next to the threshold is decided at its vertex like any
other.  The rounding bound comes from the coefficients of det M, so no
tolerance is set by hand.  Roots are refined with spectrum._brentq, a port
of scipy's brentq; only the finite-difference solver imports scipy.  The
root cells are walked in ascending order, so det_spectrum refines only the
lowest n + 1 positive roots, the n it reports and the one past the cut that
decides pairs, while det_scan refines every root on its grid; both return
the same doubles for the roots they share.

The finite-difference operator, with the junction values eliminated, is
tridiagonal but for a 2x4 patch at the defect.  Its coupling block M (the
patch's entries toward x = -2h and 2h) is Hermitian, and where M is positive
definite a Cholesky similarity, one phase and a Givens chase make the
operator a real symmetric tridiagonal, whose lowest levels LAPACK bisection
finds.  Where M is not positive definite the levels may be complex, and
shift-invert ARPACK finds the lowest real ones; a singular junction block
takes a dense generalized solve.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .boundary import (
    KIND_BOUND,
    KIND_POSITIVE,
    KIND_ZERO,
    BoundaryCondition,
    connection_matrix,
)
from .errors import EigenSolverFailure, ScanExhausted, SolverError
from .spectrum import (
    _BRENT_RTOL,
    _BRENT_XTOL,
    _EPS,
    GRID_DENSITY,
    KAPPA_CEILING,
    ZERO_LEVEL_TOL,
    EigenLevel,
    _brentq,
    flag_degenerate,
    sinc_kl,
)

__all__ = [
    "DetScan",
    "FdSpectrum",
    "det_matrix",
    "det_scan",
    "det_spectrum",
    "fd_spectrum",
]

@dataclass(frozen=True)
class DetScan:
    """Record of one determinant sweep over positive wavenumbers."""

    k_grid: np.ndarray
    det_values: np.ndarray
    roots: tuple[float, ...]


@dataclass(frozen=True)
class FdSpectrum:
    """Lowest levels of the discretized operator on a grid of spacing h."""

    h: float
    levels: tuple[float, ...]
    n_interior: int


def det_matrix(bc: BoundaryCondition, k: complex) -> np.ndarray:
    """M(k) whose determinant vanishes exactly at eigenvalues E = k^2.

    Real k probes positive energies; k = i*kappa probes bound states
    E = -kappa^2.  k = 0 is excluded (M vanishes there identically for every
    boundary condition, which says nothing about a zero-energy level).
    """
    if k == 0:
        raise ValueError("k must be nonzero; the zero-energy level is tested separately")
    val = np.sin(k * bc.l)
    der = k * np.cos(k * bc.l)
    return connection_matrix(bc.u, bc.L0, val, der)


class _Projection:
    """det M phased to the real axis and reduced by E, in both energy regimes.

    Precomputes the three bilinear coefficients of det M over (sin, k cos)
    and the constant phase sqrt(det U), so evaluation is free of any 2x2
    assembly.  The positive scan evaluates a grid with positive, and the
    root refiners one float at a time with the scalar forms.
    positive_scalar takes the sinc step with sinc_kl, in np.sinc's
    operations and order, and keeps the coefficients and the phase as
    np.complex128 scalars, so its complex products and quotient are numpy's:
    Python complex division differs from numpy's in the last bit.  It
    therefore returns positive's doubles.
    """

    def __init__(self, bc: BoundaryCondition):
        u = bc.u
        a = u - np.eye(2)
        b = 1j * bc.L0 * (u + np.eye(2))
        self.l = bc.l
        self.det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        self.det_b = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        self.mixed = (
            a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0] - a[0, 1] * b[1, 0] - a[1, 0] * b[0, 1]
        )
        det_u = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        self.phase = np.complex128(cmath.exp(0.5j * cmath.phase(det_u)))

    def _reduced(self, sigma, tau):
        # -(sigma^2 det A + tau^2 det B + sigma tau m) / phase, real part.
        z = sigma * sigma * self.det_a + tau * tau * self.det_b + sigma * tau * self.mixed
        return np.real(-z / self.phase)

    def det_m(self, k):
        """det M(k) for real k (vectorized), from the precomputed coefficients."""
        s = np.sin(k * self.l)
        t = k * np.cos(k * self.l)
        return -(s * s * self.det_a + t * t * self.det_b + s * t * self.mixed)

    def positive(self, k):
        """Projection at E = k^2 >= 0; finite and generically nonzero at k = 0."""
        sigma = self.l * np.sinc(k * self.l / np.pi)
        tau = np.cos(k * self.l)
        return self._reduced(sigma, tau)

    def _reduced_scalar(self, sigma: float, tau: float) -> float:
        # _reduced for one float, with the same double out.
        z = sigma * sigma * self.det_a + tau * tau * self.det_b + sigma * tau * self.mixed
        return float((-z / self.phase).real)

    def positive_scalar(self, k: float) -> float:
        """positive(k) for one float, with the same double out."""
        return self._reduced_scalar(self.l * sinc_kl(k, self.l), math.cos(k * self.l))

    def bound_scalar(self, kappa: float) -> float:
        """Projection at E = -kappa^2 <= 0 over cosh^2(kappa l); positive(0) at 0.

        The division by cosh^2(kappa l) keeps values of order one across the
        whole kappa window without moving any root, and leaves Q(s) up to
        rounding.  sinh(x)/x takes the series 1 + x^2/6 where |x| < 1e-8.
        """
        x = kappa * self.l
        ch = float(np.cosh(x))
        sh = 1.0 + x * x / 6.0 if abs(x) < 1e-8 else float(np.sinh(x)) / x
        return self._reduced_scalar(self.l * sh, ch) / (ch * ch)

    # dg/dE above E = 0 and the rounding bound of g, one float at a time.
    # Both regimes write g as -(sigma^2 det A + tau^2 det B + sigma tau m) / phase: sigma =
    # sin(kl)/k and tau = cos(kl) above E = 0; sinh(kappa l)/kappa and
    # cosh(kappa l), each divided by cosh(kappa l), below it.

    def positive_slope(self, k: float) -> float:
        """dg/dE of positive() at E = k^2, finite at k = 0."""
        x = k * self.l
        sigma = self.l * sinc_kl(k, self.l)
        d_sigma = -0.5 * self.l**3 * _sinc_slope(x)
        return self._slope(sigma, math.cos(x), d_sigma, -0.5 * self.l * sigma)

    def positive_noise(self, k: float) -> float:
        """First-order rounding bound of positive() at E = k^2."""
        x = k * self.l
        return self._noise(self.l * sinc_kl(k, self.l), math.cos(x), x)

    def bound_noise(self, kappa: float) -> float:
        """First-order rounding bound of bound_scalar(kappa)."""
        x = kappa * self.l
        return self._noise(self.l * (math.tanh(x) / x if x else 1.0), 1.0, x)

    def _slope(self, sigma, tau, d_sigma, d_tau) -> float:
        dz = (
            2.0 * sigma * d_sigma * self.det_a + 2.0 * tau * d_tau * self.det_b
            + (d_sigma * tau + sigma * d_tau) * self.mixed
        )
        return float((-dz / self.phase).real)

    def _noise(self, sigma, tau, x) -> float:
        # sigma rounds by about eps l and tau by about eps (1 + |x|); each
        # term of the sum and the sum itself round by about eps.
        s, t = abs(sigma), abs(tau)
        a, b, m = abs(self.det_a), abs(self.det_b), abs(self.mixed)
        return _EPS * (
            (2.0 * s * a + t * m) * self.l
            + (2.0 * t * b + s * m) * (1.0 + abs(x))
            + s * s * a + t * t * b + s * t * m
        )


def _sinc_slope(x: float) -> float:
    """(sin x - x cos x) / x^3, summed as its series where |x| < 0.25.

    The series is the sum over n >= 1 of 2n (-x^2)^(n-1) / (2n+1)!, where
    the closed form would cancel.
    """
    if abs(x) < 0.25:
        y = -x * x
        return 1 / 3 + y * (1 / 30 + y * (1 / 840 + y * (1 / 45360 + y / 3991680)))
    return (math.sin(x) - x * math.cos(x)) / x**3


# Kinds of root cell in _scan.
_CROSSING, _ZERO, _DIP, _ORIGIN = 1, 2, 3, 4


def _scan(
    proj: _Projection, grid: np.ndarray, skip_origin: bool, want: int | None = None
) -> list[tuple[float, int]]:
    """The lowest positive roots of g on grid, with multiplicities.

    A sign change of g between two grid points is one simple root.  A local
    minimum of |g| whose two grid neighbours share its sign is a pair closer
    than the grid, or a touch when U is scalar, which _dip_roots decides.
    An exact zero of g on the grid is a simple root.

    The root cells are walked in grid order, and the roots come out
    ascending: a crossing's root lies in its own cell and a dip's in its two
    cells, no crossing or exact zero shares a cell with a dip, and a dip at
    grid point 1 excludes the origin cell, since each needs the other's |g|
    to be the smaller.  The walk stops once the multiplicities found reach
    want: det_spectrum wants the lowest n + 1 levels.  det_scan gives no
    want, and every root on the grid is refined.  A root both return is the
    same double.

    positive_scalar returns positive's doubles on the grid, so a root refined
    from a grid cell has the doubles of the scan.
    """
    vals = np.asarray(proj.positive(grid))
    vals[0] = _origin_value(proj)
    start = 1 if skip_origin else 0
    lo = max(start, 1)
    left, mid, right = vals[lo - 1:-2], vals[lo:-1], vals[lo + 1:]
    same = (left * right > 0.0) & (mid * left >= 0.0)
    dips = same & (np.abs(mid) < np.abs(left)) & (np.abs(mid) <= np.abs(right))
    # Each root cell is marked at its first grid point.
    cells = np.zeros(vals.size - 1, dtype=np.int8)
    cells[start + np.flatnonzero(vals[start:-1] * vals[start + 1:] < 0.0)] = _CROSSING
    cells[lo + np.flatnonzero((mid == 0.0) & ~dips)] = _ZERO
    cells[lo - 1 + np.flatnonzero(dips)] = _DIP
    if start == 0 and vals[0] * vals[1] >= 0.0 and abs(vals[0]) < abs(vals[1]):
        # |g| is least at the origin (0 where _origin_value finds the floor
        # of a dip there), so a vertex may lie in the first cell: a touch or
        # a pair nearer to E = 0 than the first grid point.
        cells[0] = _ORIGIN

    found: list[tuple[float, int]] = []
    count = 0
    where = np.flatnonzero(cells)
    for i, kind in zip(where.tolist(), cells[where].tolist()):
        if want is not None and count >= want:
            break
        a, ya = float(grid[i]), float(vals[i])
        if kind == _ZERO:
            roots = [(a, 1)]
        else:
            j = i + 2 if kind == _DIP else i + 1
            b, yb = float(grid[j]), float(vals[j])
            if kind == _CROSSING:
                roots = [(_brentq(proj.positive_scalar, a, b, ya, yb), 1)]
            else:
                roots = _dip_roots(proj, a, b, ya, yb)
        found.extend(roots)
        count += sum(m for _, m in roots)
    return found


def _dip_roots(proj: _Projection, a, b, ya, yb) -> list[tuple[float, int]]:
    """The roots of g in a dip of |g| on [a, b] in k, where g(a) and g(b) share a sign.

    The dip's vertex v is the root of dg/dE on [a, b]; without one the dip
    is rounding on a flat g.  An exact double is a simple root of the
    slope, so it comes back to full precision.
    """
    slope = proj.positive_slope
    slope_a, slope_b = slope(a), slope(b)
    if slope_a * slope_b > 0.0:
        return []  # a dip of rounding on a flat g: no vertex, no root
    v = _brentq(slope, a, b, slope_a, slope_b)
    # _brentq leaves v within tol of the vertex in k, and g may sit lower
    # there by half its curvature times the square of that distance in E.
    tol = _BRENT_XTOL + _BRENT_RTOL * v
    curvature = abs(slope_b - slope_a) / (b * b - a * a)
    beta = proj.positive_noise(v) + 0.5 * curvature * ((2.0 * v + tol) * tol) ** 2
    return _vertex_roots(proj.positive_scalar, a, v, b, ya, proj.positive_scalar(v), yb, beta)


def _vertex_roots(fun, a, v, b, ya, gv, yb, beta) -> list[tuple[float, int]]:
    """The roots of g on [a, b], whose ends share a sign s, with its vertex at v.

    beta bounds what rounding can do to gv = g(v): noise there plus what the
    vertex's own tolerance adds.  If s gv < -beta, g crosses zero on each
    side of v; if |gv| <= beta, the pair cannot be told from a touch, and v
    counts twice; otherwise [a, b] holds no root.
    """
    if math.copysign(1.0, yb) * gv < -beta:
        return [(_brentq(fun, a, v, ya, gv), 1), (_brentq(fun, v, b, gv, yb), 1)]
    if abs(gv) <= beta:
        return [(v, 2)]
    return []


def _zero_level_multiplicity(bc: BoundaryCondition) -> int:
    m0 = connection_matrix(bc.u, bc.L0, bc.l, 1.0)
    s = np.linalg.svd(m0, compute_uv=False)
    tol = 2.0 * ZERO_LEVEL_TOL * (bc.l + bc.L0)
    if s[1] > tol:
        return 0
    return 1 if s[0] > tol else 2


_BELOW_PROBE = KAPPA_CEILING / 2048  # kappa l of _origin_value's probe below E = 0


def _origin_value(proj: _Projection) -> float:
    """g at E = 0 as both regimes take it.

    g is one function of E across the threshold.  Where |g(0)| lies within
    its rounding bound and g has one sign at a probe on each side (the first
    grid point above, _BELOW_PROBE below), E = 0 is the floor of a dip (a
    touch or a pair next to the threshold), and the rounded sign of g(0)
    would put a crossing on either side of it.  g(0) is then taken as 0, so
    that neither regime counts a crossing there and the regime that holds
    the vertex decides the roots.
    """
    g0 = proj.positive_scalar(0.0)
    if abs(g0) > proj.positive_noise(0.0):
        return g0
    above = proj.positive_scalar(math.pi / (GRID_DENSITY * proj.l))
    below = proj.bound_scalar(_BELOW_PROBE / proj.l)
    return 0.0 if above * below > 0.0 else g0


def _bound_roots(proj: _Projection, zero_mult: int) -> list[tuple[float, int]]:
    """The bound roots of g in kappa, with multiplicities, from Q's shape.

    On [0, KAPPA_CEILING / l] g is Q(s) = a2 s^2 + a1 s + a0 up to rounding,
    and s = l tanh(kappa l) / (kappa l) falls monotonically from l, so g is
    monotone between three knots: the origin as _origin_value takes it, Q's
    vertex s = -a1 / (2 a2) (the mean of its roots, not an eigenphase) where
    it lies strictly inside, and the floor.  A piece between knots holds a
    root exactly when g changes sign across it.  Where the window's two ends
    share a sign (a zeroed origin included), _vertex_roots decides.  Each
    channel has at most one level at or below E = 0, so one zero-energy
    level owns the origin piece, and two leave no bound root.  g = 0 at the
    floor is not a root: the window is open there, as in the channel solver.
    """
    if zero_mult == 2:
        return []
    fun = proj.bound_scalar
    cap = KAPPA_CEILING / proj.l
    g0, gc = _origin_value(proj), fun(cap)
    knots = [(0.0, g0), (cap, gc)]
    a2 = float((-proj.det_a / proj.phase).real)
    a1 = float((-proj.mixed / proj.phase).real)
    top = math.tanh(KAPPA_CEILING) / KAPPA_CEILING
    t = -a1 / (2.0 * a2) / proj.l if a2 != 0.0 else 1.0  # tanh(x) / x at the vertex
    if top < t < 1.0:
        x = _brentq(lambda x: math.tanh(x) / x - t, 0.0, KAPPA_CEILING, 1.0 - t, top - t)
        kv = x / proj.l
        gv = fun(kv)
        if zero_mult == 0 and (g0 * gc > 0.0 or (g0 == 0.0 and gc != 0.0)):
            # _brentq leaves x within tol of the vertex, and tanh(x) / x
            # moves by less than x does, so Q sits off its vertex value by
            # at most a2 (l tol)^2.
            tol = _BRENT_XTOL + _BRENT_RTOL * x
            beta = proj.bound_noise(kv) + abs(a2) * (proj.l * tol) ** 2
            return _vertex_roots(fun, 0.0, kv, cap, g0, gv, gc, beta)
        knots.insert(1, (kv, gv))
    if zero_mult:
        del knots[0]  # the zero-energy level's own piece
    # An exact zero at the vertex is a root; _brentq returns it as it is.
    return [
        (_brentq(fun, a, b, ya, yb), 1)
        for (a, ya), (b, yb) in zip(knots, knots[1:])
        if ya * yb < 0.0 or (yb == 0.0 and b < cap)
    ]


def _positive_roots(
    proj: _Projection, need: int, skip_origin: bool, k_max: float | None
) -> list[tuple[float, int]]:
    """The lowest positive roots, with multiplicities, until they count need + 1.

    need levels are reported, but pairs are decided one level past the cut,
    so one more root is refined; a dip may add two at once.  The scan reaches
    (need / 2 + 6) pi / l, or k_max where that is lower: each channel has a
    root on every branch of tan, pi / l wide, so that holds need + 10 roots.
    """
    step = math.pi / (GRID_DENSITY * proj.l)
    hi = (0.5 * need + 6.0) * math.pi / proj.l
    if k_max is not None:
        hi = min(hi, k_max)
    return _scan(proj, np.arange(0.0, hi + step, step), skip_origin, need + 1)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def det_scan(bc: BoundaryCondition, k_max: float, step: float | None = None) -> DetScan:
    """Sweep det M over [0, k_max] and return every positive root on the grid, refined.

    Raises ValueError unless k_max and step (when given) are finite and
    positive.
    """
    _check_positive("k_max", k_max)
    eff_step = step if step is not None else math.pi / (GRID_DENSITY * bc.l)
    _check_positive("step", eff_step)
    proj = _Projection(bc)
    grid = np.arange(0.0, k_max + eff_step, eff_step)
    roots = _scan(proj, grid, skip_origin=_zero_level_multiplicity(bc) > 0)
    return DetScan(
        k_grid=grid,
        det_values=np.asarray(proj.det_m(grid)),
        roots=tuple(r for r, _ in roots),
    )


def det_spectrum(bc: BoundaryCondition, n: int, k_max: float | None = None) -> list[EigenLevel]:
    """Lowest n levels from det M alone; no diagonalization of U anywhere.

    The channel of a level is unknowable on this code path, so the channel
    field is None and indices are global.  k_max caps the positive scan's
    reach.  Raises ScanExhausted if fewer than n levels lie below the scan's
    end, and ValueError if a given k_max is not finite and positive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k_max is not None:
        _check_positive("k_max", k_max)
    proj = _Projection(bc)
    zero_mult = _zero_level_multiplicity(bc)
    skip_origin = zero_mult > 0

    entries: list[tuple[float, float, str]] = []  # (E, k_or_kappa, kind)
    for kappa, mult in _bound_roots(proj, zero_mult):
        entries.extend([(-kappa * kappa, kappa, KIND_BOUND)] * mult)
    entries.extend([(0.0, 0.0, KIND_ZERO)] * zero_mult)

    need = n - len(entries)
    if need > 0:
        for k, mult in _positive_roots(proj, need, skip_origin, k_max):
            entries.extend([(k * k, k, KIND_POSITIVE)] * mult)
        if len(entries) < n:
            raise ScanExhausted(
                f"found {len(entries)} levels below the scan ceiling, needed {n}"
            )
    entries.sort(key=lambda t: t[0])

    # Pairs are decided one level past the cut, as solve_spectrum decides
    # them, so the n-th level's flag does not depend on n.
    levels = [
        EigenLevel(E=e, k_or_kappa=k, kind=kind, channel=None, index=i)
        for i, (e, k, kind) in enumerate(entries[:n + 1])
    ]
    return flag_degenerate(levels)[:n]


def _fd_parts(bc: BoundaryCondition, n_interior: int):
    """Spacing h, junction block J and junction patch K.

    The unknowns are the interior nodes of the left half (x = -l+h ... -h)
    followed by those of the right half (x = h ... l-h); the junction values
    z1 = phi(0-) and z2 = phi(0+) are not among them.  Away from the defect
    the operator is two decoupled 3-point stencils.  The junction rows read
    J (z2, z1) + K w = 0, and K only touches the four nodes x = -2h, -h, h,
    2h, which are columns nw-2 ... nw+1.
    """
    h = bc.l / n_interior
    # A row of the stencil sums to 4 / h^2 in absolute value.
    if not h * h > 4.0 / sys.float_info.max:
        raise SolverError(f"the FD stencil 4/h^2 at h={h!r} overflows a double")
    u = bc.u
    j_block = (u - np.eye(2)) + (3j * bc.L0 / (2.0 * h)) * (u + np.eye(2))
    d_w = np.zeros((2, 4))
    d_w[0, 2] = -4.0 / (2.0 * h)  # phi'(0+) stencil, node at x = h
    d_w[0, 3] = 1.0 / (2.0 * h)   # node at x = 2h
    d_w[1, 1] = -4.0 / (2.0 * h)  # phi'(0-) stencil, node at x = -h
    d_w[1, 0] = 1.0 / (2.0 * h)   # node at x = -2h
    k_patch = 1j * bc.L0 * (u + np.eye(2)) @ d_w
    return h, j_block, k_patch


def _fd_laplacian(h: float, n_interior: int):
    """The two decoupled 3-point stencils as complex CSC."""
    import scipy.sparse

    nw = n_interior - 1  # unknowns per side besides the junction values
    inv_h2 = 1.0 / (h * h)
    off = np.full(2 * nw - 1, -inv_h2)
    off[nw - 1] = 0.0  # the two halves only talk through the junction values
    return scipy.sparse.diags(
        [off, np.full(2 * nw, 2.0 * inv_h2), off], [-1, 0, 1], format="csc", dtype=complex
    )


def _fd_eliminated(h: float, n_interior: int, j_block: np.ndarray, k_patch: np.ndarray):
    """The FD operator with the junction values eliminated, as CSC.

    Solving the junction rows for (z2, z1) and substituting them into the
    rows next to the defect changes only rows nw-1 and nw, on columns
    nw-2 ... nw+1; everywhere else the matrix is the Laplacian.
    """
    import scipy.sparse

    lap = _fd_laplacian(h, n_interior)
    nw = n_interior - 1
    inv_h2 = 1.0 / (h * h)
    elim = -np.linalg.solve(j_block, k_patch)  # (z2, z1) rows in terms of w
    rows = np.repeat([nw - 1, nw], 4)  # left row adjacent to z1, right row adjacent to z2
    cols = np.tile(np.arange(nw - 2, nw + 2), 2)
    patch = scipy.sparse.csc_matrix(
        (np.concatenate([elim[1], elim[0]]) * -inv_h2, (rows, cols)), shape=lap.shape
    )
    return lap + patch


def _fd_tridiagonal(h: float, n_interior: int, j_block: np.ndarray, k_patch: np.ndarray):
    """A real symmetric tridiagonal (d, e) similar to the eliminated operator H.

    Name the nodes next to the defect p = (-h, h) and q = (-2h, 2h).  The
    junction coupling G = J^-1 iL0(U + I) is Hermitian, being a function of
    U with real eigenvalues, so M = -h^2 H[p, q] = I - G'/(2h), with G'
    ordered (0-, 0+), is Hermitian too; H[q, p] = -I/h^2 is the stencil and
    H[p, p] = (4M - 2I)/h^2.  When M is positive definite (positive trace
    and determinant) with Cholesky factor M = L L^H, the similarity by L on
    p turns H[p, q] into -L^H/h^2, H[q, p] into -L/h^2 and H[p, p] into
    (4 L^H L - 2I)/h^2: Hermitian, and tridiagonal but for L's corner at
    (2h, -h).  The one cycle -h, h, 2h of the junction has a real product,
    so one phase on the right half makes every entry real and leaves only
    |L[1, 0]| of L's corner.  A Givens chase then pushes the corner from
    the junction out through the right wall, one rotation per node.  Only
    2x2 closed forms, phases and rotations are used; neither U nor any
    function of it is diagonalized.

    Returns None when M is not positive definite; H is then not similar to
    a Hermitian matrix this way, and its spectrum may hold complex pairs.
    """
    elim = -np.linalg.solve(j_block, k_patch)  # rows (z2, z1), columns (-2h, -h, h, 2h)
    # M's Hermitian part, which drops the rounding of the solve.
    m00 = 1.0 + float(elim[1, 0].real)
    m11 = 1.0 + float(elim[0, 3].real)
    m10 = abs(0.5 * (complex(elim[0, 0]) + complex(elim[1, 3]).conjugate()))
    det = m00 * m11 - m10 * m10
    if not (m00 + m11 > 0.0 and det > 0.0):
        return None
    l11 = math.sqrt(m00)
    l21 = m10 / l11
    l22 = math.sqrt(det / m00)

    nw = n_interior - 1
    size = 2 * nw
    inv_h2 = 1.0 / (h * h)
    d = [2.0 * inv_h2] * size
    # e[i] couples nodes i and i + 1; one zero past the wall lets the last
    # rotation run like every other.
    e = [-inv_h2] * (size - 1) + [0.0]
    d[nw - 1] = (4.0 * (l11 * l11 + l21 * l21) - 2.0) * inv_h2
    d[nw] = (4.0 * l22 * l22 - 2.0) * inv_h2
    e[nw - 2] = -l11 * inv_h2
    e[nw - 1] = 4.0 * l21 * l22 * inv_h2
    e[nw] = -l22 * inv_h2

    # The corner b sits at (k + 2, k).  Rotating nodes k + 1 and k + 2
    # folds it into e[k] and moves it, as s e[k + 2], to (k + 3, k + 1).
    b = -l21 * inv_h2
    for k in range(nw - 1, size - 2):
        if b == 0.0:
            break
        a, f, g = d[k + 1], e[k + 1], d[k + 2]
        r = math.hypot(e[k], b)
        c, s = e[k] / r, b / r
        e[k] = r
        d[k + 1] = c * c * a + 2.0 * c * s * f + s * s * g
        d[k + 2] = s * s * a - 2.0 * c * s * f + c * c * g
        e[k + 1] = c * s * (g - a) + (c * c - s * s) * f
        b = s * e[k + 2]
        e[k + 2] *= c
    return np.array(d), np.array(e[:-1])


# Absolute tolerance of the bisection: LAPACK's setting for the most
# accurate eigenvalues dstebz can give, twice the underflow threshold.
_BISECTION_TOL = 2.0 * np.finfo(float).tiny


def _fd_bisect(d: np.ndarray, e: np.ndarray, n: int, floor: float) -> np.ndarray:
    """Sorted eigenvalues of the tridiagonal (d, e) at or above floor, n if there are.

    LAPACK bisection (dstebz) finds the k lowest eigenvalues, k = n at
    first.  Those below the floor are the lowest, so one more call with k
    raised by their count holds n levels above it, if the matrix has them.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    size = d.size
    k = min(n, size)
    while True:
        try:
            ev = eigvalsh_tridiagonal(
                d, e, select="i", select_range=(0, k - 1), tol=_BISECTION_TOL
            )
        except np.linalg.LinAlgError as exc:
            raise EigenSolverFailure(f"bisection failed on {size} unknowns: {exc}") from exc
        real = ev[ev >= floor]
        if real.size >= n or k == size:
            return real
        k = min(k + n - real.size, size)


def _real_levels(ev: np.ndarray, floor: float) -> np.ndarray:
    """Sorted real parts of the eigenvalues with |Im E| <= 1e-6 (1 + |E|), at or above floor.

    The cut scales as the FD gate does, so a deep level keeps the rounding
    its size brings to the imaginary part.
    """
    real = np.sort(ev[np.abs(ev.imag) <= 1e-6 * (1.0 + np.abs(ev.real))].real)
    return real[real >= floor]


def _fd_lowest(ham, n: int, floor: float) -> np.ndarray:
    """Sorted real eigenvalues of ham at or above floor, at least n if found.

    The fallback where _fd_tridiagonal finds M not positive definite, so
    ham's spectrum may hold complex pairs.  Shift-invert Arnoldi returns
    the k eigenvalues nearest sigma.  sigma sits one unit below the higher
    of the floor and the Gershgorin lower bound of ham, so a real level at
    or above the floor lies the closer to sigma the lower it is, and the k
    nearest eigenvalues hold the lowest such levels.  k starts at n + 4 and
    doubles, up to the size - 2 that ARPACK allows, while fewer than n of
    them are real and above the floor.  The start vector and the generator
    for any restart vector are fixed, so repeated calls return identical
    doubles.
    """
    from scipy.sparse.linalg import ArpackError, eigs

    size = ham.shape[0]
    diag = ham.diagonal()
    radius = np.asarray(abs(ham).sum(axis=1)).ravel() - np.abs(diag)
    sigma = max(floor, float(np.min(diag.real - radius))) - 1.0
    k = min(n + 4, size - 2)
    while True:
        try:
            ev = eigs(
                ham, k, sigma=sigma, which="LM", v0=np.ones(size, dtype=complex),
                return_eigenvectors=False, rng=0,
            )
        except ArpackError as exc:  # ArpackNoConvergence included
            raise EigenSolverFailure(f"ARPACK failed on {size} unknowns: {exc}") from exc
        real = _real_levels(ev, floor)
        if real.size >= n or k >= size - 2:
            return real
        k = min(2 * k, size - 2)


def fd_spectrum(bc: BoundaryCondition, n: int, n_interior: int = 256) -> FdSpectrum:
    """Lowest n levels of the finite-difference discretization.

    Each half of the box carries a standard 3-point Laplacian on n_interior
    cells (h = l / n_interior); the two junction rows encode the connection
    condition with second-order one-sided derivatives.  The junction rows
    contain no energy, so they are eliminated exactly, leaving an ordinary
    eigenproblem whose matrix is tridiagonal apart from a 2x4 patch at the
    defect.  Where the patch's coupling block M is positive definite, that
    matrix is similar to a real symmetric tridiagonal (_fd_tridiagonal),
    whose lowest levels LAPACK bisection finds (_fd_bisect).  Elsewhere the
    spectrum may hold complex pairs, and a sparse shift-invert Arnoldi
    solve (ARPACK, _fd_lowest) takes the lowest real levels.  When the
    junction block is singular the generalized eigenproblem is solved
    densely instead.  Every path is deterministic to the last bit.

    The last digits of a level depend on n: bisection and ARPACK both work
    on the whole index range asked for, so the same level can come back a
    few ulps apart for two values of n.

    Eigenvalues with |Im E| > 1e-6 (1 + |E|) are discarded, and so are
    levels deeper than kappa l = KAPPA_CEILING, which the channel and
    determinant solvers drop by the same convention.  If fewer than n real
    levels remain, or an eigensolver fails, the discretization failed and
    EigenSolverFailure is raised.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n_interior < 64:
        raise ValueError("n_interior must be at least 64")
    h, j_block, k_patch = _fd_parts(bc, n_interior)
    floor = -((KAPPA_CEILING / bc.l) ** 2)

    cond = np.linalg.cond(j_block)
    if np.isfinite(cond) and cond < 1e10:
        band = _fd_tridiagonal(h, n_interior, j_block, k_patch)
        if band is not None:
            real = _fd_bisect(*band, n, floor)
        else:
            real = _fd_lowest(_fd_eliminated(h, n_interior, j_block, k_patch), n, floor)
    else:
        import scipy.linalg

        lap = _fd_laplacian(h, n_interior)
        size = lap.shape[0]
        nw = size // 2
        inv_h2 = 1.0 / (h * h)
        full = np.zeros((size + 2, size + 2), dtype=complex)
        full[:size, :size] = lap.toarray()
        full[nw - 1, size + 1] = -inv_h2  # z1 column
        full[nw, size] = -inv_h2          # z2 column
        full[size:, nw - 2:nw + 2] = k_patch
        full[size:, size:] = j_block
        weight = np.zeros((size + 2, size + 2), dtype=complex)
        idx = np.arange(size)
        weight[idx, idx] = 1.0
        ev = scipy.linalg.eigvals(full, weight)
        real = _real_levels(ev[np.isfinite(ev)], floor)

    if real.size < n:
        raise EigenSolverFailure(
            f"only {real.size} real levels out of {n} requested at n_interior={n_interior}"
        )
    return FdSpectrum(h=h, levels=tuple(float(e) for e in real[:n]), n_interior=n_interior)
