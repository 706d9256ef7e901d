"""Two matrix-level solvers that never diagonalize the defect matrix.

Both exist to cross-check the channel solver through entirely different
arithmetic.  The determinant solver builds the 2x2 matrix M(k) of the
connection condition over the wall-anchored basis and locates zeros of
det M(k); the finite-difference solver discretizes the kinetic operator on a
uniform grid with the connection condition encoded in two junction rows.

det M(k) is complex but carries a constant phase: it is the product of the
two channel functions times 4 e^{i arg(det U)/2}, so dividing by a square
root of det U and taking the real part yields a sign-carrying real function.
The scan works on that projection divided by E (an entire function of E with
a finite, generically nonzero limit at E = 0), which removes the spurious
zero every system has at k = 0 and keeps near-threshold roots bracketable
from the origin.  On the bound side the projection is additionally divided by
cosh^2(kappa l) to strip the exponential growth that would otherwise defeat
relative thresholds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    KIND_BOUND,
    KIND_POSITIVE,
    KIND_ZERO,
    BoundaryCondition,
    connection_matrix,
)
from .errors import EigenSolverFailure, ScanExhausted
from .spectrum import (
    GRID_DENSITY,
    KAPPA_CEILING,
    ZERO_LEVEL_TOL,
    EigenLevel,
    flag_degenerate,
    sinc_kl,
    sinhc,
)

__all__ = [
    "DetScan",
    "FdSpectrum",
    "det_matrix",
    "det_scan",
    "det_spectrum",
    "fd_spectrum",
]

# Candidate local minima of the projected determinant below this fraction of
# the scan maximum are probed for an unresolved close pair or a double root.
# The prefilter must stay loose: a genuine touch root halfway between grid
# points is only sampled down to about (step/2)^2 times the local curvature,
# so anything tighter silently drops off-grid double roots.  False candidates
# just cost a cheap sub-scan and are rejected by the |det M| acceptance test.
MIN_CANDIDATE_REL = 1e-2
# A refined minimum counts as a root only if the (normalized) |det M| drops
# below this fraction of its size on the candidate cell's edges.
ROOT_ACCEPT_REL = 1e-9
# Singular-value ratio below which M at a root counts as doubly degenerate.
DOUBLE_SV_TOL = 1e-6

_BRENT_XTOL = 1e-13
_BRENT_RTOL = 1e-15


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
    """det Mphased to the real axis and reduced by E, in both energy regimes.

    Precomputes the three bilinear coefficients of det M over (sin, k cos)
    and the constant phase sqrt(det U), so grid evaluation is vectorized and
    free of any 2x2 assembly.

    positive_scalar is positive for one float, for the root refiners, which
    call it one point at a time.  It takes the sinc step with sinc_kl, in
    np.sinc's operations and order, and keeps the coefficients and the phase
    as np.complex128 scalars, so its complex products and quotient are
    numpy's: Python complex division differs from numpy's in the last bit.
    Both forms therefore return the same doubles.
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

    def positive_scalar(self, k: float) -> float:
        """positive(k) for one float, with the same double out."""
        sigma = self.l * sinc_kl(k, self.l)
        tau = math.cos(k * self.l)
        z = sigma * sigma * self.det_a + tau * tau * self.det_b + sigma * tau * self.mixed
        return float((-z / self.phase).real)

    def bound(self, kappa):
        """Normalized projection at E = -kappa^2 <= 0; matches positive(0) at 0.

        The division by cosh^2(kappa l) keeps values of order one across the
        whole kappa window without moving any root.
        """
        x = np.asarray(kappa, dtype=float) * self.l
        ch = np.cosh(x)
        return self._reduced(self.l * sinhc(x), ch) / (ch * ch)

    def at_zero(self) -> float:
        return float(self._reduced(self.l, 1.0))


def _multiplicity(m: np.ndarray, scale: float) -> int:
    """2 when the whole connection matrix has collapsed at the root.

    A doubly degenerate level means a two-dimensional kernel, and for a 2x2
    matrix that forces M itself to vanish, so the largest singular value is
    compared against an analytic size scale for M at that wavenumber.  The
    smaller singular value is useless as a discriminator: it is |det M| / s0
    and dies at *every* root, double or simple.
    """
    s0 = float(np.linalg.svd(m, compute_uv=False)[0])
    return 2 if s0 <= DOUBLE_SV_TOL * scale else 1


def _polish_vertex(fun, r: float, a: float, b: float) -> float:
    """Sharpen a double root of the projection by local cubic fitting.

    Minimizing |g| localizes a quadratic touch only down to the fp noise
    floor of g (about 1e-8 in the wavenumber).  A quadratic fit would leave
    the cubic asymmetry of g as a ~3.5*delta^2*(c3/c2) vertex bias, so a
    degree-3 least-squares fit is used instead and the vertex is read off
    the root of the fitted derivative; two re-centered passes reach ~1e-12.
    """
    offsets = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    for _ in range(2):
        delta = 1e-4 * (1.0 + abs(r))
        xs = r + delta * offsets
        ys = np.asarray(fun(xs), dtype=float)
        coef = np.polynomial.polynomial.polyfit(xs - r, ys, 3)
        if not np.isfinite(coef).all() or coef[2] == 0.0:
            break
        c1, c2, c3 = float(coef[1]), float(coef[2]), float(coef[3])
        x = -0.5 * c1 / c2
        curv = 2.0 * c2 + 6.0 * c3 * x
        if curv != 0.0:
            x -= (c1 + 2.0 * c2 * x + 3.0 * c3 * x * x) / curv
        if not math.isfinite(x):
            break
        x = min(max(x, -3.0 * delta), 3.0 * delta)
        r = min(max(r + x, a), b)
    return r


def _projected_roots(
    grid: np.ndarray,
    vals: np.ndarray,
    fun,
    fun_scalar,
    det_abs_fun,
    mult_fun,
    skip_origin: bool,
) -> list[tuple[float, int]]:
    """Roots of a projected determinant on one grid, with multiplicities.

    Sign changes give simple roots.  Local minima of |values| below a loose
    prefilter fraction of the scan maximum are sub-scanned for a close pair
    of crossings; if none shows up they are treated as touch candidates,
    accepted only when |det M| at the refined point drops far below its size
    at the cell edges.  An accepted touch whose matrix has fully collapsed is
    a double root and gets a parabola-vertex polish; otherwise it is one zero
    of a pair the sub-scan could not split, and since |g|-minimization may
    land on either zero (or just outside the pair), a geometric ladder of
    probe points hunts for the interior sign to bracket both crossings.

    fun is the projection on arrays, for the sub-scan and the vertex polish;
    fun_scalar is the same function on one float, for brentq, the bounded
    minimization and the probe ladder, and must return the same doubles.
    """
    from scipy.optimize import brentq, minimize_scalar

    mags = np.abs(vals)
    scan_max = float(np.max(mags))
    if scan_max == 0.0:
        return []
    step = float(grid[1] - grid[0])
    found: list[tuple[float, int]] = []
    start = 1 if skip_origin else 0
    head = vals[start:-1]
    for i in start + np.flatnonzero((head == 0.0) | (head * vals[start + 1:] < 0.0)):
        if vals[i] == 0.0:
            if grid[i] > 0.0:
                touching = i > start and vals[i - 1] * vals[i + 1] > 0.0
                r = float(grid[i])
                found.append((r, mult_fun(r) if touching else 1))
        else:
            r = brentq(fun_scalar, grid[i], grid[i + 1], xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
            found.append((float(r), 1))

    threshold = MIN_CANDIDATE_REL * scan_max
    lo = max(start, 1)
    mid = mags[lo:-1]
    dips = (mid <= threshold) & (mid < mags[lo - 1:-2]) & (mid <= mags[lo + 1:])
    for i in lo + np.flatnonzero(dips):
        if any(abs(grid[i] - r) <= 1.5 * step for r, _ in found):
            continue
        a, b = float(grid[i - 1]), float(grid[i + 1])
        sub = np.linspace(a, b, 257)
        sv = np.asarray(fun(sub))
        crossings = np.nonzero(sv[:-1] * sv[1:] < 0.0)[0]
        if crossings.size:
            for j in crossings:
                r = brentq(fun_scalar, sub[j], sub[j + 1], xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
                found.append((float(r), 1))
            continue
        res = minimize_scalar(
            lambda k: abs(float(fun_scalar(k))), bounds=(a, b), method="bounded",
            options={"xatol": 1e-13},
        )
        r = float(res.x)
        local_scale = max(det_abs_fun(a), det_abs_fun(b))
        if det_abs_fun(r) > ROOT_ACCEPT_REL * (1.0 + local_scale):
            continue
        if mult_fun(r) == 2:
            found.append((_polish_vertex(fun, r, a, b), 2))
            continue
        s_edge = math.copysign(1.0, sv[0])
        probe = None
        delta = 4e-8 * (1.0 + abs(r))
        while delta < (b - a) and probe is None:
            for x in (r - delta, r + delta):
                if a < x < b and float(fun_scalar(x)) * s_edge < 0.0:
                    probe = x
                    break
            delta *= 4.0
        if probe is None:
            continue  # the dip never crosses zero: no root here
        for lo, hi in ((a, probe), (probe, b)):
            rr = brentq(fun_scalar, lo, hi, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
            found.append((float(rr), 1))
    found.sort(key=lambda t: t[0])
    return found


def _zero_level_multiplicity(bc: BoundaryCondition) -> int:
    m0 = connection_matrix(bc.u, bc.L0, bc.l, 1.0)
    s = np.linalg.svd(m0, compute_uv=False)
    tol = 2.0 * ZERO_LEVEL_TOL * (bc.l + bc.L0)
    if s[1] > tol:
        return 0
    return 1 if s[0] > tol else 2


def _bound_roots(bc: BoundaryCondition, proj: _Projection, skip_origin: bool) -> list[tuple[float, int]]:
    cap = KAPPA_CEILING / bc.l
    grid = np.linspace(0.0, cap, 2049)
    vals = np.asarray(proj.bound(grid))

    def det_abs(kappa: float) -> float:
        if kappa == 0.0:
            return abs(proj.at_zero())
        ch = math.cosh(kappa * bc.l)
        return abs(np.linalg.det(det_matrix(bc, 1j * kappa))) / (ch * ch)

    def mult(kappa: float) -> int:
        scale = 2.0 + 2.0 * bc.L0 * (kappa + 1.0 / bc.l)
        return _multiplicity(det_matrix(bc, 1j * kappa) / math.cosh(kappa * bc.l), scale)

    return _projected_roots(grid, vals, proj.bound, proj.bound, det_abs, mult, skip_origin)


def _positive_det_abs(bc: BoundaryCondition, proj: _Projection):
    def det_abs(k: float) -> float:
        if k == 0.0:
            return abs(proj.at_zero())
        return abs(np.linalg.det(det_matrix(bc, k)))

    return det_abs


def _positive_mult(bc: BoundaryCondition):
    def mult(k: float) -> int:
        return _multiplicity(det_matrix(bc, k), 2.0 + 2.0 * bc.L0 * (abs(k) + 1.0 / bc.l))

    return mult


def _positive_roots(
    bc: BoundaryCondition,
    proj: _Projection,
    need: int,
    skip_origin: bool,
    k_max: float | None,
) -> list[tuple[float, int]]:
    step = math.pi / (GRID_DENSITY * bc.l)
    hi = k_max if k_max is not None else (0.5 * need + 6.0) * math.pi / bc.l
    ceiling = hi if k_max is not None else 8.0 * hi
    det_abs = _positive_det_abs(bc, proj)
    mult = _positive_mult(bc)
    while True:
        grid = np.arange(0.0, hi + step, step)
        vals = np.asarray(proj.positive(grid))
        roots = _projected_roots(
            grid, vals, proj.positive, proj.positive_scalar, det_abs, mult, skip_origin
        )
        if sum(m for _, m in roots) >= need or hi >= ceiling:
            return roots
        hi = min(1.5 * hi, ceiling)


def det_scan(bc: BoundaryCondition, k_max: float, step: float | None = None) -> DetScan:
    """Sweep det M over [0, k_max] and return the refined positive roots."""
    proj = _Projection(bc)
    eff_step = step if step is not None else math.pi / (GRID_DENSITY * bc.l)
    grid = np.arange(0.0, k_max + eff_step, eff_step)
    vals = np.asarray(proj.positive(grid))
    roots = _projected_roots(
        grid,
        vals,
        proj.positive,
        proj.positive_scalar,
        _positive_det_abs(bc, proj),
        _positive_mult(bc),
        skip_origin=_zero_level_multiplicity(bc) > 0,
    )
    return DetScan(
        k_grid=grid,
        det_values=np.asarray(proj.det_m(grid)),
        roots=tuple(r for r, _ in roots),
    )


def det_spectrum(bc: BoundaryCondition, n: int, k_max: float | None = None) -> list[EigenLevel]:
    """Lowest n levels from det M alone; no diagonalization of U anywhere.

    The channel of a level is unknowable on this code path, so the channel
    field is None and indices are global.  Raises ScanExhausted if the search
    ceiling (k_max when given) is reached before n levels appear.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    proj = _Projection(bc)
    zero_mult = _zero_level_multiplicity(bc)
    skip_origin = zero_mult > 0

    entries: list[tuple[float, float, str]] = []  # (E, k_or_kappa, kind)
    for kappa, mult in _bound_roots(bc, proj, skip_origin):
        entries.extend([(-kappa * kappa, kappa, KIND_BOUND)] * mult)
    entries.extend([(0.0, 0.0, KIND_ZERO)] * zero_mult)

    need = n - len(entries)
    if need > 0:
        for k, mult in _positive_roots(bc, proj, need, skip_origin, k_max):
            entries.extend([(k * k, k, KIND_POSITIVE)] * mult)
        if len(entries) < n:
            raise ScanExhausted(
                f"found {len(entries)} levels below the scan ceiling, needed {n}"
            )
    entries.sort(key=lambda t: t[0])
    entries = entries[:n]

    levels = [
        EigenLevel(E=e, k_or_kappa=k, kind=kind, channel=None, index=i)
        for i, (e, k, kind) in enumerate(entries)
    ]
    return flag_degenerate(levels, cross_channel=False)


def _fd_parts(bc: BoundaryCondition, n_interior: int):
    """Spacing, sparse Laplacian, junction block J and junction patch K.

    The unknowns are the interior nodes of the left half (x = -l+h ... -h)
    followed by those of the right half (x = h ... l-h); the junction values
    z1 = phi(0-) and z2 = phi(0+) are not among them.  The Laplacian is the
    two decoupled 3-point stencils.  The junction rows read J (z2, z1) + K w
    = 0, and K only touches the four nodes x = -2h, -h, h, 2h, which are
    columns nw-2 ... nw+1.
    """
    import scipy.sparse

    h = bc.l / n_interior
    nw = n_interior - 1  # unknowns per side besides the junction values
    inv_h2 = 1.0 / (h * h)
    off = np.full(2 * nw - 1, -inv_h2)
    off[nw - 1] = 0.0  # the two halves only talk through the junction values
    lap = scipy.sparse.diags(
        [off, np.full(2 * nw, 2.0 * inv_h2), off], [-1, 0, 1], format="csc", dtype=complex
    )

    u = bc.u
    j_block = (u - np.eye(2)) + (3j * bc.L0 / (2.0 * h)) * (u + np.eye(2))
    d_w = np.zeros((2, 4))
    d_w[0, 2] = -4.0 / (2.0 * h)  # phi'(0+) stencil, node at x = h
    d_w[0, 3] = 1.0 / (2.0 * h)   # node at x = 2h
    d_w[1, 1] = -4.0 / (2.0 * h)  # phi'(0-) stencil, node at x = -h
    d_w[1, 0] = 1.0 / (2.0 * h)   # node at x = -2h
    k_patch = 1j * bc.L0 * (u + np.eye(2)) @ d_w
    return h, lap, j_block, k_patch


def _fd_eliminated(h: float, lap, j_block: np.ndarray, k_patch: np.ndarray):
    """The FD operator with the junction values eliminated, as CSC.

    Solving the junction rows for (z2, z1) and substituting them into the
    rows next to the defect changes only rows nw-1 and nw, on columns
    nw-2 ... nw+1; everywhere else the matrix is the Laplacian.
    """
    import scipy.sparse

    nw = lap.shape[0] // 2
    inv_h2 = 1.0 / (h * h)
    elim = -np.linalg.solve(j_block, k_patch)  # (z2, z1) rows in terms of w
    rows = np.repeat([nw - 1, nw], 4)  # left row adjacent to z1, right row adjacent to z2
    cols = np.tile(np.arange(nw - 2, nw + 2), 2)
    patch = scipy.sparse.csc_matrix(
        (np.concatenate([elim[1], elim[0]]) * -inv_h2, (rows, cols)), shape=lap.shape
    )
    return lap + patch


def _real_levels(ev: np.ndarray, floor: float) -> np.ndarray:
    """Sorted real parts of the eigenvalues with |Im E| <= 1e-6, at or above floor."""
    real = np.sort(ev[np.abs(ev.imag) <= 1e-6].real)
    return real[real >= floor]


def _fd_lowest(ham, n: int, floor: float) -> np.ndarray:
    """Sorted real eigenvalues of ham at or above floor, at least n if found.

    Shift-invert Arnoldi returns the k eigenvalues nearest sigma.  sigma sits
    one unit below the higher of the floor and the Gershgorin lower bound of
    ham, so a real level at or above the floor lies the closer to sigma the
    lower it is, and the k nearest eigenvalues hold the lowest such levels.
    k starts at n + 4 and doubles, up to the size - 2 that ARPACK allows,
    while fewer than n of them are real and above the floor.  The start
    vector and the generator for any restart vector are fixed, so repeated
    calls return identical doubles.
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
    defect.  Its lowest levels come from a sparse shift-invert Arnoldi solve
    (ARPACK, see _fd_lowest), deterministic to the last bit.  When the
    junction block is singular the generalized eigenproblem is solved densely
    instead.

    Eigenvalues with |Im E| > 1e-6 are discarded, and so are levels deeper
    than kappa l = KAPPA_CEILING, which the channel and determinant solvers
    drop by the same convention.  If fewer than n real levels remain, or
    ARPACK fails, the discretization failed and EigenSolverFailure is raised.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n_interior < 64:
        raise ValueError("n_interior must be at least 64")
    h, lap, j_block, k_patch = _fd_parts(bc, n_interior)
    size = lap.shape[0]
    floor = -((KAPPA_CEILING / bc.l) ** 2)

    cond = np.linalg.cond(j_block)
    if np.isfinite(cond) and cond < 1e10:
        real = _fd_lowest(_fd_eliminated(h, lap, j_block, k_patch), n, floor)
    else:
        import scipy.linalg

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
