"""Two matrix-level solvers that never diagonalize the defect matrix.

Both exist to cross-check the channel solver through entirely different
arithmetic.  The determinant solver builds the 2x2 matrix M(k) of the
connection condition over the wall-anchored basis and locates zeros of
det M(k); the finite-difference solver discretizes the kinetic operator on a
uniform grid with the connection condition encoded in two junction rows.

det M(k) is complex but carries a constant phase: it is the product of the
two channel functions times 4 e^{i arg(det U)/2}, so dividing by a square
root of det U and taking the real part yields a sign-carrying real function
g, evaluated in a form centred on U's trace (_Projection) and divided by E,
which removes the spurious zero every system has at k = 0.  No grid is
sampled.  Above E = 0, g = (sigma^2 + tau^2) q(psi), where psi, the
direction of (sigma, tau) = (sin(kl)/k, cos(kl)), turns by pi across each
branch of tan, and q has two extreme directions a right angle apart: the
vertex, whose two roots lie within pi/4 of it, and the end, with none that
near.  So one vertex knot and one end knot per branch bracket every root
(_positive_roots), and each turn is decided at its vertex: two simple roots
if g crosses zero there by more than its rounding bound, one double root if
it lies within that bound, and none otherwise.  Below E = 0, Q's vertex and
the window's ends bracket every bound root (_bound_roots).  The rounding
bound comes from the centred terms of det M, so no tolerance is set by hand;
neither knot direction is an eigenphase, and no square root of D is taken.
Roots are refined with spectrum._brentq, a port of scipy's brentq; only the
finite-difference solver imports scipy.

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
    "FdSpectrum",
    "det_matrix",
    "det_spectrum",
    "fd_spectrum",
]


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
    """det M phased to the real axis and reduced by E, in centred form.

    M / k = alpha U - beta I up to a column sign, with alpha = sigma + i L0 tau
    and beta its conjugate, so det M / k^2 = (beta - alpha t)^2 - alpha^2 D / 4
    with t = tr U / 2 and D = (u00 - u11)^2 + 4 u01 u10, tr^2 - 4 det U without
    cancellation.  Near a close pair both terms are of the order of the
    splitting squared, so g rounds by eps times the splitting, and the pair is
    resolved to full precision.  g is -Re(det M conj(phase)) / k^2, with
    phase = sqrt(det U).  The coefficients a2, a1, a0 of g as a form in
    (sigma, tau), derived once from t, D and the phase, place the knots.
    """

    def __init__(self, bc: BoundaryCondition):
        u = bc.u
        self.u, self.l, self.L0 = u, bc.l, bc.L0
        self.t = complex(0.5 * (u[0, 0] + u[1, 1]))
        diff = complex(u[0, 0] - u[1, 1])
        self.d4 = 0.25 * diff * diff + complex(u[0, 1] * u[1, 0])  # D / 4
        self.phase = cmath.exp(0.5j * cmath.phase(complex(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])))
        t, d4, L0 = self.t, self.d4, self.L0
        self.a2 = self._real((1.0 - t) ** 2 - d4)
        self.a1 = self._real(-2j * L0 * (1.0 - t * t + d4))
        self.a0 = self._real(-L0 * L0 * ((1.0 + t) ** 2 - d4))

    def _real(self, z: complex) -> float:
        # g's sign convention: -Re(z conj(phase)).
        return -(z.real * self.phase.real + z.imag * self.phase.imag)

    def _g(self, sigma: float, tau: float) -> float:
        # g from alpha, w = conj(alpha) - alpha t and z = w^2 - alpha^2 D / 4.
        alpha = complex(sigma, self.L0 * tau)
        w = alpha.conjugate() - alpha * self.t
        z = w * w - alpha * alpha * self.d4
        return -(z.real * self.phase.real + z.imag * self.phase.imag)

    def positive_scalar(self, k: float) -> float:
        """g at E = k^2 >= 0; finite and generically nonzero at k = 0."""
        x = k * self.l
        return self._g(math.sin(x) / k if k else self.l, math.cos(x))

    def bound_scalar(self, kappa: float) -> float:
        """g at E = -kappa^2 <= 0 over cosh^2(kappa l), which keeps it of order
        one and moves no root: (sigma, tau) becomes (s, 1), and g is Q(s)."""
        x = kappa * self.l
        return self._g(self.l * (math.tanh(x) / x if x else 1.0), 1.0)

    def positive_noise(self, k: float) -> float:
        """Rounding bound of positive_scalar(k)."""
        x = k * self.l
        return self._noise(math.sin(x) / k if k else self.l, math.cos(x), 1.0 + abs(x))

    def bound_noise(self, kappa: float) -> float:
        """Rounding bound of bound_scalar(kappa)."""
        x = kappa * self.l
        return self._noise(self.l * (math.tanh(x) / x if x else 1.0), 1.0, 0.0)

    def _noise(self, sigma: float, tau: float, tau_err: float) -> float:
        # sigma rounds by about eps l and tau by about eps tau_err; w rounds
        # by about eps a (1 + 3 |t|), which w^2 takes to second order where w
        # is as small as that, and z and the projection each round by about
        # eps times the sizes of their terms.
        alpha = complex(sigma, self.L0 * tau)
        w = alpha.conjugate() - alpha * self.t
        z = w * w - alpha * alpha * self.d4
        a, b = abs(alpha), abs(w)
        ad, dw = 2.0 * a * abs(self.d4), a * (1.0 + 3.0 * abs(self.t))
        return _EPS * (
            self.l * (2.0 * b * abs(1.0 - self.t) + ad)
            + tau_err * self.L0 * (2.0 * b * abs(1.0 + self.t) + ad)
            + 2.0 * b * dw + 2.0 * b * b + 3.0 * a * ad + 2.0 * abs(z) + _EPS * dw * dw
        )

    def floor_value(self) -> float:
        """bound_scalar at the kappa l = 50 floor, from rational arithmetic, rounded once.

        U's doubles are taken exactly, and sigma as l / 50: tanh(50) is 1 to
        43 digits.  det M conj(phase) is real, so the rounding of the phase
        moves its real part only by a relative eps.  A touch makes g of the
        order of |alpha|^2 eps^2 there, where U's own rounding off the unit
        circle, not its eigenphases, sets the sign; such a value is 0.
        """
        from fractions import Fraction

        def mul(p, q):
            return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

        sigma, im = Fraction(self.l) / Fraction(KAPPA_CEILING), Fraction(self.L0)
        u = [[(Fraction(x.real), Fraction(x.imag)) for x in map(complex, row)] for row in self.u]
        alpha = (sigma, im)
        # det(alpha U - conj(alpha) I)
        d0, d1 = mul(alpha, u[0][0]), mul(alpha, u[1][1])
        z = mul((d0[0] - sigma, d0[1] + im), (d1[0] - sigma, d1[1] + im))
        c = mul(mul(alpha, alpha), mul(u[0][1], u[1][0]))
        g = float(-(z[0] - c[0]) * Fraction(self.phase.real) - (z[1] - c[1]) * Fraction(self.phase.imag))
        return 0.0 if abs(g) <= 16.0 * _EPS * _EPS * float(sigma * sigma + im * im) else g


def _vertex_roots(a, v, b, ya, gv, yb, beta) -> list[tuple[float, float, float, float]]:
    """The root brackets of g on [a, b], whose ends share a sign s, with its vertex at v.

    beta bounds what rounding can do to gv = g(v): noise there plus what the
    vertex's own tolerance adds.  If s gv < -beta, g crosses zero on each
    side of v; if |gv| <= beta, the pair cannot be told from a touch, and v
    counts twice, as the bracket [v, v]; otherwise [a, b] holds no root.  An
    end at 0 takes the other's sign.
    """
    if math.copysign(1.0, ya + yb) * gv < -beta:
        return [(a, v, ya, gv), (v, b, gv, yb)]
    if abs(gv) <= beta:
        return [(v, v, 0.0, 0.0)] * 2
    return []


def _root(fun, a, b, ya, yb) -> float:
    # The root of g in [a, b]; [v, v] is a double root's bracket.
    return a if a == b else _brentq(fun, a, b, ya, yb)


def _share_sign(ya: float, yb: float) -> bool:
    # Both ends of a turn take one sign, an end at 0 the other's.
    return ya * yb > 0.0 or (ya == 0.0) != (yb == 0.0)


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


def _bound_roots(proj: _Projection, zero_mult: int) -> list[float]:
    """The bound roots of g in kappa, each as often as its multiplicity, from Q's shape.

    On [0, KAPPA_CEILING / l] g is Q(s) = a2 s^2 + a1 s + a0 up to rounding,
    and s = l tanh(kappa l) / (kappa l) falls monotonically from l, so g is
    monotone between three knots: the origin as _origin_value takes it, Q's
    vertex s = -a1 / (2 a2) (the mean of its roots, not an eigenphase) where
    it lies strictly inside, and the floor.  A piece between knots holds a
    root exactly when g changes sign across it.  Where the window's two ends
    share a sign (a zeroed origin included), _vertex_roots decides.  Each
    channel has at most one level at or below E = 0, so one zero-energy
    level owns the origin piece, and two leave no bound root.  g = 0 at the
    floor is not a root: the window is open there, as in the channel solver,
    and an end at 0 takes the other's sign.  Where g at the floor lies within
    its rounding bound, it is taken from rational arithmetic.
    """
    if zero_mult == 2:
        return []
    fun = proj.bound_scalar
    cap = KAPPA_CEILING / proj.l
    g0, gc = _origin_value(proj), fun(cap)
    if abs(gc) <= proj.bound_noise(cap):
        gc = proj.floor_value()
    knots = [(0.0, g0), (cap, gc)]
    a2, a1 = proj.a2, proj.a1
    top = math.tanh(KAPPA_CEILING) / KAPPA_CEILING
    t = -a1 / (2.0 * a2) / proj.l if a2 != 0.0 else 1.0  # tanh(x) / x at the vertex
    if top < t < 1.0:
        x = _brentq(lambda x: math.tanh(x) / x - t, 0.0, KAPPA_CEILING, 1.0 - t, top - t)
        kv = x / proj.l
        gv = fun(kv)
        if zero_mult == 0 and _share_sign(g0, gc):
            # _brentq leaves x within tol of the vertex, and tanh(x) / x
            # moves by less than x does, so Q sits off its vertex value by
            # at most a2 (l tol)^2.
            tol = _BRENT_XTOL + _BRENT_RTOL * x
            beta = proj.bound_noise(kv) + abs(a2) * (proj.l * tol) ** 2
            brackets = _vertex_roots(0.0, kv, cap, g0, gv, gc, beta)
            if gc == 0.0 and brackets and brackets[1][0] < brackets[1][1]:
                del brackets[1]  # a crossing within U's rounding of the open floor
            return [_root(fun, *b) for b in brackets]
        knots.insert(1, (kv, gv))
    if zero_mult:
        del knots[0]  # the zero-energy level's own piece
    # An exact zero at the vertex is a root; _brentq returns it as it is.
    return [
        _root(fun, a, b, ya, yb)
        for (a, ya), (b, yb) in zip(knots, knots[1:])
        if ya * yb < 0.0 or (yb == 0.0 and b < cap)
    ]


def _directions(proj: _Projection) -> tuple[tuple[float, float], tuple[float, float], float]:
    """(cos, sin) of q's vertex and end directions, each with cos >= 0, and q's swing r.

    q = (a0 + a2) / 2 + (r / 2) cos(2 psi - phi), with r = hypot(a0 - a2, a1)
    and phi = atan2(a1, a0 - a2), is largest at psi = phi / 2.  Its
    direction is taken by the stable half-angle form, and the other extreme
    lies a right angle away.  The extreme of the smaller |q| is the vertex.
    """
    p, a1 = proj.a0 - proj.a2, proj.a1
    r = math.hypot(p, a1)
    c, s = (r + p, a1) if p >= 0.0 else (a1, r - p)
    if c < 0.0 or (c == 0.0 and s < 0.0):
        c, s = -c, -s
    n = math.hypot(c, s)
    top, side = (c / n, s / n), ((s / n, -c / n) if s > 0.0 else (-s / n, c / n))
    return (side, top, r) if proj.a0 + proj.a2 >= 0.0 else (top, side, r)


def _knot(l: float, m: int, c: float, s: float) -> float:
    """The k on branch m of tan (kl within pi/2 of m pi; [0, pi/2) for m = 0)
    where psi points along (c, s), c >= 0.

    The knot function sigma c - tau s = (c l sin x - s x cos x) / x, x = kl,
    rises through zero once on the branch, from (-1)^(m+1) c / k at its
    lower pole to (-1)^m c / k at its upper one; those pole values are taken
    in closed form, since cos(kl) is only rounding there, and c = 0 puts the
    knot on the upper pole.  Newton's method on the numerator, from one
    fixed-point step of x = m pi + atan(s x / (c l)), finds it; _brentq on
    the knot function is the fallback, and serves branch 0.
    """
    lo, hi = (m - 0.5) * math.pi, (m + 0.5) * math.pi
    if c == 0.0:
        return hi / l
    if m > 0:
        x = m * math.pi + math.atan2(s * m * math.pi, c * l)
        for _ in range(8):
            sx, cx = math.sin(x), math.cos(x)
            slope = (c * l - s) * cx + s * x * sx
            step = (c * l * sx - s * x * cx) / slope if slope else math.inf
            x -= step
            if not lo < x < hi:
                break
            if abs(step) <= 4.0 * _EPS * x:
                return x / l
    sign = -1.0 if m % 2 else 1.0
    k_lo, k_hi = max(lo, 0.0) / l, hi / l
    return _brentq(
        lambda k: c * l * sinc_kl(k, l) - s * math.cos(k * l), k_lo, k_hi,
        -sign * c / k_lo if m else c * l - s, sign * c / k_hi,
    )


def _knots(proj: _Projection, vertex: tuple[float, float], end: tuple[float, float]):
    """(k, g(k), is_vertex) for every knot above k = 0, ascending, without end.

    An end knot is taken in closed form at kl = m pi or at the nearer pole,
    whichever lies within pi/4 of the end direction, wherever g there has
    the end's sign beyond its rounding bound: no root lies between the two
    then, so either bounds the same turns.  Elsewhere it is solved for.
    """
    l, fun = proj.l, proj.positive_scalar
    end_sign = 1.0 if proj.a0 + proj.a2 >= 0.0 else -1.0
    order = sorted([(vertex, True), (end, False)], key=lambda d: math.atan2(d[0][1], d[0][0]))
    m = 0
    while True:
        for (c, s), is_vertex in order:
            if m == 0 and s <= l * c:
                continue  # on branch 0 psi starts at atan(l): this direction lies below E = 0
            k = None
            if not is_vertex and (m or abs(s) > c):
                k = (m if abs(s) <= c else m + math.copysign(0.5, s)) * math.pi / l
                g = fun(k)
                if not (g * end_sign > 0.0 and abs(g) > proj.positive_noise(k)):
                    k = None
            if k is None:
                k = _knot(l, m, c, s)
                g = fun(k)
            yield k, g, is_vertex
        m += 1


def _vertex_beta(proj: _Projection, k: float, r: float) -> float:
    """Rounding bound of g at a vertex knot k: noise there plus how far the
    knot's distance from the true vertex moves g, (sigma^2 + tau^2) r dpsi^2.

    dpsi is the knot's own tolerance in k times dpsi/dk, plus the rounding
    of the vertex direction, which comes from the coefficients a0, a1, a2.
    """
    x = k * proj.l
    sigma, tau = math.sin(x) / k, math.cos(x)
    rho2 = sigma * sigma + tau * tau
    slope = (x - math.sin(x) * tau) / (k * k * rho2)
    dpsi = slope * (_BRENT_XTOL + _BRENT_RTOL * k) + 4.0 * _EPS * (
        abs(proj.a0) + abs(proj.a1) + abs(proj.a2)) / r
    return proj.positive_noise(k) + rho2 * r * dpsi * dpsi


def _positive_roots(
    proj: _Projection, need: int, zero_mult: int, k_max: float | None
) -> list[float]:
    """The lowest positive roots, each as often as its multiplicity, until they count need + 1.

    need levels are reported, but pairs are decided one level past the cut,
    so one more root is refined.  The walk goes from the origin over the
    knots, and a turn between two end knots (the origin at the left of the
    first) whose ends share a sign is decided at its vertex by
    _vertex_roots; elsewhere each piece between knots holds a root where g
    changes sign across it or is exactly 0 at its right end.  A zero-energy
    level owns the lowest root of the first turn, and two own its lowest
    two.  Each bracket is refined only when the count still needs it, and
    the walk ends at the first root above its ceiling: (need / 2 + 6) pi / l,
    or k_max where that is lower, since each channel has a root on every
    branch of tan, pi / l wide.  The brackets do not depend on the ceiling,
    so neither do the roots.
    """
    fun = proj.positive_scalar
    ceiling = (0.5 * need + 6.0) * math.pi / proj.l
    if k_max is not None:
        ceiling = min(ceiling, k_max)
    vertex, end, r = _directions(proj)
    found: list[float] = []
    a, ya = 0.0, (0.0 if zero_mult else _origin_value(proj))
    v = gv = None
    for k, g, is_vertex in _knots(proj, vertex, end):
        if is_vertex:
            v, gv = k, g
            continue
        if v is not None and _share_sign(ya, g):
            brackets = _vertex_roots(a, v, k, ya, gv, g, _vertex_beta(proj, v, r))
        else:
            pieces = [(a, ya), (k, g)] if v is None else [(a, ya), (v, gv), (k, g)]
            brackets = [
                (p, q, yp, yq) for (p, yp), (q, yq) in zip(pieces, pieces[1:])
                if yp * yq < 0.0 or yq == 0.0
            ]
        for bracket in brackets[zero_mult if a == 0.0 else 0:]:
            root = _root(fun, *bracket) if len(found) <= need else math.inf
            if not root <= ceiling:
                return found
            found.append(root)
        if not k < ceiling:
            return found
        a, ya, v = k, g, None
    return found  # not reached: the knots never end


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def det_spectrum(bc: BoundaryCondition, n: int, k_max: float | None = None) -> list[EigenLevel]:
    """Lowest n levels from det M alone; no diagonalization of U anywhere.

    The channel of a level is unknowable on this code path, so the channel
    field is None and indices are global.  k_max caps the positive walk's
    reach.  Raises ScanExhausted if fewer than n levels lie below the walk's
    end, and ValueError if a given k_max is not finite and positive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k_max is not None:
        _check_positive("k_max", k_max)
    proj = _Projection(bc)
    zero_mult = _zero_level_multiplicity(bc)

    entries: list[tuple[float, float, str]] = []  # (E, k_or_kappa, kind)
    entries.extend((-kappa * kappa, kappa, KIND_BOUND) for kappa in _bound_roots(proj, zero_mult))
    entries.extend([(0.0, 0.0, KIND_ZERO)] * zero_mult)

    need = n - len(entries)
    if need > 0:
        entries.extend((k * k, k, KIND_POSITIVE) for k in _positive_roots(proj, need, zero_mult, k_max))
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
