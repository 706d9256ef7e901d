"""Two matrix-level solvers that never diagonalize the defect matrix.

Both exist to cross-check the channel solver through entirely different
arithmetic, so this module imports nothing from it (spectrum): the level
record, the degeneracy rule, the floor, eps and Brent's method come from
levels, which all three solvers share.  The determinant solver locates
the zeros of det M(k), M the 2x2 matrix of the connection condition over
the wall-anchored basis; it evaluates det M in centred form and never
builds M.  The finite-difference solver discretizes the kinetic operator
on a uniform grid with the connection condition encoded in two junction
rows.

Both determinants are one form.  Each is det(alpha U - conj(alpha) I) up
to a column sign, with alpha = sigma + i L0 tau; phased by sqrt(det U) it
is a real form g in (sigma, tau), the product of the two channel
functions, evaluated centred on U's trace (_Form).  Det takes (sigma, tau)
= (sin(kl)/k, cos(kl)) above E = 0 and (tanh(kappa l)/kappa, 1) below, so g
is det M divided by E, which removes the spurious zero every system has at
k = 0 (_Projection); FD takes them from the discrete wave that solves its
stencil.  Each keeps its own wave, Newton's method and rounding bound, and
no eigenvalue solver runs.  Brent refines on the raw form; the walk
decides on the read: the wave, _Form.__call__ and the rounding bound.  The
raw g, the one function Brent's method calls once per step, is
_Form.raw(wave): the solver's own wave and the form's operations in
__call__'s order, so it returns the read's double.  Each wave is written
once, and the form's arithmetic only in _Form.
Both read U only through the form's t, d4 and phase (_reads), and det also
through g at the floor: _key and _Projection.key name that as one value,
so boxes of one l and L0 whose values are equal pose one problem.

No grid is sampled.  The direction psi of (sigma, tau) rises monotonically
with E from the kappa l = 50 floor, and g = (sigma^2 + tau^2) q(psi).  q has
two extreme directions a right angle apart (_Form.directions): the vertex,
whose two roots lie within pi/4 of it, and the end, with none that near.
So knots at both directions split the walk into turns of psi by pi, each
holding exactly two roots.  Both solvers walk one walk (_roots) over knots
placed by one rule (_knots) between the points where their wave is known
in closed form: the floor, E = 0, and every quarter turn kl = j pi / 2 for
det, every piece end ql = m pi for FD.  An end knot within pi/4 of such a
point's direction is that point wherever g there reads with the end's
sign; every other knot is the solver's own Newton step (_knot in k,
_fd_knot in the discrete wavenumber q) or, where that declines, the
walk's one Brent solve of c sigma - s tau on the piece.  One rule
decides every turn (_turn): a root on each side of the vertex where g
there reads with the sign opposite to the ends', that of a0 + a2, and a
double root at the vertex otherwise.  g reads 0 within its rounding bound,
from the centred terms of the form, so no tolerance is set by hand; an
end that reads 0 is the root, and a zero level is a turn whose g(0) reads
0.  No knot direction is an eigenphase, and no square root of D is taken.
Roots are refined with levels._brentq, a port of scipy's brentq.  A
bracket that ends at its turn's vertex v, where q is stationary, is
refined in t = ((y - v) / (far - v))^2 on [0, 1], y = v + (far - v) sqrt(t),
in which g is nearly linear near v, to a stop of a few ulps of y; a floor
turn without a vertex, and a bracket whose vertex end the cut at E = 0
replaced, are refined in y to brentq's absolute 1e-13.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCondition
from .errors import EigenSolverFailure, ScanExhausted, SolverError
from .levels import _EPS, KAPPA_CEILING, Spectrum, _brentq, _count, _may_pair, degenerate_partners

__all__ = [
    "FdSpectrum",
    "det_spectrum",
    "fd_spectrum",
]


@dataclass(frozen=True, eq=False)
class FdSpectrum(Spectrum):
    """Lowest levels of the discretized operator on n_interior cells of spacing h; no pairs."""

    h: float
    n_interior: int


def _reads(u: np.ndarray) -> tuple[complex, complex, complex]:
    """t, d4 and phase of U (_Form): all that the form reads of U."""
    (u00, u01), (u10, u11) = np.asarray(u, dtype=complex).tolist()
    diff = u00 - u11
    phase = cmath.exp(0.5j * cmath.phase(u00 * u11 - u01 * u10))
    return 0.5 * (u00 + u11), 0.25 * diff * diff + u01 * u10, phase


def _key(t: complex, d4: complex, phase: complex) -> bytes:
    """t, d4 and phase bit for bit, so -0.0 is not 0.0: FD's problem on a box of given l and L0."""
    return struct.pack("6d", t.real, t.imag, d4.real, d4.imag, phase.real, phase.imag)


class _Form:
    """The phased determinant of the connection condition, a real form g in (sigma, tau).

    N = alpha U - conj(alpha) I with alpha = sigma + i L0 tau, so det N =
    w^2 - alpha^2 d4, with w = conj(alpha) - alpha t, t = tr U / 2 and
    d4 = ((u00 - u11)^2 + 4 u01 u10) / 4, tr^2 / 4 - det U without
    cancellation.  det N conj(phase), phase = sqrt(det U), is real, and g
    is minus it: the product over both channels of sin(theta / 2) sigma +
    L0 cos(theta / 2) tau, up to a positive factor, so its two roots in
    tau / sigma are real.  Near a close pair w and d4 are both small, so g
    rounds by eps times the splitting and the pair is resolved.  Det and FD
    evaluate this one form, each at its own wave's (sigma, tau).  Its
    coefficients a2, a1, a0 place the knots, and g has the sign of a0 + a2
    at an end knot.  sigma reaches sigma_max and |tau| 1.5, and g and its
    rounding bounds take terms of up to 64 |alpha|^2: where those overflow
    a double, SolverError is raised, and so it is where all three
    coefficients underflow to 0, as at U = I with L0 below about 1e-162,
    since the form then has no direction.
    """

    def __init__(self, u: np.ndarray, L0: float, sigma_max: float):
        if not 64.0 * (sigma_max * sigma_max + L0 * L0) < sys.float_info.max:
            raise SolverError(
                "the phased determinant of the connection condition overflows a double on this box")
        self.L0 = L0
        self.t, self.d4, self.phase = _reads(u)
        t, d4 = self.t, self.d4
        self.a2 = self._real((1.0 - t) ** 2 - d4)
        self.a1 = self._real(-2j * L0 * (1.0 - t * t + d4))
        self.a0 = self._real(-L0 * L0 * ((1.0 + t) ** 2 - d4))
        if self.a0 == self.a1 == self.a2 == 0.0:
            raise SolverError(
                "the phased determinant of the connection condition underflows a double on this box")
        self.end_sign = 1.0 if self.a0 + self.a2 >= 0.0 else -1.0

    def _real(self, z: complex) -> float:
        # g's sign convention: -Re(z conj(phase)).
        return -(z.real * self.phase.real + z.imag * self.phase.imag)

    def __call__(self, sigma: float, tau: float) -> tuple[complex, complex, complex, float]:
        """(alpha, w, z, g) at (sigma, tau), z = det N: what both reads need.
        raw repeats these operations, in this order, for the same double."""
        alpha = complex(sigma, self.L0 * tau)
        w = alpha.conjugate() - alpha * self.t
        z = w * w - alpha * alpha * self.d4
        return alpha, w, z, self._real(z)

    def raw(self, wave):
        """g at x from wave(x) = (sigma, tau), raw: the function Brent's method calls.

        It binds the form's constants once and returns __call__'s g, by the
        same operations; it does not call __call__, which would cost a call
        and a 4-tuple per step.
        """
        L0, t, d4, re, im = self.L0, self.t, self.d4, self.phase.real, self.phase.imag

        def g(x: float) -> float:
            sigma, tau = wave(x)
            alpha = complex(sigma, L0 * tau)
            w = alpha.conjugate() - alpha * t
            z = w * w - alpha * alpha * d4
            return -(z.real * re + z.imag * im)
        return g

    def directions(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(cos, sin) of q's vertex and end directions, each with cos >= 0.

        q = (a0 + a2) / 2 + (r / 2) cos(2 psi - phi), with r = hypot(a0 - a2, a1)
        and phi = atan2(a1, a0 - a2), is largest at psi = phi / 2.  Its
        direction is taken by the stable half-angle form, and the other extreme
        lies a right angle away.  The extreme of the smaller |q| is the vertex.
        """
        p, a1 = self.a0 - self.a2, self.a1
        r = math.hypot(p, a1)
        c, s = (r + p, a1) if p >= 0.0 else (a1, r - p)
        if c < 0.0 or (c == 0.0 and s < 0.0):
            c, s = -c, -s
        n = math.hypot(c, s)
        top, side = (c / n, s / n), ((s / n, -c / n) if s > 0.0 else (-s / n, c / n))
        return (side, top) if self.end_sign > 0.0 else (top, side)


class _Projection(_Form):
    """Det's wave on the form: det M reduced by E, as g(y).

    y is the signed wavenumber: E = y^2 with k = y above E = 0, and E = -y^2
    with kappa = -y below it.  M / k = alpha U - beta I up to a column sign,
    with alpha = sigma + i L0 tau and beta its conjugate, so g is the form
    at (sigma, tau) = (sin(kl) / k, cos(kl)) above E = 0; below it det M is
    also divided by cosh^2(kappa l), which keeps g of order one and moves
    no root, and (sigma, tau) = (tanh(kappa l) / kappa, 1).  Both are (l, 1)
    at E = 0.  start is the floor knot (y, g(y)) det's walk starts from: g
    as read, or, where that is 0, from rational arithmetic (floor_value).
    """

    def __init__(self, bc: BoundaryCondition):
        super().__init__(bc.u, bc.L0, bc.l)
        self.u, self.l = bc.u, bc.l
        floor = -KAPPA_CEILING / bc.l
        self.start = (floor, self.read(floor) or self.floor_value())

    def key(self) -> bytes:
        """_key and g at the floor knot: all det reads of U.  floor_value reads
        U's exact entries, so two matrices of one form may differ there."""
        return _key(self.t, self.d4, self.phase) + struct.pack("d", self.start[1])

    def _wave(self, y: float) -> tuple[float, float]:
        # (sigma, tau) at the signed wavenumber y: the wave of both g and read.
        x = y * self.l
        if y > 0.0:
            return math.sin(x) / y, math.cos(x)
        if y < 0.0:
            return self.l * (math.tanh(-x) / -x), 1.0
        return self.l, 1.0

    def read(self, y: float) -> float:
        """g(y) as the walk's decisions read it: 0 where it lies within its rounding bound.

        sigma rounds by about eps l, and tau by about eps (1 + kl) above
        E = 0 and not at all below; w rounds by about eps a (1 + 3 |t|),
        which w^2 takes to second order where w is as small as that, and z
        and the projection each round by about eps times the sizes of their
        terms.
        """
        l, t, d4 = self.l, self.t, self.d4
        alpha, w, z, g = self(*self._wave(y))
        tau_err = 1.0 + y * l if y >= 0.0 else 0.0
        a, b = abs(alpha), abs(w)
        ad, dw = 2.0 * a * abs(d4), a * (1.0 + 3.0 * abs(t))
        bound = _EPS * (
            l * (2.0 * b * abs(1.0 - t) + ad)
            + tau_err * self.L0 * (2.0 * b * abs(1.0 + t) + ad)
            + 2.0 * b * dw + 2.0 * b * b + 3.0 * a * ad + 2.0 * abs(z) + _EPS * dw * dw
        )
        return 0.0 if abs(g) <= bound else g

    def ends(self):
        """(y, sigma, tau) where the wave is known in closed form, ascending (_knots).

        They are the floor, E = 0 and every quarter turn kl = j pi / 2, where
        (sigma, tau) is (0, +-1) at even j and (+-1 / k, 0) at odd j.
        SolverError is raised at the first y that overflows a double.
        """
        l = self.l
        turns = itertools.cycle([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0)])  # j % 4 = 3, 0, 1, 2
        for j, (a, tau) in enumerate(turns, -1):
            y = -KAPPA_CEILING / l if j < 0 else 0.5 * j * math.pi / l
            if math.isinf(y):
                raise SolverError(f"the levels of the box l={l!r} overflow a double")
            yield (y, a / y, tau) if j > 0 else (y, *self._wave(y))

    def floor_value(self) -> float:
        """g at the kappa l = 50 floor, from rational arithmetic, rounded once.

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


def _knot(l: float, j: int, c: float, s: float) -> float | None:
    """y of the knot of direction (c, s), c >= 0, on piece j of det's walk (_knots), or None.

    Piece j lies on branch m = (j + 1) // 2 of tan, kl within pi/2 of m pi,
    where the knot function sigma c - tau s = (c l sin x - s x cos x) / x,
    x = kl, rises through zero once between its poles.  On branches m >= 1
    Newton's method on the numerator, from one step of x = m pi +
    atan(s x / (c l)), finds it.  None is returned below E = 0, on branch 0,
    for c = 0 and where a step leaves the branch, and _knots then places the
    knot as it places FD's: at the piece's closed-form top, or by its one
    Brent solve.
    """
    m = (j + 1) // 2
    if m < 1 or c == 0.0:
        return None
    lo, hi = (m - 0.5) * math.pi, (m + 0.5) * math.pi
    x = m * math.pi + math.atan2(s * m * math.pi, c * l)
    for _ in range(8):
        sx, cx = math.sin(x), math.cos(x)
        slope = (c * l - s) * cx + s * x * sx
        step = (c * l * sx - s * x * cx) / slope if slope else math.inf
        x -= step
        if not lo < x < hi:
            return None
        if abs(step) <= 4.0 * _EPS * x:
            return x / l
    return None


def _knots(ends, form: _Form, read, newton, wave):
    """((x, g(x) as read), is_vertex) for every knot above the floor, ascending.

    ends yields (x, sigma, tau) where the solver's wave is known in closed
    form, ascending from the floor.  psi turns by at most pi from one to
    the next, so the piece between two holds a knot of direction (c, s)
    where c sigma - s tau changes sign on it or is 0 at its top, in the
    order of psi mod pi, 0 read as pi.  An end knot is the end of its piece
    within pi/4 of its direction, sigma = 0 for |s| <= c and tau = 0 for
    |s| > c, the one on the knot's side where both are, wherever read gives
    g there the end's sign: no root lies between the two then.  So every
    knot is a closed-form point, the solver's own Newton step newton(j, c,
    s) on piece j, j = -1 below E = 0, or, where that gives None, the top
    end for a knot there and otherwise this walk's one Brent solve of
    c sigma - s tau, from wave(x) = (sigma, tau).
    """
    vertex, end = form.directions()
    order = sorted([(*vertex, True), (*end, False)],
                   key=lambda d: (math.atan2(d[1], d[0]) % math.pi) or math.pi)
    lo = next(ends)
    for j, hi in enumerate(ends, -1):
        for c, s, is_vertex in order:
            ya, yb = c * lo[1] - s * lo[2], c * hi[1] - s * hi[2]
            # Signs are compared, not the product, which may underflow to 0.
            if yb != 0.0 and (ya == 0.0 or (ya > 0.0) == (yb > 0.0)):
                continue
            if not is_vertex:
                zero = 1 if abs(s) <= c else 2
                near, far = (lo, hi) if s > 0.0 else (hi, lo)
                at = near if near[zero] == 0.0 else far
                if at[zero] == 0.0 and (value := read(at[0])) * form.end_sign > 0.0:
                    yield (at[0], value), is_vertex
                    continue
            x = newton(j, c, s)
            if x is None and yb == 0.0:
                x = hi[0]
            elif x is None:
                def knot_function(x: float) -> float:
                    sigma, tau = wave(x)
                    return c * sigma - s * tau
                x = _brentq(knot_function, lo[0], hi[0], ya, yb)
            yield (x, read(x)), is_vertex
        lo = hi


def _turn(a, v, b, s: float) -> list[tuple[float, float, float, float]]:
    """Root brackets (p, g(p), q, g(q)) of g on the turn of psi from a to the end knot b.

    Each knot is (y, g(y) as read), v is the vertex knot or None, and s is
    the sign of g at end knots, the sign of the form's a0 + a2.  A turn of
    psi by pi between two end knots holds the form's two roots, one on each
    side of its vertex or both on it.  The left bracket (a, v) holds a root
    only where g(a) reads with sign s, which only the floor can fail; the
    right one (v, b) holds a root where g(v) reads with sign -s.  Otherwise
    the roots lie at v, the bracket (v, g(v), v, g(v)): a double root, or a
    single one where the floor has cut the left root off.  A floor turn
    with no vertex holds one root where g changes sign.  A bracket's ends
    carry the values read, so an end that reads 0 is the root.
    """
    if v is None:
        return [(*a, *b)] if a[1] * s < 0.0 else []
    left = a[1] * s > 0.0
    if v[1] * s < 0.0:
        return [(*a, *v)] * left + [(*v, *b)]
    return [(*v, *v)] * (1 + left)


def _roots(knots, start, end_sign: float, g0: float, g, count: int,
           limit: float = math.inf, pair=None) -> list[float]:
    """The lowest count roots of g above start, ascending, each as often as its multiplicity,
    and one more where pair asks for it.

    knots yields ((x, g(x) as read), is_vertex) for the knots of the form's
    two extreme directions above start, ascending; start is the floor knot
    (x, g(x) as read), g0 is g(0) as read, and end_sign is the sign of g at
    end knots.  The walk goes up over the knots, and _turn decides each turn
    between two end knots, the floor at the left of the first; a floor that
    reads 0 is not a root, since the window is open.  Where g0 is 0, the
    turn that holds x = 0 has its zero level there, at exactly 0: the root
    whose bracket holds 0, or both roots at the turn's vertex.  Every other
    bracket is refined by _brentq on g from the values its ends read, and
    only while the count needs it; an end that reads 0 is the root.  A
    bracket that holds x = 0 is first cut there by the sign of g0, since
    just below E = 0 g is flat, and Brent's method would spend its steps on
    the far side.  A bracket with an end at the vertex v, where q is
    stationary, is refined in t = ((x - v) / (far - v))^2, in which g is
    nearly linear near v, so Brent's secant steps no longer creep from that
    end; its stop, 4 eps (sqrt(t) |x| / |far - v| + t) in t, is about
    2 eps (|x| + |x - v|) in x.  The walk stops where the knots end and at
    the first root, bracket or turn above limit.  With count roots in, it
    refines one more only where pair(last, lo) holds on the lower bound lo
    of that root that it holds: the next bracket's lower end in the turn,
    else the turn's end knot, before the next turn's knots are placed.
    """
    a, v = start, None
    roots: list[float] = []

    def needed(lo: float) -> bool:
        # Whether a root at or above lo may still be returned.
        if lo > limit or len(roots) > count:
            return False
        return len(roots) < count or (pair is not None and pair(roots[-1], lo))

    for knot, is_vertex in knots:
        if is_vertex:
            v = knot
            continue
        holds_zero = g0 == 0.0 and a[0] < 0.0 <= knot[0]
        for p, gp, q, gq in _turn(a, v, knot, end_sign):
            # A lower bound on this root and every later one; where g0 is 0,
            # a root at the vertex may be the one at x = 0.
            if not needed(min(p, 0.0) if holds_zero else p):
                return roots
            if holds_zero and (p == q or p <= 0.0 <= q):
                root = 0.0
            elif p == q:
                root = p
            else:
                if p < 0.0 < q:  # cut at x = 0, where g0 reads with a sign
                    same = gp != 0.0 and (g0 > 0.0) == (gp > 0.0)
                    p, gp, q, gq = (0.0, g0, q, gq) if same else (p, gp, 0.0, g0)
                if v is None or v[0] not in (p, q):
                    root = _brentq(g, p, q, gp, gq)
                else:
                    # q, and so nearly g, is stationary at the vertex end,
                    # and g is nearly linear in t there.
                    x0, gv = v
                    far, gfar = (q, gq) if p == x0 else (p, gp)
                    d = far - x0
                    s = x0 / d  # x / d = s + sqrt(t)

                    def g_in_t(t: float) -> float:
                        return g(x0 + d * math.sqrt(t))

                    def half_width(t: float) -> float:
                        # A few ulps of x, not of t.
                        r = math.sqrt(t)
                        return 4.0 * _EPS * (r * abs(s + r) + t)

                    t = _brentq(g_in_t, 0.0, 1.0, gv, gfar, half_width)
                    root = far if t == 1.0 else x0 + d * math.sqrt(t)
            if root > limit:
                return roots
            roots.append(root)
        if not needed(knot[0]):
            return roots
        a, v = knot, None
    return roots


def _energy(y: float) -> float:
    """E at det's signed wavenumber y: y^2 above E = 0, -y^2 below."""
    return -y * y if y < 0.0 else y * y


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def det_spectrum(bc: BoundaryCondition | _Projection, n: int, k_max: float | None = None) -> Spectrum:
    """Lowest n levels from det M alone; no diagonalization of U anywhere.

    g, det M phased to the real axis (_Projection), is one function of the
    signed wavenumber y across E = 0, and _roots walks it up from the
    kappa l = 50 floor over the knots _knots places between det's quarter
    turns.  Where g at the floor lies within its rounding bound it is taken
    from rational arithmetic.  This code path never reads which eigenphase
    is named plus and which minus, a naming that matrix_to_params' canonical
    angles fix, not U, so the channel column is None, indices are global
    and any neighbours may pair, decided one level past the cut, as solve_spectrum
    decides them; that level is refined only where the walk's lower bound
    on it may pair with the n-th (levels._may_pair).  k_max caps the walk's
    reach.  Raises ScanExhausted if fewer than n levels lie below it,
    ValueError if n is not an integer of at least 1 (_count) or a given
    k_max is not finite and positive, and SolverError if the E of a level
    overflows a double, as on a box of l = 1e-160, or if the form overflows
    or underflows one (_Form).  bc may be given as its _Projection, as a
    caller that has read its key holds it.
    """
    n = _count("n", n, 1)
    if k_max is not None:
        _check_positive("k_max", k_max)
    proj = bc if isinstance(bc, _Projection) else _Projection(bc)
    knots = _knots(proj.ends(), proj, proj.read, functools.partial(_knot, proj.l), proj._wave)
    roots = _roots(knots, proj.start, proj.end_sign, proj.read(0.0), proj.raw(proj._wave), n,
                   math.inf if k_max is None else k_max, lambda y, lo: _may_pair(_energy(y), _energy(lo)))
    if len(roots) < n:
        raise ScanExhausted(f"found {len(roots)} levels below k_max={k_max!r}, needed {n}")
    # In floats, so that an E past the cut may overflow without a warning;
    # once the n returned are finite, no pair is decided on inf - inf.
    E = list(map(_energy, roots))
    if not all(map(math.isfinite, E[:n])):
        raise SolverError(f"the levels of the box l={proj.l!r} overflow a double")
    E, index = np.array(E), np.arange(len(E))
    partner = degenerate_partners(E, index)
    return Spectrum(E[:n], np.abs(roots[:n]), None, index[:n], partner[:n])


def _fd_wave(n: int):
    """The discrete wave of n cells a half: e -> (sigma, tau) at E l^2 = e, in units of l.

    On each half the stencil with phi = 0 at the wall is solved by
    s_j = sin(q (l - j h)) at E = (2/h)^2 sin^2(q h / 2) >= 0, and by
    sinh(kappa (l - j h)) at E = -(2/h)^2 sinh^2(kappa h / 2).  sigma is
    s_0 / q, its junction value, and tau the one-sided junction difference
    (3 s_0 - 4 s_1 + s_2) / (2 h q), written without cancellation as
    [c^2 s_0 + sin(qh) (1 + c) cos(ql)] / (h q), where c = 2 sin^2(q h / 2)
    = h^2 E / 2 in both regimes (sinh and cosh below E = 0, both over
    cosh(kappa l), which keeps them of order one and moves no root).  In
    units of l, h = 1 / n.  Both are continuous at E = 0, where they are
    (1, 1).  The products 2 n and n^2 are exact, so they are bound once,
    for every evaluation of one solve.
    """
    two_n, n2 = 2.0 * n, n * n

    def wave(e: float) -> tuple[float, float]:
        x = 0.5 * math.sqrt(abs(e)) / n  # sin(q h / 2), or sinh(kappa h / 2)
        if e >= 0.0:
            q = two_n * math.asin(x)
            s0, c0, sh = math.sin(q), math.cos(q), 2.0 * x * math.sqrt(1.0 - x * x)
        else:
            q = two_n * math.asinh(x)
            s0, c0, sh = math.tanh(q), 1.0, 2.0 * x * math.sqrt(1.0 + x * x)
        c = 0.5 * e / n2
        sigma = s0 / q if q else 1.0
        return sigma, n * (c * c * sigma + (sh / q if q else 1.0 / n) * (1.0 + c) * c0)
    return wave


def _fd_knot(n: int, m: int, c: float, s: float) -> float | None:
    """E l^2 of the knot of direction (c, s), c >= 0, on piece m, ql in (m pi, (m+1) pi),
    by Newton's method in q l; None where it does not settle on the piece.

    q times the knot function c sigma - s tau is F(q) = c sin q - s n (c_e^2
    sin q + sin(q/n) (1 + c_e) cos q), with c_e = 1 - cos(q/n), taken as
    2 sin^2(q/2n), in units of l.  That is A sin q - B cos q, with A = c -
    s n c_e^2 and B = s n sin(q/n) (1 + c_e), whose sign is that of s, and
    A and B vary slowly with q.  So the knot solves q = p + atan2(B, A), p
    the piece end m pi for s > 0 and (m+1) pi otherwise, and Newton's
    method starts from one step of it, from q = p, or from pi/2 on piece 0.
    Below E = 0, m = -1, it gives None.
    """
    if m < 0:
        return None

    def terms(q: float):
        x = math.sin(0.5 * q / n)
        ce, sn = 2.0 * x * x, 2.0 * x * math.cos(0.5 * q / n)  # 1 - cos(q/n), sin(q/n)
        return ce, sn, c - s * n * ce * ce, s * n * sn * (1.0 + ce)

    lo, hi = m * math.pi, (m + 1) * math.pi
    p = lo if s > 0.0 else hi
    _, _, a, b = terms(p or 0.5 * math.pi)
    q = p + math.atan2(b, a)
    for _ in range(8):
        ce, sn, a, b = terms(q)
        sq, cq = math.sin(q), math.cos(q)
        slope = (a - s * (1.0 + 2.0 * ce * (1.0 - ce))) * cq + (b - 2.0 * s * ce * sn) * sq
        step = (a * sq - b * cq) / slope if slope else math.inf
        q -= step
        if not lo < q < hi:
            return None
        if abs(step) <= 4.0 * _EPS * q:
            return (2.0 * n * math.sin(0.5 * q / n)) ** 2
    return None


def _fd_ends(n: int, floor: float, wave):
    """(E l^2, sigma, tau) where the wave is known in closed form, ascending (_knots).

    They are the floor, where ``wave`` gives them, E = 0 and the piece
    ends ql = m pi, 0 < m < n, where sigma = 0 and
    tau = (-1)^m sin(qh) (1 + c) / (h q): the last piece, up to the band
    edge q = pi / h, is not walked.
    """
    yield (floor, *wave(floor))
    yield 0.0, 1.0, 1.0
    for m in range(1, n):
        x = math.sin(0.5 * m * math.pi / n)  # sin(q h / 2)
        tau = 2.0 * x * math.sqrt(1.0 - x * x) * (1.0 + 2.0 * x * x) * n / (m * math.pi)
        yield (2.0 * n * x) ** 2, 0.0, (-tau if m % 2 else tau)


def fd_spectrum(bc: BoundaryCondition, n: int, n_interior: int = 256) -> FdSpectrum:
    """Lowest n levels of the finite-difference discretization.

    Each half of the box carries a standard 3-point Laplacian on n_interior
    cells (h = l / n_interior); the two junction rows encode the connection
    condition with second-order one-sided derivatives.  A discrete wave
    solves the stencil exactly (_fd_wave), so the levels are the zeros of
    det N, N = alpha U - conj(alpha) I, alpha = sigma + i L0 tau: the form g
    that det walks too (_Form), walked (_roots) over the knots _knots places
    between FD's piece ends.  At E = 0 the discrete wave is the continuum's,
    (sigma, tau) = (1, 1) in units of l, so the operator has a zero level
    exactly where the continuum's threshold T = 0 is met.  No matrix is
    built and no eigenvalue solver runs, so a level's doubles do not
    depend on n.

    Levels at or below kappa l = KAPPA_CEILING, E = -(KAPPA_CEILING / l)^2,
    are dropped, as the channel and determinant solvers drop them, and the
    last piece below the band edge E = 4 / h^2 is not searched.  If fewer
    than n levels lie between, EigenSolverFailure is raised, and SolverError
    if the E of a level rounds to 0, as on a box of l = 1e200, or if the form
    overflows or underflows a double (_Form).  ValueError is raised unless n
    and n_interior are integers of at least 1 and 64 (_count).
    """
    n, n_interior = _count("n", n, 1), _count("n_interior", n_interior, 64)
    l = bc.l
    h = l / n_interior
    # A row of the stencil sums to 4 / h^2 in absolute value.
    if not h * h > 4.0 / sys.float_info.max:
        raise SolverError(f"the FD stencil 4/h^2 at h={h!r} overflows a double")
    # In units of l the operator depends only on n_interior and L0 / l, and
    # every value Brent's method meets is of order one at any box size.
    form = _Form(bc.u, bc.L0 / l, 1.0)

    n2, L0 = n_interior * n_interior, form.L0
    abs_t, abs_d4 = abs(form.t), abs(form.d4)
    wave = _fd_wave(n_interior)

    def read(e: float) -> float:
        """g at E l^2 = e as the walk reads it: 0 where it lies within its rounding bound.

        q l rounds by about eps q l, which moves sigma by d_sigma = eps and
        tau by d_tau, eps q l times the size of its terms.  So alpha rounds
        by da = d_sigma + L0 d_tau, and w by da (1 + |t|) and by about
        eps |alpha| (1 + 3 |t|) in its own arithmetic, which w^2 takes to
        second order where w is as small as that; alpha^2 d4 moves by
        2 |alpha| |d4| da, and w^2, alpha^2 d4 and the projection each round
        by about eps times the sizes of their terms.
        """
        alpha, w, z, value = form(*wave(e))
        a, b, x, c = abs(alpha), abs(w), 1.0 + math.sqrt(abs(e)), 0.5 * abs(e) / n2
        d_tau = 4.0 * _EPS * x * (1.0 + c + c * c * n_interior)
        da = 2.0 * _EPS * x + L0 * d_tau
        dw = da * (1.0 + abs_t) + _EPS * a * (1.0 + 3.0 * abs_t)
        bound = 2.0 * b * dw + dw * dw + 2.0 * a * abs_d4 * da + _EPS * (
            2.0 * b * b + 3.0 * a * a * abs_d4 + 2.0 * abs(z))
        return 0.0 if abs(value) <= bound else value

    floor = -KAPPA_CEILING ** 2  # E l^2 at kappa l = KAPPA_CEILING
    ends = _fd_ends(n_interior, floor, wave)
    knots = _knots(ends, form, read, functools.partial(_fd_knot, n_interior), wave)
    roots = _roots(knots, (floor, read(floor)), form.end_sign, read(0.0), form.raw(wave), n)
    if len(roots) < n:
        raise EigenSolverFailure(
            f"only {len(roots)} levels lie below the band edge at n_interior={n_interior}, needed {n}"
        )
    e = np.array(roots)
    E = e / (l * l)
    if ((E == 0.0) & (e != 0.0)).any():
        raise SolverError(f"the levels of the box l={l!r} underflow a double")
    return FdSpectrum(E, np.sqrt(np.abs(E)), None, np.arange(n), np.full(n, -1), h, n_interior)
