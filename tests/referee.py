"""A 50-digit referee for the levels of one defect.

The solvers are judged against this module rather than against each other.
It takes U's entries exactly as the solvers see them (each double is exact
in mpmath) and finds U's eigenvalues e^{i theta} with mp.eig at 50 digits.
For the bound levels it bisects each channel's G(kappa) / kappa, divided by
cosh(kappa l),

    l tanh(kappa l) / (kappa l) sin(theta / 2) + L0 cos(theta / 2),

on the open window (0, KAPPA_CEILING / l).  It is monotone in kappa, so a
channel has a bound level exactly when it takes opposite signs at the
window's two ends, and the bisection keeps the bracket.  Its value at 0 is
the threshold T = l sin(theta / 2) + L0 cos(theta / 2).  The overall sign of
(sin, cos) of the half-angle does not move a root, so any branch of arg
serves.

For the positive levels it brackets each channel's F(k) / k,

    sin(kl) / k sin(theta / 2) + L0 cos(kl) cos(theta / 2),

on every branch of tan, kl within pi/2 of m pi ([0, pi/2) for m = 0).
With sin(theta / 2) >= 0 it rises through zero once on a full branch, from
(-1)^(m+1) sin(theta / 2) / k at its lower pole to (-1)^m sin(theta / 2) / k
at its upper one; those values are taken in closed form, since cos(kl) at a
pole is only rounding, and sin(theta / 2) = 0 puts the root on the upper
pole.  Branch 0 holds a root where the threshold T has the sign opposite to
its upper pole's.  The Illinois variant of regula falsi refines each bracket.

fd_levels does the same for the finite-difference operator, whose channel
functions are those of its discrete waves.  threshold_root takes the
channel solver's own coefficient doubles instead of U, and returns the root
of its bound or label-0 level.
"""

import mpmath

from defectline.levels import KAPPA_CEILING

_DPS = 50
# Bisection stops when the bracket is this small relative to the window.
_WIDTH = mpmath.mpf(10) ** -30


def _bisect(f, lo, hi, f_lo):
    # The root of f in [lo, hi], where f changes sign, to _WIDTH of hi.
    width = _WIDTH * hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid * f_lo > 0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _illinois(f, lo, hi, f_lo, f_hi):
    # The root of f in [lo, hi], where f changes sign, by the Illinois
    # variant of regula falsi, until a step is within _WIDTH of hi.
    width = _WIDTH * hi
    x = lo
    for _ in range(200):
        x_new = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if abs(x_new - x) <= width:
            return x_new
        x, f_x = x_new, f(x_new)
        if f_x == 0:
            return x
        if f_x * f_hi < 0:
            lo, f_lo = hi, f_hi
        else:
            f_lo /= 2
        hi, f_hi = x, f_x
    return x


def _half_angles(bc):
    u = mpmath.matrix([[mpmath.mpc(complex(bc.u[i, j])) for j in range(2)] for i in range(2)])
    for lam in mpmath.eig(u, left=False, right=False):
        half = mpmath.arg(lam) / 2
        yield mpmath.sin(half), mpmath.cos(half)


def bound_levels(bc) -> list[float]:
    """The bound levels E = -kappa^2 of bc, ascending, as doubles."""
    with mpmath.workdps(_DPS):
        l, L0 = mpmath.mpf(bc.l), mpmath.mpf(bc.L0)
        cap = KAPPA_CEILING / l
        levels = []
        for s2, c2 in _half_angles(bc):

            def ghat(kappa):
                x = kappa * l
                return l * mpmath.tanh(x) / x * s2 + L0 * c2

            f_lo, f_hi = l * s2 + L0 * c2, ghat(cap)
            if f_lo * f_hi >= 0:
                continue
            kappa = _bisect(ghat, mpmath.mpf(0), cap, f_lo)
            levels.append(float(-kappa * kappa))
        return sorted(levels)


def positive_levels(bc, n: int) -> list[float]:
    """The lowest n positive levels E = k^2 of bc, ascending, as doubles."""
    with mpmath.workdps(_DPS):
        l, L0 = mpmath.mpf(bc.l), mpmath.mpf(bc.L0)
        roots = []
        for s2, c2 in _half_angles(bc):
            if s2 < 0:
                s2, c2 = -s2, -c2

            def fhat(k):
                return l * mpmath.sinc(k * l) * s2 + L0 * mpmath.cos(k * l) * c2

            for m in range(n // 2 + 2):  # each channel has a root on every full branch
                lo, hi = max(m - mpmath.mpf(0.5), 0) * mpmath.pi / l, (m + mpmath.mpf(0.5)) * mpmath.pi / l
                sign = (-1) ** m
                f_lo = l * s2 + L0 * c2 if m == 0 else -sign * s2 / lo
                if s2 == 0:
                    roots.append(hi)
                elif f_lo * sign < 0:
                    roots.append(_illinois(fhat, lo, hi, f_lo, sign * s2 / hi))
        return sorted(float(k * k) for k in roots)[:n]


def fd_levels(bc, n: int, n_interior: int) -> list[float]:
    """The lowest n levels of the finite-difference operator on n_interior cells.

    On each half of the box the 3-point stencil, with phi = 0 at the wall,
    is solved exactly by the discrete wave s_j = sin(q (l - j h)) at
    E = (2/h)^2 sin^2(q h / 2), and the one-sided junction difference
    (3 s_0 - 4 s_1 + s_2) / (2h) of it is

        D_h = [c^2 sin(ql) + sin(qh) (1 + c) cos(ql)] / h,  c = 2 sin^2(qh / 2).

    So a channel's levels are the roots of sin(theta / 2) sin(ql) +
    L0 cos(theta / 2) D_h.  Written as sin(ql) (sin(theta / 2) + L0
    cos(theta / 2) X) with X = D_h / sin(ql), which falls through every real
    value on each piece ql in (m pi, (m+1) pi), it has one root on every
    piece m >= 1, the piece's ends taken in closed form, and one on piece 0
    where its value L0 cos(theta / 2) D_h at ql = pi has the sign opposite
    to the threshold T.  Below E = 0, q = i kappa: sin and D_h turn into
    sinh(kappa l) and D_b = [c^2 sinh(kappa l) + sinh(kappa h) (1 + c)
    cosh(kappa l)] / h with c = -2 sinh^2(kappa h / 2), at E = -(2/h)^2
    sinh^2(kappa h / 2), and a channel has a bound level where that changes
    sign on the open window down to E = -(KAPPA_CEILING / l)^2.  The pieces
    stop short of the band edge q = pi / h.
    """
    with mpmath.workdps(_DPS):
        l, L0 = mpmath.mpf(bc.l), mpmath.mpf(bc.L0)
        h = l / n_interior
        floor = 2 * mpmath.asinh(KAPPA_CEILING * h / (2 * l)) / h
        pieces = min(n // 2 + 2, n_interior - 1)
        levels = []
        for s2, c2 in _half_angles(bc):
            if s2 < 0:
                s2, c2 = -s2, -c2

            def bound(kappa):
                c = -2 * mpmath.sinh(kappa * h / 2) ** 2
                d_b = (c * c * mpmath.sinh(kappa * l)
                       + mpmath.sinh(kappa * h) * (1 + c) * mpmath.cosh(kappa * l)) / h
                return (s2 * mpmath.sinh(kappa * l) + L0 * c2 * d_b) / kappa

            def positive(q):
                c = 2 * mpmath.sin(q * h / 2) ** 2
                d_h = (c * c * mpmath.sin(q * l) + mpmath.sin(q * h) * (1 + c) * mpmath.cos(q * l)) / h
                return (s2 * mpmath.sin(q * l) + L0 * c2 * d_h) / q

            def end(m):
                # positive at ql = m pi, where sin(ql) is 0.
                q = m * mpmath.pi / l
                c = 2 * mpmath.sin(q * h / 2) ** 2
                return L0 * c2 * mpmath.sin(q * h) * (1 + c) * (-1) ** m / (h * q)

            threshold = l * s2 + L0 * c2
            f_floor = bound(floor)
            if threshold * f_floor < 0:
                kappa = _bisect(bound, mpmath.mpf(0), floor, threshold)
                levels.append(-(2 / h * mpmath.sinh(kappa * h / 2)) ** 2)
            for m in range(pieces):
                lo, hi = m * mpmath.pi / l, (m + 1) * mpmath.pi / l
                f_lo, f_hi = (threshold if m == 0 else end(m)), end(m + 1)
                if c2 == 0:
                    q = hi
                elif f_lo * f_hi < 0:
                    q = _illinois(positive, lo, hi, f_lo, f_hi)
                else:
                    continue
                levels.append((2 / h * mpmath.sin(q * h / 2)) ** 2)
        return sorted(float(e) for e in levels)[:n]


def threshold_root(a: float, b: float):
    """The channel solver's level below label 1 on its coefficient doubles, as an mpf.

    a = L0 cos(theta / 2) and b = l sin(theta / 2) >= 0 are taken exactly.
    Where T = a + b > 0 with a < 0 the root is x = kappa l of the bound
    level, the zero of b tanh(x) / x + a on (0, inf), below or above the
    floor x = KAPPA_CEILING; it lies below -2 b / a, where the function is
    negative.  Where T < 0 it is x = kl of label 0, the zero of
    b sin(x) / x + a cos(x) on (0, pi / 2].  Each function is T at 0 and
    changes sign once, so bisection keeps the bracket.
    """
    with mpmath.workdps(_DPS):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if a + b > 0:
            top = max(mpmath.mpf(KAPPA_CEILING), -2 * b / a)
            f = lambda x: b * mpmath.tanh(x) / x + a
        else:
            top = mpmath.pi / 2
            f = lambda x: b * mpmath.sin(x) / x + a * mpmath.cos(x)
        if f(top) <= 0 < -(a + b):  # label 0 with b = 0: the root is pi / 2
            return top
        return _bisect(f, mpmath.mpf(0), top, a + b)
