"""A 50-digit referee for the bound levels of one defect.

The solvers are judged against this module rather than against each other.
It takes U's entries exactly as the solvers see them (each double is exact
in mpmath), finds U's eigenvalues e^{i theta} with mp.eig at 50 digits, and
bisects each channel's G(kappa) / kappa, divided by cosh(kappa l),

    l tanh(kappa l) / (kappa l) sin(theta / 2) + L0 cos(theta / 2),

on the open window (0, KAPPA_CEILING / l).  It is monotone in kappa, so a
channel has a bound level exactly when it takes opposite signs at the
window's two ends, and the bisection keeps the bracket.  Its value at 0 is
the threshold T = l sin(theta / 2) + L0 cos(theta / 2).  The overall sign of
(sin, cos) of the half-angle does not move a root, so any branch of arg
serves.
"""

import mpmath

from defectline.spectrum import KAPPA_CEILING

_DPS = 50
# Bisection stops when the bracket is this small relative to the window.
_WIDTH = mpmath.mpf(10) ** -30


def bound_levels(bc) -> list[float]:
    """The bound levels E = -kappa^2 of bc, ascending, as doubles."""
    with mpmath.workdps(_DPS):
        u = mpmath.matrix([[mpmath.mpc(complex(bc.u[i, j])) for j in range(2)] for i in range(2)])
        l, L0 = mpmath.mpf(bc.l), mpmath.mpf(bc.L0)
        cap = KAPPA_CEILING / l
        levels = []
        for lam in mpmath.eig(u, left=False, right=False):
            half = mpmath.arg(lam) / 2
            s2, c2 = mpmath.sin(half), mpmath.cos(half)

            def ghat(kappa):
                x = kappa * l
                return l * mpmath.tanh(x) / x * s2 + L0 * c2

            lo, hi = mpmath.mpf(0), cap
            f_lo, f_hi = l * s2 + L0 * c2, ghat(hi)
            if f_lo * f_hi >= 0:
                continue
            while hi - lo > _WIDTH * cap:
                mid = (lo + hi) / 2
                f_mid = ghat(mid)
                if f_mid * f_lo > 0:
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            kappa = (lo + hi) / 2
            levels.append(float(-kappa * kappa))
        return sorted(levels)
