"""Exact channel-wise spectrum of the box with a point defect.

Diagonalizing the defect matrix U splits the eigenvalue problem into two
independent "channels", one per eigenphase theta of U.  A positive-energy
level E = k^2 of the channel solves

    F(k) = sin(kl) sin(theta/2) + k L0 cos(kl) cos(theta/2) = 0,  k > 0,

a bound level E = -kappa^2 solves the hyperbolic continuation

    G(kappa) = sinh(kappa l) sin(theta/2) + kappa L0 cosh(kappa l) cos(theta/2) = 0,

and a zero-energy level exists exactly when the shared small-argument limit

    T = l sin(theta/2) + L0 cos(theta/2)

vanishes.  Root scanning works on the reduced functions F(k)/k and
G(kappa)/kappa, which are entire, equal T at the origin, and carry the same
nonzero roots — this removes the spurious root both F and G have at 0 and
lets brackets start at the origin, where near-threshold levels live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boundary import KIND_BOUND, KIND_POSITIVE, KIND_ZERO, BoundaryCondition
from .unitary import UnitaryParams, matrix_to_params

__all__ = [
    "Channel",
    "EigenLevel",
    "Spectrum",
    "channel_function",
    "bound_function",
    "threshold",
    "solve_channel",
    "solve_spectrum",
]

CHANNEL_PLUS = "plus"
CHANNEL_MINUS = "minus"

# Grid step pi/(GRID_DENSITY * l) guarantees at least one grid point between
# any two roots of one channel (roots interlace the lattice m*pi/l).
GRID_DENSITY = 64

# kappa ceiling (in units of 1/l) for the bound-state search: sinh overflow
# guard; a deeper level is out of desk scale and dropped consistently by all
# solvers in this package.
KAPPA_CEILING = 50.0

# |T| below this (scaled by l + L0) counts as an exact zero-energy level.
ZERO_LEVEL_TOL = 1e-12

_BRENT_XTOL = 1e-13
_BRENT_RTOL = 1e-15
_BRENT_MAXITER = 100

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Channel:
    """One reduced problem: eigenphase ``theta`` of U on the box (l, L0)."""

    theta: float
    l: float = 1.0
    L0: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError("l must be a positive length")
        if not (math.isfinite(self.L0) and self.L0 > 0):
            raise ValueError("L0 must be a positive length")
        object.__setattr__(self, "theta", self.theta % (2.0 * math.pi))


@dataclass(frozen=True)
class EigenLevel:
    """One energy level.

    ``kind`` is "positive" (E = k^2), "zero" (E = 0) or "bound" (E = -kappa^2);
    ``k_or_kappa`` stores k, 0, or kappa accordingly.  ``channel`` is "plus",
    "minus", or None for solvers that consume the full matrix and cannot know
    the channel without diagonalizing it.  ``index`` counts levels of the same
    channel ascending in E; ``degenerate_with`` cross-references the (channel,
    index) of a coincident level when two channels share an energy.
    """

    E: float
    k_or_kappa: float
    kind: str
    channel: str | None
    index: int
    degenerate_with: tuple[str | None, int] | None = None


@dataclass(frozen=True)
class Spectrum:
    """Sorted lowest levels of a boundary condition, with its (xi, rho, mu, nu)."""

    levels: tuple[EigenLevel, ...]
    bc_params: UnitaryParams
    count_requested: int


def _half_angle(theta: float) -> tuple[float, float]:
    return math.sin(theta / 2.0), math.cos(theta / 2.0)


def channel_function(ch: Channel, k):
    """F(k) = sin(kl) sin(theta/2) + k L0 cos(kl) cos(theta/2); accepts arrays.

    Pole-free everywhere; its positive roots are exactly the positive-energy
    levels of the channel.  F(0) = 0 is spurious.
    """
    s2, c2 = _half_angle(ch.theta)
    k = np.asarray(k, dtype=float)
    return np.sin(k * ch.l) * s2 + k * ch.L0 * np.cos(k * ch.l) * c2


def bound_function(ch: Channel, kappa):
    """G(kappa) = sinh(kappa l) sin(theta/2) + kappa L0 cosh(kappa l) cos(theta/2)."""
    s2, c2 = _half_angle(ch.theta)
    kappa = np.asarray(kappa, dtype=float)
    return np.sinh(kappa * ch.l) * s2 + kappa * ch.L0 * np.cosh(kappa * ch.l) * c2


def threshold(ch: Channel) -> float:
    """T = l sin(theta/2) + L0 cos(theta/2): small-k limit of F(k)/k.

    A zero-energy level exists iff T = 0; its sign decides on which side of
    the threshold the channel sits (bound state for T > 0 with
    cos(theta/2) < 0).
    """
    s2, c2 = _half_angle(ch.theta)
    return ch.l * s2 + ch.L0 * c2


def _fhat(theta: float, l: float, L0: float, k):
    # F(k)/k, entire in k with value T at 0; same positive roots as F.
    s2, c2 = _half_angle(theta)
    k = np.asarray(k, dtype=float)
    return l * np.sinc(k * l / np.pi) * s2 + L0 * np.cos(k * l) * c2


def sinc_kl(k: float, l: float) -> float:
    """sin(kl)/(kl) for one float, in np.sinc(k * l / pi)'s operations and order.

    It returns the same double as np.sinc without numpy's per-call overhead.
    """
    x = math.pi * (k * l / math.pi)
    y = x if x else _EPS
    return math.sin(y) / y


def _fhat_scalar(s2: float, c2: float, l: float, L0: float, k: float) -> float:
    # _fhat for one float, with the same double out.
    return l * sinc_kl(k, l) * s2 + L0 * math.cos(k * l) * c2


def sinhc(x):
    """sinh(x)/x on arrays, with the series 1 + x^2/6 where |x| < 1e-8."""
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _ghat(theta: float, l: float, L0: float, kappa):
    # G(kappa)/kappa, with value T at 0; same positive roots as G.
    s2, c2 = _half_angle(theta)
    x = np.asarray(kappa, dtype=float) * l
    return l * sinhc(x) * s2 + L0 * np.cosh(x) * c2


def _ghat_scalar(s2: float, c2: float, l: float, L0: float, kappa: float) -> float:
    # _ghat for one float, in the same operations and order as sinhc.  sinh
    # and cosh stay numpy's: math.sinh differs from them in the last bit.
    x = kappa * l
    sh = 1.0 + x * x / 6.0 if abs(x) < 1e-8 else float(np.sinh(x)) / x
    return l * sh * s2 + L0 * float(np.cosh(x)) * c2


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq (its brentq.c) at
    xtol = _BRENT_XTOL and rtol = _BRENT_RTOL: the same iterates in the same
    floating-point order, so the same double comes back.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("the function value at a bracket end is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN")
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations")


def _scan_positive(theta: float, l: float, L0: float, n: int, skip_origin: bool) -> list[float]:
    """Lowest n positive roots of F via sign scan of F/k from the origin."""
    s2, c2 = _half_angle(theta)
    step = math.pi / (GRID_DENSITY * l)
    # The m-th positive root (m = 1, 2, ...) lies below (m + 1/2) pi / l, so
    # one block up to (n + 1) pi / l holds all n; later blocks only guard that.
    block = GRID_DENSITY * (n + 1)
    roots: list[float] = []
    f = lambda k: _fhat_scalar(s2, c2, l, L0, k)
    j0 = 1 if skip_origin else 0
    while len(roots) < n:
        grid = step * np.arange(j0, j0 + block + 1)
        vals = _fhat(theta, l, L0, grid)
        head = vals[:-1]
        for i in np.flatnonzero((head == 0.0) | (head * vals[1:] < 0.0)):
            if head[i] == 0.0:
                if grid[i] > 0.0:
                    roots.append(float(grid[i]))
            else:
                roots.append(_brentq(f, float(grid[i]), float(grid[i + 1])))
            if len(roots) == n:
                break
        j0 += block
    return roots


def _find_bound(theta: float, l: float, L0: float) -> float | None:
    """The unique bound root of G below the kappa ceiling, if any.

    Brent refines on _ghat_scalar, which returns the same doubles as _ghat
    without building a 0-d array per call.  It calls numpy's sinh and cosh on
    Python floats rather than math's, whose last bit differs, so the root
    keeps its digits.
    """
    s2, c2 = _half_angle(theta)
    if c2 >= 0.0:
        return None
    t0 = l * s2 + L0 * c2
    if t0 <= 0.0:
        return None
    cap = KAPPA_CEILING / l
    g = lambda kappa: _ghat_scalar(s2, c2, l, L0, kappa)
    if g(cap) >= 0.0:
        # Root exists mathematically but lies beyond the overflow-safe window.
        return None
    return _brentq(g, 0.0, cap)


def solve_channel(ch: Channel, n: int, tag: str | None = None) -> list[EigenLevel]:
    """The lowest n levels of one channel, ascending in E.

    Comprises at most one bound level, a zero-energy level exactly at the
    threshold T = 0, and positive roots of F refined to |dk| <= 1e-12 (1 + k).
    ``tag`` is recorded in the channel field of each level.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    levels: list[EigenLevel] = []
    t0 = threshold(ch)
    at_threshold = abs(t0) <= ZERO_LEVEL_TOL * (ch.l + ch.L0)

    # At the threshold the E = 0 level is recorded as such; searching for a
    # bound root there would only rediscover it at kappa ~ 0.
    kappa = None if at_threshold else _find_bound(ch.theta, ch.l, ch.L0)
    if kappa is not None:
        levels.append(
            EigenLevel(E=-kappa * kappa, k_or_kappa=kappa, kind=KIND_BOUND, channel=tag, index=0)
        )
    if at_threshold:
        levels.append(
            EigenLevel(E=0.0, k_or_kappa=0.0, kind=KIND_ZERO, channel=tag, index=len(levels))
        )
    need = n - len(levels)
    if need > 0:
        base = len(levels)
        for i, k in enumerate(_scan_positive(ch.theta, ch.l, ch.L0, need, at_threshold)):
            levels.append(
                EigenLevel(E=k * k, k_or_kappa=k, kind=KIND_POSITIVE, channel=tag, index=base + i)
            )
    return levels[:n]


def solve_spectrum(bc: BoundaryCondition, n: int) -> Spectrum:
    """Lowest n levels of the full system: merge of the two channel solves.

    Depends only on the eigenphases (xi, rho) of the defect matrix.  Levels
    of the two channels that coincide within 1e-10 (relative) are flagged
    degenerate and cross-referenced.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = matrix_to_params(bc.u)
    merged: list[EigenLevel] = []
    for theta, tag in ((p.theta_plus, CHANNEL_PLUS), (p.theta_minus, CHANNEL_MINUS)):
        merged.extend(solve_channel(Channel(theta, bc.l, bc.L0), n, tag))
    merged.sort(key=lambda lv: (lv.E, lv.channel != CHANNEL_PLUS))
    levels = flag_degenerate(merged[:n], cross_channel=True)
    return Spectrum(levels=tuple(levels), bc_params=p, count_requested=n)


def flag_degenerate(levels: list[EigenLevel], cross_channel: bool) -> list[EigenLevel]:
    """Cross-reference adjacent levels of a sorted list that coincide in E.

    Two neighbours within 1e-10 (relative) get each other's (channel, index)
    in degenerate_with.  With cross_channel only pairs from different
    channels count, as the channel solver's own channel never repeats a
    level; without it any adjacent pair counts.
    """
    out = list(levels)
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        if cross_channel and a.channel == b.channel:
            continue
        if abs(a.E - b.E) <= 1e-10 * (1.0 + max(abs(a.E), abs(b.E))):
            out[i] = replace(a, degenerate_with=(b.channel, b.index))
            out[i + 1] = replace(b, degenerate_with=(a.channel, a.index))
    return out
