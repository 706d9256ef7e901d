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

Positive roots are found by a sign scan of F/k on the grid step * j and
refined by a port of scipy's brentq: one bracket at a time on a pure-math
F/k for short ladders, and every bracket in lock step on numpy arrays once a
scan needs _ARRAY_BRENT_MIN of them.  Both give the same doubles.  The
merged spectrum solves each channel only about n/2 deep, as far as the two
interlacing ladders reach, and checks that depth against the merged n-th
level before it keeps the result.
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

# _scan_positive refines this many brackets or more in lock step with
# _brentq_array, fewer one at a time with _brentq: the measured crossover.
# A scan of n roots, mean over 20 random channels on a 2-core Xeon, took
# 0.69 / 0.93 / 1.16 ms one at a time and 0.81 / 0.94 / 0.94 ms in lock step
# at n = 48 / 64 / 80.
_ARRAY_BRENT_MIN = 64

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


def _brentq(f, xa: float, xb: float, fa: float, fb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq (its brentq.c) at
    xtol = _BRENT_XTOL and rtol = _BRENT_RTOL: the same iterates in the same
    floating-point order, so the same double comes back.  ``fa`` and ``fb``
    are f(xa) and f(xb), which every caller already holds.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fa, fb
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


def _brentq_array(f, xa, xb, fa, fb) -> np.ndarray:
    """_brentq on every bracket [xa[i], xb[i]] at once, in lock step.

    Each element takes _brentq's branches and floating-point operations in
    its order, selected with np.where, so each root is the double _brentq
    returns, provided the vector f returns the scalar f's doubles.  The end
    values fa and fb must be nonzero and of opposite signs, as on every
    sign-change cell.  A bracket leaves the active set when it converges; f
    is evaluated on the active brackets only.
    """
    xpre = np.array(xa, dtype=float)
    xcur = np.array(xb, dtype=float)
    fpre = np.array(fa, dtype=float)
    fcur = np.array(fb, dtype=float)
    if np.isnan(fpre).any() or np.isnan(fcur).any():
        raise ValueError("the function value at a bracket end is NaN")
    if ((fpre == 0.0) | (fcur == 0.0) | (np.signbit(fpre) == np.signbit(fcur))).any():
        raise ValueError("f(a) and f(b) must be nonzero and have different signs")
    out = xcur.copy()
    idx = np.arange(xcur.size)
    xblk = fblk = spre = scur = np.zeros(idx.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_BRENT_MAXITER):
            new = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk = np.where(new, xpre, xblk)
            fblk = np.where(new, fpre, fblk)
            spre = np.where(new, xcur - xpre, spre)
            scur = np.where(new, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (
                np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            )
            fpre, fcur, fblk = (
                np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            )
            delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():
                out[idx[done]] = xcur[done]
                go = ~done
                idx, xpre, xcur, xblk = idx[go], xpre[go], xcur[go], xblk[go]
                fpre, fcur, fblk = fpre[go], fcur[go], fblk[go]
                spre, scur, delta, sbis = spre[go], scur[go], delta[go], sbis[go]
            if idx.size == 0:
                return out
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            good = (
                (np.abs(spre) > delta)
                & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
            )
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur)
            if np.isnan(fcur).any():
                raise ValueError(f"the function value at x={xcur[np.isnan(fcur)][0]} is NaN")
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations")


def _scan_positive(theta: float, l: float, L0: float, n: int, skip_origin: bool) -> list[float]:
    """Lowest n positive roots of F via sign scan of F/k from the origin.

    A cell of the grid holds a root when F/k changes sign across it, or when
    F/k is exactly 0 at its left end other than at the origin (where F/k = T
    and the root of F is spurious).  The sign-change cells refine by Brent
    on the grid's own end values: one bracket at a time on _fhat_scalar, or
    all of them in lock step on _fhat once there are _ARRAY_BRENT_MIN.
    """
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
        head, tail = vals[:-1], vals[1:]
        exact = head == 0.0
        if j0 == 0:
            # F/k = T at the origin, where F's root is spurious.  It leaves
            # the mask before the cut to the roots still needed, so it
            # cannot take the place of a root.
            exact[0] = False
        cells = np.flatnonzero(exact | (head * tail < 0.0))[: n - len(roots)]
        if cells.size < _ARRAY_BRENT_MIN:
            for i in cells.tolist():
                k = float(grid[i])
                if not exact[i]:
                    k = _brentq(f, k, float(grid[i + 1]), float(head[i]), float(tail[i]))
                roots.append(k)
        else:
            found = grid[cells]
            sign = ~exact[cells]
            at = cells[sign]
            fvec = lambda k: _fhat(theta, l, L0, k)
            found[sign] = _brentq_array(fvec, found[sign], grid[at + 1], head[at], tail[at])
            roots.extend(found.tolist())
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
    g_cap = g(cap)
    if g_cap >= 0.0:
        # Root exists mathematically but lies beyond the overflow-safe window.
        return None
    # t0 is g(0.0) to the bit: sinhc is 1 there and cosh(0) is 1.
    return _brentq(g, 0.0, cap, t0, g_cap)


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

    Each channel holds one positive root per branch of width pi/l, so the
    two ladders interlace and each channel is first solved only
    (n + 1) // 2 + 2 deep; the margin of two covers a bound or zero level
    and the offset between the branches of the two channels.  The merge is
    kept when its n-th level lies at or below the last level solved in both
    channels: every deeper level of a channel lies strictly above that, so
    the full-depth merge starts with the same n levels.  Otherwise both
    channels are solved n deep.  A channel's first m levels are the same
    doubles whatever depth it is solved to.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = matrix_to_params(bc.u)
    channels = (
        (Channel(p.theta_plus, bc.l, bc.L0), CHANNEL_PLUS),
        (Channel(p.theta_minus, bc.l, bc.L0), CHANNEL_MINUS),
    )
    depth = min(n, (n + 1) // 2 + 2)
    while True:
        parts = [solve_channel(ch, depth, tag) for ch, tag in channels]
        merged = sorted(parts[0] + parts[1], key=lambda lv: (lv.E, lv.channel != CHANNEL_PLUS))
        if depth == n or all(merged[n - 1].E <= part[-1].E for part in parts):
            break
        depth = n
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
