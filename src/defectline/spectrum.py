"""Exact channel-wise spectrum of the box with a point defect.

Diagonalizing the defect matrix U splits the eigenvalue problem into two
independent "channels", one per eigenphase theta of U.  A positive-energy
level E = k^2 of the channel solves

    F(k) = sin(kl) sin(theta/2) + k L0 cos(kl) cos(theta/2) = 0,  k > 0,

a bound level E = -kappa^2 solves the hyperbolic continuation

    G(kappa) = sinh(kappa l) sin(theta/2) + kappa L0 cosh(kappa l) cos(theta/2) = 0,

and a zero-energy level exists exactly when the shared small-argument limit

    T = l sin(theta/2) + L0 cos(theta/2)

vanishes.  Root finding works on the reduced functions F(k)/k and
G(kappa)/kappa, which are entire, equal T at the origin, and carry the same
nonzero roots — this removes the spurious root both F and G have at 0 and
lets brackets start at the origin, where near-threshold levels live.

Each positive root lies alone on a half-branch of tan, named by its branch
label, so a search of F/k on that half-branch finds its cell of the grid
step * j in three passes.  A port of scipy's brentq refines it: one bracket
at a time on a pure-math F/k for short ladders, and every bracket in lock
step on numpy arrays from _ARRAY_BRENT_MIN of them on; both give the same
doubles.  The search takes many channels of one box at once (solve_channels,
one row per channel), and a single channel is its one-row case, so a batch
returns the doubles of one solve per channel.  As each label has its own
window, a row may also start at a given label above the bottom of its
ladder, with the same doubles for the labels it shares with the bottom.
The merged spectrum solves its two channels as one such batch, only as
deep as the labels prove the merge reaches, about n/2.  One array sort
merges the two rows, one comparison of neighbours over n + 1 levels flags
degenerate pairs, and the levels stay columns; EigenLevel objects are built
only when asked for.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import KIND_BOUND, KIND_POSITIVE, KIND_ZERO, BoundaryCondition
from .errors import ScanExhausted, SolverError

__all__ = [
    "Channel",
    "EigenLevel",
    "Spectrum",
    "channel_function",
    "bound_function",
    "threshold",
    "ChannelRows",
    "solve_channel",
    "solve_channels",
    "solve_spectrum",
]

CHANNEL_PLUS = "plus"
CHANNEL_MINUS = "minus"
# A channel's name by its row in solve_spectrum's batch.
_CHANNEL_NAMES = np.array([CHANNEL_PLUS, CHANNEL_MINUS])

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

# _refine takes this many brackets or more in lock step with _brentq_array,
# fewer one at a time with _brentq: the measured crossover.  Refining the n
# brackets of one channel at l = L0 = 1, mean over 20 random channels on a
# 2-core Xeon, took 0.18 / 0.24 / 0.30 ms one at a time and 0.20 / 0.21 /
# 0.21 ms in lock step at n = 48 / 64 / 80.
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
    channel ascending in E, or of the whole spectrum without a channel;
    ``degenerate_with`` cross-references the (channel, index) of a coincident level.
    """

    E: float
    k_or_kappa: float
    kind: str
    channel: str | None
    index: int
    degenerate_with: tuple[str | None, int] | None = None


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The lowest levels of a box in ascending E, as columns: what every solver returns.

    ``E``, ``k_or_kappa``, ``kind`` and ``index`` hold EigenLevel's fields,
    ``channel`` its channel names, or is None where the solver knows no
    channel, and ``partner`` is the index of a level's degenerate partner
    (degenerate_partners), maybe past the cut, or -1.  ``len(spec)`` is the
    level count; ``levels`` builds the EigenLevel objects on first access.
    Spectra compare by identity: array fields have no truth value for __eq__.
    """

    E: np.ndarray
    k_or_kappa: np.ndarray
    kind: np.ndarray
    channel: np.ndarray | None
    index: np.ndarray
    partner: np.ndarray

    def __len__(self) -> int:
        return self.E.size

    @functools.cached_property
    def levels(self) -> tuple[EigenLevel, ...]:
        other = {CHANNEL_PLUS: CHANNEL_MINUS, CHANNEL_MINUS: CHANNEL_PLUS, None: None}
        channel = itertools.repeat(None) if self.channel is None else self.channel.tolist()
        return tuple(
            EigenLevel(E=e, k_or_kappa=k, kind=kind, channel=c, index=i,
                       degenerate_with=None if p < 0 else (other[c], p))
            for e, k, kind, c, i, p in zip(
                self.E.tolist(), self.k_or_kappa.tolist(), self.kind.tolist(), channel,
                self.index.tolist(), self.partner.tolist(),
            )
        )


def degenerate_partners(E: np.ndarray, index: np.ndarray, row=None) -> np.ndarray:
    """The partner column of ascending levels E: the one rule for "degenerate".

    Two neighbours that coincide within 1e-10 (relative) get each other's
    ``index``, and every other level -1.  Where ``row`` names each level's
    channel, only neighbours of different channels pair, since a channel
    never repeats a level; without it any neighbours may.  A level that
    coincides with both of its neighbours takes the upper one.
    """
    size = np.abs(E)
    close = np.abs(E[1:] - E[:-1]) <= 1e-10 * (1.0 + np.maximum(size[:-1], size[1:]))
    if row is not None:
        close &= row[:-1] != row[1:]
    at = np.flatnonzero(close)
    partner = np.full(E.size, -1)
    partner[at + 1] = index[at]
    partner[at] = index[at + 1]  # last, so a level in two pairs keeps the upper one
    return partner


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


def _fhat_half(s2, c2, l: float, L0: float, k: np.ndarray) -> np.ndarray:
    # F(k)/k at k >= 0, entire in k with value T at 0 and the positive roots
    # of F, on half-angles that may differ from element to element of k; in
    # np.sinc's operations: sin(x) / x at x = pi * (kl / pi), eps at x = 0.
    kl = k * l
    x = np.maximum(np.pi * (kl / np.pi), _EPS)
    return l * (np.sin(x) / x) * s2 + L0 * np.cos(kl) * c2


def sinc_kl(k: float, l: float) -> float:
    """sin(kl)/(kl) for one float, in np.sinc(k * l / pi)'s operations and order.

    It returns the same double as np.sinc without numpy's per-call overhead.
    """
    x = math.pi * (k * l / math.pi)
    y = x if x else _EPS
    return math.sin(y) / y


def _fhat_scalar(s2: float, c2: float, l: float, L0: float, k: float) -> float:
    # _fhat_half for one float, with the same double out.
    return l * sinc_kl(k, l) * s2 + L0 * math.cos(k * l) * c2


def sinhc(x):
    """sinh(x)/x on arrays, with the series 1 + x^2/6 where |x| < 1e-8."""
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _ghat_half(s2, c2, l: float, L0: float, kappa: np.ndarray) -> np.ndarray:
    # G(kappa)/kappa, with value T at 0 and the positive roots of G, on
    # half-angles that may differ from element to element of kappa.
    x = kappa * l
    return l * sinhc(x) * s2 + L0 * np.cosh(x) * c2


def _ghat_scalar(s2: float, c2: float, l: float, L0: float, kappa: float) -> float:
    # _ghat_half for one float, in the same operations and order as sinhc.
    # sinh and cosh stay numpy's: math.sinh differs from them in the last bit.
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
                den = dblk * dpre * (fblk - fpre)
                # Where den underflows to 0, brentq.c's step is +-inf or NaN
                # and fails the test below: it bisects.
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
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
    is evaluated on the active brackets only, as f(x, i) with i the indices
    of those brackets, so each bracket may carry its own function.
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
            fcur = f(xcur, idx)
            if np.isnan(fcur).any():
                raise ValueError(f"the function value at x={xcur[np.isnan(fcur)][0]} is NaN")
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations")


def _refine(scalar, vector, s2, c2, l: float, L0: float, rows, xa, xb, fa, fb) -> np.ndarray:
    """Brent roots of the brackets [xa[i], xb[i]], each of its row's function.

    Bracket i belongs to the channel with half-angles (s2[rows[i]],
    c2[rows[i]]); scalar(s2, c2, l, L0, x) and vector(...) are one reduced
    function in its float and array forms, with the same doubles.  Fewer
    than _ARRAY_BRENT_MIN brackets refine one at a time, more in lock step.
    """
    if rows.size < _ARRAY_BRENT_MIN:
        s2, c2 = s2.tolist(), c2.tolist()
        return np.array([
            _brentq(lambda x: scalar(s2[r], c2[r], l, L0, x), a, b, u, v)
            for r, a, b, u, v in zip(rows.tolist(), xa.tolist(), xb.tolist(), fa.tolist(), fb.tolist())
        ])
    s2, c2 = s2[rows], c2[rows]
    return _brentq_array(lambda x, i: vector(s2[i], c2[i], l, L0, x), xa, xb, fa, fb)


def _scan_rows(s2, c2, l: float, L0: float, out: np.ndarray, first, m0) -> None:
    """Fill out[r, first[r]:] with the positive roots of F of labels m0[r] on.

    Row r is the channel with half-angles (s2[r], c2[r]) on the box (l, L0),
    and its p-th positive column, out[r, first[r] + p], gets the root of
    branch label m0[r] + p; _solve_rows decides where each ladder starts.
    The root of label m = (kl + atan2(k L0 c2, s2)) / pi lies, as s2 >= 0,
    in kl in [m pi - pi/2, m pi] when c2 >= 0 and in [m pi, m pi + pi/2]
    when c2 < 0.  The window of label m, its half-branch and a cell at each
    end, holds no other root, and F/k (-1)^(m + 1) is >= 0 in it up to the
    root and < 0 past it.  A search of all windows in lock step finds the
    root's cell of the grid step * j: a first pass probes every d-th point,
    d the smallest power of 3 that needs at most four, and each later pass
    cuts the bracket in three: 4 + 2 + 2 evaluations of F/k per root at
    GRID_DENSITY = 64.  ScanExhausted is raised unless each cell lies in its
    window and F/k changes sign across it so.  Brent refines the roots, all
    rows together; a root where F/k is exactly 0 is that grid point.
    """
    step = math.pi / (GRID_DENSITY * l)
    width = GRID_DENSITY // 2 + 2
    r, col = np.nonzero(np.arange(out.shape[1]) >= first[:, None])
    m = (m0 - first)[r] + col
    lo = np.maximum(m * GRID_DENSITY - (1 + GRID_DENSITY // 2 * (c2 >= 0.0))[r], 0)
    # Flipping both half-angles flips F/k exactly: g = F/k (-1)^(m + 1).
    sign = (m & 1) * 2.0 - 1.0
    s2, c2 = s2[r], c2[r]
    gs2, gc2 = s2 * sign, c2 * sign
    d = 1
    while 4 * d < width:
        d *= 3
    probes = -(-width // d)
    # j is the last point known to have g >= 0, ga and gb are g at j and at
    # the first point past it known to have g < 0, NaN until one is probed.
    j = lo - d
    ga = gb = np.full(j.size, np.nan)
    i = np.arange(j.size)
    while d:
        v = _fhat_half(gs2, gc2, l, L0, step * (j + np.arange(d, d * probes + 1, d)[:, None]))
        below = (v >= 0.0).sum(0)
        j = j + d * below
        v = np.concatenate([ga[None], v, gb[None]])
        ga, gb = v[below, i], v[below + 1, i]
        d, probes = d // 3, 2
    if not ((j >= lo) & (j - lo < width) & (ga >= 0.0) & (gb < 0.0)).all():
        raise ScanExhausted("F/k does not change sign in the window of every branch label")
    k = step * j
    at = np.flatnonzero(ga)
    k[at] = _refine(
        _fhat_scalar, _fhat_half, s2, c2, l, L0, at, k[at], step * (j[at] + 1),
        ga[at] * sign[at], gb[at] * sign[at],
    )
    out[r, col] = k


def _solve_rows(thetas: list[float], l: float, L0: float, n: int, from_label: np.ndarray | None):
    """solve_channel's lowest n levels of each channel theta of one box (l, L0).

    ``thetas`` are reduced into [0, 2 pi) already.  Returns k_or_kappa as an
    array of one row of n per channel, and per row whether its first level
    is bound and whether it is the zero-energy level; every other level is
    positive.  The threshold T = l sin(theta/2) + L0 cos(theta/2) alone
    decides where a row's ladder starts, here and nowhere else:

    * a zero-energy level where |T| <= ZERO_LEVEL_TOL (l + L0);
    * else a bound level where cos(theta/2) < 0 < T and G/kappa < 0 at the
      floor, cap = KAPPA_CEILING / l (G/kappa = T at 0), refined by Brent
      on [0, cap], all rows together like the positive roots;
    * the first positive level has branch label 0 where T < 0 and the row
      has no zero-energy level, else label 1.  At T = 0,
      F/k = l sin(theta/2) (sin(x)/x - cos(x)) with x = kl is positive on
      (0, pi/2], so label 0's half-branch holds no positive root.

    Where from_label is given, a row with from_label[r] >= 1 holds the n
    levels of label from_label[r] on, all positive, and needs no threshold.
    """
    rows = len(thetas)
    s2 = np.empty(rows)
    c2 = np.empty(rows)
    zero = np.zeros(rows, dtype=bool)
    m0 = np.ones(rows, dtype=np.intp)
    cap = KAPPA_CEILING / l
    brackets = []
    labels = [0] * rows if from_label is None else from_label.tolist()
    for r, (theta, label) in enumerate(zip(thetas, labels)):
        s, c = _half_angle(theta)
        s2[r], c2[r] = s, c
        if label > 0:
            m0[r] = label
            continue
        t0 = l * s + L0 * c
        if abs(t0) <= ZERO_LEVEL_TOL * (l + L0):
            # At the threshold T = 0 the E = 0 level is recorded as such;
            # searching for a bound root there would only rediscover it at
            # kappa ~ 0.
            zero[r] = True
        elif t0 < 0.0:
            m0[r] = 0
        elif c < 0.0:
            # The unique bound root is kept only below the ceiling, where
            # sinh cannot overflow; a deeper level is out of desk scale.
            g_cap = _ghat_scalar(s, c, l, L0, cap)
            if g_cap < 0.0:
                # t0 is G/kappa at 0 to the bit: sinhc is 1 there and cosh(0) is 1.
                brackets.append((r, t0, g_cap))
    k_or_kappa = np.empty((rows, n))
    k_or_kappa[zero, 0] = 0.0
    bound = np.zeros(rows, dtype=bool)
    if brackets:
        at, ga, gb = (np.array(v) for v in zip(*brackets))
        bound[at] = True
        k_or_kappa[at, 0] = _refine(
            _ghat_scalar, _ghat_half, s2, c2, l, L0, at, np.zeros(at.size), np.full(at.size, cap),
            ga, gb,
        )
    _scan_rows(s2, c2, l, L0, k_or_kappa, (bound | zero).astype(np.intp), m0)
    return k_or_kappa, bound, zero


def solve_channel(ch: Channel, n: int, tag: str | None = None) -> Spectrum:
    """The lowest n levels of one channel, ascending in E.

    Comprises at most one bound level, a zero-energy level exactly at the
    threshold T = 0, and positive roots of F refined to |dk| <= 1e-12 (1 + k).
    ``tag`` is recorded in the channel column, which is None without it; a
    channel never repeats a level, so no level has a partner.
    """
    rows = solve_channels([ch.theta], n, ch.l, ch.L0)
    kind = np.full(n, KIND_POSITIVE)
    kind[0] = KIND_ZERO if rows.zero[0] else KIND_BOUND if rows.bound[0] else KIND_POSITIVE
    channel = None if tag is None else np.full(n, tag)
    return Spectrum(rows.E[0], rows.k_or_kappa[0], kind, channel, np.arange(n), np.full(n, -1))


@dataclass(frozen=True)
class ChannelRows:
    """The lowest n levels of many channels of one box, one row per channel.

    Row r holds, in ``E`` and ``k_or_kappa``, the doubles that solve_channel
    returns for the channel of eigenphase ``theta[r]`` (reduced into
    [0, 2 pi)): its lowest n levels, or, in a label window, its n levels
    from a given branch label on.  The first level of row r is bound where
    ``bound[r]``, the zero-energy level where ``zero[r]``, and every other
    level is positive; a label window holds positive levels only.
    """

    theta: np.ndarray
    E: np.ndarray
    k_or_kappa: np.ndarray
    bound: np.ndarray
    zero: np.ndarray


def solve_channels(thetas, n: int, l: float = 1.0, L0: float = 1.0, from_label=None) -> ChannelRows:
    """solve_channel for every eigenphase in ``thetas`` on one box, in one batch.

    Each eigenphase is reduced into [0, 2 pi) as Channel reduces it.  Every
    root of every channel is searched in the same passes and refined in one
    _refine call, so a batch costs array operations, not a loop per channel.

    ``from_label``, one integer per eigenphase, opens a label window: where
    from_label[r] >= 1, row r holds the n levels of branch label
    m = (kl + atan2(k L0 cos(theta/2), sin(theta/2))) / pi from
    from_label[r] on, each the double a solve from the bottom of the ladder
    returns for its label, and needs no bound-state refinement.  A row with
    from_label[r] <= 0, as every row without it, holds the lowest n levels.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    Channel(0.0, l, L0)  # validates the box
    if not all(math.isfinite(t) for t in thetas):
        raise ValueError("theta must be finite")
    theta = [t % (2.0 * math.pi) for t in thetas]
    if from_label is not None:
        from_label = np.asarray(from_label, dtype=np.intp)
        if from_label.shape != (len(theta),):
            raise ValueError("from_label must hold one label per eigenphase")
    k_or_kappa, bound, zero = _solve_rows(theta, l, L0, n, from_label)
    with np.errstate(over="ignore"):
        E = k_or_kappa * k_or_kappa
    if not np.isfinite(E).all():
        raise SolverError(f"the levels of the box l={l!r} overflow a double")
    E[bound, 0] *= -1.0
    return ChannelRows(theta=np.array(theta), E=E, k_or_kappa=k_or_kappa, bound=bound, zero=zero)


def solve_spectrum(bc: BoundaryCondition, n: int) -> Spectrum:
    """Lowest n levels of the full system: merge of the two channel solves.

    Depends only on the eigenphases (xi, rho) of the defect matrix.  Levels
    of the two channels that coincide are paired by degenerate_partners,
    among the lowest n + 1 so that no flag depends on n; eigenfunctions read
    the pairs.

    Both channels are solved in one solve_channels batch to
    depth = min(n + 1, (n + 1) // 2 + 2); a channel's first levels are the
    same doubles at any depth.  A channel's positive levels carry
    consecutive branch labels from 0 or 1, from 1 after a bound or zero
    level (_solve_rows), so its a-th level lies at kl >= (a - 3/2) pi, and a
    level of label m at kl <= (m + 1/2) pi (see _scan_rows).  If channel A
    holds a of the merged n + 1 levels, the a - 3 levels of B labelled 1 to
    a - 3 lie below A's a-th, so n + 1 >= 2a - 3 and a <= (n + 4) / 2 <= depth.
    ScanExhausted is raised unless the merged (n + 1)-th level lies at or
    below the last level solved in both channels, which witnesses this.

    The merge is a stable sort of both rows on (E, channel), plus first
    where energies tie.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = bc.params
    depth = min(n + 1, (n + 1) // 2 + 2)
    rows = solve_channels([p.theta_plus, p.theta_minus], depth, bc.l, bc.L0)
    E = rows.E.ravel()
    order = np.argsort(E, kind="stable")[:n + 1]
    if E[order[-1]] > rows.E[:, -1].min():
        raise ScanExhausted("the merged levels reach past the depth the channels were solved to")
    row, index = np.divmod(order, depth)
    E = E[order]
    first = np.where(rows.zero, KIND_ZERO, np.where(rows.bound, KIND_BOUND, KIND_POSITIVE))
    kind = np.where(index == 0, first[row], KIND_POSITIVE)
    partner = degenerate_partners(E, index, row)
    return Spectrum(
        E=E[:n], k_or_kappa=rows.k_or_kappa.ravel()[order[:n]], kind=kind[:n],
        channel=_CHANNEL_NAMES[row[:n]], index=index[:n], partner=partner[:n],
    )
