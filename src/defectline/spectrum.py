"""Exact channel-wise spectrum of the box with a point defect.

Diagonalizing the defect matrix U splits the eigenvalue problem into two
independent "channels", one per eigenphase theta of U.  A positive-energy
level E = k^2 of the channel solves

    F(k) = sin(kl) sin(theta/2) + k L0 cos(kl) cos(theta/2) = 0,  k > 0,

a bound level E = -kappa^2 solves the hyperbolic continuation

    G(kappa) = sinh(kappa l) sin(theta/2) + kappa L0 cosh(kappa l) cos(theta/2) = 0,

and a zero-energy level exists exactly when the shared small-argument limit

    T = l sin(theta/2) + L0 cos(theta/2)

vanishes.  A ladder that starts below branch label 1 has one level there:
the bound level where cos(theta/2) < 0 < T, or the positive level of label
0 where T < 0.  _threshold_root finds it by Newton's method in x = kappa l
or x = kl, falling monotonically onto the root, with no bracket.

Every other positive root lies alone on a half-branch of tan, named by its
branch label m >= 1.  Three steps of the branch equation place it within
one cell of the grid step * j from the centre of its half-branch, F/k at
the 4 grid points around that estimate finds its cell, and Brent's
method (levels._brentq, a port of scipy's brentq) refines it.  A batch
of fewer than _ARRAY_SCAN_MIN roots takes each root's whole search in
Python floats, a longer one every step on numpy arrays, with Brent over
all brackets in lock step; both give the same doubles.  The search takes
many channels of one box at once (solve_channels, one row per channel),
and a single channel is its one-row case, so a batch returns the doubles
of one solve per channel.
As each label has its own window, a row may also start at a given label
above the bottom of its ladder, with the same doubles for the labels it
shares with the bottom, and each row may stop at its own depth.  The
merged spectrum solves its two channels as one such batch, only as deep as
the labels prove the merge reaches, about n/2.  One array sort merges the
two rows, the one degeneracy rule (levels.degenerate_partners) flags pairs
among n + 1 levels, and the levels stay columns of the shared record,
levels.Spectrum.  This module is the channel solver alone: it imports
nothing from det or FD (oracles), nor they from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCondition
from .errors import ScanExhausted, SolverError
from .levels import (_BRENT_MAXITER, _BRENT_RTOL, _BRENT_XTOL, CHANNEL_MINUS, CHANNEL_PLUS, KAPPA_CEILING,
                     Spectrum, _box, _brentq, _count, degenerate_partners)

__all__ = [
    "Channel",
    "channel_function",
    "bound_function",
    "threshold",
    "ChannelRows",
    "solve_channel",
    "solve_channels",
    "solve_spectrum",
]

# A channel's name by its row in solve_spectrum's batch.
_CHANNEL_NAMES = np.array([CHANNEL_PLUS, CHANNEL_MINUS])

# Grid step pi/(GRID_DENSITY * l) guarantees at least one grid point between
# any two roots of one channel (roots interlace the lattice m*pi/l).
GRID_DENSITY = 64

# |T| below this (scaled by l + L0) counts as an exact zero-energy level.
ZERO_LEVEL_TOL = 1e-12

_NEWTON_MAXITER = 100

# _scan_rows searches fewer roots than this one at a time in Python floats,
# and this many or more as numpy arrays, with lock-step Brent: the measured
# crossover.  A solve_channels call of one row of n roots at l = L0 = 1,
# mean over 20 random channels on a 2-core Xeon (best of 15, the two
# searches interleaved), took 0.52 / 0.62 / 0.66 / 0.69 / 0.80 ms in floats
# and 0.63 / 0.66 / 0.66 / 0.65 / 0.68 ms as arrays at n = 40 / 48 / 52 /
# 56 / 64.
_ARRAY_SCAN_MIN = 52

# ScanExhausted's text where a probe count finds no cell with a sign change.
_UNWITNESSED = "F/k does not change sign in the window of every branch label"


@dataclass(frozen=True)
class Channel:
    """One reduced problem: eigenphase ``theta`` of U on the box (l, L0)."""

    theta: float
    l: float = 1.0
    L0: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        l, L0 = _box(self.l, self.L0)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "L0", L0)
        object.__setattr__(self, "theta", self.theta % (2.0 * math.pi))


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
    # F(k)/k at k > 0, with the positive roots of F, on half-angles that may
    # differ from element to element of k; in np.sinc's operations: sin(x) / x
    # at x = pi * (kl / pi).  Every scanned label is >= 1, so no probe and no
    # Brent step comes near k = 0, where this is 0 / 0.
    kl = k * l
    x = np.pi * (kl / np.pi)
    return l * (np.sin(x) / x) * s2 + L0 * np.cos(kl) * c2


def _fhat_scalar(s2: float, c2: float, l: float, L0: float, k: float) -> float:
    # _fhat_half for one float, with the same double out, NaN at k = 0 too.
    kl = k * l
    x = math.pi * (kl / math.pi)
    return l * (math.sin(x) / x) * s2 + L0 * math.cos(kl) * c2 if x else math.nan


def _brentq_array(f, xa, xb, fa, fb) -> np.ndarray:
    """_brentq on every bracket [xa[i], xb[i]] at once, in lock step.

    Each element takes _brentq's branches and floating-point operations in
    its order, selected by masked copies, so each root is the double _brentq
    returns, provided the vector f returns the scalar f's doubles.  The end
    values fa and fb must be nonzero and of opposite signs, as on every
    sign-change cell, so every bracket starts a new block.  A bracket leaves
    the active set when it converges; f is evaluated on the active brackets
    only, as f(x, i) with i the indices of those brackets, so each bracket
    may carry its own function.  The state is the rows of one array, so one
    index drops the converged brackets from all of them.
    """
    s = np.empty((12, len(xa)))
    s[0], s[1], s[3], s[4] = xa, xb, fa, fb
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, asbis, afcur = s
    if np.isnan(s[3:5]).any():
        raise ValueError("the function value at a bracket end is NaN")
    if ((fpre == 0.0) | (fcur == 0.0) | (np.signbit(fpre) == np.signbit(fcur))).any():
        raise ValueError("f(a) and f(b) must be nonzero and have different signs")
    out = xcur.copy()
    idx = np.arange(out.size)
    if not idx.size:
        return out
    xblk[:] = xpre
    fblk[:] = fpre
    np.subtract(xcur, xpre, out=spre)
    scur[:] = spre
    # Overflow, division by 0 and 0 / 0 are silent, as in brentq.c and _brentq.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_BRENT_MAXITER):
            np.abs(fcur, out=afcur)
            afblk = np.abs(fblk)
            swap = afblk < afcur
            if np.count_nonzero(swap):
                # pre, cur, blk = cur, blk, cur for x and f alike.
                for pre, cur, blk in ((xpre, xcur, xblk), (fpre, fcur, fblk)):
                    np.putmask(pre, swap, cur)
                    np.putmask(cur, swap, blk)
                    np.putmask(blk, swap, pre)
                np.putmask(afcur, swap, afblk)
            np.abs(xcur, out=delta)
            delta *= _BRENT_RTOL
            delta += _BRENT_XTOL
            delta /= 2
            np.subtract(xblk, xcur, out=sbis)
            sbis /= 2
            np.abs(sbis, out=asbis)
            done = asbis < delta
            done |= afcur == 0.0
            if np.count_nonzero(done):
                out[idx[done]] = xcur[done]
                go = ~done
                idx, s = idx[go], s[:, go]
                if idx.size == 0:
                    return out
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, asbis, afcur = s
            dx = xcur - xpre
            df = fcur - fpre
            nf = -fcur
            # (fpre - fcur) / (xpre - xcur) is df / dx: both negations are exact.
            interpolate = nf * dx / df
            dpre = df / dx
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = nf * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            np.putmask(stry, xpre == xblk, interpolate)
            aspre = np.abs(spre)
            limit = 3 * asbis - delta
            np.minimum(aspre, limit, out=limit)
            good = 2 * np.abs(stry) < limit
            good &= aspre > delta
            good &= afcur < np.abs(fpre)
            # spre, scur = (scur, stry) on a good short step, else (sbis, sbis).
            bad = ~good
            if np.count_nonzero(bad):
                np.putmask(scur, bad, sbis)
                np.putmask(stry, bad, sbis)
            spre[:] = scur
            scur[:] = stry
            xpre[:] = xcur
            fpre[:] = fcur
            # sbis is nonzero on an active bracket, so this is delta * sign(sbis).
            step = np.copysign(delta, sbis)
            np.putmask(step, np.abs(scur) > delta, scur)
            xcur += step
            fcur[:] = f(xcur, idx)
            if np.count_nonzero(np.isnan(fcur)):
                raise ValueError(f"the function value at x={xcur[np.isnan(fcur)][0]} is NaN")
            # A new block where f changed sign; where fcur is 0 the bracket is
            # done at the next step whatever this sets.
            new = np.signbit(fpre) != np.signbit(fcur)
            np.putmask(xblk, new, xpre)
            np.putmask(fblk, new, fpre)
            np.subtract(xcur, xpre, out=dx)
            np.putmask(spre, new, dx)
            np.putmask(scur, new, dx)
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations")


def _threshold_root(a: float, b: float, bound: bool) -> float:
    """x = kappa l of the bound level, or x = kl of label 0, on a = L0 c2 and b = l s2.

    The bound level (c2 < 0 < T = a + b) is the root of phi = b tanh(x) + a x
    in (0, KAPPA_CEILING): phi is concave, phi(0) = 0 and phi'(0) = T.  The
    start min(-b / a, KAPPA_CEILING) has phi < 0, and so has sqrt(6 (1 - t)),
    t = -a / b, where 1 - t < 0.2, as tanh x <= x - x^3 / 3 + 2 x^5 / 15.
    Label 0 (T < 0) is the root of phi = b sin(x) + a x cos(x) in
    (0, pi / 2]: phi'' = -(2a + b) sin(x) - a x cos(x) > 0, and the start
    min(pi / 2, sqrt(-3 T / b)), pi / 2 where b = 0, lies above the root as
    tan x >= x + x^3 / 3.  From there each tangent's zero lies between the
    root and the last iterate, so Newton's method falls monotonically onto
    the root; it stops at the first step that does not decrease x.
    ScanExhausted, the witness, is raised unless that happens within
    _NEWTON_MAXITER steps and inside the window.
    """
    top = KAPPA_CEILING if bound else math.pi / 2
    if bound:
        x, t = min(-b / a, top), -a / b
        if 1.0 - t < 0.2:
            x = min(x, math.sqrt(6.0 * (1.0 - t)))
    else:
        x = top if b == 0.0 else min(top, math.sqrt(-3.0 * (a + b) / b))
    for _ in range(_NEWTON_MAXITER):
        if bound:
            h = math.tanh(x)
            y = x - (b * h + a * x) / (b * (1.0 - h * h) + a)
        else:
            sin, cos = math.sin(x), math.cos(x)
            y = x - (b * sin + a * x * cos) / ((a + b) * cos - a * x * sin)
        if not y < x:
            # x <= top holds, as the start does and x only falls.
            if 0.0 < x and (x < top or not bound):
                return x
            break
        x = y
    raise ScanExhausted(f"Newton's method did not stop inside the window of its level, at x={x!r}")


def _branch_estimate(m, s2, c2, l: float, L0: float) -> np.ndarray:
    """kl of the positive root of F of branch label m >= 1, within one grid cell.

    The root solves x = m pi - atan2(x a, b), x = kl, a = L0 c2 and
    b = l s2 >= 0, on its half-branch (see _scan_rows); three steps of that
    map from the centre of the half-branch, at most pi / 4 off, place it:
    there the map's slope, -ab / (b^2 + a^2 x^2), is at most 1 / (2x) <=
    1 / pi in size, so (pi / 4) / pi^3 < 0.0254 is left, under the cell
    pi / 64 that _scan_rows needs.
    """
    a, b = L0 * c2, l * s2
    mpi = m * np.pi
    x = mpi - np.copysign(np.pi / 4, c2)
    # Where x a overflows, atan2 of +-inf is the limit +-pi/2.
    with np.errstate(over="ignore"):
        for _ in range(3):
            x = mpi - np.arctan2(x * a, b)
    return x


def _scan_rows(s2, c2, l: float, L0: float, out: np.ndarray, first, m0, depth) -> None:
    """Fill out[r, first[r]:depth] with the positive roots of F of labels m0[r] >= 1 on.

    ``depth`` is one for every row, or a column of one per row.  Row r is
    the channel with half-angles (s2[r], c2[r]) on the box (l, L0), and its
    p-th positive column, out[r, first[r] + p], gets the root of branch
    label m0[r] + p; solve_channels decides where each ladder starts and
    solves any level below label 1 itself.  The root of label
    m = (kl + atan2(k L0 c2, s2)) / pi lies, as s2 >= 0, in kl in
    [m pi - pi/2, m pi] when c2 >= 0 and in [m pi, m pi + pi/2] when
    c2 < 0.  The window of label m, its half-branch and a cell at each end,
    holds no other root, and F/k (-1)^(m + 1) is >= 0 in it up to the root
    and < 0 past it.  The root's cell of the grid step * j is found in one
    pass over all roots: _branch_estimate lies within one cell of the root,
    and the count of the 4 grid points around it where that sign is >= 0
    places it.  Before either search, from the labels alone, SolverError
    is raised where the k of a probe may overflow a double, as on a box of
    l = 2e-308, and ScanExhausted where kl's rounding, half the spacing of
    doubles at the window's top, passes the grid cell pi / GRID_DENSITY, as
    from labels of about 1.8e14 on.  ScanExhausted is raised unless each
    cell lies in its window and F/k changes sign across it so, before any
    root is refined.  Brent refines the roots; a root where F/k is exactly
    0 is that grid point.  Fewer than _ARRAY_SCAN_MIN roots are searched
    one at a time in Python floats (_scan_floats), more as arrays, with
    lock-step Brent over every bracket; both give the same doubles and
    raise the same errors.
    """
    step = math.pi / (GRID_DENSITY * l)
    cols = np.arange(out.shape[1])
    r, col = np.nonzero((cols >= first[:, None]) & (cols < depth))
    if not r.size:
        return
    m = (m0 - first)[r]
    # Every probe of label m lies below the grid point GRID_DENSITY (m + 1);
    # the largest label is bounded in floats, as intp wraps past its range.
    # kl rounds by half its spacing there, which must stay within a cell.
    top = GRID_DENSITY * (float(m.max()) + float(col.max()) + 1.0)
    if not step * top < math.inf:
        raise SolverError(f"the levels of the box l={l!r} overflow a double")
    if not math.ulp(top * (math.pi / GRID_DENSITY)) / 2.0 <= math.pi / GRID_DENSITY:
        raise ScanExhausted("a branch label lies so high that the rounding of kl is past the grid cell")
    m += col
    s2, c2 = s2[r], c2[r]
    if r.size < _ARRAY_SCAN_MIN:
        out[r, col] = _scan_floats(m.tolist(), s2.tolist(), c2.tolist(), l, L0, step)
        return
    lo = m * GRID_DENSITY - (1 + GRID_DENSITY // 2 * (c2 >= 0.0))
    # Flipping both half-angles flips F/k exactly: g = F/k (-1)^(m + 1).
    sign = (m & 1) * 2.0 - 1.0
    estimate = _branch_estimate(m, s2, c2, l, L0) * (GRID_DENSITY / math.pi)
    start = np.floor(estimate).astype(np.intp) - 1
    # Root i probes the points start[i] ... start[i] + 3, as row i of v.
    v = _fhat_half(
        (s2 * sign)[:, None], (c2 * sign)[:, None], l, L0, step * (start[:, None] + np.arange(4)),
    )
    below = (v >= 0.0).sum(1)
    j = start - 1 + below
    # g at j and j + 1, flat entries i - 1 and i of the probes, NaN where no
    # probe holds it.
    i = np.arange(0, v.size, 4) + below
    v = np.append(v, np.nan)
    ga = np.where(below > 0, v[i - 1], np.nan)
    gb = np.where(below < 4, v[i], np.nan)
    if not ((j >= lo) & (j - lo <= GRID_DENSITY // 2 + 1) & (ga >= 0.0) & (gb < 0.0)).all():
        raise ScanExhausted(_UNWITNESSED)
    k = step * j
    at = np.flatnonzero(ga)
    s2, c2 = s2[at], c2[at]
    k[at] = _brentq_array(
        lambda x, i: _fhat_half(s2[i], c2[i], l, L0, x),
        k[at], step * (j[at] + 1), ga[at] * sign[at], gb[at] * sign[at],
    )
    out[r, col] = k


def _scan_floats(m: list, s2: list, c2: list, l: float, L0: float, step: float) -> list:
    """_scan_rows's search for roots of labels m[i] >= 1 at half-angles (s2[i], c2[i]), in floats.

    Each root takes the array search's steps one float at a time:
    _branch_estimate's three steps by math.atan2, the 4 probes by
    _fhat_scalar, which returns _fhat_half's doubles (NaN at k = 0 too), the
    same witness, and _brentq, which returns _brentq_array's doubles on the
    same bracket.  A last-bit difference of math.atan2 from np.arctan2 may
    move a start by one, but not the cell the count finds, as the estimate
    lies within about half a cell of the root.  So each root is the array
    search's double, and a cell that fails the witness raises its error.
    """
    starts = []
    for mi, s, c in zip(m, s2, c2):
        a, b, mpi = L0 * c, l * s, mi * math.pi
        x = mpi - math.copysign(math.pi / 4, c)
        for _ in range(3):
            x = mpi - math.atan2(x * a, b)
        starts.append(math.floor(x * (GRID_DENSITY / math.pi)) - 1)
    half = GRID_DENSITY // 2
    cells = []
    for mi, s, c, start in zip(m, s2, c2, starts):
        sign = 1.0 if mi & 1 else -1.0
        probe = functools.partial(_fhat_scalar, s * sign, c * sign, l, L0)
        g = (probe(step * start), probe(step * (start + 1)),
             probe(step * (start + 2)), probe(step * (start + 3)))
        below = (g[0] >= 0.0) + (g[1] >= 0.0) + (g[2] >= 0.0) + (g[3] >= 0.0)
        j = start - 1 + below
        ga = g[below - 1] if below > 0 else math.nan
        gb = g[below] if below < 4 else math.nan
        lo = mi * GRID_DENSITY - (1 + half * (c >= 0.0))
        if not (lo <= j <= lo + half + 1 and ga >= 0.0 and gb < 0.0):
            raise ScanExhausted(_UNWITNESSED)
        cells.append((j, ga * sign, gb * sign))
    return [
        _brentq(functools.partial(_fhat_scalar, s, c, l, L0), step * j, step * (j + 1), fa, fb)
        if fa else step * j
        for s, c, (j, fa, fb) in zip(s2, c2, cells)
    ]


def solve_channel(ch: Channel, n: int, tag: str | None = None) -> Spectrum:
    """The lowest n levels of one channel, ascending in E.

    Comprises at most one bound level, a zero-energy level exactly at the
    threshold T = 0, and positive roots of F refined to |dk| <= 1e-12 (1 + k).
    ``tag`` is recorded in the channel column, which is None without it; a
    channel never repeats a level, so no level has a partner.
    """
    rows = solve_channels([ch.theta], n, ch.l, ch.L0)
    channel = None if tag is None else np.full(n, tag)
    return Spectrum(rows.E[0], rows.k_or_kappa[0], channel, np.arange(n), np.full(n, -1))


@dataclass(frozen=True)
class ChannelRows:
    """The lowest n levels of many channels of one box, one row per channel.

    Row r holds, in ``E`` and ``k_or_kappa``, the doubles that solve_channel
    returns for the r-th channel: its lowest n levels, or, in a label
    window, its n levels from a given branch label on, with NaN past the
    row's own n where the rows differ in depth.  ``label[r]`` is the
    branch label of row r's first level, the one the solver placed it by,
    and level j of the row carries label[r] + j; a bound or zero-energy
    level, only ever first in its row, carries label 0.
    """

    E: np.ndarray
    k_or_kappa: np.ndarray
    label: np.ndarray


def _integers(given: np.ndarray) -> np.ndarray | None:
    """given as intp, or None unless each entry is a whole number that intp holds."""
    # A NaN, an infinity or a number past intp casts to another value, or,
    # held as a Python int, raises OverflowError.
    try:
        with np.errstate(invalid="ignore"):
            cast = given.astype(np.intp)
    except OverflowError:
        return None
    return cast if (cast == given).all() else None


def _depths(n, rows: int):
    """The depth of every row, as one int or a column of one per row, and the deepest.

    n is one integer of at least 1, or a sequence of one per row.
    """
    if not hasattr(n, "__len__"):
        n = _count("n", n, 1)
        return n, n
    given = np.asarray(n)
    depth = _integers(given) if given.shape == (rows,) else None
    if depth is None or not (depth >= 1).all():
        raise ValueError("n must hold one integer of at least 1 per eigenphase")
    return depth[:, None], int(depth.max(initial=0))


def solve_channels(thetas, n, l: float = 1.0, L0: float = 1.0, from_label=None) -> ChannelRows:
    """solve_channel for every eigenphase in ``thetas`` on one box, in one batch.

    Each eigenphase is reduced into [0, 2 pi) as Channel reduces it.  Every
    root of label >= 1 of every channel is searched in one _scan_rows call:
    a short batch root by root in Python floats, a long one in array passes
    over all its roots, so a long batch costs array operations, not a loop
    per channel.  The threshold T = l sin(theta/2) + L0 cos(theta/2)
    alone decides where a row's ladder starts, here and nowhere else:

    * a zero-energy level where |T| <= ZERO_LEVEL_TOL (l + L0);
    * else a bound level where cos(theta/2) < 0 < T and its root lies below
      the floor, kappa l < KAPPA_CEILING, as b tanh(x) + a x < 0 there
      (a = L0 cos(theta/2), b = l sin(theta/2));
    * else, where T < 0, the positive level of branch label 0, in
      kl in (0, pi/2];
    * then the positive levels of labels 1, 2, ...  At T = 0,
      F/k = l sin(theta/2) (sin(x)/x - cos(x)) with x = kl is positive on
      (0, pi/2], so label 0's half-branch holds no positive root.

    A bound or label-0 level is solved on its row alone by _threshold_root.
    ``from_label``, one integer per eigenphase, opens a label window: where
    from_label[r] >= 1, row r holds the n levels of branch label
    m = (kl + atan2(k L0 cos(theta/2), sin(theta/2))) / pi from
    from_label[r] on, all positive, each the double a solve from the bottom
    of the ladder returns for its label, and needs no threshold.  A row with
    from_label[r] <= 0, as every row without it, holds the lowest n levels.
    ``n`` is one depth for every row or one per eigenphase; a row is solved
    only to its own depth, with the doubles of a solve of that row alone,
    and its entries past that depth are NaN.
    ValueError is raised where n or a label is not an integer of its range,
    as 2.5, 0 or NaN is not, or where a sequence of them does not hold one
    per eigenphase; a whole float counts as its integer.  Each row's label
    is the one its roots were placed by, checked there (ScanExhausted), so
    a reader of the labels computes none.
    SolverError is raised where the E of a level overflows a double or rounds
    to 0, as on a box of l = 1e-300 or l = 1e200.
    """
    theta = np.asarray(thetas, dtype=float)
    rows = theta.size
    depth, width = _depths(n, rows)
    l, L0 = _box(l, L0)
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    # Each row's label of its first root of label >= 1, and 1 where a
    # level below label 1 comes before that root.
    m0 = np.ones(rows, dtype=np.intp)
    bottom = range(rows)
    if from_label is not None:
        given = np.asarray(from_label)
        if given.shape != (rows,):
            raise ValueError("from_label must hold one label per eigenphase")
        labels = _integers(given)
        if labels is None:
            raise ValueError("from_label must hold integer labels")
        np.maximum(labels, 1, out=m0)
        bottom = np.flatnonzero(labels <= 0).tolist()
    # numpy's sin and cos give math's doubles here, as _fhat_half's do.
    half = theta % (2.0 * math.pi) / 2.0
    s2, c2 = np.sin(half), np.cos(half)
    first = np.zeros(rows, dtype=np.intp)
    # NaN past each row's depth; every held entry is written below.
    k_or_kappa = np.full((rows, width), np.nan)
    bound = []
    s2s, c2s = s2.tolist(), c2.tolist()
    for r in bottom:
        s, c = s2s[r], c2s[r]
        a, b = L0 * c, l * s
        t0 = b + a
        if abs(t0) <= ZERO_LEVEL_TOL * (l + L0):
            # At the threshold T = 0 the E = 0 level is recorded as such;
            # searching for a bound root there would only rediscover it at
            # kappa ~ 0.
            x = 0.0
        elif t0 < 0.0:
            x = _threshold_root(a, b, bound=False)
        elif c < 0.0 and b * math.tanh(KAPPA_CEILING) + a * KAPPA_CEILING < 0.0:
            x = _threshold_root(a, b, bound=True)
            bound.append(r)
        else:
            continue
        first[r] = 1
        k_or_kappa[r, 0] = x / l
    _scan_rows(s2, c2, l, L0, k_or_kappa, first, m0, depth)
    with np.errstate(over="ignore"):
        E = k_or_kappa * k_or_kappa
    # NaN marks the entries past a row's depth, so only held levels count.
    if np.isinf(E).any():
        raise SolverError(f"the levels of the box l={l!r} overflow a double")
    # An E that rounds to 0 ties every such level and the zero-energy one.
    if ((E == 0.0) & (k_or_kappa != 0.0)).any():
        raise SolverError(f"the levels of the box l={l!r} underflow a double")
    if bound:
        E[bound, 0] *= -1.0
    return ChannelRows(E=E, k_or_kappa=k_or_kappa, label=m0 - first)


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
    level (solve_channels), so its a-th level lies at kl >= (a - 3/2) pi, and a
    level of label m at kl <= (m + 1/2) pi (see _scan_rows).  If channel A
    holds a of the merged n + 1 levels, the a - 3 levels of B labelled 1 to
    a - 3 lie below A's a-th, so n + 1 >= 2a - 3 and a <= (n + 4) / 2 <= depth.
    ScanExhausted is raised unless the merged (n + 1)-th level lies at or
    below the last level solved in both channels, which witnesses this, and
    ValueError where n is not an integer of at least 1.

    The merge is a stable sort of both rows on (E, channel), plus first
    where energies tie.
    """
    n = _count("n", n, 1)
    p = bc.params
    depth = min(n + 1, (n + 1) // 2 + 2)
    rows = solve_channels([p.theta_plus, p.theta_minus], depth, bc.l, bc.L0)
    E = rows.E.ravel()
    order = np.argsort(E, kind="stable")[:n + 1]
    if E[order[-1]] > rows.E[:, -1].min():
        raise ScanExhausted("the merged levels reach past the depth the channels were solved to")
    row, index = np.divmod(order, depth)
    E = E[order]
    partner = degenerate_partners(E, index, row)
    return Spectrum(
        E=E[:n], k_or_kappa=rows.k_or_kappa.ravel()[order[:n]],
        channel=_CHANNEL_NAMES[row[:n]], index=index[:n], partner=partner[:n],
    )
