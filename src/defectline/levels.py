"""The level record and the rules that all three solvers share.

The channel solver (spectrum), det M(k) = 0 and FD (oracles) check each
other, so neither solver module imports the other: both import this one.
It holds the record every solver returns, Spectrum, with its EigenLevel
objects and the kind and channel names; the one rule for "degenerate"
(degenerate_partners); the box check, the level-count rule, the
bound-state floor and eps; and Brent's method, with which the channel
solver refines its roots and det and FD refine their levels and knots.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenLevel", "Spectrum"]

KIND_POSITIVE = "positive"
KIND_ZERO = "zero"
KIND_BOUND = "bound"

CHANNEL_PLUS = "plus"
CHANNEL_MINUS = "minus"

# The bound-state floor, kappa l = KAPPA_CEILING: a level at or below it is
# out of desk scale and dropped, by the same convention in every solver of
# this package.
KAPPA_CEILING = 50.0

_EPS = float(np.finfo(float).eps)

_BRENT_XTOL = 1e-13
_BRENT_RTOL = 1e-15
_BRENT_MAXITER = 100


def _box(l, L0) -> tuple[float, float]:
    """The box (l, L0) as Python floats, or ValueError unless both are finite positive lengths.

    Every solver meets its box as floats, so a numpy scalar gives the
    doubles of the box (float(l), float(L0)).
    """
    if not (math.isfinite(l) and l > 0):
        raise ValueError("l must be a positive length")
    if not (math.isfinite(L0) and L0 > 0):
        raise ValueError("L0 must be a positive length")
    return float(l), float(L0)


def _count(name: str, value, minimum: int) -> int:
    """value as an int: a whole number of at least minimum, or ValueError (NaN and 2.5 too)."""
    if not (math.isfinite(value) and value == int(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


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

    ``E``, ``k_or_kappa`` and ``index`` hold EigenLevel's fields, ``channel``
    its channel names, or is None where the solver knows no channel, and
    ``partner`` is the index of a level's degenerate partner
    (degenerate_partners), maybe past the cut, or -1.  ``kind`` is derived
    from E on first access.  ``len(spec)`` is the level count; ``levels``
    builds the EigenLevel objects on first access.  Spectra compare by
    identity: array fields have no truth value for __eq__.
    """

    E: np.ndarray
    k_or_kappa: np.ndarray
    channel: np.ndarray | None
    index: np.ndarray
    partner: np.ndarray

    def __len__(self) -> int:
        return self.E.size

    @functools.cached_property
    def kind(self) -> np.ndarray:
        """Each level's kind by the one rule: bound where E < 0, zero where E == 0, else positive."""
        E = self.E
        return np.where(E < 0.0, KIND_BOUND, np.where(E == 0.0, KIND_ZERO, KIND_POSITIVE))

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

    Two neighbours pair where |dE| <= 1e-10 (1 + max |E|) over the two,
    which is an absolute 1e-10 below |E| of about 1 and relative above it;
    they get each other's ``index``, and every other level -1.  Where
    ``row`` names each level's channel, only neighbours of different
    channels pair, since a channel never repeats a level; without it any
    neighbours may.  A level that coincides with both of its neighbours
    takes the upper one.  An upper neighbour that overflowed to inf pairs
    with nothing.
    """
    close = np.abs(E[1:] - E[:-1]) <= _pair_window(E[:-1], E[1:])
    close &= np.isfinite(E[1:])
    if row is not None:
        close &= row[:-1] != row[1:]
    at = np.flatnonzero(close)
    partner = np.full(E.size, -1)
    partner[at + 1] = index[at]
    partner[at] = index[at + 1]  # last, so a level in two pairs keeps the upper one
    return partner


def _pair_window(lower, upper):
    """1e-10 (1 + max |E|) over neighbouring levels, arrays or floats: |dE| within it pairs them."""
    return 1e-10 * (1.0 + np.maximum(abs(lower), abs(upper)))


def _may_pair(lower: float, upper: float) -> bool:
    """Whether a level at or above upper may pair with the level lower below it.

    upper - lower grows faster in upper than the window does, so a bound on
    the upper level that misses it by a factor of 2 decides under rounding.
    """
    return not upper - lower > 2.0 * _pair_window(lower, upper)


def _half_width(x: float) -> float:
    """brentq.c's stopping half-width at the iterate x: (xtol + rtol |x|) / 2."""
    return (_BRENT_XTOL + _BRENT_RTOL * abs(x)) / 2


def _brentq(f, xa: float, xb: float, fa: float, fb: float, half_width=_half_width) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A port of scipy.optimize.brentq (its brentq.c) at xtol = _BRENT_XTOL
    and rtol = _BRENT_RTOL: the same iterates in the same floating-point
    order, so the same double comes back.  ``fa`` and ``fb`` are f(xa) and
    f(xb), which every caller already holds.  ``half_width(x)`` is the
    stopping half-width at the iterate x, brentq.c's by default; a caller
    that refines in a mapped variable passes the half-width that maps to
    its own tolerance.  As fpre is never 0 inside the loop and the loop
    returns as soon as fcur is, brentq.c's sign tests are plain comparisons
    here; each magnitude is computed once and carried with its value, and
    spre is carried as its magnitude alone.
    """
    xpre, xcur = xa, xb
    fpre, fcur = fa, fb
    if fpre != fpre or fcur != fcur:
        raise ValueError("the function value at a bracket end is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    afpre, afcur = abs(fpre), abs(fcur)
    xblk = fblk = afblk = scur = ascur = aspre = 0.0
    for _ in range(_BRENT_MAXITER):
        if fcur == 0.0:
            return xcur
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, afblk = xpre, fpre, afpre
            scur = xcur - xpre
            aspre = ascur = abs(scur)
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afpre, afcur, afblk = afcur, afblk, afcur
        delta = half_width(xcur)
        sbis = (xblk - xcur) / 2
        asbis = abs(sbis)
        # fcur is nonzero here, as fblk only ever takes nonzero values.
        if asbis < delta:
            return xcur
        if aspre > delta and afcur < afpre:
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
            astry = abs(stry)
            if 2 * astry < aspre and 2 * astry < 3 * asbis - delta:
                # good short step
                scur, aspre, ascur = stry, ascur, astry
            else:
                scur = sbis
                aspre = ascur = asbis
        else:
            scur = sbis
            aspre = ascur = asbis
        xpre, fpre, afpre = xcur, fcur, afcur
        if ascur > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"the function value at x={xcur} is NaN")
        afcur = abs(fcur)
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations")
