"""Level continuation around closed loops on the eigenphase torus.

Dragging (theta_plus, theta_minus) around a closed loop returns the defect
matrix to itself, so the start and end spectra are identical as sets — but a
level followed continuously along the loop generally lands on a *different*
rung of the ladder.  The per-channel integer shift is the observable this
module measures; it depends only on the winding numbers of the loop, which
is the numerical face of pi_1(T^2) = Z x Z.

A level is identified by a closed-form branch label, not by how far it
moved.  With alpha = atan2(k L0 cos(theta/2), sin(theta/2)), F(k) = 0 reads
sin(kl + alpha) = 0, so every positive root carries the integer label
m = (kl + alpha)/pi; the bound level and the zero-energy level carry m = 0,
and the sorted levels of a channel carry consecutive labels.  The channel
solver places every root by its label and returns the label of each row's
first level (ChannelRows.label), so the labels are read, not computed.
alpha is continuous in theta except where theta wraps past a multiple of
2 pi, where it jumps by pi while k moves on continuously, so the label less
the number of 2 pi crossings is an unwrapped label that a level keeps along
the whole loop.  A trajectory is the set of samples that share one
unwrapped label, and its ladder shift is read off the labels.  A tracked
label that leaves the bottom of the ladder has dived below the bound-state
floor (kappa l > 50): its trajectory ends there with floored_out=True.

The loop is sampled on a fixed grid, t <- min(t + 1/n_steps, 1) until t is
within 1e-12 of 1, so the samples of a moving channel do not depend on each
other, and every level is the double solve_channel returns at its sample.
The two channels never mix along theta-only paths, so each is labelled on
its own and a tie between channels, as at a scalar defect, makes no
trajectory ambiguous.  One solve_channels batch holds the t = 0 ladder of
each channel, whose lowest levels split the tracked levels between the
channels in solve_spectrum's merge order (plus first on a tie).  A channel
wound by w != 0 tracks at least one level, and |w| + 1 where w < 0, as it
floors out its lowest |w|.  One more batch holds every later sample of
every wound channel, each row solved only as deep as it is read.  At an
interior sample a wound channel's tracked levels are the count consecutive
labels from the lowest tracked unwrapped label plus that sample's 2 pi
crossings, and its row holds just those: a window of branch labels where
that label is >= 1, the bottom of the ladder where it is <= 0 and a
tracked level may have floored out.  The last sample sets end_index and is
solved from the bottom, n + |w| + 1 deep: a tracked level's index moves by
at most |w| through the 2 pi crossings and by one as the floor level comes
and goes.  A channel with winding 0 keeps its theta, and its start ladder
stands for every sample.  The sample times and each channel's thetas are
arrays, with the doubles of the repeated addition and of
theta0 + 2 pi w t at each sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationLost, InconsistentShift
from .levels import CHANNEL_MINUS, CHANNEL_PLUS, _box, _count
from .spectrum import ChannelRows, solve_channels
from .unitary import TWO_PI, UnitaryParams

__all__ = [
    "PathSpec",
    "LevelTrajectory",
    "trace_path",
    "trajectory_shifts",
    "loop_shift",
]


@dataclass(frozen=True)
class PathSpec:
    """A closed loop in (theta_plus, theta_minus) with integer windings."""

    winding: tuple[int, int]
    base: UnitaryParams
    n_steps: int = 256
    levels_tracked: int = 8
    l: float = 1.0
    L0: float = 1.0

    def __post_init__(self):
        w = tuple(self.winding)
        if len(w) != 2 or not all(math.isfinite(x) and x == int(x) for x in w):
            raise ValueError("winding must be a pair of integers")
        object.__setattr__(self, "winding", (int(w[0]), int(w[1])))
        object.__setattr__(self, "n_steps", _count("n_steps", self.n_steps, 64))
        object.__setattr__(self, "levels_tracked", _count("levels_tracked", self.levels_tracked, 2))
        l, L0 = _box(self.l, self.L0)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "L0", L0)


@dataclass(frozen=True)
class LevelTrajectory:
    """One continued level: samples along t plus its start/end ladder rungs.

    Indices are per-channel level indices.  end_index is -1 when the branch
    dove below the bound-state floor and the trajectory ends early.
    """

    t_values: np.ndarray
    E_values: np.ndarray
    start_index: int
    end_index: int
    channel: str
    floored_out: bool = False


def _t_grid(n_steps: int) -> np.ndarray:
    """The sample times: t <- min(t + 1/n_steps, 1) from 0 until t >= 1 - 1e-12.

    np.cumsum adds in order, so each time is the double that repeated
    addition gives.  The k-th sum strays from k / n_steps by less than
    (k + 1) eps, under one step for n_steps up to 6e7, so the grid ends
    within the n_steps + 2 sums taken.
    """
    h = 1.0 / n_steps
    ts = np.full(n_steps + 2, h)
    ts[0] = 0.0
    np.minimum(np.cumsum(ts, out=ts), 1.0, out=ts)
    return ts[:np.flatnonzero(ts >= 1.0 - 1e-12)[0] + 1]


def _crossings(theta: np.ndarray) -> np.ndarray:
    """How many times solve_channels' reduction into [0, 2 pi) takes 2 pi off each theta.

    numpy's float % is Python's (fmod, then the same sign fix), so the
    remainders are the reduced thetas solve_channels works with.
    """
    return np.rint((theta - theta % TWO_PI) / TWO_PI).astype(int)


def _start_ladders(path: PathSpec) -> ChannelRows:
    """Both channels' ladders at t = 0, plus then minus, as one solve_channels batch.

    Their first n levels split the tracked levels between the channels and
    start them.  Both rows are n + max|w| + 1 deep, as deep as the deepest
    last-sample row, and a channel wound by w tracks at most
    max(n, |w| + 1) levels.
    """
    thetas = [path.base.theta_plus, path.base.theta_minus]
    depth = path.levels_tracked + max(map(abs, path.winding)) + 1
    return solve_channels(thetas, depth, path.l, path.L0)


def _tracked_counts(start: ChannelRows, winding: tuple[int, int], n: int) -> list[int]:
    """How many levels each channel tracks, plus then minus (see the module docstring).

    The merge is solve_spectrum's: a stable sort of the plus row, then the
    minus row.  A channel wound by w tracks at least bool(w) + max(0, -w).
    """
    E = start.E[:, :n].ravel()
    plus = int(np.count_nonzero(np.argsort(E, kind="stable")[:n] < n))
    return [max(count, bool(w) + max(0, -w)) for count, w in zip((plus, n - plus), winding)]


def _follow(
    channel: str, ts: np.ndarray, E: np.ndarray, first: np.ndarray, held: np.ndarray, count: int,
) -> list[LevelTrajectory]:
    """The trajectories of the lowest ``count`` levels at t = 0 of one channel.

    Row s of ``E`` holds the channel's levels at ts[s], held[s] of them,
    and its first level carries the unwrapped label first[s]; each
    sample's levels carry consecutive labels from there on, so a tracked
    label below that one has left the ladder through the floor.
    """
    index = first[0] + np.arange(count) - first[:, None]
    samples = np.arange(ts.size)
    trajectories = []
    for i in range(count):
        gone = np.flatnonzero(index[:, i] < 0)
        stop = int(gone[0]) if gone.size else ts.size
        # A witness: every sample the level reaches holds its label.
        if np.any(index[:stop, i] >= held[:stop]):
            raise ContinuationLost(f"{channel} channel ran out of fetched levels")
        trajectories.append(
            LevelTrajectory(
                t_values=ts[:stop].copy(),
                E_values=E[samples[:stop], index[:stop, i]],
                start_index=i,
                end_index=-1 if gone.size else int(index[-1, i]),
                channel=channel,
                floored_out=bool(gone.size),
            )
        )
    return trajectories


def trace_path(path: PathSpec) -> list[LevelTrajectory]:
    """Continue the lowest levels_tracked levels around the loop.

    Returns one trajectory per tracked level, ordered by starting energy,
    plus first on a tie; a wound channel may add levels (_tracked_counts).
    Raises ContinuationLost when a sample's levels stop short of a tracked
    label, and propagates the channel solves' errors.
    """
    n = path.levels_tracked
    ts = _t_grid(path.n_steps)
    start = _start_ladders(path)
    counts = _tracked_counts(start, path.winding, n)
    thetas0 = (path.base.theta_plus, path.base.theta_minus)
    # Every later sample of every wound channel in one batch: the interior
    # ones as label windows count deep, from the lowest tracked unwrapped
    # label plus the sample's 2 pi crossings, and the last one from the
    # bottom of the ladder, n + |w| + 1 deep.
    wound, thetas, labels, depths = {}, [], [], []
    later = ts.size - 1
    for r, w in enumerate(path.winding):
        if w:
            theta = thetas0[r] + (TWO_PI * w) * ts
            crossings = _crossings(theta)
            label = start.label[r] - crossings[0] + crossings[1:]
            label[-1] = 0
            depth = np.full(later, counts[r])
            depth[-1] = n + abs(w) + 1
            wound[r] = slice(later * len(thetas), later * (len(thetas) + 1)), crossings, depth
            thetas.append(theta[1:])
            labels.append(label)
            depths.append(depth)
    if wound:
        rows = solve_channels(
            np.concatenate(thetas), np.concatenate(depths), path.l, path.L0, np.concatenate(labels)
        )
    trajectories = []
    for r, ch in enumerate((CHANNEL_PLUS, CHANNEL_MINUS)):
        if r in wound:
            at, crossings, depth = wound[r]
            trajectories += _follow(
                ch, ts,
                np.concatenate([start.E[r:r + 1], rows.E[at]]),
                np.concatenate([start.label[r:r + 1], rows.label[at]]) - crossings,
                np.concatenate([[start.E.shape[1]], depth]),
                counts[r],
            )
        else:
            # The channel keeps its theta, and its start ladder stands for
            # every sample.
            trajectories += [
                LevelTrajectory(t_values=ts.copy(), E_values=np.full(ts.size, start.E[r, i]),
                                start_index=i, end_index=i, channel=ch)
                for i in range(counts[r])
            ]
    trajectories.sort(key=lambda tr: tr.E_values[0])
    return trajectories


def trajectory_shifts(
    trajectories: list[LevelTrajectory], winding: tuple[int, int]
) -> tuple[int, int]:
    """Per-channel ladder shift read off already-computed trajectories.

    Branches that dove below the floor are excluded; every surviving branch
    of a channel must report the same shift, otherwise InconsistentShift is
    raised (as it is when a wound channel has no surviving branch at all).
    """
    shifts: dict[str, int] = {}
    for ch, w in ((CHANNEL_PLUS, winding[0]), (CHANNEL_MINUS, winding[1])):
        seen = {
            tr.end_index - tr.start_index
            for tr in trajectories
            if tr.channel == ch and not tr.floored_out
        }
        if not seen:
            if w == 0:
                shifts[ch] = 0
                continue
            raise InconsistentShift(
                f"no surviving {ch}-channel trajectory to read the shift from"
            )
        if len(seen) > 1:
            raise InconsistentShift(
                f"{ch} channel reports conflicting shifts {sorted(seen)}"
            )
        shifts[ch] = seen.pop()
    return shifts[CHANNEL_PLUS], shifts[CHANNEL_MINUS]


def loop_shift(path: PathSpec) -> tuple[int, int]:
    """Trace the loop and report the per-channel shift (s_plus, s_minus)."""
    return trajectory_shifts(trace_path(path), path.winding)
