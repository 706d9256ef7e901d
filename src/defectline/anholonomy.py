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
channels in solve_spectrum's merge order (plus first on a tie), and the
last-sample ladder of each moving channel, solved from the bottom because
it sets end_index.  A channel wound by w != 0 tracks at least one level,
and |w| + 1 where w < 0, as it floors out its lowest |w|.  At every other
sample a moving channel's tracked levels are the count consecutive labels
from the lowest tracked unwrapped label plus that sample's 2 pi crossings,
and one more batch solves just those: a window of branch labels where that
label is >= 1, the bottom of the ladder where it is <= 0 and a tracked
level may have floored out.  A channel with winding 0 keeps its theta, and
its start ladder stands for every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationLost, InconsistentShift
from .spectrum import CHANNEL_MINUS, CHANNEL_PLUS, Channel, ChannelRows, _count, solve_channels
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
        Channel(0.0, self.l, self.L0)  # validates the box


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


def _t_grid(n_steps: int) -> list[float]:
    """The sample times: t <- min(t + 1/n_steps, 1) from 0 until t >= 1 - 1e-12."""
    h = 1.0 / n_steps
    ts = [0.0]
    while ts[-1] < 1.0 - 1e-12:
        ts.append(min(ts[-1] + h, 1.0))
    return ts


def _crossings(thetas: list[float]) -> np.ndarray:
    """How many times solve_channels' reduction into [0, 2 pi) takes 2 pi off each theta.

    numpy's float % is Python's (fmod, then the same sign fix), so the
    remainders are the reduced thetas solve_channels works with.
    """
    theta = np.array(thetas)
    return np.rint((theta - theta % TWO_PI) / TWO_PI).astype(int)


def _start_ladders(path: PathSpec, t_end: float) -> dict[str, tuple[float, int, ChannelRows]]:
    """Each channel's theta, winding and ladders at the ends of the loop.

    A channel's ladders are the rows of its t = 0 sample and, when it moves,
    of its last sample, t_end, each n + |w| + 1 deep.  The first n levels
    at t = 0 split the tracked levels between the channels and start them;
    the last sample sets end_index, and a tracked level's index moves by at
    most |w| through the 2 pi crossings and by one as the floor level comes
    and goes.  All ladders are one solve_channels batch, as deep as the
    deepest one needs, and each channel keeps its own rows to its own depth:
    a channel's first levels are the same doubles at any depth and in any
    batch.
    """
    n = path.levels_tracked
    thetas = (path.base.theta_plus, path.base.theta_minus)
    ends = [theta + TWO_PI * w * t_end for theta, w in zip(thetas, path.winding) if w]
    rows = solve_channels(
        [*thetas, *ends], n + max(map(abs, path.winding)) + 1, path.l, path.L0
    )
    ladders = {}
    last = len(thetas)
    for r, (ch, w) in enumerate(zip((CHANNEL_PLUS, CHANNEL_MINUS), path.winding)):
        at = [r, last] if w else [r]
        last += bool(w)
        depth = n + abs(w) + 1
        ladders[ch] = (thetas[r], w, ChannelRows(
            E=rows.E[at, :depth], k_or_kappa=rows.k_or_kappa[at, :depth], label=rows.label[at],
        ))
    return ladders


def _tracked_counts(ladders, n: int) -> dict[str, int]:
    """How many levels each channel tracks (see the module docstring).

    The merge is solve_spectrum's: a stable sort of the plus row, then the
    minus row.  A channel wound by w tracks at least bool(w) + max(0, -w).
    """
    E = np.concatenate([rows.E[0, :n] for _, _, rows in ladders.values()])
    plus = int(np.count_nonzero(np.argsort(E, kind="stable")[:n] < n))
    return {
        ch: max(count, bool(w) + max(0, -w))
        for count, (ch, (_, w, _)) in zip((plus, n - plus), ladders.items())
    }


def _follow(
    channel: str, theta0: float, w: int, ends: ChannelRows, count: int,
    ts: list[float], path: PathSpec,
) -> list[LevelTrajectory]:
    """The trajectories of the lowest ``count`` levels of one channel.

    ``ends`` holds the channel's ladders at the first and, if it moves, the
    last sample.
    """
    if w == 0:
        return [
            LevelTrajectory(
                t_values=np.array(ts),
                E_values=np.full(len(ts), ends.E[0, i]),
                start_index=i,
                end_index=i,
                channel=channel,
            )
            for i in range(count)
        ]
    thetas = [theta0 + TWO_PI * w * t for t in ts]
    crossings = _crossings(thetas)
    tracked = ends.label[0] - crossings[0] + np.arange(count)
    # The interior samples hold the tracked labels only, from the bottom of
    # the ladder where the lowest of them is <= 0.
    inner = solve_channels(
        thetas[1:-1], count, path.l, path.L0, tracked[0] + crossings[1:-1]
    )
    # Each sample's levels carry consecutive labels from the unwrapped label
    # of its first level on, so a tracked label below that one has left the
    # ladder through the floor.
    first = np.concatenate([ends.label[:1], inner.label, ends.label[1:]]) - crossings
    index = tracked - first[:, None]
    held = np.full(len(ts), count)
    held[[0, -1]] = ends.E.shape[1]
    E = np.full((len(ts), ends.E.shape[1]), np.nan)
    E[[0, -1]], E[1:-1, :count] = ends.E, inner.E
    samples = np.arange(len(ts))
    trajectories = []
    for i in range(count):
        gone = np.flatnonzero(index[:, i] < 0)
        stop = int(gone[0]) if gone.size else len(ts)
        # A witness: every sample the level reaches holds its label.
        if np.any(index[:stop, i] >= held[:stop]):
            raise ContinuationLost(f"{channel} channel ran out of fetched levels")
        trajectories.append(
            LevelTrajectory(
                t_values=np.array(ts[:stop]),
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
    ts = _t_grid(path.n_steps)
    ladders = _start_ladders(path, ts[-1])
    counts = _tracked_counts(ladders, path.levels_tracked)
    trajectories = []
    for ch, (theta0, w, ends) in ladders.items():
        if counts[ch]:
            trajectories += _follow(ch, theta0, w, ends, counts[ch], ts, path)
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
