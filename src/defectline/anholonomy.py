"""Level continuation around closed loops on the eigenphase torus.

Dragging (theta_plus, theta_minus) around a closed loop returns the defect
matrix to itself, so the start and end spectra are identical as sets — but a
level followed continuously along the loop generally lands on a *different*
rung of the ladder.  The per-channel integer shift is the observable this
module measures; it depends only on the winding numbers of the loop, which
is the numerical face of pi_1(T^2) = Z x Z.

Tracking exploits two structural facts.  First, the two channels never mix
along theta-only paths, so each is continued independently (both advance on
one shared adaptive time grid).  Second, within a channel the branches never
cross and at most one level is bound (E < 0) at a time, so a branch is
identified by its position in the sorted channel spectrum, and the only
bookkeeping events are at the bottom: a branch diving below the bound-state
floor (kappa l > 50, trajectory ends with floored_out=True) or a branch
entering from it.  The unique bound branch is exempt from the step-size
continuity bound while kappa l > 2, since uniqueness already fixes its
identity and its energy moves arbitrarily fast near the floor.

A channel with winding 0 keeps its theta for the whole loop, so its ladder
is solved once, at the start, and every step reuses it; its trajectories are
the start ladder sampled on the moving channel's time grid.  Nearly all of
the remaining time is in solve_channel, whose Brent refiner evaluates F/k
and G/kappa one Python float at a time.  It does so on scalar forms of the
grid functions, with the same operations in the same order and numpy's sinh
and cosh (math's differ in the last bit), so every level is the same double
as before, without the cost of a 0-d numpy array per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import KIND_BOUND
from .errors import ContinuationLost, DegeneratePath, InconsistentShift
from .spectrum import CHANNEL_MINUS, CHANNEL_PLUS, Channel, EigenLevel, solve_channel
from .unitary import TWO_PI, UnitaryParams

__all__ = [
    "PathSpec",
    "LevelTrajectory",
    "trace_path",
    "trajectory_shifts",
    "loop_shift",
]

# A bound level deeper than this (in units of 1/l) is identified by
# uniqueness instead of by the step-continuity window.
_KAPPA_TRUST = 2.0
# Fraction of the local level gap the corrector may move per accepted step.
_WINDOW_FRACTION = 0.45
_MAX_HALVINGS = 40


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
        if len(w) != 2 or any(x != int(x) for x in w):
            raise ValueError("winding must be a pair of integers")
        object.__setattr__(self, "winding", (int(w[0]), int(w[1])))
        if self.n_steps < 64:
            raise ValueError("n_steps must be at least 64")
        if self.levels_tracked < 2:
            raise ValueError("levels_tracked must be at least 2")
        if self.l <= 0.0 or self.L0 <= 0.0:
            raise ValueError("l and L0 must be positive")


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


class _Branch:
    """Mutable tracking state for one trajectory while the walk is running."""

    def __init__(self, channel: str, index: int, t0: float, e0: float):
        self.channel = channel
        self.start_index = index
        self.index = index
        self.ts = [t0]
        self.es = [e0]
        self.floored = False

    def finish(self) -> LevelTrajectory:
        return LevelTrajectory(
            t_values=np.array(self.ts),
            E_values=np.array(self.es),
            start_index=self.start_index,
            end_index=-1 if self.floored else self.index,
            channel=self.channel,
            floored_out=self.floored,
        )


class _ChannelWalk:
    """Continuation state of one channel along the loop."""

    def __init__(self, channel: str, theta0: float, w: int, n_tracked: int, path: PathSpec):
        self.channel = channel
        self.theta0 = theta0
        self.w = w
        self.l = path.l
        self.L0 = path.L0
        self.n_fetch = n_tracked + abs(w) + 2
        self.levels = self._solve(0.0)
        self.branches = [
            _Branch(channel, i, 0.0, self.levels[i].E) for i in range(n_tracked)
        ]

    def _solve(self, t: float) -> list[EigenLevel]:
        theta = self.theta0 + TWO_PI * self.w * t
        return solve_channel(Channel(theta, l=self.l, L0=self.L0), self.n_fetch)

    def _window(self, idx: int) -> float:
        gaps = []
        if idx > 0:
            gaps.append(self.levels[idx].E - self.levels[idx - 1].E)
        if idx < len(self.levels) - 1:
            gaps.append(self.levels[idx + 1].E - self.levels[idx].E)
        return _WINDOW_FRACTION * min(gaps)

    def _bottom_offset(self, new: list[EigenLevel]) -> int | None:
        """Index offset produced by activity at the bound-state floor.

        Returns +1 when a branch entered from the floor, -1 when the lowest
        branch dove through it, 0 when nothing happened (including a branch
        smoothly crossing E = 0 in either direction), and None when the step
        is too coarse to tell.
        """
        prev0, new0 = self.levels[0], new[0]
        was_bound = prev0.kind == KIND_BOUND
        is_bound = new0.kind == KIND_BOUND
        if was_bound == is_bound:
            return 0
        smooth = abs(new0.E - prev0.E) <= max(self._window(0), 1e-9)
        if was_bound:  # bound level vanished: rose through zero, or dove out
            if smooth:
                return 0
            if prev0.k_or_kappa > _KAPPA_TRUST / self.l:
                return -1
            return None
        # bound level appeared: lowest level descended, or one entered
        if smooth:
            return 0
        if new0.k_or_kappa > _KAPPA_TRUST / self.l:
            return 1
        return None

    def try_step(self, t_new: float):
        """Solve at t_new and check every branch; None means halve the step."""
        new = self.levels if self.w == 0 else self._solve(t_new)
        offset = self._bottom_offset(new)
        if offset is None:
            return None
        moves = []
        for br in self.branches:
            if br.floored:
                continue
            prev = self.levels[br.index]
            trusted = (
                prev.kind == KIND_BOUND and prev.k_or_kappa > _KAPPA_TRUST / self.l
            )
            idx = br.index + offset
            if offset < 0 and br.index == 0:
                if not trusted:
                    return None
                moves.append((br, -1, None))
                continue
            if idx >= len(new):
                raise ContinuationLost(
                    f"{self.channel} channel ran out of fetched levels at t={t_new}"
                )
            e_new = new[idx].E
            if not trusted and abs(e_new - prev.E) > max(
                self._window(br.index), 1e-9 * (1.0 + abs(prev.E))
            ):
                return None
            moves.append((br, idx, e_new))
        return new, moves

    def commit(self, t_new: float, new: list[EigenLevel], moves) -> None:
        self.levels = new
        for br, idx, e_new in moves:
            if idx < 0:
                br.floored = True
                continue
            br.index = idx
            br.ts.append(t_new)
            br.es.append(e_new)


def _tracked_counts(path: PathSpec) -> tuple[int, int, float, float]:
    """Split the lowest levels_tracked merged levels between the channels."""
    tp = path.base.theta_plus
    tm = path.base.theta_minus
    n = path.levels_tracked
    plus = solve_channel(Channel(tp, l=path.l, L0=path.L0), n)
    minus = solve_channel(Channel(tm, l=path.l, L0=path.L0), n)
    merged = sorted(
        [(lev.E, CHANNEL_PLUS) for lev in plus] + [(lev.E, CHANNEL_MINUS) for lev in minus]
    )[:n]
    for (e1, _), (e2, _) in zip(merged, merged[1:]):
        if abs(e2 - e1) <= 1e-8 * (1.0 + max(abs(e1), abs(e2))):
            raise DegeneratePath(
                f"tracked levels degenerate at start: E = {e1!r} and {e2!r}"
            )
    n_plus = sum(1 for _, ch in merged if ch == CHANNEL_PLUS)
    return n_plus, n - n_plus, tp, tm


def trace_path(path: PathSpec) -> list[LevelTrajectory]:
    """Continue the lowest levels_tracked levels around the loop.

    Returns one trajectory per tracked level, ordered by starting energy.
    Raises DegeneratePath when the starting levels are not separated,
    ContinuationLost when adaptive halving bottoms out without resolving a
    step, and propagates solver errors from the channel solves.
    """
    n_plus, n_minus, tp, tm = _tracked_counts(path)
    walks = []
    if n_plus > 0 or path.winding[0] != 0:
        walks.append(_ChannelWalk(CHANNEL_PLUS, tp, path.winding[0], n_plus, path))
    if n_minus > 0 or path.winding[1] != 0:
        walks.append(_ChannelWalk(CHANNEL_MINUS, tm, path.winding[1], n_minus, path))

    h0 = 1.0 / path.n_steps
    h_min = h0 / 2.0**_MAX_HALVINGS
    t = 0.0
    h = h0
    while t < 1.0 - 1e-12:
        t_new = min(t + h, 1.0)
        results = []
        for walk in walks:
            r = walk.try_step(t_new)
            if r is None:
                break
            results.append(r)
        if len(results) < len(walks):
            h *= 0.5
            if h < h_min:
                raise ContinuationLost(
                    f"step size underflow at t={t}; levels move faster than "
                    "the tracker can resolve"
                )
            continue
        for walk, (new, moves) in zip(walks, results):
            walk.commit(t_new, new, moves)
        t = t_new
        h = min(2.0 * h, h0)

    trajectories = [br.finish() for walk in walks for br in walk.branches]
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
