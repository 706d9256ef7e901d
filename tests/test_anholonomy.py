"""Tests for level continuation around closed eigenphase loops."""

import math
from dataclasses import replace

import numpy as np
import pytest

from defectline import (
    Channel,
    ContinuationLost,
    DegeneratePath,
    InconsistentShift,
    LevelTrajectory,
    PathSpec,
    UnitaryParams,
    loop_shift,
    trace_path,
    trajectory_shifts,
)
from defectline import anholonomy, spectrum
from defectline.spectrum import solve_channel, solve_channels

BASE = UnitaryParams(xi=2.2, rho=0.8)  # theta+ = 3.0, theta- = 1.4


def _traj(channel, start, end, floored=False):
    t = np.linspace(0.0, 1.0, 5)
    return LevelTrajectory(
        t_values=t,
        E_values=np.linspace(1.0, 2.0, 5),
        start_index=start,
        end_index=end,
        channel=channel,
        floored_out=floored,
    )


# ------------------------------------------------------------------ PathSpec


def test_pathspec_validation():
    ok = PathSpec(winding=(1, 0), base=BASE)
    assert ok.winding == (1, 0) and ok.n_steps == 256
    with pytest.raises(ValueError):
        PathSpec(winding=(1, 0), base=BASE, n_steps=32)
    with pytest.raises(ValueError):
        PathSpec(winding=(1, 0), base=BASE, levels_tracked=1)
    with pytest.raises(ValueError):
        PathSpec(winding=(0.5, 0), base=BASE)
    with pytest.raises(ValueError):
        PathSpec(winding=(1, 0, 0), base=BASE)
    with pytest.raises(ValueError):
        PathSpec(winding=(1, 0), base=BASE, l=-1.0)


# ----------------------------------------------------------------- tracing


def test_trivial_loop_returns_to_start():
    path = PathSpec(winding=(0, 0), base=BASE, n_steps=128, levels_tracked=6)
    trajectories = trace_path(path)
    assert len(trajectories) == 6
    for tr in trajectories:
        assert not tr.floored_out
        assert tr.end_index == tr.start_index
        assert tr.t_values[0] == 0.0 and tr.t_values[-1] == 1.0
        assert abs(tr.E_values[-1] - tr.E_values[0]) <= 1e-9 * (1.0 + abs(tr.E_values[0]))
    assert trajectory_shifts(trajectories, (0, 0)) == (0, 0)


def test_single_winding_shifts_only_that_channel():
    assert loop_shift(PathSpec(winding=(1, 0), base=BASE, n_steps=128, levels_tracked=6)) == (1, 0)
    assert loop_shift(PathSpec(winding=(0, 1), base=BASE, n_steps=128, levels_tracked=6)) == (0, 1)


def test_shift_is_additive_in_the_winding():
    for w in ((2, 0), (1, 1), (0, -1), (-1, 1)):
        path = PathSpec(winding=w, base=BASE, n_steps=128, levels_tracked=6)
        assert loop_shift(path) == w


def test_negative_winding_floors_bottom_branch():
    path = PathSpec(winding=(-1, 0), base=BASE, n_steps=128, levels_tracked=6)
    trajectories = trace_path(path)
    floored = [tr for tr in trajectories if tr.floored_out]
    assert len(floored) == 1
    assert floored[0].channel == "plus"
    assert floored[0].end_index == -1
    assert floored[0].t_values[-1] < 1.0  # the walk ended early for this one
    assert trajectory_shifts(trajectories, (-1, 0)) == (-1, 0)


def test_end_energies_close_on_the_ladder():
    path = PathSpec(winding=(1, 1), base=BASE, n_steps=128, levels_tracked=6)
    trajectories = trace_path(path)
    thetas = {"plus": BASE.theta_plus, "minus": BASE.theta_minus}
    for tr in trajectories:
        ladder = solve_channel(Channel(thetas[tr.channel]), tr.end_index + 1).levels
        expected = ladder[tr.end_index].E
        assert abs(tr.E_values[-1] - expected) <= 1e-9 * (1.0 + abs(expected))


def test_branches_never_cross_within_a_channel():
    path = PathSpec(winding=(1, 0), base=BASE, n_steps=128, levels_tracked=6)
    trajectories = trace_path(path)
    for ch in ("plus", "minus"):
        chans = sorted(
            (tr for tr in trajectories if tr.channel == ch),
            key=lambda tr: tr.E_values[0],
        )
        for lo, hi in zip(chans, chans[1:]):
            n = min(len(lo.E_values), len(hi.E_values))
            assert np.all(lo.E_values[:n] < hi.E_values[:n])
            assert np.array_equal(lo.t_values[:n], hi.t_values[:n])


def test_sample_count_and_time_range():
    path = PathSpec(winding=(1, 0), base=BASE, n_steps=128, levels_tracked=4)
    for tr in trace_path(path):
        assert len(tr.t_values) == path.n_steps + 1
        assert np.all(np.diff(tr.t_values) > 0.0)
        assert tr.t_values[0] == 0.0 and tr.t_values[-1] == 1.0


def _counting_solves(monkeypatch):
    calls = []

    def counting(thetas, n, l=1.0, L0=1.0, from_label=None):
        calls.append((list(thetas), n, from_label))
        return solve_channels(thetas, n, l, L0, from_label)

    monkeypatch.setattr(anholonomy, "solve_channels", counting)
    return calls


def test_stationary_channel_is_solved_once_per_loop(monkeypatch):
    # Work counter: both channels' t = 0 ladders and the moving channel's
    # last-sample ladder are one three-row solve, and the moving channel's
    # interior samples are one batched solve, not one solve per step.
    calls = _counting_solves(monkeypatch)
    path = PathSpec(winding=(1, 0), base=BASE, n_steps=64, levels_tracked=6)
    trajectories = trace_path(path)
    ts = anholonomy._t_grid(path.n_steps)
    assert [thetas for thetas, _, _ in calls] == [
        [BASE.theta_plus, BASE.theta_minus, BASE.theta_plus + 2.0 * math.pi * ts[-1]],
        [BASE.theta_plus + 2.0 * math.pi * t for t in ts[1:-1]],
    ]

    moving = [tr for tr in trajectories if tr.channel == "plus" and not tr.floored_out]
    minus = [tr for tr in trajectories if tr.channel == "minus"]
    assert moving and minus
    ladder = solve_channel(Channel(BASE.theta_minus), len(minus) + 2).levels
    for tr in minus:
        assert np.array_equal(tr.t_values, moving[0].t_values)
        assert tr.end_index == tr.start_index
        assert np.all(tr.E_values == ladder[tr.start_index].E)


@pytest.mark.parametrize("winding", [(0, 0), (1, 0), (1, 1), (2, -1)])
def test_start_ladders_are_one_batch(monkeypatch, winding):
    # One solve_channels call holds both t = 0 ladders and the last-sample
    # ladder of each moving channel, as deep as the deepest one needs, and
    # each moving channel adds one call for its interior samples.  Each
    # ladder keeps the doubles of a solve of its own row to its own depth,
    # so the trajectories do not move.
    path = PathSpec(winding=winding, base=BASE, n_steps=64, levels_tracked=6)
    t_end = anholonomy._t_grid(path.n_steps)[-1]
    ladders = anholonomy._start_ladders(path, t_end)
    ends = []
    for ch, theta, w in (("plus", BASE.theta_plus, winding[0]),
                         ("minus", BASE.theta_minus, winding[1])):
        own = [theta]
        if w:
            ends.append(theta + 2.0 * math.pi * w * t_end)
            own.append(ends[-1])
        own = solve_channels(own, 6 + abs(w) + 1)
        rows = ladders[ch][2]
        assert ladders[ch][:2] == (theta, w)
        for field in ("theta", "E", "k_or_kappa", "bound", "zero"):
            assert np.array_equal(getattr(rows, field), getattr(own, field))

    calls = _counting_solves(monkeypatch)
    trajectories = trace_path(path)
    moving = sum(1 for w in winding if w)
    assert len(calls) == 1 + moving
    assert calls[0] == (
        [BASE.theta_plus, BASE.theta_minus, *ends], 6 + max(map(abs, winding)) + 1, None
    )
    # The interior samples of a moving channel are as deep as it has
    # tracked levels.
    for thetas, n, from_label in calls[1:]:
        ch = "plus" if thetas[0] == BASE.theta_plus + 2.0 * math.pi * winding[0] / 64 else "minus"
        assert n == sum(1 for tr in trajectories if tr.channel == ch)
        assert len(from_label) == len(thetas) == path.n_steps - 1


@pytest.mark.parametrize("winding", [(1, 0), (2, -1)])
def test_trace_refines_only_the_tracked_labels(monkeypatch, winding):
    # Work counter: an interior sample of a moving channel refines no more
    # roots than the channel tracks, and a sample whose label window starts
    # at label >= 1 refines no bound level.  Per solve_channels call the
    # counters hold the positive roots each row searches and refines (all
    # but its first column when that is bound or zero) and the bound levels
    # it refines.
    positive, bound = [], []
    scan_rows, refine = spectrum._scan_rows, spectrum._refine

    def counting_scan(s2, c2, l, L0, out, first, *rest):
        positive.append(out.shape[1] - first)
        return scan_rows(s2, c2, l, L0, out, first, *rest)

    def counting_refine(scalar, vector, s2, c2, l, L0, rows, *brackets):
        if scalar is spectrum._ghat_scalar:
            bound[-1] = np.bincount(rows, minlength=bound[-1].size)
        return refine(scalar, vector, s2, c2, l, L0, rows, *brackets)

    def counting(thetas, n, l=1.0, L0=1.0, from_label=None):
        bound.append(np.zeros(len(thetas), int))
        calls.append((thetas[0], from_label))
        return solve_channels(thetas, n, l, L0, from_label)

    calls = []
    monkeypatch.setattr(spectrum, "_scan_rows", counting_scan)
    monkeypatch.setattr(spectrum, "_refine", counting_refine)
    monkeypatch.setattr(anholonomy, "solve_channels", counting)
    path = PathSpec(winding=winding, base=BASE, n_steps=64, levels_tracked=6)
    trajectories = trace_path(path)
    assert trajectory_shifts(trajectories, winding) == winding

    windows = bottom_bound = 0
    for (theta, from_label), roots, bound_roots in zip(calls[1:], positive[1:], bound[1:]):
        ch = "plus" if theta == BASE.theta_plus + 2.0 * math.pi * winding[0] / 64 else "minus"
        count = sum(1 for tr in trajectories if tr.channel == ch)
        assert np.all(roots + bound_roots <= count)
        window = np.asarray(from_label) >= 1
        assert np.all(bound_roots[window] == 0)
        windows += int(window.sum())
        bottom_bound += int(bound_roots.sum())
    assert len(calls) == 1 + sum(1 for w in winding if w)
    # Every loop opens label windows; only a channel wound downwards reaches
    # the bottom of its ladder, where this base has a bound level.
    assert windows and bool(bottom_bound) == (min(winding) < 0)


def test_degenerate_start_is_rejected():
    with pytest.raises(DegeneratePath):
        trace_path(PathSpec(winding=(1, 0), base=UnitaryParams(0.0, 0.0), n_steps=128))


def test_geometry_is_respected():
    base = UnitaryParams(xi=2.2, rho=0.8)
    path = PathSpec(winding=(1, 0), base=base, n_steps=128, levels_tracked=4, l=1.6, L0=0.5)
    assert loop_shift(path) == (1, 0)


@pytest.mark.parametrize(
    "winding, l, L0, n_steps",
    [((1, 0), 0.1, 10.0, 256), ((1, 0), 0.05, 10.0, 64), ((1, 0), 0.1, 20.0, 64),
     ((2, -1), 5.0, 0.01, 64)],
    ids=["l0.1-L0_10-256", "l0.05-64", "L0_20-64", "w2-1-l5-L0_0.01-64"],
)
def test_shift_is_the_winding_where_a_level_jumps_a_rung_at_the_floor(winding, l, L0, n_steps):
    # A level that enters from or dives to the kappa l = 50 floor between
    # two samples moves by a whole rung; a tracker that identified levels by
    # how far they moved took that for no shift at all.
    path = PathSpec(winding=winding, base=UnitaryParams(1.0, 0.4), n_steps=n_steps, l=l, L0=L0)
    assert loop_shift(path) == winding


def test_off_integer_or_gapped_labels_raise(monkeypatch):
    good = solve_channels

    def shifted(thetas, n, l=1.0, L0=1.0, from_label=None):
        rows = good(thetas, n, l, L0, from_label)
        k = rows.k_or_kappa.copy()
        k[:, -1] *= 1.0 + 1e-3
        return replace(rows, k_or_kappa=k)

    def gapped(thetas, n, l=1.0, L0=1.0, from_label=None):
        rows = good(thetas, n + 1, l, L0, from_label)
        keep = [c for c in range(n + 1) if c != n - 1]
        return replace(rows, E=rows.E[:, keep], k_or_kappa=rows.k_or_kappa[:, keep])

    path = PathSpec(winding=(1, 0), base=BASE, n_steps=64, levels_tracked=4)
    for fake in (shifted, gapped):
        monkeypatch.setattr(anholonomy, "solve_channels", fake)
        with pytest.raises(ContinuationLost):
            trace_path(path)


# ----------------------------------------------------- shift reconstruction


def test_shifts_from_synthetic_trajectories():
    trs = [_traj("plus", 0, 1), _traj("plus", 1, 2), _traj("minus", 0, 0)]
    assert trajectory_shifts(trs, (1, 0)) == (1, 0)


def test_conflicting_shifts_raise():
    trs = [_traj("plus", 0, 1), _traj("plus", 1, 1), _traj("minus", 0, 0)]
    with pytest.raises(InconsistentShift):
        trajectory_shifts(trs, (1, 0))


def test_no_survivors_on_wound_channel_raises():
    trs = [_traj("plus", 0, -1, floored=True), _traj("minus", 0, 0)]
    with pytest.raises(InconsistentShift):
        trajectory_shifts(trs, (-1, 0))


def test_no_survivors_on_unwound_channel_reads_zero():
    trs = [_traj("minus", 0, 0)]
    assert trajectory_shifts(trs, (0, 0)) == (0, 0)
