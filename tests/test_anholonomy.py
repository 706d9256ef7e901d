"""Tests for level continuation around closed eigenphase loops."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from defectline import (
    Channel,
    BoundaryCondition,
    ContinuationLost,
    InconsistentShift,
    LevelTrajectory,
    PathSpec,
    UnitaryParams,
    loop_shift,
    params_to_matrix,
    solve_spectrum,
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
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^winding must be a pair of integers$"):
            PathSpec(winding=(bad, 0), base=BASE)
    with pytest.raises(ValueError):
        PathSpec(winding=(1, 0, 0), base=BASE)
    # The box is checked when the loop is built, as BoundaryCondition checks it.
    for name, value in (("l", -1.0), ("l", math.nan), ("l", math.inf), ("L0", -math.inf)):
        with pytest.raises(ValueError, match=f"^{name} must be a positive length$"):
            PathSpec(winding=(1, 0), base=BASE, **{name: value})


def test_pathspec_counts_take_integers_only():
    # An infinite n_steps once made trace_path append t = 0 forever; each
    # count is an integer of at least its minimum, or a ValueError at
    # construction that names it.  No bad spec is traced.
    for name, minimum in (("n_steps", 64), ("levels_tracked", 2)):
        for value in (math.inf, math.nan, minimum + 0.5, minimum - 1):
            with pytest.raises(ValueError, match=f"^{name} must be an integer of at least {minimum}, "):
                PathSpec(winding=(1, 0), base=BASE, **{name: value})
    whole = PathSpec(winding=(1, 0), base=BASE, n_steps=64.0, levels_tracked=2.0)
    assert (whole.n_steps, whole.levels_tracked) == (64, 2)
    assert type(whole.n_steps) is int and type(whole.levels_tracked) is int


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


def _repeated_addition_grid(n_steps):
    h = 1.0 / n_steps
    ts = [0.0]
    while ts[-1] < 1.0 - 1e-12:
        ts.append(min(ts[-1] + h, 1.0))
    return ts


def test_t_grid_is_the_repeated_addition_grid():
    # The sample times, built by one cumsum, are the doubles of
    # t <- min(t + 1/n_steps, 1) from 0 until t >= 1 - 1e-12, bit for bit:
    # every n_steps up to 320, 96 and 192 among them, and a spread to 4096.
    for n_steps in [*range(64, 321), *range(321, 4096, 61), 4096]:
        ts = anholonomy._t_grid(n_steps)
        assert ts.tolist() == _repeated_addition_grid(n_steps)
        assert ts.size == n_steps + 1


def _counting_solves(monkeypatch):
    calls = []

    def counting(thetas, n, l=1.0, L0=1.0, from_label=None):
        calls.append((np.array(thetas), n, from_label))
        return solve_channels(thetas, n, l, L0, from_label)

    monkeypatch.setattr(anholonomy, "solve_channels", counting)
    return calls


def _later_thetas(winding, ts):
    # Every sample after t = 0 of every wound channel, plus first.
    return np.concatenate([
        theta + 2.0 * math.pi * w * ts[1:]
        for theta, w in zip((BASE.theta_plus, BASE.theta_minus), winding) if w
    ])


def test_stationary_channel_is_solved_once_per_loop(monkeypatch):
    # Work counter: both channels' t = 0 ladders are one two-row solve, and
    # every later sample of the moving channel is one more batched solve,
    # not one solve per step; the stationary channel is in neither batch.
    calls = _counting_solves(monkeypatch)
    path = PathSpec(winding=(1, 0), base=BASE, n_steps=64, levels_tracked=6)
    trajectories = trace_path(path)
    ts = anholonomy._t_grid(path.n_steps)
    assert [thetas.tolist() for thetas, _, _ in calls] == [
        [BASE.theta_plus, BASE.theta_minus],
        [BASE.theta_plus + 2.0 * math.pi * t for t in ts[1:].tolist()],
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
    # One solve_channels call holds just the two t = 0 ladders, as deep as
    # the deepest last-sample row, each the doubles of a solve of its own
    # row.  A loop that winds a channel adds one call for every later
    # sample of every wound channel, whose last sample of a channel wound
    # by w is solved from the bottom of its ladder, n + |w| + 1 deep.
    path = PathSpec(winding=winding, base=BASE, n_steps=64, levels_tracked=6)
    depth = 6 + max(map(abs, winding)) + 1
    start = anholonomy._start_ladders(path)
    for r, theta in enumerate((BASE.theta_plus, BASE.theta_minus)):
        own = solve_channels([theta], depth)
        for field in ("E", "k_or_kappa", "label"):
            assert np.array_equal(getattr(start, field)[r], getattr(own, field)[0])

    calls = _counting_solves(monkeypatch)
    trace_path(path)
    wound = [w for w in winding if w]
    assert len(calls) == 1 + bool(wound)
    thetas, n, from_label = calls[0]
    assert (thetas.tolist(), n, from_label) == ([BASE.theta_plus, BASE.theta_minus], depth, None)
    if not wound:
        return
    ts = anholonomy._t_grid(path.n_steps)
    thetas, n, from_label = calls[1]
    assert thetas.tobytes() == _later_thetas(winding, ts).tobytes()
    last = np.cumsum([ts.size - 1] * len(wound)) - 1
    assert n[last].tolist() == [6 + abs(w) + 1 for w in wound]
    assert (from_label[last] <= 0).all()


@pytest.mark.parametrize("winding", [(1, 0), (2, -1)])
def test_trace_refines_only_the_tracked_labels(monkeypatch, winding):
    # Work counter: an interior sample of a moving channel solves exactly
    # the levels the channel tracks, and a sample whose label window starts
    # at label >= 1 solves no level below label 1.  Per solve_channels call
    # the counters hold the roots of label >= 1 each row searches and
    # refines, the rows that start with a level below label 1 (first), and
    # the bound levels solved by Newton's method.
    positive, below, bounds = [], [], []
    scan_rows, threshold_root = spectrum._scan_rows, spectrum._threshold_root

    def counting_scan(s2, c2, l, L0, out, first, m0, depth):
        positive.append((depth - first[:, None])[:, 0])
        below.append(first.copy())
        return scan_rows(s2, c2, l, L0, out, first, m0, depth)

    def counting_root(a, b, bound):
        bounds[-1] += bound
        return threshold_root(a, b, bound=bound)

    def counting(thetas, n, l=1.0, L0=1.0, from_label=None):
        bounds.append(0)
        calls.append(from_label)
        return solve_channels(thetas, n, l, L0, from_label)

    calls = []
    monkeypatch.setattr(spectrum, "_scan_rows", counting_scan)
    monkeypatch.setattr(spectrum, "_threshold_root", counting_root)
    monkeypatch.setattr(anholonomy, "solve_channels", counting)
    path = PathSpec(winding=winding, base=BASE, n_steps=64, levels_tracked=6)
    trajectories = trace_path(path)
    assert trajectory_shifts(trajectories, winding) == winding
    assert len(calls) == 2

    # The later samples of each wound channel, plus first: 63 interior
    # rows, then the last sample's.
    from_label, roots, first = calls[1], positive[1], below[1]
    windows = 0
    for j, (ch, w) in enumerate((ch, w) for ch, w in zip(("plus", "minus"), winding) if w):
        rows = slice(64 * j, 64 * (j + 1))
        count = sum(1 for tr in trajectories if tr.channel == ch)
        label, solved, low = from_label[rows], roots[rows] + first[rows], first[rows]
        assert (solved[:-1] == count).all()
        assert solved[-1] == 6 + abs(w) + 1 and label[-1] <= 0
        window = label[:-1] >= 1
        assert (low[:-1][window] == 0).all()
        windows += int(window.sum())
    # Newton's method solves no more bound levels than the rows that start
    # below label 1, and none in a window.
    assert bounds[1] <= first.sum()
    # Every loop opens label windows; only a channel wound downwards reaches
    # the bottom of its ladder before its last sample, where this base has a
    # bound level, and the last samples, back at the base, have none.
    assert windows and bool(bounds[1]) == (min(winding) < 0)


def test_scalar_start_shifts_by_the_winding():
    # At rho = 0 every level of one channel ties with one of the other; the
    # channels are labelled on their own, so no trajectory is ambiguous.
    path = PathSpec(winding=(1, 0), base=UnitaryParams(0.0, 0.0), n_steps=128)
    assert loop_shift(path) == (1, 0)


def test_tracked_levels_split_by_the_spectrum_merge():
    # At rho = 0 the lowest three merged levels are plus, minus, plus: the
    # stable merge puts plus first on a tie, as solve_spectrum does.
    base = UnitaryParams(1.0, 0.0)
    path = PathSpec(winding=(0, 0), base=base, n_steps=64, levels_tracked=3)
    channels = [tr.channel for tr in trace_path(path)]
    merged = solve_spectrum(BoundaryCondition(params_to_matrix(base)), 3).channel.tolist()
    assert channels == merged == ["plus", "minus", "plus"]


@pytest.mark.parametrize("winding", [(1, 0), (0, 1), (-1, 2)])
def test_tied_trajectories_list_plus_first_whichever_channel_moves(winding):
    # At rho = 0 the channels' levels tie at t = 0; the trajectories are
    # ordered by starting energy, plus first on a tie, wound or not.
    path = PathSpec(winding=winding, base=UnitaryParams(1.0, 0.0), n_steps=64, levels_tracked=4)
    assert [tr.channel for tr in trace_path(path)][:4] == ["plus", "minus", "plus", "minus"]


@pytest.mark.parametrize("winding", [(-1, 0), (0, -2), (-2, 1)])
def test_a_wound_channel_keeps_a_survivor(winding):
    # A channel wound down by |w| floors out its lowest |w| levels, so it
    # tracks |w| + 1 of them even where the merge gives it fewer, and may
    # add trajectories beyond levels_tracked.
    path = PathSpec(winding=winding, base=BASE, n_steps=64, levels_tracked=2)
    trajectories = trace_path(path)
    for ch, w in zip(("plus", "minus"), winding):
        if w:
            own = [tr for tr in trajectories if tr.channel == ch]
            assert len(own) >= 1 + max(0, -w)
            assert sum(tr.floored_out for tr in own) == max(0, -w)
    assert trajectory_shifts(trajectories, winding) == winding


@given(
    xi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    rho=st.one_of(
        st.sampled_from([0.0, math.pi]),
        st.floats(-14.0, -6.0).map(lambda e: 10.0 ** e),
        st.floats(0.0, math.pi),
    ),
    winding=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    tracked=st.integers(2, 4),
    l=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
    L0=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
)
def test_shift_is_the_winding_on_any_start(xi, rho, winding, tracked, l, L0):
    # Scalar (rho = 0, pi) and near-scalar starts included: ties between
    # the channels are split by the merge, and a wound channel always keeps
    # a survivor to read its shift from.
    path = PathSpec(winding=winding, base=UnitaryParams(xi, rho), n_steps=64,
                    levels_tracked=tracked, l=l, L0=L0)
    assert loop_shift(path) == winding


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


def test_rows_short_of_the_tracked_labels_raise(monkeypatch):
    # Interior samples solved from one label below their window hold, with
    # true labels, every tracked level but the highest: a trajectory that
    # reaches such a sample has run out of fetched levels.
    good = solve_channels

    def short(thetas, n, l=1.0, L0=1.0, from_label=None):
        if from_label is not None:
            from_label = np.asarray(from_label) - 1
        return good(thetas, n, l, L0, from_label)

    path = PathSpec(winding=(1, 0), base=BASE, n_steps=64, levels_tracked=4)
    monkeypatch.setattr(anholonomy, "solve_channels", short)
    with pytest.raises(ContinuationLost, match="ran out of fetched levels"):
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


@given(
    st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (2, -1), (1, 1), (-2, 1)]),
    st.integers(64, 128), st.integers(2, 5),
)
def test_every_trajectory_of_a_wound_channel_moves_with_the_sign_of_its_winding(
    xi, rho, log_l, log_L0, winding, steps, tracked
):
    # A level of one branch label rises monotonically in its channel's
    # eigenphase, so along theta(t) = theta(0) + 2 pi w t each trajectory
    # of a wound channel moves monotonically in t, up for w > 0 and down for
    # w < 0, through the 2 pi crossings and down to the floor alike; an
    # unwound channel's trajectories stand still.
    path = PathSpec(winding=winding, base=UnitaryParams(xi=xi, rho=rho), n_steps=steps,
                    levels_tracked=tracked, l=10.0 ** log_l, L0=10.0 ** log_L0)
    w = dict(zip(("plus", "minus"), winding))
    for tr in trace_path(path):
        steps_taken = np.diff(tr.E_values) * np.sign(w[tr.channel])
        assert (steps_taken >= 0.0).all()
        if w[tr.channel] == 0:
            assert (np.diff(tr.E_values) == 0.0).all()
