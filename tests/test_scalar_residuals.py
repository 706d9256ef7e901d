"""Property tests: each fast path returns the doubles of its plain form.

The channel root search runs a short batch one float at a time on a scalar
form of the grid function and a long one on arrays, the channel solver
merges two ladders solved only as deep as the merge reaches, and a loop's
samples are solved in one batch.  The printed levels stay the same only
while every scalar form returns exactly the double its vector form returns,
both searches return the same doubles and errors, the shallow merge returns
the full-depth one and the batch returns one solve per sample, so these
tests compare with ==, not with a tolerance, over l
and L0 across four decades and the edge regions: theta near 0 and pi, the
threshold T = 0, the kappa l = 50 floor and rho = 0 or pi.  A row of a
label window is held to the row solved from the bottom of its ladder, and
a row solved to its own depth to the one-row solve at that depth.  The
branch labels that place each channel root are held to consecutive integers
within 1e-6, and the label each row returns to its first level's.  Every
solver's Spectrum is held to one level record, and det's
partners to the list-based pairing rule kept here as the reference.  The
bound and label-0 levels, which Newton's method solves, are held to the
50-digit referee within two rounding units, and with every FD level to
exact scale covariance.
"""

import math
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import referee
from hypothesis import example, given
from hypothesis import strategies as st

from defectline import (
    BoundaryCondition,
    Channel,
    Spectrum,
    UnitaryParams,
    det_spectrum,
    fd_spectrum,
    matrix_to_params,
    params_to_matrix,
    solve_channel,
    solve_spectrum,
)
from defectline import SolverError, anholonomy, spectrum
from defectline.spectrum import (
    KAPPA_CEILING,
    ZERO_LEVEL_TOL,
    _fhat_half,
    _fhat_scalar,
    _half_angle,
    solve_channels,
)
from test_spectrum import _reference_from_label_1

PI = math.pi
EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * PI

lengths = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
tiny = st.floats(0.0, 1e-9)
angles = st.one_of(
    st.floats(0.0, TWO_PI),
    st.sampled_from([0.0, PI, TWO_PI]),
    tiny,
    tiny.map(lambda d: TWO_PI - d),
    tiny.map(lambda d: PI - d),
    tiny.map(lambda d: PI + d),
)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def phases(draw, l, L0):
    """An eigenphase on the box (l, L0); one draw in four puts it on the
    threshold T = 0, one in four puts its bound level within 20 % of the
    kappa l = 50 floor."""
    region = draw(st.integers(0, 3))
    if region == 0:
        return 2.0 * math.atan2(L0, -l)  # sin(theta/2) l = -cos(theta/2) L0
    if region == 1:
        # tan(theta/2) = -50 L0 / (l f) puts the root at kappa l near 50 / f.
        f = draw(st.floats(0.8, 1.2))
        return 2.0 * (PI - math.atan(KAPPA_CEILING * L0 / (l * f)))
    return draw(angles)


@st.composite
def channels(draw):
    """(theta, l, L0) with theta from phases(l, L0)."""
    l, L0 = draw(lengths), draw(lengths)
    return draw(phases(l, L0)), l, L0


def _points(seed, top):
    # 64 points on [0, top]: the ends, three near the origin and 59 uniform
    # ones.
    spread = np.random.default_rng(seed).uniform(0.0, top, 59)
    return np.concatenate([[0.0, 5e-9, 1e-8, 2e-8, top], spread])


@given(channels(), seeds)
def test_fhat_scalar_equals_vector_form(ch, seed):
    # Every double of _fhat_half, and NaN where both are 0 / 0 at k = 0.
    theta, l, L0 = ch
    s2, c2 = _half_angle(theta)
    k = _points(seed, 60.0 * PI / l)
    with np.errstate(invalid="ignore"):
        vec = _fhat_half(s2, c2, l, L0, k)
    assert math.isnan(vec[0]) and math.isnan(_fhat_scalar(s2, c2, l, L0, 0.0))
    assert np.array_equal([_fhat_scalar(s2, c2, l, L0, x) for x in k.tolist()], vec, equal_nan=True)


@st.composite
def thresholds(draw):
    """(theta, l, L0): an eigenphase from phases(l, L0), or one within
    1e-9...1e-2 of the threshold T = 0, or one whose bound level lies
    within 1e-9...1e-2 (relative) of the kappa l = 50 floor, on either
    side of it."""
    l, L0 = draw(lengths), draw(lengths)
    region = draw(st.integers(0, 3))
    if region < 2:
        return draw(phases(l, L0)), l, L0
    side = draw(st.sampled_from([-1.0, 1.0]))
    offset = side * draw(st.floats(-9.0, -2.0).map(lambda e: 10.0**e))
    if region == 2:
        return 2.0 * math.atan2(L0, -l) + offset, l, L0
    # tan(theta/2) = -50 L0 / (l f) puts the root at kappa l near 50 / f.
    return 2.0 * (PI - math.atan(KAPPA_CEILING * L0 / (l * (1.0 + offset)))), l, L0


@given(thresholds())
def test_levels_below_label_1_lie_within_two_rounding_units_of_the_referee(ch):
    # The bound level and label 0 against the 50-digit root at the solver's
    # own coefficients a = L0 cos(theta/2) and b = l sin(theta/2): within
    # 2 eps (kappa_phi + x) in x = kappa l or kl, where kappa_phi =
    # (|b S(x)| + |a x C(x)|) / |phi'(x)| is what rounding each term of
    # phi = b S(x) + a x C(x) once moves the root by, S = tanh and C = 1 for
    # the bound level, S = sin and C = cos for label 0.  A bound level is
    # dropped only where its root lies above the floor within that bound.
    theta, l, L0 = ch
    rows = solve_channels([theta], 1, l, L0)
    s2, c2 = _half_angle(theta % TWO_PI)
    a, b = L0 * c2, l * s2
    if abs(a + b) <= ZERO_LEVEL_TOL * (l + L0):
        assert rows.E[0, 0] == 0.0
        return
    if a + b > 0.0 and c2 >= 0.0:
        assert rows.label[0] == 1
        return
    with mpmath.workdps(50):
        x = referee.threshold_root(a, b)
        if a + b > 0.0:
            sx, cx, slope = mpmath.tanh(x), 1, b / mpmath.cosh(x) ** 2 + a
        else:
            sx, cx = mpmath.sin(x), mpmath.cos(x)
            slope = (a + b) * cx - a * x * sx
        gate = 2 * EPS * ((abs(b * sx) + abs(a * x * cx)) / abs(slope) + x)
        if rows.label[0] == 1:  # a bound level dropped at the floor
            assert a + b > 0.0 and x >= KAPPA_CEILING - gate
            return
        assert (rows.E[0, 0] < 0.0) == (a + b > 0.0)
        assert abs(mpmath.mpf(rows.k_or_kappa[0, 0]) * l - x) <= gate


@given(thresholds(), phases(1.0, 1.0), st.integers(-40, 40))
def test_levels_below_label_1_and_fd_levels_scale_exactly(ch, theta_minus, j):
    # E(s l, s L0) = E(l, L0) / s^2, and s = 2^j scales every input exactly:
    # the channel solver's bound and label-0 levels, and every FD level,
    # come back bit for bit, times s^2.
    theta, l, L0 = ch
    s = 2.0**j
    rows = solve_channels([theta], 1, l, L0)
    scaled = solve_channels([theta], 1, s * l, s * L0)
    assert scaled.label.tolist() == rows.label.tolist()
    if rows.label[0] == 0:
        assert scaled.E[0, 0] * s * s == rows.E[0, 0]
    u = params_to_matrix(UnitaryParams((theta + theta_minus) / 2.0, (theta - theta_minus) / 2.0))
    fd = fd_spectrum(BoundaryCondition(u, l, L0), 6, n_interior=64).E
    fd_scaled = fd_spectrum(BoundaryCondition(u, s * l, s * L0), 6, n_interior=64).E
    assert (fd_scaled * (s * s)).tolist() == fd.tolist()


@st.composite
def loops(draw):
    """(theta0, w, l, L0, n_steps, n): a loop of winding w from theta0, as
    trace samples it.  Every loop with w != 0 crosses theta = 0 and pi;
    phases() starts one in four on the threshold and one in four near the
    floor."""
    l, L0 = draw(lengths), draw(lengths)
    return (
        draw(phases(l, L0)), draw(st.integers(-2, 2)), l, L0, draw(st.integers(64, 256)),
        draw(st.integers(1, 10)),
    )


@given(loops())
def test_loop_samples_equal_solve_channel_at_every_sample(loop):
    # The batched sampler of a loop against one solve_channel per sample.
    theta0, w, l, L0, n_steps, n = loop
    thetas = [theta0 + TWO_PI * w * t for t in anholonomy._t_grid(n_steps)]
    rows = solve_channels(thetas, n, l, L0)
    for r, theta in enumerate(thetas):
        ch = Channel(theta, l, L0)
        levels = solve_channel(ch, n).levels
        assert rows.E[r].tolist() == [lv.E for lv in levels]
        assert rows.k_or_kappa[r].tolist() == [lv.k_or_kappa for lv in levels]


@st.composite
def batches(draw):
    """(thetas, l, L0): one to four eigenphases from phases() on one box."""
    l, L0 = draw(lengths), draw(lengths)
    return draw(st.lists(phases(l, L0), min_size=1, max_size=4)), l, L0


@given(batches(), st.integers(1, 200))
# A zero row with T = -5e-3 inside the zero-level band, whose positive levels
# start at label 1: label 0's root is the zero level itself.
@example(([2.0 * math.atan2(1e10, -1.0) + 1e-12], 1.0, 1e10), 3)
def test_positive_roots_carry_consecutive_branch_labels(batch, n):
    # The p-th positive root of a channel has the branch label
    # (kl + atan2(k L0 cos(theta/2), sin(theta/2))) / pi = m0 + p, where
    # m0 = 0 when cos(theta/2) < 0 and T < 0 leave neither a bound nor a
    # zero-energy level, and m0 = 1 otherwise.  The row's label is its first
    # level's: that rounded label, or 0 for a bound or zero-energy level.
    thetas, l, L0 = batch
    rows = solve_channels(thetas, n, l, L0)
    for r, theta in enumerate(thetas):
        s2, c2 = _half_angle(theta % TWO_PI)
        first = int(rows.E[r, 0] <= 0.0)  # a bound or zero-energy level
        k = rows.k_or_kappa[r, first:]
        label = (k * l + np.arctan2(k * L0 * c2, s2)) / PI
        m0 = 0 if c2 < 0.0 and l * s2 + L0 * c2 < 0.0 and rows.E[r, 0] != 0.0 else 1
        assert np.all(np.abs(label - (m0 + np.arange(k.size))) <= 1e-6)
        assert rows.label[r] == (0 if first else np.rint(label[0]))


@given(batches(), st.floats(1.5, 50.0), st.integers(1, 200))
def test_batch_roots_equal_the_per_cell_reference(batch, f, n):
    # Every row of a batch, whatever its first level, against the per-cell
    # scan with scipy's brentq that the branch-label search replaces, at
    # every label >= 1.  One more row has a bound level at kappa l near
    # 50 / f, off the floor.
    thetas, l, L0 = batch
    thetas = [*thetas, 2.0 * (PI - math.atan(KAPPA_CEILING * L0 / (l * f)))]
    rows = solve_channels(thetas, n, l, L0)
    for r, theta in enumerate(thetas):
        first, reference = _reference_from_label_1(theta % TWO_PI, l, L0, rows, r)
        assert rows.k_or_kappa[r, first:].tolist() == reference


near_threshold = st.floats(-9.0, -3.0).map(lambda e: 10.0**e)


@st.composite
def windows(draw):
    """(thetas, from_label, l, L0): one to four eigenphases on one box, each
    from phases() or within 1e-9...1e-3 of the threshold T = 0, and each
    with a label window from 1 to 20 or none (a label of -1 or 0)."""
    l, L0 = draw(lengths), draw(lengths)
    thetas, from_label = [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)):
            thetas.append(draw(phases(l, L0)))
        else:
            side = draw(st.sampled_from([-1.0, 1.0]))
            thetas.append(2.0 * math.atan2(L0, -l) + side * draw(near_threshold))
        from_label.append(draw(st.one_of(st.integers(1, 20), st.integers(-1, 0))))
    return thetas, from_label, l, L0


@given(windows(), st.integers(1, 12))
def test_label_window_rows_equal_the_bottom_solved_rows(batch, n):
    # A row of a label window holds the doubles that the row solved from
    # the bottom of its ladder holds for the same branch labels, and a row
    # without a window is that row.  Each row's label is its first level's:
    # the window's label, or the rounded label of the bottom row's first
    # level, 0 for a bound or zero-energy level.
    thetas, from_label, l, L0 = batch
    rows = solve_channels(thetas, n, l, L0, from_label)
    deep = solve_channels(thetas, n + 22, l, L0)
    for r, (theta, a) in enumerate(zip(thetas, from_label)):
        s2, c2 = _half_angle(theta % TWO_PI)
        first = int(deep.E[r, 0] <= 0.0)  # a bound or zero-energy level
        k = deep.k_or_kappa[r, first:]
        label = np.rint((k * l + np.arctan2(k * L0 * c2, s2)) / PI)
        assert deep.label[r] == (0 if first else label[0])
        if a <= 0:
            assert rows.E[r].tolist() == deep.E[r, :n].tolist()
            assert rows.k_or_kappa[r].tolist() == deep.k_or_kappa[r, :n].tolist()
            assert rows.label[r] == deep.label[r]
            continue
        assert rows.label[r] == a
        assert (rows.E[r] > 0.0).all()
        col = first + int(np.flatnonzero(label == a)[0])
        assert rows.k_or_kappa[r].tolist() == deep.k_or_kappa[r, col:col + n].tolist()
        assert rows.E[r].tolist() == deep.E[r, col:col + n].tolist()


@given(windows(), st.lists(st.integers(1, 12), min_size=4, max_size=4))
def test_rows_solved_to_their_own_depths_equal_one_row_solves(batch, depths):
    # A batch that mixes label windows and rows from the bottom of their
    # ladders, each row solved only as deep as it asks: every row is the
    # one-row solve at its own depth, bit for bit, label included, and NaN
    # past that depth.
    thetas, from_label, l, L0 = batch
    depths = depths[:len(thetas)]
    rows = solve_channels(thetas, depths, l, L0, from_label)
    assert rows.E.shape == rows.k_or_kappa.shape == (len(thetas), max(depths))
    for r, (theta, a, n) in enumerate(zip(thetas, from_label, depths)):
        own = solve_channels([theta], n, l, L0, [a])
        assert rows.E[r, :n].tobytes() == own.E[0].tobytes()
        assert rows.k_or_kappa[r, :n].tobytes() == own.k_or_kappa[0].tobytes()
        assert rows.label[r] == own.label[0]
        assert np.isnan(rows.E[r, n:]).all() and np.isnan(rows.k_or_kappa[r, n:]).all()


@st.composite
def searches(draw):
    """(thetas, n, l, L0, from_label): a batch of one to four eigenphases
    from phases() on a box in 10^+-300 or 10^+-2 for a third of the draws
    each, with l or L0 at the bottom of the double range, subnormals
    included, for the rest; one depth or one per row, and maybe a label
    window per row."""
    span = draw(st.sampled_from([300.0, 2.0, None]))
    l, L0 = (10.0 ** draw(st.floats(-(span or 300.0), span or 300.0)) for _ in range(2))
    if span is None:
        bottom = draw(st.one_of(st.sampled_from([5e-324, 2e-308]),
                                st.floats(-323.3, -300.0).map(lambda e: 10.0**e)))
        l, L0 = (bottom, L0) if draw(st.booleans()) else (l, bottom)
    rows = draw(st.integers(1, 4))
    theta = st.one_of(phases(l, L0), st.sampled_from([0.0, PI]))
    thetas = draw(st.lists(theta, min_size=rows, max_size=rows))
    n = draw(st.one_of(st.integers(1, 12), st.lists(st.integers(1, 12), min_size=rows, max_size=rows)))
    from_label = draw(st.none() | st.lists(st.integers(-1, 20), min_size=rows, max_size=rows))
    return thetas, n, l, L0, from_label


def _search(cut, batch):
    # The batch solved with _scan_rows's search chosen by cut, or the
    # SolverError it raised, as its type and text.
    with mock.patch.object(spectrum, "_ARRAY_SCAN_MIN", cut):
        try:
            return solve_channels(*batch)
        except SolverError as exc:
            return type(exc), str(exc)


@given(searches())
# At theta = 0 every root lies on a grid point, kl = (m - 1/2) pi, and on this
# L0 F/k underflows to 0 there: row 0's roots are grid points that Brent
# skips, ahead of row 1's brackets; alone, the row leaves Brent no bracket.
@example(([0.0, 1.0], 2, 1.0, 7.4e-309, None))
@example(([0.0], 3, 1.0, 7.4e-309, None))
def test_float_and_array_searches_return_the_same_doubles_and_errors(batch):
    # _scan_rows searches short batches in Python floats and long ones as
    # arrays; each forced on the same batch gives the same doubles and
    # labels, NaN past each row's depth, or the same error.
    floats, arrays = _search(10**9, batch), _search(0, batch)
    if isinstance(arrays, tuple):
        assert floats == arrays
        return
    assert floats.k_or_kappa.tobytes() == arrays.k_or_kappa.tobytes()
    assert floats.E.tobytes() == arrays.E.tobytes()
    assert floats.label.tolist() == arrays.label.tolist()
    thetas, n = batch[:2]
    depths = np.broadcast_to(n, len(thetas))
    for r, depth in enumerate(depths.tolist()):
        assert np.isnan(floats.E[r, depth:]).all() and not np.isnan(floats.E[r, :depth]).any()


def flag_degenerate(levels):
    """The pairing rule on a sorted list of EigenLevels, one pair of neighbours at a time.

    Two neighbours within 1e-10 (relative) get each other's (channel, index)
    in degenerate_with, and a level in two pairs keeps the upper one.  A
    channel never repeats a level, so on channel levels only pairs from
    different channels are flagged.
    """
    out = list(levels)
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        if abs(a.E - b.E) <= 1e-10 * (1.0 + max(abs(a.E), abs(b.E))):
            out[i] = replace(a, degenerate_with=(b.channel, b.index))
            out[i + 1] = replace(b, degenerate_with=(a.channel, a.index))
    return out


@st.composite
def defects(draw):
    """A defect on a box with two channels from phases(); one draw in four
    makes them equal (rho = 0)."""
    theta_plus, l, L0 = draw(channels())
    theta_minus = theta_plus if draw(st.integers(0, 3)) == 0 else draw(phases(l, L0))
    p = UnitaryParams(
        xi=(theta_plus + theta_minus) / 2.0,
        rho=(theta_plus - theta_minus) / 2.0,
        mu=draw(st.floats(0.0, PI)),
        nu=draw(st.floats(0.0, TWO_PI)),
    )
    return BoundaryCondition(params_to_matrix(p), l=l, L0=L0)


@given(defects(), st.one_of(st.integers(1, 80), st.integers(80, 600)))
def test_solve_spectrum_equals_the_full_depth_merge(bc, n):
    # Pairs are decided one level past the cut, so the n-th level may name a
    # partner that is not among the n levels returned.
    p = matrix_to_params(bc.u)
    full = [replace(lv, channel=name)
            for theta, name in ((p.theta_plus, "plus"), (p.theta_minus, "minus"))
            for lv in solve_channel(Channel(theta, bc.l, bc.L0), n + 1).levels]
    full.sort(key=lambda lv: (lv.E, lv.channel != "plus"))
    assert solve_spectrum(bc, n).levels == tuple(flag_degenerate(full[:n + 1])[:n])


@st.composite
def unit_boxes(draw):
    """A defect on a box with l and L0 in 10^+-1 and two channels from
    phases(); one draw in four makes them equal (rho = 0)."""
    decade = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)
    l, L0 = draw(decade), draw(decade)
    theta_plus = draw(phases(l, L0))
    theta_minus = theta_plus if draw(st.integers(0, 3)) == 0 else draw(phases(l, L0))
    p = UnitaryParams(
        xi=(theta_plus + theta_minus) / 2.0,
        rho=(theta_plus - theta_minus) / 2.0,
        mu=draw(st.floats(0.0, PI)),
        nu=draw(st.floats(0.0, TWO_PI)),
    )
    return BoundaryCondition(params_to_matrix(p), l=l, L0=L0)


@given(unit_boxes(), st.integers(1, 8))
def test_every_solver_returns_one_level_record(bc, n):
    # The channel, one-channel, det and FD solvers all return Spectrum
    # columns of n levels in ascending E, each kind the sign of its E and
    # each k_or_kappa the root of |E|; det pairs its levels by the list rule.
    p = matrix_to_params(bc.u)
    spectra = {
        "channel": solve_spectrum(bc, n),
        "one channel": solve_channel(Channel(p.theta_plus, bc.l, bc.L0), n),
        "det": det_spectrum(bc, n),
        "fd": fd_spectrum(bc, n, n_interior=64),
    }
    for name, spec in spectra.items():
        assert isinstance(spec, Spectrum) and len(spec) == n, name
        E = spec.E
        assert (np.diff(E) >= 0.0).all(), name
        sign = np.where(E < 0.0, "bound", np.where(E > 0.0, "positive", "zero"))
        assert spec.kind.tolist() == sign.tolist(), name
        assert (np.abs(spec.k_or_kappa**2 - np.abs(E)) <= 4.0 * np.spacing(np.abs(E))).all(), name
    assert all(spectra[name].channel is None for name in ("one channel", "det", "fd"))
    assert (spectra["fd"].partner == -1).all()
    unpaired = [replace(lv, degenerate_with=None) for lv in det_spectrum(bc, n + 1).levels]
    assert spectra["det"].levels == tuple(flag_degenerate(unpaired)[:n])
