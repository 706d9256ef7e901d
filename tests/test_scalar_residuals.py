"""Property tests: each fast path returns the doubles of its plain form.

The root refiners evaluate F/k and G/kappa one float at a time on scalar
forms of the grid functions, the channel solver merges two ladders solved
only as deep as the merge reaches, and a loop's samples are solved in one
batch.  The printed levels stay the same only
while every scalar form returns exactly the double its vector form returns,
the shallow merge returns the full-depth one and the batch returns one
solve per sample, so these tests compare with ==, not with a tolerance, over l
and L0 across four decades and the edge regions: theta near 0 and pi, the
threshold T = 0, the kappa l = 50 floor and rho = 0 or pi.  A row of a
label window is held to the row solved from the bottom of its ladder.  The
branch labels that place each channel root are held to consecutive integers
within 1e-6.  Every solver's Spectrum is held to one level record, and det's
partners to the list-based pairing rule kept here as the reference.
"""

import math
from dataclasses import replace

import numpy as np
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
from defectline import anholonomy
from defectline.spectrum import (
    KAPPA_CEILING,
    ZERO_LEVEL_TOL,
    _brentq,
    _fhat_scalar,
    _ghat_scalar,
    _half_angle,
    solve_channels,
)
from test_spectrum import _fhat, _ghat, _scan_positive_reference

PI = math.pi
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
    # 64 points on [0, top]: the ends, three around the sinhc series switch
    # and 59 uniform ones.
    spread = np.random.default_rng(seed).uniform(0.0, top, 59)
    return np.concatenate([[0.0, 5e-9, 1e-8, 2e-8, top], spread])


@given(channels(), seeds)
def test_fhat_scalar_equals_vector_form(ch, seed):
    theta, l, L0 = ch
    s2, c2 = _half_angle(theta)
    k = _points(seed, 60.0 * PI / l)
    vec = _fhat(theta, l, L0, k)
    assert [_fhat_scalar(s2, c2, l, L0, x) for x in k.tolist()] == vec.tolist()


@given(channels(), seeds)
def test_ghat_scalar_equals_vector_form(ch, seed):
    theta, l, L0 = ch
    s2, c2 = _half_angle(theta)
    kappa = _points(seed, KAPPA_CEILING / l)
    kappa[1:4] /= l  # kappa l straddles the 1e-8 switch of sinhc
    vec = _ghat(theta, l, L0, kappa)
    scalar = [_ghat_scalar(s2, c2, l, L0, x) for x in kappa.tolist()]
    assert scalar == vec.tolist()
    assert scalar == [float(_ghat(theta, l, L0, x)) for x in kappa.tolist()]


@given(channels())
def test_bound_level_equals_brent_on_the_vector_form(ch):
    ch = Channel(*ch)
    theta, l, L0 = ch.theta, ch.l, ch.L0
    s2, c2 = _half_angle(theta)
    cap = KAPPA_CEILING / l
    t0 = l * s2 + L0 * c2
    g = lambda kappa: float(_ghat(theta, l, L0, kappa))
    first = solve_channel(ch, 1).levels[0]
    if abs(t0) <= ZERO_LEVEL_TOL * (l + L0) or c2 >= 0.0 or t0 <= 0.0 or g(cap) >= 0.0:
        assert first.kind != "bound"
    else:
        assert first.kind == "bound"
        assert first.k_or_kappa == _brentq(g, 0.0, cap, g(0.0), g(cap))


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
        assert rows.theta[r] == ch.theta
        assert rows.E[r].tolist() == [lv.E for lv in levels]
        assert rows.k_or_kappa[r].tolist() == [lv.k_or_kappa for lv in levels]
        assert rows.bound[r] == (levels[0].kind == "bound")
        assert rows.zero[r] == (levels[0].kind == "zero")


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
    # zero-energy level, and m0 = 1 otherwise.
    thetas, l, L0 = batch
    rows = solve_channels(thetas, n, l, L0)
    for r, theta in enumerate(rows.theta.tolist()):
        s2, c2 = _half_angle(theta)
        first = int(rows.bound[r] or rows.zero[r])
        k = rows.k_or_kappa[r, first:]
        label = (k * l + np.arctan2(k * L0 * c2, s2)) / PI
        m0 = 0 if c2 < 0.0 and l * s2 + L0 * c2 < 0.0 and not rows.zero[r] else 1
        assert np.all(np.abs(label - (m0 + np.arange(k.size))) <= 1e-6)


@given(batches(), st.floats(1.5, 50.0), st.integers(1, 200))
def test_batch_roots_equal_the_per_cell_reference(batch, f, n):
    # Every row of a batch, whatever its first level, against the per-cell
    # scan with scipy's brentq that the branch-label search replaces; a row
    # at the threshold leaves out the origin cell, as the batch does.  One
    # more row has a bound level at kappa l near 50 / f, off the floor.
    thetas, l, L0 = batch
    thetas = [*thetas, 2.0 * (PI - math.atan(KAPPA_CEILING * L0 / (l * f)))]
    rows = solve_channels(thetas, n, l, L0)
    for r, theta in enumerate(rows.theta.tolist()):
        first = int(rows.bound[r] or rows.zero[r])
        reference = _scan_positive_reference(theta, l, L0, n - first, bool(rows.zero[r]))
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
    # without a window is that row.
    thetas, from_label, l, L0 = batch
    rows = solve_channels(thetas, n, l, L0, from_label)
    deep = solve_channels(thetas, n + 22, l, L0)
    for r, a in enumerate(from_label):
        if a <= 0:
            assert rows.E[r].tolist() == deep.E[r, :n].tolist()
            assert rows.k_or_kappa[r].tolist() == deep.k_or_kappa[r, :n].tolist()
            assert (rows.bound[r], rows.zero[r]) == (deep.bound[r], deep.zero[r])
            continue
        assert not rows.bound[r] and not rows.zero[r]
        s2, c2 = _half_angle(float(rows.theta[r]))
        first = int(deep.bound[r] or deep.zero[r])
        k = deep.k_or_kappa[r, first:]
        label = np.rint((k * l + np.arctan2(k * L0 * c2, s2)) / PI)
        col = first + int(np.flatnonzero(label == a)[0])
        assert rows.k_or_kappa[r].tolist() == deep.k_or_kappa[r, col:col + n].tolist()
        assert rows.E[r].tolist() == deep.E[r, col:col + n].tolist()


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
    full = list(solve_channel(Channel(p.theta_plus, bc.l, bc.L0), n + 1, "plus").levels)
    full += solve_channel(Channel(p.theta_minus, bc.l, bc.L0), n + 1, "minus").levels
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
        "one channel": solve_channel(Channel(p.theta_plus, bc.l, bc.L0), n, "plus"),
        "det": det_spectrum(bc, n),
        "fd": fd_spectrum(bc, n, n_interior=64),
    }
    for name, spec in spectra.items():
        assert isinstance(spec, Spectrum) and len(spec) == n, name
        E = spec.E
        assert (np.diff(E) >= 0.0).all(), name
        sign = np.where(E < 0.0, "bound", np.where(E > 0.0, "positive", "zero"))
        if name == "fd":
            sign[E == 0.0] = "positive"  # FD names no zero level
        assert spec.kind.tolist() == sign.tolist(), name
        assert (np.abs(spec.k_or_kappa**2 - np.abs(E)) <= 4.0 * np.spacing(np.abs(E))).all(), name
    assert spectra["one channel"].channel.tolist() == ["plus"] * n
    assert spectra["det"].channel is None and spectra["fd"].channel is None
    assert (spectra["fd"].partner == -1).all()
    unpaired = [replace(lv, degenerate_with=None) for lv in det_spectrum(bc, n + 1).levels]
    assert spectra["det"].levels == tuple(flag_degenerate(unpaired)[:n])
