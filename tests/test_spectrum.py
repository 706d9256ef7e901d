"""Tests for the channel equations and the merged exact spectrum.

Reference roots below were computed independently with a 30-digit
high-precision bisection of the transcendental channel equations
(sin(kl)sin(t/2) + k L0 cos(kl)cos(t/2) = 0 and its sinh/cosh companion)
and are pasted here frozen to full double precision.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from defectline import (
    BoundaryCondition,
    Channel,
    ScanExhausted,
    UnitaryParams,
    bound_function,
    channel_function,
    params_to_matrix,
    solve_channel,
    solve_spectrum,
    threshold,
)
from defectline import spectrum
from defectline.spectrum import (
    _ARRAY_BRENT_MIN,
    _BRENT_RTOL,
    _BRENT_XTOL,
    GRID_DENSITY,
    KAPPA_CEILING,
    _brentq,
    _brentq_array,
    _fhat_half,
    _fhat_scalar,
    _ghat_half,
    _half_angle,
    solve_channels,
)

TWO_PI = 2.0 * math.pi

# theta = pi/2, l = L0 = 1: roots of tan(k) = -k.
K_HALF_PI = (2.02875783811043422, 4.91318043943488369, 7.97866571241324076)
# theta = 0.7, l = L0 = 1.
K_THETA_07 = (1.77375677829207828, 4.78847250705050415)
# theta = 3pi/2 - 0.4: unique bound root of the hyperbolic equation.
KAPPA_BOUND = 1.29984852861705242
T_BOUND = 0.280960862037962357
# delta-defect of strength v = -3 (even channel): tanh(kappa) = 2 kappa / 3.
KAPPA_DELTA = 1.28783945496016554


def test_channel_function_closed_form():
    ch = Channel(math.pi / 2)
    ks = np.linspace(0.1, 9.0, 57)
    direct = (np.sin(ks) + ks * np.cos(ks)) * math.sin(math.pi / 4)
    assert np.max(np.abs(channel_function(ch, ks) - direct)) <= 1e-14

    # Pure Dirichlet / Neumann channels reduce to sin and k cos.
    assert np.max(np.abs(channel_function(Channel(math.pi), ks) - np.sin(ks))) <= 1e-14
    assert np.max(np.abs(channel_function(Channel(0.0), ks) - ks * np.cos(ks))) <= 1e-14


def test_bound_function_closed_form():
    t = 3 * math.pi / 2 - 0.4
    ch = Channel(t)
    xs = np.linspace(0.0, 5.0, 31)
    s2, c2 = math.sin(t / 2), math.cos(t / 2)
    direct = np.sinh(xs) * s2 + xs * np.cosh(xs) * c2
    assert np.max(np.abs(bound_function(ch, xs) - direct)) <= 1e-12


def test_threshold_values():
    assert abs(threshold(Channel(3 * math.pi / 2 - 0.4)) - T_BOUND) <= 1e-15
    # theta* = 3pi/2 for l = L0 = 1: threshold vanishes identically.
    assert abs(threshold(Channel(3 * math.pi / 2))) <= 1e-15
    assert threshold(Channel(0.0)) == 1.0


def test_channel_roots_against_reference():
    levels = solve_channel(Channel(math.pi / 2), 3).levels
    for lv, k_ref in zip(levels, K_HALF_PI):
        assert lv.kind == "positive"
        assert abs(lv.k_or_kappa - k_ref) <= 1e-12 * (1.0 + k_ref)
        assert abs(lv.E - k_ref * k_ref) <= 1e-11

    levels = solve_channel(Channel(0.7), 2).levels
    for lv, k_ref in zip(levels, K_THETA_07):
        assert abs(lv.k_or_kappa - k_ref) <= 1e-12 * (1.0 + k_ref)


def test_channel_residual_invariant():
    # |F(root)| <= 1e-10 (1 + k L0) for every returned positive root.
    rng = np.random.default_rng(13)
    for _ in range(40):
        theta = rng.uniform(0.0, TWO_PI)
        l = rng.uniform(0.5, 2.0)
        L0 = rng.uniform(0.5, 2.0)
        ch = Channel(theta, l, L0)
        for lv in solve_channel(ch, 6).levels:
            if lv.kind == "positive":
                f = abs(float(channel_function(ch, lv.k_or_kappa)))
                assert f <= 1e-10 * (1.0 + lv.k_or_kappa * L0)
            elif lv.kind == "bound":
                g = abs(float(bound_function(ch, lv.k_or_kappa)))
                # G grows like e^{kappa l}; scale accordingly.
                assert g <= 1e-10 * (1.0 + math.cosh(lv.k_or_kappa * l))


def test_root_count_matches_sign_changes():
    # On [a, b] the number of roots equals the number of sign changes of
    # F(k)/k on a grid of the mandated density (no root can hide).
    rng = np.random.default_rng(43)
    for _ in range(20):
        theta = rng.uniform(0.05, TWO_PI - 0.05)
        ch = Channel(theta)
        levels = solve_channel(ch, 12).levels
        ks = [lv.k_or_kappa for lv in levels if lv.kind == "positive"]
        a, b = 0.05, ks[-1] + 0.02
        step = min(math.pi / (GRID_DENSITY * ch.l), (b - a) / 1000.0)
        grid = np.arange(a, b + step, step)
        vals = channel_function(ch, grid) / grid
        changes = int(np.sum(vals[:-1] * vals[1:] < 0.0))
        inside = sum(1 for k in ks if a < k < b)
        assert changes == inside


def _fhat(theta, l, L0, k):
    # F(k)/k of the channel theta: the solver's array form on its half-angles.
    s2, c2 = _half_angle(theta)
    return _fhat_half(s2, c2, l, L0, np.asarray(k, dtype=float))


def _ghat(theta, l, L0, kappa):
    # G(kappa)/kappa of the channel theta, likewise.
    s2, c2 = _half_angle(theta)
    return _ghat_half(s2, c2, l, L0, np.asarray(kappa, dtype=float))


def _random_channel(rng):
    return rng.uniform(0.0, TWO_PI), 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-3, 3)


def test_brent_port_matches_scipy_brentq():
    # scipy is the oracle here: the port must return the identical double on
    # every sign-change cell of F/k and on bound brackets of G/kappa, and the
    # scalar residual must equal the numpy one at every returned root.  The
    # lock-step port must return the same doubles on all brackets of a
    # channel at once.
    rng = np.random.default_rng(71)
    count = 0
    while count < 10_000:
        theta, l, L0 = _random_channel(rng)
        s2, c2 = _half_angle(theta)
        grid = math.pi / (GRID_DENSITY * l) * np.arange(40 * GRID_DENSITY)
        vals = _fhat(theta, l, L0, grid)
        f = lambda k: _fhat_scalar(s2, c2, l, L0, k)
        cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        roots = []
        for i in cells:
            a, b = float(grid[i]), float(grid[i + 1])
            r = _brentq(f, a, b, f(a), f(b))
            assert r == brentq(f, a, b, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
            assert f(r) == float(_fhat(theta, l, L0, r))
            roots.append(r)
        lock_step = _brentq_array(
            lambda k, _: _fhat(theta, l, L0, k), grid[cells], grid[cells + 1], vals[cells],
            vals[cells + 1],
        )
        assert lock_step.tolist() == roots
        count += len(roots)
    # The bound window [0, KAPPA_CEILING / l] of G/kappa takes the rarer
    # branches of Brent's step choice, which the F/k cells can miss.
    count = 0
    while count < 1000:
        theta, l, L0 = _random_channel(rng)
        cap = KAPPA_CEILING / l
        g = lambda kappa: float(_ghat(theta, l, L0, kappa))
        if threshold(Channel(theta, l, L0)) <= 0.0 or math.cos(theta / 2.0) >= 0.0 or g(cap) >= 0.0:
            continue
        r = _brentq(g, 0.0, cap, g(0.0), g(cap))
        assert r == brentq(g, 0.0, cap, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
        if count < 200:
            window = np.array([0.0, cap])
            gw = _ghat(theta, l, L0, window)
            g_vec = lambda kappa, _: _ghat(theta, l, L0, kappa)
            assert _brentq_array(g_vec, window[:1], window[1:], gw[:1], gw[1:]).tolist() == [r]
        count += 1


def _scan_positive_reference(theta, l, L0, n, skip_origin):
    # The per-cell loop with scipy's brentq on numpy's F/k that the
    # vectorized scan replaces; the two must agree bit for bit.
    step = math.pi / (GRID_DENSITY * l)
    block = 8 * GRID_DENSITY
    f = lambda k: float(_fhat(theta, l, L0, k))
    roots = []
    j0 = 1 if skip_origin else 0
    while len(roots) < n:
        grid = step * np.arange(j0, j0 + block + 1)
        vals = _fhat(theta, l, L0, grid)
        for i in range(block):
            if vals[i] == 0.0:
                if grid[i] > 0.0:
                    roots.append(float(grid[i]))
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(brentq(f, grid[i], grid[i + 1], xtol=_BRENT_XTOL, rtol=_BRENT_RTOL))
            if len(roots) == n:
                break
        j0 += block
    return roots


def _check_positive_roots(theta, l, L0, n):
    # The positive levels of a channel solved n deep against the per-cell
    # scan, which leaves the origin cell out where the row has a zero level;
    # returns that zero flag.
    rows = solve_channels([theta], n, l, L0)
    first = int(rows.bound[0] or rows.zero[0])
    reference = _scan_positive_reference(theta, l, L0, n - first, bool(rows.zero[0]))
    assert rows.k_or_kappa[0, first:].tolist() == reference
    return bool(rows.zero[0])


def test_scan_matches_per_cell_reference():
    # Short scans refine one bracket at a time, long ones (n at or above
    # _ARRAY_BRENT_MIN) in lock step; both must give the reference doubles.
    rng = np.random.default_rng(73)
    for i in range(34):
        theta, l, L0 = _random_channel(rng)
        n = int(rng.integers(1, 24)) if i < 30 else int(rng.integers(_ARRAY_BRENT_MIN, 600))
        _check_positive_roots(theta, l, L0, n)
    # T = 0 exactly: the origin is an exact zero of F/k, and the row's zero
    # level, not a positive one.
    s2, c2 = _half_angle(3.3)
    L0 = -s2 / c2
    assert _fhat(3.3, 1.0, L0, 0.0) == 0.0
    for n in (5, 2 * _ARRAY_BRENT_MIN):
        assert _check_positive_roots(3.3, 1.0, L0, n)
    # theta at 0 and pi and within 1e-12 of 0, pi and 2 pi, where roots sit
    # on the ends of their half-branches.
    rng = np.random.default_rng(79)
    for theta in (0.0, math.pi, 1e-12, math.pi - 1e-12, math.pi + 1e-12, TWO_PI - 1e-12):
        for i in range(2):
            _, l, L0 = _random_channel(rng)
            n = int(rng.integers(1, 24)) if i == 0 else int(rng.integers(_ARRAY_BRENT_MIN, 300))
            _check_positive_roots(theta, l, L0, n)


def test_scan_raises_when_a_root_misses_its_branch_slot(monkeypatch):
    # One grid cell per branch is too coarse for the half-branch of a
    # channel with cos(theta/2) < 0: its roots land one slot too high, the
    # first slot stays empty, and the scan must raise rather than leave it.
    assert math.cos(4.0 / 2.0) < 0.0
    monkeypatch.setattr(spectrum, "GRID_DENSITY", 1)
    with pytest.raises(ScanExhausted):
        solve_channel(Channel(4.0), 5)


def test_interlacing_gap_bounds():
    # Consecutive positive roots of one channel are separated by less than
    # 2 pi / l and never coincide.
    rng = np.random.default_rng(47)
    for _ in range(25):
        theta = rng.uniform(0.0, TWO_PI)
        l = rng.uniform(0.5, 2.0)
        ch = Channel(theta, l, 1.0)
        ks = [lv.k_or_kappa for lv in solve_channel(ch, 10).levels if lv.kind == "positive"]
        gaps = np.diff(ks)
        assert np.all(gaps > 0.0)
        assert np.all(gaps < 2.0 * math.pi / l)


def test_bound_level_reference_and_existence_boundary():
    lv = solve_channel(Channel(3 * math.pi / 2 - 0.4), 1).levels[0]
    assert lv.kind == "bound"
    assert abs(lv.k_or_kappa - KAPPA_BOUND) <= 1e-12 * (1.0 + KAPPA_BOUND)
    assert abs(lv.E + KAPPA_BOUND ** 2) <= 1e-11

    # Just past theta*: the threshold changes sign and the bound level is gone.
    lv2 = solve_channel(Channel(3 * math.pi / 2 + 0.4), 1).levels[0]
    assert lv2.kind == "positive"
    assert threshold(Channel(3 * math.pi / 2 + 0.4)) < 0.0


def test_bound_count_tracks_threshold_sign():
    # Bound-state existence across a theta sweep: present exactly when
    # cos(theta/2) < 0 and T > 0 (skipping a tolerance window at theta* and
    # the deep corner near theta = pi where the root exceeds the kappa
    # ceiling and is dropped by design).
    for theta in np.linspace(0.1, TWO_PI - 0.1, 181):
        ch = Channel(float(theta))
        t0 = threshold(ch)
        if abs(t0) < 1e-8:
            continue
        s2, c2 = math.sin(theta / 2.0), math.cos(theta / 2.0)
        if c2 < 0.0 and -s2 / c2 > 45.0:
            continue
        n_bound = sum(1 for lv in solve_channel(ch, 8).levels if lv.kind == "bound")
        expected = 1 if (c2 < 0.0 and t0 > 0.0) else 0
        assert n_bound == expected
        assert n_bound in (0, 1)


def test_bound_root_beyond_ceiling_dropped():
    # tan(theta/2) ~ -60 puts the bound root near kappa = 60 > 50/l: the
    # level is omitted and the lowest reported level is a positive one.
    theta = 2.0 * (math.pi - math.atan(60.0))
    ch = Channel(theta)
    assert math.cos(theta / 2.0) < 0.0 and threshold(ch) > 0.0
    levels = solve_channel(ch, 4).levels
    assert all(lv.kind == "positive" for lv in levels)


def test_zero_energy_level_exactly_at_threshold():
    ch = Channel(3 * math.pi / 2)  # T = 0 for l = L0 = 1
    levels = solve_channel(ch, 3).levels
    assert levels[0].kind == "zero"
    assert levels[0].E == 0.0
    assert all(lv.kind == "positive" for lv in levels[1:])


def test_delta_defect_correspondence():
    # A delta well of strength v = -3: continuity forces the odd channel to
    # theta = pi, the jump condition puts the even channel on the branch
    # tan(theta/2) = v L0 / 2 with cos(theta/2) < 0.  Its bound level must
    # satisfy tanh(kappa l) = -2 kappa / v.
    v = -3.0
    theta_even = TWO_PI + 2.0 * math.atan(v / 2.0)  # in (pi, 2 pi)
    xi = (theta_even + math.pi) / 2.0
    rho = (theta_even - math.pi) / 2.0
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi, rho, math.pi / 2, 0.0)))
    lowest = solve_spectrum(bc, 1).levels[0]
    assert lowest.kind == "bound"
    kappa = lowest.k_or_kappa
    assert abs(kappa - KAPPA_DELTA) <= 1e-12 * (1.0 + KAPPA_DELTA)
    assert abs(math.tanh(kappa) - (-2.0 * kappa / v)) <= 1e-12


def test_solve_spectrum_dirichlet_and_neumann_anchors():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    levels = solve_spectrum(bc, 4).levels
    expected = [math.pi ** 2, math.pi ** 2, 4 * math.pi ** 2, 4 * math.pi ** 2]
    for lv, e in zip(levels, expected):
        assert abs(lv.E - e) <= 1e-10 * (1.0 + e)
        assert lv.degenerate_with is not None

    bc = BoundaryCondition(np.eye(2, dtype=complex))
    levels = solve_spectrum(bc, 2).levels
    for lv, e in zip(levels, [(math.pi / 2) ** 2, (math.pi / 2) ** 2]):
        assert abs(lv.E - e) <= 1e-10


def test_solve_spectrum_interleaved_example():
    # xi = rho = pi/2: channels theta = pi and theta = 0 interleave as
    # k = pi/2, pi, 3pi/2, 2pi.
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(math.pi / 2, math.pi / 2)))
    levels = solve_spectrum(bc, 4).levels
    ks = [lv.k_or_kappa for lv in levels]
    expected = [math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI]
    assert np.max(np.abs(np.array(ks) - expected)) <= 1e-10
    # theta_plus = pi is the Dirichlet-like channel (k = pi, 2pi), so the
    # interleave starts with the minus channel.
    channels = [lv.channel for lv in levels]
    assert channels == ["minus", "plus", "minus", "plus"]


def test_merge_depth_is_verified_against_a_lopsided_ladder(monkeypatch):
    # Channels interlace, so the batch of both is solved about n/2 deep.  A
    # plus channel whose dense ladder lies below the minus channel's first
    # level breaks that and must make solve_spectrum raise, not return a
    # merge cut short.
    real = spectrum.solve_channels
    depths = []

    def counted(thetas, n, l, L0):
        depths.append(n)
        return real(thetas, n, l, L0)

    def lopsided(thetas, n, l, L0):
        rows = counted(thetas, n, l, L0)
        rows.E[0] = 1e-3 * np.arange(1, n + 1)
        rows.k_or_kappa[0] = np.sqrt(rows.E[0])
        rows.bound[0] = rows.zero[0] = False
        return rows

    bc = BoundaryCondition(params_to_matrix(UnitaryParams(2.0, 0.9)))
    n = 40
    monkeypatch.setattr(spectrum, "solve_channels", lopsided)
    with pytest.raises(ScanExhausted):
        solve_spectrum(bc, n)
    assert depths == [22]

    # The real ladders interlace and the half-depth merge is kept.
    monkeypatch.setattr(spectrum, "solve_channels", counted)
    depths.clear()
    solve_spectrum(bc, n)
    assert depths == [22]


def test_spectrum_independent_of_frame_angles():
    # (mu, nu) rotate the eigenframe only; the merged spectrum depends on
    # (xi, rho) alone.
    rng = np.random.default_rng(53)
    for _ in range(10):
        xi, rho = rng.uniform(0.0, TWO_PI, 2)
        e_ref = None
        for _ in range(3):
            mu, nu = rng.uniform(0.0, TWO_PI, 2)
            bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi, rho, mu, nu)))
            es = np.array([lv.E for lv in solve_spectrum(bc, 8).levels])
            if e_ref is None:
                e_ref = es
            else:
                assert np.max(np.abs(es - e_ref)) <= 1e-12 * (1.0 + np.max(np.abs(e_ref)))


def test_channel_swap_leaves_multiset():
    # Swapping the two eigenphases relabels channels but not energies.
    rng = np.random.default_rng(59)
    for _ in range(10):
        tp, tm = rng.uniform(0.0, TWO_PI, 2)
        bc1 = BoundaryCondition(
            params_to_matrix(UnitaryParams((tp + tm) / 2 % TWO_PI, (tp - tm) / 2 % TWO_PI))
        )
        bc2 = BoundaryCondition(
            params_to_matrix(UnitaryParams((tp + tm) / 2 % TWO_PI, (tm - tp) / 2 % TWO_PI))
        )
        e1 = np.sort([lv.E for lv in solve_spectrum(bc1, 8).levels])
        e2 = np.sort([lv.E for lv in solve_spectrum(bc2, 8).levels])
        assert np.max(np.abs(e1 - e2)) <= 1e-12 * (1.0 + np.max(np.abs(e1)))


def test_levels_sorted_with_consistent_metadata():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
        bc = BoundaryCondition(params_to_matrix(p))
        spec = solve_spectrum(bc, 9)
        assert len(spec) == 9
        assert len(spec.levels) == 9
        es = [lv.E for lv in spec.levels]
        assert all(es[i] <= es[i + 1] + 1e-12 for i in range(len(es) - 1))
        for lv in spec.levels:
            if lv.kind == "positive":
                assert abs(lv.E - lv.k_or_kappa ** 2) <= 1e-12 * (1.0 + lv.E)
            elif lv.kind == "bound":
                assert abs(lv.E + lv.k_or_kappa ** 2) <= 1e-12 * (1.0 + abs(lv.E))
            else:
                assert lv.E == 0.0 and lv.k_or_kappa == 0.0
            assert lv.channel in ("plus", "minus")
        # per-channel indices count upward without gaps
        for tag in ("plus", "minus"):
            idx = [lv.index for lv in spec.levels if lv.channel == tag]
            assert idx == sorted(idx)


def test_degenerate_cross_references():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    levels = solve_spectrum(bc, 4).levels
    for i in (0, 2):
        a, b = levels[i], levels[i + 1]
        assert a.degenerate_with == (b.channel, b.index)
        assert b.degenerate_with == (a.channel, a.index)
        assert {a.channel, b.channel} == {"plus", "minus"}


def test_solver_rejects_bad_requests():
    with pytest.raises(ValueError):
        solve_channel(Channel(1.0), 0)
    with pytest.raises(ValueError):
        solve_spectrum(BoundaryCondition(np.eye(2, dtype=complex)), 0)
    with pytest.raises(ValueError):
        Channel(math.nan)
    with pytest.raises(ValueError):
        Channel(1.0, l=-1.0)


def test_label_window_needs_one_label_per_eigenphase():
    with pytest.raises(ValueError):
        spectrum.solve_channels([0.7, 2.0], 3, from_label=[1])


def test_channel_tag_passthrough():
    levels = solve_channel(Channel(0.7), 3, tag="plus").levels
    assert all(lv.channel == "plus" for lv in levels)
    untagged = solve_channel(Channel(0.7), 3).levels
    assert all(lv.channel is None for lv in untagged)


def test_root_search_probes_at_most_eight_points_per_root(monkeypatch):
    # Each root's cell is searched inside its branch-label window at
    # 4 + 2 + 2 grid points, where a sign scan of the grid took 64 per root.
    # Brent refines one bracket at a time here, on the scalar F/k, so every
    # evaluation of the array F/k is the search's.
    evaluations = []
    fhat_half = spectrum._fhat_half

    def counted(s2, c2, l, L0, k):
        evaluations.append(np.broadcast(s2, k).size)
        return fhat_half(s2, c2, l, L0, k)

    monkeypatch.setattr(spectrum, "_fhat_half", counted)
    monkeypatch.setattr(spectrum, "_ARRAY_BRENT_MIN", 10**9)
    # Both eigenphases in (0, pi): no bound or zero level, so each channel
    # is solved to depth (n + 1) // 2 + 2 in positive roots.
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi=1.1, rho=0.7, mu=0.3, nu=2.0)))
    solve_spectrum(bc, 2000)
    roots = 2 * ((2000 + 1) // 2 + 2)
    assert roots <= sum(evaluations) <= 8 * roots
