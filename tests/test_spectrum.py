"""Tests for the channel equations and the merged exact spectrum.

Reference roots below were computed independently with a 30-digit
high-precision bisection of the transcendental channel equations
(sin(kl)sin(t/2) + k L0 cos(kl)cos(t/2) = 0 and its sinh/cosh companion)
and are pasted here frozen to full double precision.
"""

import ast
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    _ARRAY_SCAN_MIN,
    _BRENT_RTOL,
    _BRENT_XTOL,
    GRID_DENSITY,
    KAPPA_CEILING,
    _brentq,
    _brentq_array,
    _fhat_half,
    _fhat_scalar,
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
    # F(k)/k of the channel theta: the solver's array form on its half-angles
    # where kl > 0, and its limit T where kl = 0, at which the solver never
    # evaluates it.
    s2, c2 = _half_angle(theta)
    k = np.asarray(k, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(k * l == 0.0, l * s2 + L0 * c2, _fhat_half(s2, c2, l, L0, k))


def _ghat(theta, l, L0, kappa):
    # G(kappa)/kappa of the channel theta on numpy arrays, T at 0.
    s2, c2 = _half_angle(theta)
    x = np.asarray(kappa, dtype=float) * l
    sinhc = np.where(x == 0.0, 1.0, np.sinh(x) / np.where(x == 0.0, 1.0, x))
    return l * sinhc * s2 + L0 * np.cosh(x) * c2


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


def _reference_from_label_1(theta, l, L0, rows, r):
    # The first column of row r that holds a root of label >= 1, and the
    # per-cell scan's roots for the row's columns from there: the scan
    # leaves out the origin cell where the row has a zero level, and label
    # 0's positive root, which the row solves by Newton, where it has one.
    first = int(rows.label[r] == 0)  # a level below label 1
    label_0 = int(first and rows.E[r, 0] > 0.0)
    n = rows.E.shape[1] - first + label_0
    return first, _scan_positive_reference(theta, l, L0, n, rows.E[r, 0] == 0.0)[label_0:]


def _check_positive_roots(theta, l, L0, n):
    # The roots of labels >= 1 of a channel solved n deep against the
    # per-cell scan; returns the row's zero flag.
    rows = solve_channels([theta], n, l, L0)
    first, reference = _reference_from_label_1(theta, l, L0, rows, 0)
    assert rows.k_or_kappa[0, first:].tolist() == reference
    return bool(rows.E[0, 0] == 0.0)


def test_scan_matches_per_cell_reference():
    # Short scans (fewer than _ARRAY_SCAN_MIN roots) search each root in
    # Python floats, long ones (more than _ARRAY_SCAN_MIN levels, so at
    # least that many roots even after a level below label 1) as arrays
    # with lock-step Brent; both must give the reference doubles at every
    # label >= 1.
    rng = np.random.default_rng(73)
    for i in range(34):
        theta, l, L0 = _random_channel(rng)
        long = i >= 30
        n = int(rng.integers(_ARRAY_SCAN_MIN + 1, 600) if long else rng.integers(1, _ARRAY_SCAN_MIN))
        _check_positive_roots(theta, l, L0, n)
    # T = 0 exactly: the origin is an exact zero of F/k, and the row's zero
    # level, not a positive one.  Its roots of labels >= 1 sit on both
    # sides of the constant: one short of it and exactly at it.
    s2, c2 = _half_angle(3.3)
    L0 = -s2 / c2
    assert threshold(Channel(3.3, 1.0, L0)) == 0.0
    for n in (5, _ARRAY_SCAN_MIN, _ARRAY_SCAN_MIN + 1, 2 * _ARRAY_SCAN_MIN):
        assert _check_positive_roots(3.3, 1.0, L0, n)
    # theta at 0 and pi and within 1e-12 of 0, pi and 2 pi, where roots sit
    # on the ends of their half-branches.
    rng = np.random.default_rng(79)
    for theta in (0.0, math.pi, 1e-12, math.pi - 1e-12, math.pi + 1e-12, TWO_PI - 1e-12):
        for i in range(2):
            _, l, L0 = _random_channel(rng)
            n = int(rng.integers(_ARRAY_SCAN_MIN + 1, 300) if i else rng.integers(1, _ARRAY_SCAN_MIN))
            _check_positive_roots(theta, l, L0, n)


def test_scan_raises_when_a_root_misses_its_branch_slot(monkeypatch):
    # One grid cell per branch is too coarse for the half-branch of a
    # channel with cos(theta/2) > 0: label 1's root lies in the cell whose
    # lower end is the origin, where the scan takes no value of F/k, so no
    # probe shows its sign change, and the scan must raise rather than
    # leave the slot.  With cos(theta/2) < 0 the same grid places every
    # root in its own cell, and the roots are the fine grid's.
    assert math.cos(2.0 / 2.0) > 0.0 > math.cos(4.0 / 2.0)
    fine = solve_channel(Channel(4.0), 5).E
    monkeypatch.setattr(spectrum, "GRID_DENSITY", 1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ScanExhausted):
            solve_channel(Channel(2.0), 5)
        assert np.allclose(solve_channel(Channel(4.0), 5).E, fine, rtol=1e-13, atol=0.0)


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


def test_root_search_probes_four_points_per_root_at_every_label(monkeypatch):
    # A root of every label >= 1 is searched at the 4 grid points around
    # its branch-equation estimate, where a sign scan of the grid took 64
    # per root; label 0 is solved by Newton's method, with no probe.  Each
    # search is forced in turn, and counted by its own F/k outside Brent's
    # method: the float search's _fhat_scalar and the array search's
    # _fhat_half.
    probes = {}
    refining = []

    def counted(kernel, search):
        def fhat(s2, c2, l, L0, k):
            if not refining:
                probes[search] += np.broadcast(s2, k).size
            return kernel(s2, c2, l, L0, k)
        return fhat

    def outside(brent):
        def refine(*args):
            refining.append(brent)
            try:
                return brent(*args)
            finally:
                refining.pop()
        return refine

    monkeypatch.setattr(spectrum, "_fhat_scalar", counted(spectrum._fhat_scalar, "floats"))
    monkeypatch.setattr(spectrum, "_fhat_half", counted(spectrum._fhat_half, "arrays"))
    monkeypatch.setattr(spectrum, "_brentq", outside(spectrum._brentq))
    monkeypatch.setattr(spectrum, "_brentq_array", outside(spectrum._brentq_array))
    # Both eigenphases in (0, pi): no bound or zero level, so each channel
    # is solved to depth (n + 1) // 2 + 2 in positive roots of labels >= 1.
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(xi=1.1, rho=0.7, mu=0.3, nu=2.0)))
    # Row 0 lies below the threshold, so its first positive root has label
    # 0 and the grid searches 299 of its roots.
    assert threshold(Channel(5.5)) < 0.0 < threshold(Channel(1.0))
    for search, cut in (("floats", 10**9), ("arrays", 0)):
        monkeypatch.setattr(spectrum, "_ARRAY_SCAN_MIN", cut)
        probes.update(floats=0, arrays=0)
        solve_spectrum(bc, 2000)
        assert probes == {"floats": 0, "arrays": 0, search: 4 * 2 * ((2000 + 1) // 2 + 2)}
        probes.update(floats=0, arrays=0)
        rows = solve_channels([5.5, 1.0], 300)
        assert rows.label.tolist() == [0, 1] and (rows.E > 0.0).all()
        assert probes == {"floats": 0, "arrays": 0, search: 4 * (299 + 300)}


def test_scan_rows_has_one_probe_layout_and_solve_channels_decides_the_rows():
    # One rule places every root: one _fhat_half call over a (roots x 4)
    # block, with no per-root probe counts to repeat, sum or reduce, and no
    # helper between solve_channels and the scan.  The only other
    # _fhat_half call is the F/k of the one lock-step Brent call.
    tree = ast.parse(Path(spectrum.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_solve_rows" not in functions
    calls = [node for node in ast.walk(functions["_scan_rows"]) if isinstance(node, ast.Call)]
    called = [ast.unparse(node.func) for node in calls]
    (brent,) = [node for node, name in zip(calls, called) if name == "_brentq_array"]
    lock_step = [node for node in ast.walk(brent.args[0]) if isinstance(node, ast.Call)]
    assert [ast.unparse(node.func) for node in lock_step] == ["_fhat_half"]
    assert called.count("_fhat_half") == 2
    assert not {"np.repeat", "np.cumsum", "np.add.reduceat"} & set(called)


def test_a_label_window_takes_integer_labels_only():
    for label in (1.7, 2.5, math.nan, math.inf, 1e30):
        with pytest.raises(ValueError, match="integer"):
            solve_channels([5.5], 2, from_label=[label])
    # An integer-valued float is its integer.
    rows = solve_channels([5.5], 2, from_label=[2.0])
    assert rows.label.tolist() == [2]
    assert rows.k_or_kappa.tobytes() == solve_channels([5.5], 4).k_or_kappa[:, 2:].tobytes()


def test_labels_and_depths_past_their_range_raise_one_typed_error(monkeypatch):
    # Both searches check the labels before they part.  From a label of
    # about 1.8e14 on, kl rounds by more than the grid cell pi / 64, so no
    # probe could resolve a cell: such a label raises ScanExhausted that
    # says so, with no warning, whichever search runs (before it, 2**48 to
    # 2**55 blamed F/k).  2**47 still solves, to the same doubles on both.
    # A depth or label of 2**64 or more in a sequence is a ValueError, as
    # 2**63 is.
    solved = []
    for cut in (10**9, 0):
        monkeypatch.setattr(spectrum, "_ARRAY_SCAN_MIN", cut)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved.append(solve_channels([1.0], 2, from_label=[2**47]).k_or_kappa.tobytes())
            for e in (*range(48, 56), 57, 62):
                with pytest.raises(ScanExhausted, match="^a branch label lies so high that the "
                                                        "rounding of kl is past the grid cell$"):
                    solve_channels([1.0], 2, from_label=[2**e])
            for big in (2**63, 2**64, -2**64, 2**70):
                with pytest.raises(ValueError, match="integer"):
                    solve_channels([1.0], 2, from_label=[big])
                if big > 0:
                    with pytest.raises(ValueError, match="integer"):
                        solve_channels([1.0, 2.0], [2, big])
    assert solved[0] == solved[1]
    assert [x.hex() for x in np.frombuffer(solved[0])] == [
        "0x1.921fb54442cffp+48", "0x1.921fb54442d31p+48"]


def test_level_counts_take_integers_only():
    # n follows the rule from_label follows: a NaN, an infinity or 2.5 is
    # a ValueError at entry, and an integer-valued float is its integer.
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(2.0, 0.9)))
    for n in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            solve_channels([5.5], n)
        with pytest.raises(ValueError, match="integer"):
            solve_spectrum(bc, n)
    assert solve_channels([5.5], 2.0).E.tobytes() == solve_channels([5.5], 2).E.tobytes()
    assert solve_spectrum(bc, 2.0).E.tobytes() == solve_spectrum(bc, 2).E.tobytes()


def test_per_row_depths_take_one_integer_per_eigenphase():
    # A sequence n holds one depth per eigenphase, each an integer of at
    # least 1; a whole float counts as its integer, and empty eigenphases
    # give empty rows.
    for n in ([2, 2.5], [2, 0], [2, math.nan], [2, math.inf], [2], [2, 2, 2]):
        with pytest.raises(ValueError, match="^n must hold one integer of at least 1 per eigenphase$"):
            solve_channels([5.5, 1.0], n)
    rows = solve_channels([5.5, 1.0], [2.0, 3])
    assert rows.E[:, :2].tobytes() == solve_channels([5.5, 1.0], 2).E.tobytes()
    assert np.isnan(rows.E[0, 2]) and not np.isnan(rows.E[1, 2])
    for n in (3, []):
        rows = solve_channels([], n)
        assert rows.E.shape[0] == rows.k_or_kappa.shape[0] == rows.label.size == 0


def _threshold_theta(l, L0):
    # The eigenphase in (pi, 2 pi) where T = l sin(theta/2) + L0 cos(theta/2) = 0.
    return TWO_PI - 2.0 * math.atan(L0 / l)


@given(
    st.one_of(
        st.tuples(st.just("at"), st.sampled_from([0.0, math.pi, math.nextafter(TWO_PI, 0.0)])),
        st.tuples(st.just("threshold"), st.floats(-1e-9, 1e-9)),
        st.tuples(st.just("at"), st.floats(0.0, TWO_PI, exclude_max=True)),
    ),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.integers(1, 2000),
)
def test_branch_estimate_lies_within_one_cell_of_the_root(where, log_l, log_L0, n):
    # Three steps of the branch equation from the centre of a half-branch
    # put kl within one grid cell of the refined root of its label m >= 1:
    # at theta = 0, pi and 2 pi-, where roots sit on the ends of their
    # half-branches, within delta of the threshold T = 0, and anywhere
    # between.
    l, L0 = 10.0 ** log_l, 10.0 ** log_L0
    kind, value = where
    theta = value if kind == "at" else _threshold_theta(l, L0) + value
    rows = solve_channels([theta], n, l, L0)
    s2, c2 = _half_angle(theta % TWO_PI)
    first = int(rows.label[0] == 0)  # a level below label 1
    x = rows.k_or_kappa[0, first:] * l
    m = np.rint((x + np.arctan2(x * L0 * c2, l * s2)) / math.pi).astype(np.intp)
    # The p-th level from label 1 on carries label 1 + p.
    assert (m == 1 + np.arange(m.size)).all()
    estimate = spectrum._branch_estimate(m, np.full(m.size, s2), np.full(m.size, c2), l, L0)
    assert np.abs(estimate - x).max(initial=0.0) <= math.pi / GRID_DENSITY


def test_threshold_root_falls_monotonically_onto_every_root(monkeypatch):
    # Newton's method on the level below label 1 starts at or above its
    # root and falls onto it: every evaluation is at a smaller x than the
    # last, and the root is where the first step that does not fall
    # starts.  A dense set of roots x* of each kind, with b = 1 and a = -t:
    # the bound level's tanh(x*) / x* = t across (0, KAPPA_CEILING), label
    # 0's tan(x*) / x* = t across (0, pi / 2), both down to 1e-7 from the
    # threshold t = 1.  Each takes at most 8 steps, 9 evaluations.
    visited = []

    def record(f):
        return lambda x: (visited.append(x), f(x))[1]

    monkeypatch.setattr(spectrum, "math", SimpleNamespace(
        pi=math.pi, sqrt=math.sqrt, cos=math.cos, tanh=record(math.tanh), sin=record(math.sin),
    ))
    small = np.geomspace(1e-7, 0.1, 1000)
    for bound, x, t in (
        (True, np.concatenate([small, np.linspace(0.1, 49.9, 2000)]), np.tanh),
        (False, np.concatenate([small, np.linspace(0.1, math.pi / 2, 1000)]), np.tan),
    ):
        for a in (-t(x) / x).tolist():
            visited.clear()
            root = spectrum._threshold_root(a, 1.0, bound)
            assert root == visited[-1]
            assert (np.diff(visited) < 0.0).all() and len(visited) <= 9


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=40)
def test_a_level_of_one_branch_label_rises_monotonically_in_theta(log_l, log_L0):
    # Each channel's levels rise monotonically in theta, label by label: a
    # level of label m >= 1 from kl = (m - 1/2) pi at theta = 0 to
    # (m + 1/2) pi at 2 pi, and label 0 from the bound level at the floor
    # through E = 0 at the threshold to the positive root below kl = pi / 2.
    # The labels are ChannelRows.label's, level j of row r carrying
    # label[r] + j, so this also witnesses the labels the solver places.
    l, L0 = 10.0 ** log_l, 10.0 ** log_L0
    # 801 eigenphases in (0, 2 pi), and the threshold with one eigenphase
    # on each side of it, a thousandth of its distance to 2 pi away.
    near = _threshold_theta(l, L0) + (TWO_PI - _threshold_theta(l, L0)) * np.array([-1e-3, 0.0, 1e-3])
    theta = np.sort(np.concatenate([np.linspace(0.0, TWO_PI, 803)[1:-1], near]))
    n = 6
    rows = solve_channels(theta.tolist(), n, l, L0)
    label = rows.label[:, None] + np.arange(n)
    for m in range(5):
        E = rows.E[label == m]  # in the order of theta
        assert E.size and (np.diff(E) >= 0.0).all()
    # Near the threshold label 0 is a bound level below it and a positive
    # one past it.
    E0 = rows.E[label == 0]
    assert E0[0] < 0.0 < E0[-1]
