"""Tests for boundary data, the connection condition, and eigenfunctions."""

import math

import numpy as np
import pytest

from defectline import (
    BoundaryCondition,
    BoundaryVectors,
    NotAnEigenvalue,
    NotUnitary,
    OutOfDomain,
    UnitaryParams,
    boundary_residual,
    build_eigenfunction,
    current_mismatch,
    det_spectrum,
    level_eigenbasis,
    params_to_matrix,
    reflect,
    sample_eigenfunction,
    solve_spectrum,
)
from defectline import boundary
from defectline.spectrum import EigenLevel
from defectline.unitary import SIGMA1

from helpers import connection_matrix, l2_inner

TWO_PI = 2.0 * math.pi


def _random_bc(rng) -> BoundaryCondition:
    p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
    return BoundaryCondition(params_to_matrix(p), 1.0, 1.0)


def _sampler(f):
    return lambda x: sample_eigenfunction(f, x)


# ---------------------------------------------------------------- residual


def test_residual_dirichlet_defect():
    # U = -I forces phi = 0 and leaves the derivatives free.
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    v = BoundaryVectors(phi=(0.0, 0.0), dphi=(1.0, 1.0))
    assert boundary_residual(bc, v) == 0.0


def test_residual_neumann_defect():
    # U = +I forces dphi = 0 and leaves the values free.
    bc = BoundaryCondition(np.eye(2, dtype=complex))
    v = BoundaryVectors(phi=(1.0, 1.0), dphi=(0.0, 0.0))
    assert boundary_residual(bc, v) == 0.0


def test_residual_matches_longhand_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        bc = _random_bc(rng)
        raw = rng.normal(size=8)
        v = BoundaryVectors(
            phi=(raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]),
            dphi=(raw[4] + 1j * raw[5], raw[6] + 1j * raw[7]),
        )
        u = bc.u
        r0 = (u[0, 0] - 1) * v.phi[0] + u[0, 1] * v.phi[1]
        r0 += 1j * bc.L0 * ((u[0, 0] + 1) * v.dphi[0] + u[0, 1] * v.dphi[1])
        r1 = u[1, 0] * v.phi[0] + (u[1, 1] - 1) * v.phi[1]
        r1 += 1j * bc.L0 * (u[1, 0] * v.dphi[0] + (u[1, 1] + 1) * v.dphi[1])
        longhand = math.sqrt(abs(r0) ** 2 + abs(r1) ** 2)
        assert abs(boundary_residual(bc, v) - longhand) <= 1e-14


# ---------------------------------------------------------------- mismatch


def test_current_mismatch_examples():
    assert current_mismatch(BoundaryVectors(phi=(1.0, 0.0), dphi=(0.0, 0.0))) == 0.0
    # phi = (1,0), dphi = (i,0): the current jump is exactly 2.
    v = BoundaryVectors(phi=(1.0, 0.0), dphi=(1j, 0.0))
    assert abs(current_mismatch(v) - 2.0) <= 1e-15


def test_mismatch_controlled_by_residual():
    # For unit-norm boundary data the current jump never exceeds ten times
    # the connection residual (empirically it stays below ~1).
    rng = np.random.default_rng(17)
    for _ in range(300):
        bc = _random_bc(rng)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        v = BoundaryVectors(phi=raw[:2], dphi=raw[2:])
        assert current_mismatch(v) <= 10.0 * boundary_residual(bc, v) + 1e-14


# ------------------------------------------------------- eigenfunction build


def test_eigenfunction_postconditions_random_systems():
    rng = np.random.default_rng(71)
    for _ in range(12):
        bc = _random_bc(rng)
        for level in solve_spectrum(bc, 5).levels:
            f = build_eigenfunction(bc, level)
            v = f.boundary_vectors()
            k = level.k_or_kappa
            assert boundary_residual(bc, v) <= 1e-8 * (1.0 + k)
            assert current_mismatch(v) <= 1e-10
            # unit L2 norm
            nrm = l2_inner(_sampler(f), _sampler(f))
            assert abs(nrm - 1.0) <= 1e-10


def test_boundary_vectors_match_analytic_limits():
    # phi = (phi(0+), phi(0-)), dphi = (-phi'(0+), phi'(0-)): check against
    # hand-evaluated one-sided data of the sin profile.
    bc = _random_bc(np.random.default_rng(5))
    level = solve_spectrum(bc, 3).levels[-1]
    assert level.kind == "positive"
    f = build_eigenfunction(bc, level)
    v = f.boundary_vectors()
    k, l = f.k, f.l
    phi_right = f.ampR * math.sin(-k * l)           # lim x->0+ of ampR sin(k(x-l))
    phi_left = f.ampL * math.sin(k * l)             # lim x->0- of ampL sin(k(x+l))
    dphi_right = -f.ampR * k * math.cos(k * l)      # -phi'(0+)
    dphi_left = f.ampL * k * math.cos(k * l)        # +phi'(0-)
    assert abs(v.phi[0] - phi_right) <= 1e-12
    assert abs(v.phi[1] - phi_left) <= 1e-12
    assert abs(v.dphi[0] - dphi_right) <= 1e-12
    assert abs(v.dphi[1] - dphi_left) <= 1e-12


def test_dirichlet_point_values_vanish():
    # U = -I, k = pi: the wavefunction vanishes at the defect from both sides.
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    level = solve_spectrum(bc, 2).levels[0]
    assert abs(level.E - math.pi ** 2) <= 1e-10
    for f in level_eigenbasis(bc, level):
        v = f.boundary_vectors()
        assert np.max(np.abs(v.phi)) <= 1e-10
        near = sample_eigenfunction(f, [-1e-9, 1e-9])
        assert np.max(np.abs(near)) <= 1e-8


def test_neumann_pair_at_first_level():
    # U = +I, k = pi/2: derivatives vanish at the defect; the canonical pair
    # is orthonormal and each member solves the connection condition.
    bc = BoundaryCondition(np.eye(2, dtype=complex))
    level = solve_spectrum(bc, 2).levels[0]
    assert abs(level.E - (math.pi / 2) ** 2) <= 1e-12
    pair = level_eigenbasis(bc, level)
    assert len(pair) == 2
    for f in pair:
        assert f.degenerate
        v = f.boundary_vectors()
        assert np.max(np.abs(v.dphi)) <= 1e-10
        assert boundary_residual(bc, v) <= 1e-8
    gram = np.array(
        [[l2_inner(_sampler(a), _sampler(b)) for b in pair] for a in pair]
    )
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


def test_degenerate_pair_orthonormal_generic_phase():
    # Degenerate level away from the U = +-I corners.
    bc = BoundaryCondition(np.exp(0.9j) * np.eye(2, dtype=complex))
    level = solve_spectrum(bc, 2).levels[0]
    assert level.degenerate_with is not None
    pair = level_eigenbasis(bc, level)
    assert len(pair) == 2
    gram = np.array(
        [[l2_inner(_sampler(a), _sampler(b)) for b in pair] for a in pair]
    )
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10
    for f in pair:
        assert boundary_residual(bc, f.boundary_vectors()) <= 1e-8


def test_det_levels_take_the_column_of_the_smaller_channel_factor():
    # A det level names no channel.  At a generic defect its eigenfunction
    # solves the connection condition; at rho = 0 its pair is orthonormal.
    rng = np.random.default_rng(41)
    for _ in range(6):
        bc = _random_bc(rng)
        for level in det_spectrum(bc, 5).levels:
            f = level_eigenbasis(bc, level)[0]
            assert boundary_residual(bc, f.boundary_vectors()) <= 1e-8 * (1.0 + level.k_or_kappa)
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(2.0, 0.0)), l=1.3, L0=0.6)
    for level in det_spectrum(bc, 4).levels:
        pair = level_eigenbasis(bc, level)
        assert len(pair) == 2
        gram = np.array(
            [[l2_inner(_sampler(a), _sampler(b), l=1.3) for b in pair] for a in pair]
        )
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10


def test_bound_state_eigenfunction():
    # theta = 3pi/2 - 0.4 in both channels has one bound level each.
    t = 3 * math.pi / 2 - 0.4
    bc = BoundaryCondition(params_to_matrix(UnitaryParams(t, 0.0)))
    level = solve_spectrum(bc, 1).levels[0]
    assert level.kind == "bound"
    f = build_eigenfunction(bc, level)
    assert boundary_residual(bc, f.boundary_vectors()) <= 1e-8
    assert abs(l2_inner(_sampler(f), _sampler(f)) - 1.0) <= 1e-10
    # profile really is sinh-shaped: check one sampled point longhand
    x = 0.37
    expected = f.ampR * math.sinh(f.k * (x - f.l))
    assert abs(sample_eigenfunction(f, [x])[0] - expected) <= 1e-13


def test_orthogonality_distinct_levels():
    rng = np.random.default_rng(19)
    for _ in range(6):
        bc = _random_bc(rng)
        levels = solve_spectrum(bc, 5).levels
        fs = [build_eigenfunction(bc, lv) for lv in levels]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if abs(levels[i].E - levels[j].E) < 1e-8:
                    continue
                assert abs(l2_inner(_sampler(fs[i]), _sampler(fs[j]))) <= 1e-8


def test_norm_on_trapezoid_grid():
    # Independent quadrature check: 1e4-point trapezoid per half box.
    bc = _random_bc(np.random.default_rng(23))
    level = solve_spectrum(bc, 2).levels[-1]
    f = build_eigenfunction(bc, level)
    total = 0.0
    for lo, hi in ((-f.l, -1e-9), (1e-9, f.l)):
        xs = np.linspace(lo, hi, 10_000)
        ys = np.abs(sample_eigenfunction(f, xs)) ** 2
        total += np.trapezoid(ys, xs)
    assert abs(total - 1.0) <= 1e-6


def test_not_an_eigenvalue():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    fake = EigenLevel(E=2.0, k_or_kappa=math.sqrt(2.0), kind="positive", channel=None, index=0)
    with pytest.raises(NotAnEigenvalue):
        build_eigenfunction(bc, fake)


def test_sample_eigenfunction_domain_and_walls():
    bc = BoundaryCondition(-np.eye(2, dtype=complex))
    f = build_eigenfunction(bc, solve_spectrum(bc, 1).levels[0])
    vals = sample_eigenfunction(f, [-1.0, -0.5, 0.5, 1.0])
    assert vals[0] == 0.0 and vals[-1] == 0.0  # walls exactly zero
    with pytest.raises(OutOfDomain):
        sample_eigenfunction(f, [0.0])
    with pytest.raises(OutOfDomain):
        sample_eigenfunction(f, [1.0 + 1e-9])
    with pytest.raises(OutOfDomain):
        sample_eigenfunction(f, [-2.0])


def test_one_sided_member_is_zero_on_dead_side():
    bc = BoundaryCondition(np.eye(2, dtype=complex))
    pair = level_eigenbasis(bc, solve_spectrum(bc, 1).levels[0])
    amps = sorted(pair, key=lambda f: abs(f.ampL))
    dead = amps[0]  # ampL ~ 0: lives on the right half only
    assert abs(dead.ampL) <= 1e-12
    assert np.max(np.abs(sample_eigenfunction(dead, np.linspace(-0.9, -0.1, 7)))) <= 1e-12


def test_reflection_solves_conjugated_system():
    rng = np.random.default_rng(29)
    for _ in range(10):
        bc = _random_bc(rng)
        bc_ref = BoundaryCondition(SIGMA1 @ bc.u @ SIGMA1, bc.l, bc.L0)
        for level in solve_spectrum(bc, 3).levels:
            g = reflect(build_eigenfunction(bc, level))
            assert boundary_residual(bc_ref, g.boundary_vectors()) <= 1e-8
        # reflection is an involution
        f = build_eigenfunction(bc, solve_spectrum(bc, 1).levels[0])
        h = reflect(reflect(f))
        assert (h.ampL, h.ampR, h.k, h.kind) == (f.ampL, f.ampR, f.k, f.kind)


def test_reflection_swaps_sampled_values():
    bc = _random_bc(np.random.default_rng(31))
    f = build_eigenfunction(bc, solve_spectrum(bc, 2).levels[-1])
    g = reflect(f)
    xs = np.linspace(0.05, 0.95, 11)
    # reflect(f)(x) = f(-x): the amplitude swap-and-negate cancels against
    # the odd wall-anchored profile.
    left = sample_eigenfunction(f, -xs)
    right = sample_eigenfunction(g, xs)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_connection_matrix_shape_and_column_signs():
    u = params_to_matrix(UnitaryParams(0.4, 1.2, 0.8, 0.1))
    m = connection_matrix(u, 1.0, 0.3, 0.7)
    a = (u - np.eye(2)) * 0.3 + 1j * (u + np.eye(2)) * 0.7
    expected = a.copy()
    expected[:, 0] *= -1.0
    assert np.max(np.abs(m - expected)) <= 1e-15


def test_validation_errors():
    with pytest.raises(NotUnitary):
        BoundaryCondition(np.ones((2, 2)))
    with pytest.raises(ValueError):
        BoundaryCondition(np.eye(2, dtype=complex), l=0.0)
    with pytest.raises(ValueError):
        BoundaryCondition(np.eye(2, dtype=complex), L0=-1.0)
    with pytest.raises(ValueError):
        BoundaryVectors(phi=(1.0, 2.0, 3.0), dphi=(0.0, 0.0))
    with pytest.raises(ValueError):
        BoundaryVectors(phi=(math.nan, 0.0), dphi=(0.0, 0.0))


def test_boundary_condition_geometry_variants():
    # Non-unit box and length scale: postconditions still hold.
    rng = np.random.default_rng(37)
    p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
    bc = BoundaryCondition(params_to_matrix(p), l=1.7, L0=0.35)
    for level in solve_spectrum(bc, 4).levels:
        f = build_eigenfunction(bc, level)
        v = f.boundary_vectors()
        assert boundary_residual(bc, v) <= 1e-8 * (1.0 + level.k_or_kappa)
        assert current_mismatch(v) <= 1e-10
        assert abs(l2_inner(_sampler(f), _sampler(f), l=1.7) - 1.0) <= 1e-10


def test_eigen_angles_are_computed_once_per_boundary_condition(monkeypatch):
    # solve_spectrum and level_eigenbasis read U's angles from bc.params,
    # which diagonalizes U on first use; det never reads them.
    calls = []
    matrix_to_params = boundary.matrix_to_params
    monkeypatch.setattr(boundary, "matrix_to_params", lambda u: calls.append(u) or matrix_to_params(u))
    bc = _random_bc(np.random.default_rng(41))
    det_spectrum(bc, 3)
    assert not calls
    spec = solve_spectrum(bc, 3)
    for level in spec.levels:
        level_eigenbasis(bc, level)
    assert len(calls) == 1
