"""Tests for the U(2) parametrization layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defectline import (
    BadDirection,
    NotUnitary,
    UnitaryParams,
    frame_matrix,
    is_unitary,
    matrix_to_params,
    params_to_matrix,
    parity_conjugate,
    sigma_v,
)
from defectline.unitary import SIGMA1, SIGMA2, SIGMA3

from helpers import random_unitary, rotation_y, rotation_z, taylor_expm

TWO_PI = 2.0 * math.pi


def test_pauli_algebra():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k, all nine pairs.
    sigmas = (SIGMA1, SIGMA2, SIGMA3)
    eye = np.eye(2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for j in range(3):
            expected = (i == j) * eye + 1j * sum(
                eps[i, j, k] * sigmas[k] for k in range(3)
            )
            assert np.max(np.abs(sigmas[i] @ sigmas[j] - expected)) <= 1e-14


def test_pauli_hermitian_unitary_traceless():
    for s in (SIGMA1, SIGMA2, SIGMA3):
        assert np.max(np.abs(s - s.conj().T)) == 0.0
        assert np.max(np.abs(s @ s - np.eye(2))) == 0.0
        assert abs(np.trace(s)) == 0.0


def test_params_to_matrix_special_points():
    ident = params_to_matrix(UnitaryParams(0.0, 0.0))
    assert np.max(np.abs(ident - np.eye(2))) <= 1e-12
    # xi = pi, rho = 0 gives -I for any frame angles.
    minus = params_to_matrix(UnitaryParams(math.pi, 0.0, 1.234, 5.432))
    assert np.max(np.abs(minus + np.eye(2))) <= 1e-12


def test_params_to_matrix_against_taylor_exponential():
    # Worked example: xi = rho = mu = pi/2, nu = 0 built from first
    # principles with a Taylor-series matrix exponential.
    p = UnitaryParams(math.pi / 2, math.pi / 2, math.pi / 2, 0.0)
    d = cmath.exp(1j * p.xi) * taylor_expm(1j * p.rho * SIGMA3)
    v = rotation_y(p.mu) @ rotation_z(p.nu)
    expected = v.conj().T @ d @ v
    assert np.max(np.abs(params_to_matrix(p) - expected)) <= 1e-12
    # That point works out to -sigma1.
    assert np.max(np.abs(params_to_matrix(p) + SIGMA1)) <= 1e-12


def test_params_to_matrix_matches_exponential_randomly():
    rng = np.random.default_rng(101)
    for _ in range(30):
        xi, rho, mu, nu = rng.uniform(0.0, TWO_PI, 4)
        p = UnitaryParams(xi, rho, mu, nu)
        d = cmath.exp(1j * xi) * taylor_expm(1j * rho * SIGMA3)
        v = rotation_y(mu) @ rotation_z(nu)
        expected = v.conj().T @ d @ v
        assert np.max(np.abs(params_to_matrix(p) - expected)) <= 1e-12


def test_construction_is_unitary_with_channel_eigenvalues():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
        u = params_to_matrix(p)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
        eig = np.linalg.eigvals(u)
        expected = {cmath.exp(1j * p.theta_plus), cmath.exp(1j * p.theta_minus)}
        for lam in eig:
            assert min(abs(lam - e) for e in expected) <= 1e-10


def test_matrix_to_params_examples():
    p = matrix_to_params(np.eye(2, dtype=complex))
    assert (p.xi, p.rho, p.mu, p.nu) == (0.0, 0.0, 0.0, 0.0)

    d = np.diag([cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)])
    p = matrix_to_params(d)
    assert abs(p.xi) <= 1e-12
    assert abs(p.rho - math.pi / 3) <= 1e-12
    assert p.mu == 0.0 and p.nu == 0.0


def test_matrix_to_params_canonical_ranges():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = matrix_to_params(random_unitary(rng))
        assert 0.0 <= p.xi < TWO_PI
        assert 0.0 <= p.rho <= math.pi
        assert 0.0 <= p.mu <= math.pi
        assert 0.0 <= p.nu < TWO_PI


def test_round_trip_from_params():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
        u = params_to_matrix(p)
        u2 = params_to_matrix(matrix_to_params(u))
        assert np.max(np.abs(u - u2)) <= 1e-12


def test_round_trip_from_matrix():
    rng = np.random.default_rng(29)
    for _ in range(100):
        u = random_unitary(rng)
        u2 = params_to_matrix(matrix_to_params(u))
        assert np.max(np.abs(u - u2)) <= 1e-10


@given(
    st.floats(-12.0, -2.0).map(lambda e: 10.0**e), st.booleans(), st.floats(0.1, 3.0),
    st.floats(0.0, math.pi), st.floats(0.0, TWO_PI),
)
def test_rho_near_zero_and_pi_round_trips_to_the_last_bits(r, near_pi, xi, mu, nu):
    # acos of the half trace lost rho here: 1e-7 came back up to 1e-2 off
    # (relative) and 1e-9 came back as 0.
    rho = math.pi - r if near_pi else r
    p = matrix_to_params(params_to_matrix(UnitaryParams(xi, rho, mu, nu)))
    assert abs(p.rho - rho) <= 1e-14


def test_matrix_to_params_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        matrix_to_params(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(NotUnitary):
        matrix_to_params(1.0000001 * np.eye(2))


def test_is_unitary_tolerance():
    assert is_unitary(np.eye(2))
    assert not is_unitary(np.eye(3))
    assert is_unitary((1.0 + 4e-11) * np.eye(2))  # deviation 2*eps = 8e-11
    assert not is_unitary((1.0 + 5e-9) * np.eye(2))


def test_frame_matrix_is_special_unitary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = UnitaryParams(0.0, 0.0, *rng.uniform(0.0, TWO_PI, 2))
        v = frame_matrix(p)
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-12
        assert abs(np.linalg.det(v) - 1.0) <= 1e-12


def test_sigma_v_properties():
    rng = np.random.default_rng(37)
    assert np.max(np.abs(sigma_v(UnitaryParams(0.0, 0.0)) - SIGMA3)) <= 1e-12
    for _ in range(50):
        p = UnitaryParams(*rng.uniform(0.0, TWO_PI, 4))
        s = sigma_v(p)
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12          # Hermitian
        assert np.max(np.abs(s @ s - np.eye(2))) <= 1e-12       # involutive
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) <= 1e-12  # unitary
        # sigma_V conjugates the diagonal part into the full matrix.
        d = params_to_matrix(UnitaryParams(p.xi, p.rho))
        assert np.max(np.abs(s @ d @ s - params_to_matrix(p))) <= 1e-12


def test_sigma_v_bloch_vector_form():
    rng = np.random.default_rng(41)
    for _ in range(20):
        mu, nu = rng.uniform(0.0, TWO_PI, 2)
        p = UnitaryParams(0.0, 0.0, mu, nu)
        direct = (
            math.sin(mu / 2) * (math.cos(nu) * SIGMA1 + math.sin(nu) * SIGMA2)
            + math.cos(mu / 2) * SIGMA3
        )
        assert np.max(np.abs(sigma_v(p) - direct)) <= 1e-12


def test_parity_conjugate_examples():
    u = params_to_matrix(UnitaryParams(0.3, 1.1, 0.0, 0.0))  # diagonal
    swapped = parity_conjugate(u, (1.0, 0.0, 0.0))
    assert np.max(np.abs(swapped - np.diag([u[1, 1], u[0, 0]]))) <= 1e-12
    same = parity_conjugate(u, (0.0, 0.0, 1.0))
    assert np.max(np.abs(same - u)) <= 1e-12
    assert np.max(np.abs(parity_conjugate(np.eye(2), (0.0, 1.0, 0.0)) - np.eye(2))) <= 1e-12


def test_parity_conjugate_is_involution_preserving_trace_det():
    rng = np.random.default_rng(43)
    for _ in range(50):
        u = random_unitary(rng)
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        w = parity_conjugate(u, c)
        assert is_unitary(w, 1e-10)
        assert abs(np.trace(w) - np.trace(u)) <= 1e-12
        assert abs(np.linalg.det(w) - np.linalg.det(u)) <= 1e-12
        back = parity_conjugate(w, c)
        assert np.max(np.abs(back - u)) <= 1e-12


def test_parity_conjugate_validation():
    u = np.eye(2, dtype=complex)
    with pytest.raises(BadDirection):
        parity_conjugate(u, (1.0, 1.0, 0.0))  # not unit
    with pytest.raises(BadDirection):
        parity_conjugate(u, (1.0, 0.0))  # wrong shape
    with pytest.raises(BadDirection):
        parity_conjugate(u, (math.nan, 0.0, 0.0))
    with pytest.raises(NotUnitary):
        parity_conjugate(np.ones((2, 2)), (0.0, 0.0, 1.0))


def test_unitary_params_rejects_non_finite():
    with pytest.raises(ValueError):
        UnitaryParams(math.inf, 0.0)
    with pytest.raises(ValueError):
        UnitaryParams(0.0, math.nan)


def test_theta_properties_reduce_modulo_two_pi():
    p = UnitaryParams(5.0, 4.0)
    assert abs(p.theta_plus - (9.0 % TWO_PI)) <= 1e-15
    assert abs(p.theta_minus - (1.0 % TWO_PI)) <= 1e-15
