"""The strong-weak coupling duality of the delta and epsilon defects.

A delta defect of strength v couples the even waves and leaves the odd
ones on the Dirichlet ladder (m pi / l)^2; an epsilon defect of strength u
couples the odd waves and leaves the even ones on the Neumann ladder
((m - 1/2) pi / l)^2.  Both coupled channels solve tan(kl) = -2k/v where
u = 4/v, so strong delta coupling is weak epsilon coupling: with its
uncoupled ladder removed, the spectrum of delta(v) is the spectrum of
epsilon(4/v).  Det and FD never diagonalize U, so their halves of the
check do not rest on the eigenphases the channel solver reads.  FD's
uncoupled Neumann levels are not the continuum's, so there every coupled
level of delta(v) is matched to a level of epsilon(4/v).
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from defectline import BoundaryCondition, det_spectrum, fd_spectrum, solve_spectrum
from helpers import delta_matrix, epsilon_matrix

N_LEVELS = 12

strengths = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0)).map(lambda p: p[0] * 10.0**p[1])
decades = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)


def _coupled(E, l, half):
    # E less the uncoupled ladder ((m - half) pi / l)^2, m = 1, 2, ...
    return _less(E, ((np.arange(1, E.size + 2) - half) * math.pi / l) ** 2)


def _less(E, ladder):
    # E less the ladder: every ladder level below the top of E is removed
    # exactly once.
    near = np.abs(E[:, None] - ladder) <= 1e-10 * ladder
    assert (near.sum(1) <= 1).all()
    assert (near.sum(0)[ladder < E[-1]] == 1).all()
    return E[~near.any(1)]


@given(strengths, decades, decades)
def test_delta_and_epsilon_spectra_are_dual(v, l, L0):
    # Within 1e-12 of |E|, or of 1 / l^2 where |E| is smaller.  A bound
    # level at kappa l = 50 is kept or dropped by U's last bits, which the
    # two matrices do not share, so the floor itself is not drawn: the
    # delta's bound level lies near kappa = -v / 2.
    assume(abs(v * l / 2.0 + 50.0) > 1e-6)
    delta = BoundaryCondition(delta_matrix(v, L0), l=l, L0=L0)
    epsilon = BoundaryCondition(epsilon_matrix(4.0 / v, L0), l=l, L0=L0)
    for solve in (det_spectrum, solve_spectrum):
        a = _coupled(solve(delta, N_LEVELS).E, l, 0.0)
        b = _coupled(solve(epsilon, N_LEVELS).E, l, 0.5)
        m = min(a.size, b.size)
        assert m >= N_LEVELS // 2 - 1
        scale = np.maximum(np.abs(a[:m]), 1.0 / l**2)
        assert (np.abs(a[:m] - b[:m]) <= 1e-12 * scale).all(), solve.__name__
    # The coupled levels are the roots of tan(kl) = -2k / v.
    E = a[0]
    k = math.sqrt(abs(E))
    if E > 0.0:
        residual, size = v * math.sin(k * l) + 2.0 * k * math.cos(k * l), abs(v) + 2.0 * k
    else:
        residual, size = v * math.tanh(k * l) + 2.0 * k, abs(v) + 2.0 * k
    assert abs(residual) <= 1e-9 * size


@given(strengths, decades, decades, st.sampled_from([64, 256]))
def test_fd_delta_and_epsilon_spectra_are_dual(v, l, L0, n_interior):
    # delta(v) less FD's own Dirichlet ladder, (2n sin(m pi / 2n) / l)^2:
    # each level below the top of epsilon(4/v)'s is one of those, within
    # 1e-12 of |E|, or of 1 / l^2 where |E| is smaller.
    assume(abs(v * l / 2.0 + 50.0) > 1e-6)
    delta = BoundaryCondition(delta_matrix(v, L0), l=l, L0=L0)
    epsilon = BoundaryCondition(epsilon_matrix(4.0 / v, L0), l=l, L0=L0)
    m = np.arange(1, N_LEVELS + 2)
    ladder = (2.0 * n_interior * np.sin(m * math.pi / (2.0 * n_interior)) / l) ** 2
    b = fd_spectrum(epsilon, N_LEVELS, n_interior).E
    a = _less(fd_spectrum(delta, N_LEVELS, n_interior).E, ladder)
    a = a[a < b[-1]]
    assert a.size >= N_LEVELS // 2 - 2
    scale = np.maximum(np.abs(a), 1.0 / l**2)
    assert (np.abs(a[:, None] - b).min(1) <= 1e-12 * scale).all()
