"""Property tests: each scalar residual returns its vector form's doubles.

The root refiners evaluate F/k, G/kappa and the projected determinant one
float at a time on scalar forms of the grid functions.  The printed levels
stay the same only while every scalar form returns exactly the double its
vector form returns, so these tests compare with ==, not with a tolerance,
over l and L0 across four decades and the edge regions: theta near 0 and pi,
the threshold T = 0, the kappa l = 50 floor and rho = 0 or pi.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from defectline import BoundaryCondition, UnitaryParams, params_to_matrix
from defectline.oracles import _projected_roots, _positive_det_abs, _positive_mult, _Projection
from defectline.spectrum import (
    GRID_DENSITY,
    KAPPA_CEILING,
    _brentq,
    _fhat,
    _fhat_scalar,
    _find_bound,
    _ghat,
    _ghat_scalar,
    _half_angle,
)

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
def channels(draw):
    """(theta, l, L0); one draw in four puts theta on the threshold T = 0."""
    l, L0 = draw(lengths), draw(lengths)
    if draw(st.integers(0, 3)) == 0:
        return 2.0 * math.atan2(L0, -l), l, L0  # sin(theta/2) l = -cos(theta/2) L0
    return draw(angles), l, L0


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
def test_find_bound_equals_brent_on_the_vector_form(ch):
    theta, l, L0 = ch
    s2, c2 = _half_angle(theta)
    cap = KAPPA_CEILING / l
    g = lambda kappa: float(_ghat(theta, l, L0, kappa))
    if c2 >= 0.0 or l * s2 + L0 * c2 <= 0.0 or g(cap) >= 0.0:
        expected = None
    else:
        expected = _brentq(g, 0.0, cap)
    assert _find_bound(theta, l, L0) == expected


@st.composite
def projections(draw):
    """A defect whose channels sit at draw(channels()) and theta_plus - 2 rho."""
    theta_plus, l, L0 = draw(channels())
    rho = draw(angles)
    p = UnitaryParams(
        xi=theta_plus - rho, rho=rho, mu=draw(st.floats(0.0, PI)), nu=draw(st.floats(0.0, TWO_PI))
    )
    return BoundaryCondition(params_to_matrix(p), l=l, L0=L0)


@given(projections(), seeds)
def test_projection_positive_scalar_equals_vector_form(bc, seed):
    proj = _Projection(bc)
    k = _points(seed, 60.0 * PI / bc.l)
    vec = proj.positive(k)
    scalar = [proj.positive_scalar(x) for x in k.tolist()]
    assert scalar == vec.tolist()
    assert scalar == [float(proj.positive(x)) for x in k.tolist()]


@given(projections())
def test_projected_roots_equal_with_either_residual(bc):
    proj = _Projection(bc)
    step = math.pi / (GRID_DENSITY * bc.l)
    grid = np.arange(0.0, 12.0 * math.pi / bc.l + step, step)
    vals = np.asarray(proj.positive(grid))
    args = (_positive_det_abs(bc, proj), _positive_mult(bc), False)
    scalar = _projected_roots(grid, vals, proj.positive, proj.positive_scalar, *args)
    vector = _projected_roots(grid, vals, proj.positive, proj.positive, *args)
    assert scalar == vector
