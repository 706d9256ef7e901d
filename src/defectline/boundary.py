"""Connection condition at the defect and explicit eigenfunctions on the box.

The particle lives on [-l, l] with hard walls at both ends and a point defect
at x = 0.  One-sided boundary data at the defect is collected into two-vectors

    phi  = (phi(0+), phi(0-)),
    dphi = (-phi'(0+), phi'(0-)),

i.e. the derivatives are taken in the direction pointing *toward* the defect
from each side.  A defect matrix U in U(2) selects a self-adjoint Hamiltonian
through the connection condition

    (U - I) phi + i L0 (U + I) dphi = 0,

where L0 is a fixed unit of length.  Eigenfunctions are built from the
wall-anchored basis psi_-(x) = sin(k(x+l)) on the left and
psi_+(x) = sin(k(x-l)) on the right (sinh for bound states, linear for the
zero-energy level), so the Dirichlet walls hold exactly and the connection
condition becomes a 2x2 linear system M(k) a = 0 for the amplitude pair
a = (ampR, ampL), which a column of U's eigenframe solves exactly.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotAnEigenvalue, NotUnitary, OutOfDomain, SolverError
from .levels import _EPS, CHANNEL_MINUS, KIND_BOUND, KIND_POSITIVE, KIND_ZERO, EigenLevel, _box
from .unitary import UnitaryParams, frame_matrix, is_unitary, matrix_to_params

__all__ = [
    "BoundaryCondition",
    "BoundaryVectors",
    "Eigenfunction",
    "boundary_residual",
    "current_mismatch",
    "build_eigenfunction",
    "level_eigenbasis",
    "reflect",
    "sample_eigenfunction",
]

_I2 = np.eye(2, dtype=complex)

# Relative tolerance on a level's channel factor |c_j| (see level_eigenbasis)
# below which its k is accepted as an eigenvalue.
EIGEN_TOL = 1e-6


@dataclass(frozen=True)
class BoundaryCondition:
    """A physical system: defect matrix ``u``, half-width ``l``, length unit ``L0``."""

    u: np.ndarray
    l: float = 1.0
    L0: float = 1.0

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=complex)
        if not is_unitary(u):
            raise NotUnitary("defect matrix is not unitary within 1e-10")
        l, L0 = _box(self.l, self.L0)
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "L0", L0)

    @functools.cached_property
    def params(self) -> UnitaryParams:
        # U's eigenphases and eigenframe, read only by solvers that diagonalize U.
        return matrix_to_params(self.u)


@dataclass(frozen=True)
class BoundaryVectors:
    """One-sided boundary data: values ``phi`` and toward-defect derivatives ``dphi``.

    Component order is (0+ side, 0- side) in both vectors; the sign adjustment
    on ``dphi`` is described in the module docstring.
    """

    phi: np.ndarray
    dphi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("phi", "dphi"):
            v = np.asarray(getattr(self, name), dtype=complex)
            if v.shape != (2,):
                raise ValueError(f"{name} must be a complex 2-vector")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must have finite entries")
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Eigenfunction:
    """A normalized piecewise eigenfunction of the box with one defect.

    The function is ``ampL * b(k, x + l)`` on (-l, 0) and ``ampR * b(k, x - l)``
    on (0, l), where the basis profile b is sin(k*.) for kind "positive",
    sinh(k*.) for kind "bound" (k then stores kappa), and the identity (x -> x)
    for kind "zero".  Amplitudes are stored already normalized to unit L2 norm;
    ``norm`` records the L2 norm of the piecewise function built from the
    unit-norm amplitude pair, i.e. the constant divided out during
    normalization.  ``degenerate`` marks a level that its solver paired with
    a level of the other channel (levels.degenerate_partners): within
    1e-10 (1 + max |E|) in E, absolute below |E| of about 1.
    """

    kind: str
    k: float
    l: float
    ampL: complex
    ampR: complex
    norm: float
    degenerate: bool = False

    def boundary_vectors(self) -> BoundaryVectors:
        """Boundary data (phi, dphi) of this eigenfunction at the defect."""
        val, der = _basis_boundary_data(self.kind, self.k, self.l)
        phi = np.array([-self.ampR * val, self.ampL * val])
        dphi = np.array([-self.ampR * der, self.ampL * der])
        return BoundaryVectors(phi=phi, dphi=dphi)


def _witness(name: str, value: float) -> float:
    # A witness that does not fit a double says nothing: a typed error, not NaN.
    if not math.isfinite(value):
        raise SolverError(f"the {name} of these boundary data overflows a double")
    return value


def boundary_residual(bc: BoundaryCondition, v: BoundaryVectors) -> float:
    """2-norm of (U - I) phi + i L0 (U + I) dphi; zero iff v satisfies the condition.

    Raises SolverError where it overflows a double, as L0 dphi may on a box
    of huge L0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = (bc.u - _I2) @ v.phi + 1j * bc.L0 * (bc.u + _I2) @ v.dphi
        return _witness("boundary residual", float(np.linalg.norm(r)))


def current_mismatch(v: BoundaryVectors) -> float:
    """Probability-current jump |dphi^dag phi - phi^dag dphi| across the defect.

    Vanishes for any v satisfying the connection condition with unitary U;
    the absolute value makes the result independent of the derivative sign
    convention.  Raises SolverError where it overflows a double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _witness("current mismatch", float(abs(np.vdot(v.dphi, v.phi) - np.vdot(v.phi, v.dphi))))


def _basis_boundary_data(kind: str, k: float, l: float) -> tuple[float, float]:
    # (val, der) with psi_+(0) = -val, psi_+'(0) = der, psi_-(0) = val,
    # psi_-'(0) = der for the wall-anchored basis pair of the given kind.
    if kind == KIND_POSITIVE:
        return math.sin(k * l), k * math.cos(k * l)
    if kind == KIND_BOUND:
        return math.sinh(k * l), k * math.cosh(k * l)
    if kind == KIND_ZERO:
        return l, 1.0
    raise ValueError(f"unknown eigenfunction kind {kind!r}")


def _one_side_norm_sq(kind: str, k: float, l: float) -> float:
    # Integral of the squared basis profile over one half of the box.
    if kind == KIND_POSITIVE:
        return l / 2.0 - math.sin(2.0 * k * l) / (4.0 * k)
    if kind == KIND_BOUND:
        return math.sinh(2.0 * k * l) / (4.0 * k) - l / 2.0
    if kind == KIND_ZERO:
        return l ** 3 / 3.0
    raise ValueError(f"unknown eigenfunction kind {kind!r}")


def _canonical_phase(a: np.ndarray) -> np.ndarray:
    # Rotate a 2-vector so its largest-modulus component is real positive.
    j = int(np.argmax(np.abs(a)))
    mag = abs(a[j])
    if mag == 0.0:
        return a
    return a * (mag / a[j])


def _finish(kind: str, k: float, l: float, amp: np.ndarray, degenerate: bool) -> Eigenfunction:
    try:
        eta = _one_side_norm_sq(kind, k, l)
    except OverflowError:  # l ** 3 of a zero-energy level
        eta = math.inf
    if not 0.0 < eta < math.inf:
        raise SolverError(f"the {kind!r} eigenfunction on l={l!r} has no finite nonzero norm")
    amp = _canonical_phase(amp / np.linalg.norm(amp))
    norm = math.sqrt(eta)
    amp = amp / norm
    return Eigenfunction(
        kind=kind,
        k=k,
        l=l,
        ampL=complex(amp[1]),
        ampR=complex(amp[0]),
        norm=norm,
        degenerate=degenerate,
    )


def level_eigenbasis(bc: BoundaryCondition, level: EigenLevel) -> tuple[Eigenfunction, ...]:
    """All eigenfunctions of a level: one, or an orthonormal pair for a level
    its solver paired (``degenerate_with``), its own channel's first.

    With flip = diag(-1, 1) and v_j the column of V^dagger of eigenphase
    theta_j, M(k) flip v_j = c_j v_j with c_j = val (e^{i theta_j} - 1) +
    i L0 der (e^{i theta_j} + 1) = 2 i e^{i theta_j / 2} times channel j's
    F, G or T.  So a level takes flip v_j of its channel, or, for a det level
    of no channel, of the smaller |c_j|.  Raises NotAnEigenvalue when that
    |c_j| exceeds EIGEN_TOL (1 + |val| + L0 |der|) + 2 eps k (l + L0 (1 + kl)).

    The second term is what the rounding of k itself costs.  A root's double
    k lies about eps k from the root, and the product kl rounds by as much
    again, so sin(kl) is known to about eps kl and L0 der = L0 k cos(kl) to
    about eps L0 k (1 + kl); each enters c_j with a factor of modulus at
    most 2.  Near kl = pi/2 der is near 0, so where L0 k l is large this
    term, about 2 eps L0 k^2 l, far exceeds EIGEN_TOL L0 |der|.  For a bound
    level sinh and cosh scale both errors by at most cosh(kappa l), which
    the EIGEN_TOL term holds below the kappa l = 50 floor; the zero-energy
    level has k = 0 and no such error.
    """
    kind, k = level.kind, level.k_or_kappa
    val, der = _basis_boundary_data(kind, k, bc.l)
    p = bc.params
    c = [
        abs(val * (w - 1.0) + 1j * bc.L0 * der * (w + 1.0))
        for w in (cmath.exp(1j * p.theta_plus), cmath.exp(1j * p.theta_minus))
    ]
    j = int(c[1] < c[0]) if level.channel is None else int(level.channel == CHANNEL_MINUS)
    rounding = 2.0 * _EPS * k * (bc.l + bc.L0 * (1.0 + k * bc.l))
    if c[j] > EIGEN_TOL * (1.0 + abs(val) + bc.L0 * abs(der)) + rounding:
        raise NotAnEigenvalue(f"k={k!r} is not an eigenvalue of this system (kind {kind!r})")
    vdag = frame_matrix(p).conj().T
    flip = np.array([[-1.0, 0.0], [0.0, 1.0]])
    degenerate = level.degenerate_with is not None
    order = (j, 1 - j) if degenerate else (j,)
    return tuple(_finish(kind, k, bc.l, flip @ vdag[:, i], degenerate) for i in order)


def build_eigenfunction(bc: BoundaryCondition, level: EigenLevel) -> Eigenfunction:
    """The eigenfunction of a level (first of the canonical pair if degenerate)."""
    return level_eigenbasis(bc, level)[0]


def reflect(f: Eigenfunction) -> Eigenfunction:
    """The spatial reflection x -> -x of an eigenfunction.

    All basis profiles are odd around their wall anchor, so reflection swaps
    and negates the two amplitudes.  If f solves the system with matrix U, the
    result solves the system with sigma1 U sigma1 at the same energy.
    """
    return replace(f, ampL=-f.ampR, ampR=-f.ampL)


def _profile(kind: str, k: float, arg: np.ndarray) -> np.ndarray:
    if kind == KIND_POSITIVE:
        return np.sin(k * arg)
    if kind == KIND_BOUND:
        return np.sinh(k * arg)
    if kind == KIND_ZERO:
        return arg
    raise ValueError(f"unknown eigenfunction kind {kind!r}")


def sample_eigenfunction(f: Eigenfunction, grid) -> np.ndarray:
    """Pointwise values of f on positions in [-l, l] \\ {0}.

    Values at the walls are exactly zero.  Raises OutOfDomain for positions
    outside the box or at the excluded defect point x = 0.
    """
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1:
        x = np.atleast_1d(x)
    if np.any(np.abs(x) > f.l):
        raise OutOfDomain("sample positions must lie in [-l, l]")
    if np.any(x == 0.0):
        raise OutOfDomain("x = 0 is the excluded defect point")
    out = np.empty(x.shape, dtype=complex)
    left = x < 0.0
    out[left] = f.ampL * _profile(f.kind, f.k, x[left] + f.l)
    out[~left] = f.ampR * _profile(f.kind, f.k, x[~left] - f.l)
    return out
