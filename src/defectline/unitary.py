"""Two-by-two unitary algebra for point-defect boundary conditions.

A point defect is labeled by a matrix U in U(2), written in the factorized
form

    U = V^{-1} D V,    D = e^{i xi} e^{i rho sigma3},
    V = e^{i (mu/2) sigma2} e^{i (nu/2) sigma3},

so that D carries the two eigenphases theta_pm = xi +- rho and V carries the
eigenframe.  This module provides the closed-form map between the four angles
and the matrix, its closed-form inverse (no iterative eigensolver), the
Hermitian involution sigma_V that implements the same conjugation as V, and
parity conjugation U -> sigma U sigma by a unit direction on the Bloch sphere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDirection, NotUnitary

__all__ = [
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "UnitaryParams",
    "is_unitary",
    "params_to_matrix",
    "matrix_to_params",
    "sigma_v",
    "parity_conjugate",
]

TWO_PI = 2.0 * math.pi

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

_IDENTITY = np.eye(2, dtype=complex)

# Tolerance tiers: constructions must close to 1e-12, external inputs are
# accepted up to 1e-10.
CONSTRUCTION_TOL = 1e-12
INPUT_TOL = 1e-10

# matrix_to_params takes rho = acos(cos rho) while |cos rho| is at most this,
# that is while rho is at least 0.14 from 0 and from pi, where acos errs by
# under 1e-15.
_ACOS_MAX = 0.99


@dataclass(frozen=True)
class UnitaryParams:
    """Angles (xi, rho, mu, nu) labeling a U(2) defect matrix.

    Canonical ranges are xi in [0, 2pi), rho in [0, pi], mu in [0, pi],
    nu in [0, 2pi); ``params_to_matrix`` accepts any finite angles, while
    ``matrix_to_params`` always returns canonical ones.
    """

    xi: float
    rho: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self) -> None:
        for name in ("xi", "rho", "mu", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def theta_plus(self) -> float:
        """Eigenphase xi + rho reduced into [0, 2pi)."""
        return (self.xi + self.rho) % TWO_PI

    @property
    def theta_minus(self) -> float:
        """Eigenphase xi - rho reduced into [0, 2pi)."""
        return (self.xi - self.rho) % TWO_PI


def is_unitary(m: np.ndarray, tol: float = INPUT_TOL) -> bool:
    """Whether ``m`` satisfies m^dagger m = I to within ``tol`` (max norm)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - _IDENTITY)) <= tol)


def _rot_y(angle: float) -> np.ndarray:
    # exp(i*(angle/2)*sigma2), a real rotation matrix.
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _rot_z(angle: float) -> np.ndarray:
    # exp(i*(angle/2)*sigma3), a diagonal phase matrix.
    return np.array(
        [[cmath.exp(1j * angle / 2.0), 0.0], [0.0, cmath.exp(-1j * angle / 2.0)]]
    )


def frame_matrix(p: UnitaryParams) -> np.ndarray:
    """The eigenframe V = exp(i mu sigma2 / 2) exp(i nu sigma3 / 2)."""
    return _rot_y(p.mu) @ _rot_z(p.nu)


def params_to_matrix(p: UnitaryParams) -> np.ndarray:
    """Build the defect matrix U = V^{-1} D V from its four angles.

    The result is unitary to 1e-12 by construction and has eigenvalues
    e^{i(xi+rho)} and e^{i(xi-rho)}.
    """
    d = cmath.exp(1j * p.xi) * np.array(
        [[cmath.exp(1j * p.rho), 0.0], [0.0, cmath.exp(-1j * p.rho)]]
    )
    v = frame_matrix(p)
    return v.conj().T @ d @ v


def matrix_to_params(u: np.ndarray) -> UnitaryParams:
    """Recover canonical angles (xi, rho, mu, nu) from a unitary matrix.

    Closed form: xi and rho come from det U = e^{2 i xi} and
    tr U = 2 e^{i xi} cos(rho); the frame angles come from the eigenvector of
    e^{i(xi+rho)}, read off the columns of U - e^{i(xi-rho)} I.  At the
    degenerate points rho in {0, pi} the frame is arbitrary and is fixed to
    mu = nu = 0.  Raises NotUnitary if ``u`` is not unitary to 1e-10.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, INPUT_TOL):
        raise NotUnitary("matrix is not unitary within 1e-10")

    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    # Halving the argument leaves a pi ambiguity; fixing xi in [0, pi) picks
    # one of the two equivalent (xi, rho) <-> (xi+pi, pi-rho) labelings.
    xi = (cmath.phase(det) / 2.0) % math.pi
    # e^{-i xi} U = cos(rho) I + i sin(rho) n.sigma: its half trace is
    # cos(rho), and its traceless part, which is U's own, has Frobenius norm
    # sqrt(2) sin(rho).  acos of the half trace loses about eps / sin(rho)
    # near rho = 0 and pi, where atan2 of the two keeps rho to the last bits.
    cos_rho = (0.5 * (u[0, 0] + u[1, 1]) * cmath.exp(-1j * xi)).real
    if abs(cos_rho) <= _ACOS_MAX:
        rho = math.acos(cos_rho)
    else:
        traceless = u - 0.5 * (u[0, 0] + u[1, 1]) * _IDENTITY
        rho = math.atan2(float(np.linalg.norm(traceless)) / math.sqrt(2.0), cos_rho)

    lam_minus = cmath.exp(1j * (xi - rho))
    c = u - lam_minus * _IDENTITY
    col_norms = np.linalg.norm(c, axis=0)
    j = int(np.argmax(col_norms))
    if col_norms[j] <= CONSTRUCTION_TOL:
        # rho ~ 0 or pi: U is (anti)proportional to the identity.
        return UnitaryParams(xi=xi, rho=rho, mu=0.0, nu=0.0)

    vec = c[:, j] / col_norms[j]
    a, b = vec[0], vec[1]
    mu = 2.0 * math.atan2(abs(b), abs(a))
    if abs(a) <= CONSTRUCTION_TOL or abs(b) <= CONSTRUCTION_TOL:
        nu = 0.0
    else:
        nu = (cmath.phase(b) - cmath.phase(a)) % TWO_PI
    return UnitaryParams(xi=xi, rho=rho, mu=mu, nu=nu)


def sigma_v(p: UnitaryParams) -> np.ndarray:
    """Hermitian involution sigma_V with U = sigma_V D sigma_V.

    Defined as e^{-i(nu/2)sigma3} e^{-i(mu/2)sigma2} e^{i(nu/2)sigma3} sigma3,
    which works out to the Bloch vector
    sin(mu/2)(cos nu sigma1 + sin nu sigma2) + cos(mu/2) sigma3.
    """
    return _rot_z(-p.nu) @ _rot_y(-p.mu) @ _rot_z(p.nu) @ SIGMA3


def parity_conjugate(u: np.ndarray, direction) -> np.ndarray:
    """Conjugate a defect matrix by sigma = c1 sigma1 + c2 sigma2 + c3 sigma3.

    ``direction`` must be a real unit 3-vector (BadDirection otherwise); ``u``
    must be unitary (NotUnitary otherwise).  The result sigma U sigma shares
    the spectrum of the original boundary condition.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, INPUT_TOL):
        raise NotUnitary("matrix is not unitary within 1e-10")
    c = np.asarray(direction, dtype=float)
    if c.shape != (3,) or not np.all(np.isfinite(c)):
        raise BadDirection("direction must be a finite real 3-vector")
    if abs(np.linalg.norm(c) - 1.0) > INPUT_TOL:
        raise BadDirection("direction must have unit norm within 1e-10")
    sigma = c[0] * SIGMA1 + c[1] * SIGMA2 + c[2] * SIGMA3
    return sigma @ u @ sigma
