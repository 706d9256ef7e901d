"""Shared test utilities: an independent matrix exponential, an L2 inner
product on the split box and the connection condition's matrix M(k), all
deliberately built from primitives different from the ones used inside the
package."""

from __future__ import annotations

import numpy as np


def taylor_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the plain Taylor series.

    Independent oracle: no eigendecomposition, no closed-form rotation
    formulas, no scipy.linalg.expm.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    b = a / (2.0 ** squarings)
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for n in range(1, 40):
        term = term @ b / n
        out += term
        if np.linalg.norm(term, ord=np.inf) < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def rotation_y(angle: float) -> np.ndarray:
    """exp(i*angle*sigma_y/2) written out longhand via the Taylor oracle."""
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    return taylor_expm(0.5j * angle * sy)


def rotation_z(angle: float) -> np.ndarray:
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return taylor_expm(0.5j * angle * sz)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-ish random U(2) element via exp(iH), H random Hermitian."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.5 * (g + g.conj().T)
    return taylor_expm(1j * h)


def l2_inner(f, g, l: float = 1.0, nodes: int = 240) -> complex:
    """Inner product <f, g> over [-l, 0) u (0, l] by Gauss-Legendre per side.

    The defect point is never a node, so discontinuities at x = 0 are fine.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0 + 0.0j
    for lo, hi in ((-l, 0.0), (0.0, l)):
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        xs = mid + half * x
        total += half * np.sum(w * np.conj(f(xs)) * g(xs))
    return complex(total)


def connection_matrix(u: np.ndarray, L0: float, val: complex, der: complex) -> np.ndarray:
    """M = (U - I) Phi + i L0 (U + I) dPhi for the wall-anchored basis.

    ``val`` and ``der`` are the endpoint value magnitude and derivative of the
    basis profile at the defect (e.g. sin(kl) and k cos(kl)); columns of M
    correspond to the right/left basis functions, rows to the 0+/0- components.
    Complex ``val``/``der`` evaluate M at imaginary wavenumbers.
    """
    u, eye = np.asarray(u, dtype=complex), np.eye(2, dtype=complex)
    m = val * (u - eye) + der * (1j * L0 * (u + eye))
    m[:, 0] *= -1.0
    return m


def det_matrix(bc, k: complex) -> np.ndarray:
    """M(k), as a matrix, whose determinant vanishes exactly at eigenvalues E = k^2.

    Real k probes positive energies; k = i*kappa probes bound states
    E = -kappa^2.  k = 0 is excluded (M vanishes there identically for every
    boundary condition, which says nothing about a zero-energy level).  The
    tests hold det_spectrum's levels and phased form against its determinant.
    """
    if k == 0:
        raise ValueError("k must be nonzero; the zero-energy level is tested separately")
    return connection_matrix(bc.u, bc.L0, np.sin(k * bc.l), k * np.cos(k * bc.l))
