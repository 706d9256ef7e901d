"""Spectra of a 1-D box with Dirichlet walls and one U(2) point defect.

The defect at the origin is labeled by a 2x2 unitary matrix through the
connection condition (U - I) Phi + i L0 (U + I) Phi' = 0 on the boundary
data.  Diagonalizing U splits the problem into two independent channels,
each a one-parameter transcendental eigenvalue problem; this package solves
those channels exactly, cross-checks them against a determinant-based solver
and a finite-difference discretization that never look at the eigenphases,
builds explicit eigenfunctions, sweeps isospectral families, and follows
levels around closed loops on the eigenphase torus to measure spectral
anholonomy.
"""

from .anholonomy import LevelTrajectory, PathSpec, loop_shift, trace_path, trajectory_shifts
from .boundary import (
    BoundaryCondition,
    BoundaryVectors,
    Eigenfunction,
    boundary_residual,
    build_eigenfunction,
    current_mismatch,
    level_eigenbasis,
    reflect,
    sample_eigenfunction,
)
from .errors import (
    BadDirection,
    ContinuationLost,
    DefectLineError,
    EigenSolverFailure,
    InconsistentShift,
    NotAnEigenvalue,
    NotUnitary,
    OutOfDomain,
    ScanExhausted,
    SolverError,
    ValidationError,
)
from .isospectral import (
    IsoReport,
    SphereGrid,
    check_isospectral,
    isospectral_family,
    parity_family,
)
from .levels import EigenLevel, Spectrum
from .oracles import FdSpectrum, det_spectrum, fd_spectrum
from .spectrum import (
    Channel,
    ChannelRows,
    bound_function,
    channel_function,
    solve_channel,
    solve_channels,
    solve_spectrum,
    threshold,
)
from .unitary import (
    UnitaryParams,
    frame_matrix,
    is_unitary,
    matrix_to_params,
    params_to_matrix,
    parity_conjugate,
    sigma_v,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # unitary
    "UnitaryParams", "frame_matrix", "is_unitary", "matrix_to_params",
    "params_to_matrix", "parity_conjugate", "sigma_v",
    # boundary
    "BoundaryCondition", "BoundaryVectors", "Eigenfunction",
    "boundary_residual", "build_eigenfunction", "current_mismatch",
    "level_eigenbasis", "reflect", "sample_eigenfunction",
    # levels
    "EigenLevel", "Spectrum",
    # spectrum
    "Channel", "bound_function", "channel_function",
    "ChannelRows", "solve_channel", "solve_channels", "solve_spectrum", "threshold",
    # oracles
    "FdSpectrum", "det_spectrum", "fd_spectrum",
    # isospectral
    "IsoReport", "SphereGrid", "check_isospectral", "isospectral_family",
    "parity_family",
    # anholonomy
    "LevelTrajectory", "PathSpec", "loop_shift", "trace_path",
    "trajectory_shifts",
    # errors
    "DefectLineError", "ValidationError", "SolverError", "NotUnitary",
    "BadDirection", "NotAnEigenvalue", "OutOfDomain", "ScanExhausted",
    "EigenSolverFailure", "ContinuationLost", "InconsistentShift",
]
