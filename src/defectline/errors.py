"""Exception hierarchy.

Two families below the common base: ``ValidationError`` for inputs that fail a
precondition before any computation starts, and ``SolverError`` for numerical
procedures that start but cannot finish.  The CLI maps these to exit codes 2
and 3 respectively.
"""

from __future__ import annotations

__all__ = [
    "DefectLineError",
    "ValidationError",
    "SolverError",
    "NotUnitary",
    "BadDirection",
    "NotAnEigenvalue",
    "OutOfDomain",
    "ScanExhausted",
    "EigenSolverFailure",
    "ContinuationLost",
    "DegeneratePath",
    "InconsistentShift",
]


class DefectLineError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DefectLineError):
    """An input violates a documented precondition."""


class SolverError(DefectLineError):
    """A numerical procedure could not produce a trustworthy result."""


class NotUnitary(ValidationError):
    """A matrix expected to be unitary fails the unitarity check."""


class BadDirection(ValidationError):
    """A direction vector is not a real unit 3-vector."""


class NotAnEigenvalue(ValidationError):
    """A wavenumber passed as an eigenvalue does not solve the system."""


class OutOfDomain(ValidationError):
    """A sample position lies outside [-l, l] or at the excluded point 0."""


class ScanExhausted(SolverError):
    """A root scan hit its ceiling before finding the requested count."""


class EigenSolverFailure(SolverError):
    """Fewer than the requested n FD levels lie below the band edge."""


class ContinuationLost(SolverError):
    """Continuation could not identify the levels of a sample by their branch labels."""


class DegeneratePath(SolverError):
    """Tracked branches collided along a continuation path."""


class InconsistentShift(SolverError):
    """Branches of one channel report different closed-loop shifts."""
