"""Exception types shared across the package."""

from __future__ import annotations

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class PMELabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PMELabError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValidationError):
    """A numeric argument lies outside its admissible domain."""


class AdmissibilityError(PMELabError):
    """A curvature ratio was requested at a non-admissible configuration."""


class NoPathError(PMELabError):
    """Two vertices are not connected by any path of positive-weight edges."""


class LambdaOneError(ValidationError):
    """The Harnack correction term degenerates at lambda = 1."""


class StiffnessError(PMELabError):
    """The adaptive integrator drove the step size below its floor.

    Attributes
    ----------
    t : float
        Time at which the step size underflowed.
    stats : SolverStats or None
        What the run did up to the failure, when the integrator knows.
    """

    def __init__(self, t: float, message: str | None = None, stats=None):
        self.t = float(t)
        self.stats = stats
        super().__init__(message or f"step size underflow at t={t:.6g}")
