"""Exception types shared across the package."""

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
    """The adaptive integrator drove the step size below its floor or used up its step budget.

    Attributes
    ----------
    t : float
        Time at which the integration stopped.
    stats : SolverStats
        What the run did up to the failure.
    """

    def __init__(self, t: float, message: str, stats):
        self.t = float(t)
        self.stats = stats
        super().__init__(message)
