"""Exception and warning types shared across the package."""


class RHJacobiError(Exception):
    """Base class for all package errors."""


class DomainError(RHJacobiError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EndpointError(DomainError):
    """Evaluation requested at an interval endpoint where the value is unbounded."""


class ConvergenceError(RHJacobiError):
    """An adaptive procedure failed to stabilize within its resolution cap."""


class GeometryError(RHJacobiError):
    """Contour geometry cannot satisfy the required constraints."""


class WeightError(RHJacobiError, ValueError):
    """A weight specification is invalid (ordering, positivity, analyticity)."""


class SolverError(RHJacobiError):
    """A linear system arising in the method is numerically singular;
    circle_deviation is the failed solve's, NaN if it failed before its jumps."""

    def __init__(self, message: str, circle_deviation: float = float("nan")):
        super().__init__(message)
        self.circle_deviation = circle_deviation


class ResidualWarning(UserWarning):
    """A solve completed but its off-collocation residual exceeds tolerance."""


class ImagPartWarning(UserWarning):
    """A nominally real quantity carries a suspicious imaginary part."""


class PrecisionWarning(UserWarning):
    """Jump data magnitudes threaten double-precision accuracy."""
