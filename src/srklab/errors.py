# Exception hierarchy shared across the package.
from __future__ import annotations


class SrkLabError(Exception):
    """Base class for all package-specific errors."""


class EscapeError(SrkLabError):
    """An orbit left the configured escape radius."""

    def __init__(self, at_step: int):
        self.at_step = at_step
        super().__init__(f"orbit escaped at step {at_step}")


class ResonanceFormUnavailableError(SrkLabError):
    """The truncated resonance normal form requires lam*sigma == 1."""


class ItineraryInvalidError(SrkLabError):
    """A closed-form orbit has points in the wrong map region.

    ``violations`` is a list of (step, Region) pairs, one per offending
    orbit point.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        steps = ", ".join(f"{s}:{r.value}" for s, r in self.violations)
        super().__init__(f"itinerary invalid at {steps}")


class NoConvergenceError(SrkLabError):
    """Newton iteration failed to reach the residual tolerance."""

    _outcome = "no convergence"

    def __init__(self, iterations: int, last_residual: float):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            f"{self._outcome} after {iterations} iterations "
            f"(residual {last_residual:.3e})"
        )


class StallError(NoConvergenceError):
    """Newton iteration stopped making progress before its budget ran out."""

    _outcome = "stalled"


class SingularJacobianError(SrkLabError):
    """The Newton system matrix is numerically singular."""

    def __init__(self, at_iterate):
        self.at_iterate = at_iterate
        super().__init__(f"singular Jacobian at iterate {at_iterate}")


class NotMinimalError(SrkLabError):
    """A periodic orbit repeats with a proper divisor of the requested period.

    ``points`` holds the orbit's points over the requested period, as
    Newton converged on them.
    """

    def __init__(self, divisor: int, points):
        self.divisor = divisor
        self.points = tuple(points)
        super().__init__(f"orbit already closes after {divisor} steps")


class NegativeDiscriminantError(SrkLabError):
    """The root discriminant is negative where a real value is required."""


class DegenerateCoefficientsError(SrkLabError):
    """Map coefficients do not admit the requested closed-form operation."""


class InsufficientDataError(SrkLabError):
    """Too few data points for the requested fit."""


class InvalidWindowError(SrkLabError):
    """A raster window is empty or degenerate."""


class ConfigError(SrkLabError):
    """An experiment configuration file is malformed."""
