"""Exception and warning types shared across the package."""

from __future__ import annotations


class ArecorrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ArecorrError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonFinite(ArecorrError, ArithmeticError):
    """An integrand returned NaN or infinity at an abscissa."""


class NoConvergence(ArecorrError, ArithmeticError):
    """Adaptive subdivision hit its interval cap before the error target."""


class NoBracket(ArecorrError, ArithmeticError):
    """`are_bounds.crossover`'s quadratic has zero or two roots in [1e-6, 1 - 1e-6]."""


class Indeterminate(ArecorrError, ArithmeticError):
    """A scanned value is too close to zero to be assigned a sign."""


class DegenerateSample(ArecorrError, ValueError):
    """A sample has zero variance in a coordinate where variance is required."""


class TiesPresent(UserWarning):
    """Exact ties among x's or among y's; rank formulas still evaluated."""
