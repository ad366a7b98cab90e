"""Exception and warning types shared across the package, and the size
bound that `check_size` holds every grid and Monte Carlo size to."""

from __future__ import annotations

# Sizes stay below this, so that every array of a run, a few times the
# size in float64 values, has a byte count that numpy can index.
_SIZE_LIMIT = 2**55


class ArecorrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ArecorrError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BadArgument(DomainError):
    """An argument out of its range; the message starts with its name."""


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


def check_size(name: str, size: int) -> None:
    """Refuse a size that no array could hold, before anything is allocated."""
    if size >= _SIZE_LIMIT:
        raise BadArgument(f"{name} must be < 2**55, got {size!r}")
