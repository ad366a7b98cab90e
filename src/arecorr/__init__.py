"""Asymptotic relative efficiencies of common correlation statistics.

Library + CLI for the bivariate normal model: closed-form asymptotic
moments of Pearson's R, Spearman's S, and Kendall's T; the pairwise
ARE functions with quadratic/quartic bounds; a derivative
reduction chain with sign-pattern verification; and seeded Monte Carlo
validation of the asymptotics on finite samples.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ArecorrError,
    BadArgument,
    DegenerateSample,
    DomainError,
    Indeterminate,
    NoBracket,
    NoConvergence,
    NonFinite,
    TiesPresent,
)

__all__ = [
    "ArecorrError",
    "BadArgument",
    "DegenerateSample",
    "DomainError",
    "Indeterminate",
    "NoBracket",
    "NoConvergence",
    "NonFinite",
    "TiesPresent",
    "__version__",
]
