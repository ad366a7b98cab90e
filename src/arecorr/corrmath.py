"""Asymptotic means and variances of R, S, T under bivariate normality.

All moment functions take the population correlation rho in (-1, 1) and
return closed-form values; the Spearman variance is the one quantity
that needs quadrature (four smooth integrals on [0, |rho|]).  First
derivatives are analytic throughout: the integral terms differentiate
by the fundamental theorem of calculus, so no numerical differentiation
happens anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .quadrature import integrate
from .taylor import Jet

__all__ = [
    "MomentSet",
    "RHO_CAP",
    "DEFAULT_S_ABS_TOL",
    "moments_r",
    "moments_t",
    "moments_s",
    "mu_s_finite_n",
    "isin_integrand",
    "sigma_s2",
    "sigma_s2_jet",
]

# Quadrature inputs are capped at this magnitude; documented behavior for
# queries between the cap and 1.
RHO_CAP = 1.0 - 1e-12

DEFAULT_S_ABS_TOL = 1e-12

# Per-integral tolerance split: sigma_s2 carries 72/pi^2 * (1+2+2+4) ~ 66
# times the worst single-integral error.
_SPLIT = 66.0


@dataclass(frozen=True)
class MomentSet:
    mu: float
    dmu: float
    sigma2: float


def _rho_value(rho: float) -> float:
    v = float(rho)
    if not (abs(v) < 1.0):
        raise DomainError(f"moments need |rho| < 1, got {v!r}")
    return v


def _asin(x: float) -> float:
    # Clamp only last-bit overshoot; genuine domain violations still raise.
    if 1.0 < abs(x) <= 1.0 + 1e-15:
        x = math.copysign(1.0, x)
    return math.asin(x)


def _sqrt(v):
    return v.sqrt() if isinstance(v, Jet) else math.sqrt(v)


def _arcsine(v):
    return v.asin() if isinstance(v, Jet) else _asin(v)


def _integrand(k: int, u):
    """The k-th Spearman-variance integrand; works on floats and jets."""
    if k == 1:
        arg = u**3 / (4.0 * (2.0 - u**2))
    elif k == 2:
        arg = u / (2.0 * (3.0 - u**2))
    elif k == 3:
        arg = u * (4.0 - u**2) / (2.0 * math.sqrt(2.0) * _sqrt(8.0 - 6.0 * u**2 + u**4))
    elif k == 4:
        arg = u * (4.0 - u**2) / (2.0 * _sqrt(12.0 - 7.0 * u**2 + u**4))
    else:
        raise DomainError(f"integrand index must be 1..4, got {k!r}")
    return _arcsine(arg) / _sqrt(4.0 - u**2)


def isin_integrand(k: int, u: float) -> float:
    if not (0.0 <= u <= 1.0):
        raise DomainError(f"integrand argument must lie in [0, 1], got {u!r}")
    return _integrand(k, float(u))


_WEIGHTS = (1.0, 2.0, 2.0, 4.0)


@lru_cache(maxsize=65536)
def _sigma_s2_cached(x: float, abs_tol: float) -> float:
    isum = 0.0
    for k, w in enumerate(_WEIGHTS, start=1):
        isum += w * integrate(lambda u, k=k: _integrand(k, u), 0.0, x, abs_tol / _SPLIT).value
    pi2 = math.pi**2
    return 1.0 - (324.0 / pi2) * _asin(0.5 * x) ** 2 + (72.0 / pi2) * isum


def sigma_s2(x: float, abs_tol: float = DEFAULT_S_ABS_TOL) -> float:
    """Asymptotic Spearman variance at x = |rho| in [0, 1).

    Values are memoized per (x, abs_tol): the function is pure, and the
    invariant suites revisit the same grid abscissae many times.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"sigma_s2 needs 0 <= x < 1, got {x!r}")
    if not (abs_tol > 0.0):
        raise DomainError("abs_tol must be > 0")
    return _sigma_s2_cached(float(x), float(abs_tol))


def sigma_s2_jet(x0: float, order: int, abs_tol: float = DEFAULT_S_ABS_TOL) -> Jet:
    """Taylor jet of sigma_s2 at x0 in [0, 1].

    Only the order-0 coefficient touches quadrature; every higher
    coefficient comes from jets of the integrands (fundamental theorem
    of calculus), so endpoint derivatives carry no quadrature noise.
    """
    if not (0.0 <= x0 <= 1.0):
        raise DomainError(f"sigma_s2_jet needs 0 <= x0 <= 1, got {x0!r}")
    x = Jet.variable(x0, order)
    pi2 = math.pi**2
    total = 1.0 - (324.0 / pi2) * _arcsine(0.5 * x) ** 2
    for k, w in enumerate(_WEIGHTS, start=1):
        value = integrate(lambda u, k=k: _integrand(k, u), 0.0, x0, abs_tol / _SPLIT).value
        coeffs = [value]
        if order >= 1:
            igrand = _integrand(k, Jet.variable(x0, order - 1))
            coeffs += [igrand.coeffs[m - 1] / m for m in range(1, order + 1)]
        total = total + (72.0 / pi2) * w * Jet(x0, tuple(coeffs))
    return total


def moments_r(rho: float) -> MomentSet:
    """Pearson R: mu = rho, sigma2 = (1 - rho^2)^2."""
    v = _rho_value(rho)
    one_m = 1.0 - v * v
    return MomentSet(mu=v, dmu=1.0, sigma2=one_m * one_m)


def moments_t(rho: float) -> MomentSet:
    """Kendall T: mu = (2/pi) asin(rho)."""
    v = _rho_value(rho)
    pi = math.pi
    half = _asin(0.5 * v)
    return MomentSet(
        mu=(2.0 / pi) * _asin(v),
        dmu=2.0 / (pi * math.sqrt(1.0 - v * v)),
        sigma2=4.0 / 9.0 - (16.0 / pi**2) * half * half,
    )


def moments_s(rho: float, abs_tol: float = DEFAULT_S_ABS_TOL) -> MomentSet:
    """Spearman S: mu = (6/pi) asin(rho/2); variance by quadrature.

    sigma2 is even in rho and evaluated at |rho|; magnitudes above
    RHO_CAP = 1 - 1e-12 are evaluated at the cap (documented behavior
    near the endpoint).
    """
    v = _rho_value(rho)
    x = min(abs(v), RHO_CAP)
    pi = math.pi
    return MomentSet(
        mu=(6.0 / pi) * _asin(0.5 * v),
        dmu=3.0 / (pi * math.sqrt(1.0 - 0.25 * v * v)),
        sigma2=sigma_s2(x, abs_tol),
    )


def mu_s_finite_n(rho: float, n: int) -> float:
    """Exact finite-sample mean of Spearman's S."""
    v = _rho_value(rho)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n!r}")
    pi = math.pi
    mu_t = (2.0 / pi) * _asin(v)
    return ((n - 2) / (n + 1)) * (6.0 / pi) * _asin(0.5 * v) + 3.0 * mu_t / (n + 1)
