"""Asymptotic means and variances of R, S, T under bivariate normality.

All moment functions take the population correlation rho in (-1, 1) and
return closed-form values; the Spearman variance is the one quantity
that needs quadrature (four smooth integrals on [0, |rho|]), to a fixed
absolute tolerance of 1e-12, with its values memoized per x = |rho|.
First derivatives are analytic throughout: the integral terms differentiate
by the fundamental theorem of calculus, so no numerical differentiation
happens anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError
from .quadrature import integrate, integrate_many
from .taylor import Jet

__all__ = [
    "MomentSet",
    "RHO_CAP",
    "moments_r",
    "moments_t",
    "moments_s",
    "mu_s_finite_n",
    "sigma_s2",
    "sigma_s2_jet",
]

# Quadrature inputs are capped at this magnitude; documented behavior for
# queries between the cap and 1.
RHO_CAP = 1.0 - 1e-12

# Absolute tolerance of each integral: sigma_s2 carries 72/pi^2 *
# (1+2+2+4) ~ 66 times the worst single-integral error, so this holds
# sigma_s2 to an absolute 1e-12.
_INTEGRAL_TOL = 1e-12 / 66.0


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
    if isinstance(v, Jet):
        return v.sqrt()
    # Both square roots are correctly rounded.
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


# On arrays, powers and arcsines go through math per element: numpy's
# `**` and np.arcsin may differ from them in the last bit.


def _pow(v, n: int):
    if isinstance(v, np.ndarray):
        return np.fromiter(map(math.pow, memoryview(v), repeat(n)), np.float64, len(v))
    return v**n


def _arcsine(v):
    if isinstance(v, Jet):
        return v.asin()
    if isinstance(v, np.ndarray):
        # _asin's clamp has nothing to do unless an element exceeds 1.
        asin = math.asin if bool((np.abs(v) <= 1.0).all()) else _asin
        return np.fromiter(map(asin, memoryview(v)), np.float64, len(v))
    return _asin(v)


def _integrand(k: int, u):
    """The k-th Spearman-variance integrand; works on floats, float64
    arrays and jets, and each array element is bitwise the float value."""
    u2 = _pow(u, 2)
    if k == 1:
        arg = _pow(u, 3) / (4.0 * (2.0 - u2))
    elif k == 2:
        arg = u / (2.0 * (3.0 - u2))
    elif k == 3:
        arg = u * (4.0 - u2) / (2.0 * math.sqrt(2.0) * _sqrt(8.0 - 6.0 * u2 + _pow(u, 4)))
    elif k == 4:
        arg = u * (4.0 - u2) / (2.0 * _sqrt(12.0 - 7.0 * u2 + _pow(u, 4)))
    else:
        raise DomainError(f"integrand index must be 1..4, got {k!r}")
    return _arcsine(arg) / _sqrt(4.0 - u2)


_WEIGHTS = (1.0, 2.0, 2.0, 4.0)

# Memo of sigma_s2 values keyed by x.  It is emptied when the values
# about to enter would take it past _MEMO_SIZE entries, so all the new
# values of one call stay in it if there are at most _MEMO_SIZE.
_MEMO: dict[float, float] = {}
_MEMO_SIZE = 65536
# Abscissae per lockstep quadrature; bounds its working arrays.
_BLOCK = 256


def _make_room(n: int) -> None:
    if len(_MEMO) + n > _MEMO_SIZE:
        _MEMO.clear()


def _sigma_s2_block(xs: list[float]) -> list[float]:
    """sigma_s2 at each of xs, one lockstep quadrature per integrand."""
    isums = [0.0] * len(xs)
    for k, w in enumerate(_WEIGHTS, start=1):
        rows = integrate_many(lambda u, k=k: _integrand(k, u), [0.0] * len(xs), xs, _INTEGRAL_TOL)
        isums = [isum + w * row.value for isum, row in zip(isums, rows)]
    pi2 = math.pi**2
    return [
        1.0 - (324.0 / pi2) * _asin(0.5 * x) ** 2 + (72.0 / pi2) * isum
        for x, isum in zip(xs, isums)
    ]


def _memoized(xs: list[float]) -> list[float]:
    """sigma_s2 at each of xs: memo reads, and the missing values integrated
    in blocks of _BLOCK and put in the memo."""
    for v in xs:
        if not (0.0 <= v < 1.0):
            raise DomainError(f"sigma_s2 needs 0 <= x < 1, got {v!r}")
    out = {v: _MEMO.get(v) for v in map(float, xs)}
    todo = [v for v, got in out.items() if got is None]
    _make_room(min(len(todo), _MEMO_SIZE))
    for i in range(0, len(todo), _BLOCK):
        block = todo[i : i + _BLOCK]
        for v, got in zip(block, _sigma_s2_block(block)):
            out[v] = got
            _make_room(1)
            _MEMO[v] = got
    return [out[v] for v in xs]


def sigma_s2(x):
    """Asymptotic Spearman variance at x = |rho| in [0, 1).

    x is a float, or a 1-D float64 array whose elements give bitwise the
    float values.  Each value is computed to a fixed absolute tolerance
    of 1e-12 and memoized per x in a bounded memo (emptied when full):
    the function is pure, and the invariant suites revisit the same grid
    abscissae many times.  Missing abscissae are integrated in blocks of
    _BLOCK, each block by one lockstep quadrature per integrand, and
    enter the memo, so an array call ahead of a loop of float calls on
    the same abscissae turns those into memo reads.
    """
    if isinstance(x, np.ndarray):
        if x.ndim != 1:
            raise DomainError(f"sigma_s2 needs a 1-D array, got shape {x.shape}")
        return np.array(_memoized(x.astype(np.float64).tolist()))
    got = _MEMO.get(x)
    return _memoized([x])[0] if got is None else got


def sigma_s2_jet(x0: float, order: int) -> Jet:
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
        value = integrate(lambda u, k=k: _integrand(k, u), 0.0, x0, _INTEGRAL_TOL).value
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


def moments_s(rho: float) -> MomentSet:
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
        sigma2=sigma_s2(x),
    )


def mu_s_finite_n(rho: float, n: int) -> float:
    """Exact finite-sample mean of Spearman's S."""
    v = _rho_value(rho)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n!r}")
    pi = math.pi
    mu_t = (2.0 / pi) * _asin(v)
    return ((n - 2) / (n + 1)) * (6.0 / pi) * _asin(0.5 * v) + 3.0 * mu_t / (n + 1)
