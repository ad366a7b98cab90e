"""Asymptotic means and variances of R, S, T under bivariate normality.

All moment functions take the population correlation rho in (-1, 1) and
return closed-form values; the Spearman variance is the one quantity
that needs quadrature (four smooth integrals on [0, |rho|]), to a fixed
absolute tolerance, SIGMA_S2_TOL = 1e-12.  One memo keeps the values of
the last sigma_s2 call that integrated, keyed by x = |rho|; nothing else
here is cached.
rho may also be a 1-D float64 array: every field of the result is then
an array whose elements are bitwise the float values, because powers,
arcsines and square roots go through taylor's `power`, `powers`, `asin`
and `sqrt`, which compute each element as the float path does.
First derivatives are analytic throughout: the integral terms differentiate
by the fundamental theorem of calculus, so no numerical differentiation
happens anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .quadrature import _integrate_arrays
from .quadrature import integrate  # noqa: F401  bench/layertrace.py patches it here
from .taylor import Jet, asin as _arcsine, power as _pow, powers as _powers, sqrt as _sqrt

__all__ = [
    "MomentSet",
    "RHO_CAP",
    "SIGMA_S2_TOL",
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

# Absolute tolerance of sigma_s2, and of each integral: sigma_s2 carries
# 72/pi^2 * (1+2+2+4) ~ 66 times the worst single-integral error.
SIGMA_S2_TOL = 1e-12
_INTEGRAL_TOL = SIGMA_S2_TOL / 66.0

_PI2 = math.pi**2


@dataclass(frozen=True)
class MomentSet:
    """Mean, its derivative in rho, and asymptotic variance: floats, or
    arrays over an array of rho."""

    mu: float
    dmu: float
    sigma2: float


def _domain(x, ok: Callable, message: str):
    """x once ok(x) holds, or a 1-D array x as float64 once ok holds on each
    element; else DomainError(f"{message}, got {v!r}") for the first v that fails."""
    if isinstance(x, np.ndarray):
        if x.ndim != 1:
            raise DomainError(f"need a float or a 1-D array, got shape {x.shape}")
        x = x.astype(np.float64, copy=False)
        good = ok(x)
        if good.all():
            return x
        x = x.tolist()[good.tolist().index(False)]
    elif ok(x):
        return x
    raise DomainError(f"{message}, got {x!r}")


def _open_unit(v) -> bool:
    return abs(v) < 1.0


def _rho_value(rho: float) -> float:
    return _domain(float(rho), _open_unit, "|rho| must be < 1")


def _rho_values(rho):
    """_rho_value of a float, or of each element of a 1-D array."""
    if isinstance(rho, np.ndarray):
        return _domain(rho, _open_unit, "|rho| must be < 1")
    return _rho_value(rho)


def _integrands(u, need=None):
    """The four Spearman-variance integrands at u: a list of four for a
    float or a jet, a (4, N) array for a 1-D float64 array, whose
    elements are bitwise the float values.

    On an array, a (4, N) bool need limits the arcsines, most of the
    work, to the entries it marks; the other entries are 0.0.  The powers
    are taken on every node, from one float conversion of u: few nodes
    need neither u**3 nor u**4.
    """
    u2, u3, u4 = _powers(u, 2, 3, 4)
    root = _sqrt(4.0 - u2)
    if not isinstance(u, np.ndarray):
        return [_arcsine(_arcsine_arg(k, u, u2, u3, u4)) / root for k in range(4)]
    out = np.empty((4, len(u)))
    for k in range(4):
        out[k] = _arcsine_arg(k, u, u2, u3, u4)
    # The arcsines are the call's peak in memory; the powers are not needed there.
    del u2, u3, u4
    if need is None:
        out = _arcsine(out.ravel()).reshape(4, -1)
    else:
        at = need.ravel().nonzero()[0]
        args = out.take(at)
        out.fill(0.0)
        out.put(at, _arcsine(args))
    out /= root
    return out


def _arcsine_arg(k: int, u, u2, u3, u4):
    """Integrand k's arcsine argument, from u and its powers u**2, u**3
    (for k = 0) and u**4 (for k >= 2)."""
    if k == 0:
        return u3 / (4.0 * (2.0 - u2))
    if k == 1:
        return u / (2.0 * (3.0 - u2))
    if k == 2:
        return u * (4.0 - u2) / (2.0 * math.sqrt(2.0) * _sqrt(8.0 - 6.0 * u2 + u4))
    return u * (4.0 - u2) / (2.0 * _sqrt(12.0 - 7.0 * u2 + u4))


_WEIGHTS = (1.0, 2.0, 2.0, 4.0)

# Memo of sigma_s2 values keyed by x: after a call that integrated, it
# holds exactly that call's distinct abscissae (see `_memoized`).
_MEMO: dict[float, float] = {}
# Abscissae per lockstep quadrature; bounds its working arrays, which
# hold the four integrands on up to four distinct intervals per abscissa.
# 128 halves the Kronrod passes of 64 (a cold sigma_s2 of 4,999
# abscissae took 93 ms against 104 on 2-core x86-64, CPython 3.11.7);
# 256 was no faster.
_BLOCK = 128


def _sigma_s2_block(xs: list[float]) -> list[float]:
    """sigma_s2 at each of xs, by one lockstep quadrature of the four
    integrands together."""
    values = _integrate_arrays(_integrands, [0.0] * len(xs), xs, _INTEGRAL_TOL)[0]
    isum = 0.0
    for w, v in zip(_WEIGHTS, values.T):
        isum = isum + w * v
    asin2 = _pow(_arcsine(0.5 * np.array(xs)), 2)
    return (1.0 - (324.0 / _PI2) * asin2 + (72.0 / _PI2) * isum).tolist()


def _memoized(xs: list[float]) -> list[float]:
    """sigma_s2 at each of xs: memo reads, and the missing values integrated
    in blocks of _BLOCK.  A call that integrates leaves exactly its own
    distinct abscissae in the memo; a call of memo hits leaves it as it is.

    Only valid abscissae enter the memo, so when all of xs are in it
    they need no check."""
    try:
        return list(map(_MEMO.__getitem__, xs))
    except KeyError:
        pass
    for v in xs:
        if not (0.0 <= v < 1.0):
            raise DomainError(f"sigma_s2 needs 0 <= x < 1, got {v!r}")
    got = {key: _MEMO.get(key) for key in map(float, xs)}
    todo = [key for key, v in got.items() if v is None]
    for i in range(0, len(todo), _BLOCK):
        part = todo[i : i + _BLOCK]
        got.update(zip(part, _sigma_s2_block(part)))
    _MEMO.clear()
    _MEMO.update(got)
    return list(map(got.__getitem__, xs))


def sigma_s2(x):
    """Asymptotic Spearman variance at x = |rho| in [0, 1).

    x is a float, or a 1-D float64 array whose elements give bitwise the
    float values.  Each value is computed to a fixed absolute tolerance
    of 1e-12.  Missing abscissae are integrated in blocks of _BLOCK,
    each block by one lockstep quadrature of the four integrands
    together.  A call that integrates leaves exactly its distinct
    abscissae in the memo, so an array call ahead of float or array
    reads of the same abscissae turns those into memo reads; memory is
    bounded by the largest call.
    """
    if isinstance(x, np.ndarray):
        if x.ndim != 1:
            raise DomainError(f"sigma_s2 needs a 1-D array, got shape {x.shape}")
        return np.array(_memoized(x.astype(np.float64).tolist()))
    got = _MEMO.get(x)
    return _memoized([x])[0] if got is None else got


def sigma_s2_jet(x0: float, order: int) -> Jet:
    """Taylor jet of sigma_s2 at x0 in [0, 1].

    Coefficient 0 is exactly 1.0 at 0, where the integrals are empty,
    0.0 at 1, where S = 1 almost surely, and sigma_s2(x0) elsewhere.
    Every higher coefficient comes from jets of the integrands
    (fundamental theorem of calculus), so an endpoint jet runs no
    quadrature and no jet's derivatives carry quadrature noise.
    """
    if not (0.0 <= x0 <= 1.0):
        raise DomainError(f"sigma_s2_jet needs 0 <= x0 <= 1, got {x0!r}")
    x = Jet.variable(x0, order)
    total = 1.0 - (324.0 / _PI2) * _arcsine(0.5 * x) ** 2
    if order >= 1:
        igrands = _integrands(Jet.variable(x0, order - 1))
        for w, igrand in zip(_WEIGHTS, igrands):
            coeffs = [0.0] + [igrand.coeffs[m - 1] / m for m in range(1, order + 1)]
            total = total + (72.0 / _PI2) * w * Jet(x0, tuple(coeffs))
    value = 1.0 if x0 == 0.0 else 0.0 if x0 == 1.0 else sigma_s2(x0)
    return Jet(x0, (value,) + total.coeffs[1:])


def moments_r(rho: float) -> MomentSet:
    """Pearson R: mu = rho, sigma2 = (1 - rho^2)^2."""
    v = _rho_values(rho)
    one_m = 1.0 - v * v
    one = np.ones(len(v)) if isinstance(v, np.ndarray) else 1.0
    return MomentSet(mu=v, dmu=one, sigma2=one_m * one_m)


def moments_t(rho: float) -> MomentSet:
    """Kendall T: mu = (2/pi) asin(rho)."""
    v = _rho_values(rho)
    pi = math.pi
    half = _arcsine(0.5 * v)
    return MomentSet(
        mu=(2.0 / pi) * _arcsine(v),
        dmu=2.0 / (pi * _sqrt(1.0 - v * v)),
        sigma2=4.0 / 9.0 - (16.0 / _PI2) * half * half,
    )


def moments_s(rho: float) -> MomentSet:
    """Spearman S: mu = (6/pi) asin(rho/2); variance by quadrature.

    sigma2 is even in rho and evaluated at |rho|; magnitudes above
    RHO_CAP = 1 - 1e-12 are evaluated at the cap (documented behavior
    near the endpoint).
    """
    v = _rho_values(rho)
    ax = abs(v)
    x = np.where(ax > RHO_CAP, RHO_CAP, ax) if isinstance(v, np.ndarray) else min(ax, RHO_CAP)
    pi = math.pi
    return MomentSet(
        mu=(6.0 / pi) * _arcsine(0.5 * v),
        dmu=3.0 / (pi * _sqrt(1.0 - 0.25 * v * v)),
        sigma2=sigma_s2(x),
    )


def mu_s_finite_n(rho: float, n: int) -> float:
    """Exact finite-sample mean of Spearman's S."""
    v = _rho_value(rho)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n!r}")
    pi = math.pi
    mu_t = (2.0 / pi) * _arcsine(v)
    return ((n - 2) / (n + 1)) * (6.0 / pi) * _arcsine(0.5 * v) + 3.0 * mu_t / (n + 1)
