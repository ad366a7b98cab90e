"""The three pairwise ARE functions and their quadratic/quartic bounds.

Each ARE is evaluated in factored f/g form.  Near x = 1 both f and g of
the TS and RS pairs vanish (to second order), so direct division would
amplify quadrature noise in the Spearman variance without bound; all
evaluation within SERIES_RADIUS of 1 therefore goes through a cached
Taylor expansion of f/g at the endpoint, whose coefficients involve no
quadrature (the vanishing coefficients are dropped before dividing the
series).  The same expansions supply the endpoint constants
are(0), are(1-), are'(1-) and the one-sided limits of the second-difference
functions q_a, and q_a within SERIES_RADIUS of its anchor.

`are`, `q`, `q_from_are`, `are_from_moments`, `quartic_bounds_rs` and
`QuadCoeffs` take a float or a 1-D float64 array of points.  On an array
each element is bitwise the float call at that point: every power,
arcsine and square root goes through taylor's elementwise kernels, the
series hand-offs near 1 and near each anchor are applied by mask, and a
domain error on any element raises the float call's DomainError.

A pair is named by its tag, exactly "RT", "TS" or "RS".  Tags are
checked where they are first looked up: an unknown one raises
DomainError through `pair` on a cache miss, and a cache holds only
valid tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .corrmath import _PI2, _domain, _open_unit, moments_r, moments_s, moments_t
from .corrmath import sigma_s2, sigma_s2_jet
from .errors import DomainError, NoBracket
from .taylor import Jet, asin as _arcsine, power as _pow

__all__ = [
    "Pair",
    "QuadCoeffs",
    "Endpoints",
    "PAIR_TAGS",
    "pair",
    "are",
    "ratio_slope",
    "are_from_moments",
    "endpoint_constants",
    "q",
    "q_from_are",
    "quad_bounds",
    "quartic_bounds_rs",
    "crossover",
    "SERIES_RADIUS",
]

PairTag = Literal["RT", "TS", "RS"]
PAIR_TAGS: tuple[PairTag, ...] = ("RT", "TS", "RS")

# Direct f/g evaluation hands off to the endpoint expansion inside this
# distance from x = 1; the expansions' nearest singularity sits at
# |t| ~ 0.236, so truncation error at 0.01 is far below 1e-12.
SERIES_RADIUS = 0.01

_JET_ORDER = 12


@dataclass(frozen=True)
class Pair:
    """One ARE in factored form: are(x) = f(x)/g(x) with g > 0 on (0, 1).

    f and g take a float, a 1-D float64 array or a Jet and return the
    same kind.
    """

    tag: PairTag
    f: Callable
    g: Callable


def _f_rt(x):
    return _PI2 - 36.0 * _pow(_arcsine(0.5 * x), 2)


def _g_rt(x):
    return 9.0 * (1.0 - x * x)


def _f_s(x):
    if isinstance(x, Jet):
        return sigma_s2_jet(x.center, x.order)
    return sigma_s2(x)


def _g_ts(x):
    return 4.0 * (1.0 - x * x) * _f_rt(x) / (_PI2 * (4.0 - x * x))


def _g_rs(x):
    return 36.0 * _pow(1.0 - x * x, 2) / (_PI2 * (4.0 - x * x))


_PAIRS: dict[PairTag, Pair] = {
    "RT": Pair("RT", _f_rt, _g_rt),
    "TS": Pair("TS", _f_s, _g_ts),
    "RS": Pair("RS", _f_s, _g_rs),
}


def pair(tag: str) -> Pair:
    if tag not in _PAIRS:
        raise DomainError(f"unknown pair tag {tag!r}; expected one of {PAIR_TAGS}")
    return _PAIRS[tag]  # type: ignore[index]


# ---------------------------------------------------------------------------
# Endpoint Taylor machinery


# Order of the common zero of f and g at x = 1 (cancelled before division).
_VANISH_AT_1: dict[PairTag, int] = {"RT": 1, "TS": 2, "RS": 2}

# Dropped coefficients must be zero up to rounding noise.
_VANISH_NOISE = 1e-8


@dataclass(frozen=True)
class Endpoints:
    are_at_0: float
    are_at_1: float
    dare_at_1: float


_series_cache: dict[tuple[PairTag, int], Jet] = {}


def _series(tag: str, anchor: int) -> Jet:
    """Truncated expansion of are(anchor + t) in t, as a jet centred at t = 0."""
    key = (tag, anchor)
    got = _series_cache.get(key)
    if got is not None:
        return got
    p = pair(tag)
    x = Jet.variable(float(anchor), _JET_ORDER)
    fj, gj = p.f(x), p.g(x)
    m = _VANISH_AT_1[tag] if anchor == 1 else 0
    for k in range(m):
        if abs(fj.coeffs[k]) > _VANISH_NOISE or abs(gj.coeffs[k]) > _VANISH_NOISE:
            raise RuntimeError(
                f"{tag} expansion at {anchor}: coefficient {k} expected to "
                f"vanish, got f={fj.coeffs[k]!r} g={gj.coeffs[k]!r}"
            )
    made = Jet(0.0, fj.coeffs[m:]) / Jet(0.0, gj.coeffs[m:])
    _series_cache[key] = made
    return made


# ---------------------------------------------------------------------------
# ARE evaluation


def _check_open_unit(x: float) -> float:
    """|x| after checking it is < 1, for a float or elementwise on an array."""
    return abs(_domain(x, _open_unit, "|x| must be < 1"))


def _branch(near, series: Callable, direct: Callable, *args):
    """series(*args) where `near` holds, else direct(*args): a flag for
    float args, a mask for array args, whose two parts are evaluated apart."""
    if not isinstance(args[0], np.ndarray):
        return series(*args) if near else direct(*args)
    out = np.empty(len(args[0]))
    for mask, fn in ((near, series), (~near, direct)):
        if mask.any():
            out[mask] = fn(*(v[mask] for v in args))
    return out


def are(tag: str, x: float) -> float:
    """are(x) = f(|x|)/g(|x|); even in x."""
    ax = _check_open_unit(x)
    p = pair(tag)
    return _branch(
        1.0 - ax <= SERIES_RADIUS,
        lambda v: _series(tag, 1)(v - 1.0),
        lambda v: p.f(v) / p.g(v),
        ax,
    )


def ratio_slope(f: Jet, g: Jet) -> float:
    """(f/g)' at the center(s), by the quotient rule on order-1 jets of f and g."""
    f0, f1 = f.coeffs
    g0, g1 = g.coeffs
    return (f1 * g0 - f0 * g1) / (g0 * g0)


# (numerator, denominator) statistic of each pair's efficiency ratio.
_MOMENTS = {
    "RT": (moments_t, moments_r),
    "TS": (moments_s, moments_t),
    "RS": (moments_s, moments_r),
}


def are_from_moments(tag: str, x: float) -> float:
    """Assembly from the moment formulas: (sigma2_2/sigma2_1) * (dmu_1/dmu_2)^2."""
    ax = _check_open_unit(x)
    num, den = _MOMENTS[pair(tag).tag]
    m1, m2 = den(ax), num(ax)
    return (m2.sigma2 / m1.sigma2) * _pow(m1.dmu / m2.dmu, 2)


# ---------------------------------------------------------------------------
# q functions and bounds


@dataclass(frozen=True)
class QuadCoeffs:
    """One quadratic bound b + c(|x|-a) + q(|x|-a)^2."""

    a: int
    b: float
    c: float
    q: float

    def __call__(self, x: float) -> float:
        """The bound at x, a float or (elementwise) an array."""
        t = abs(x) - self.a
        return self.b + self.c * t + self.q * t * t


def quad_bounds(tag: str, a: int) -> tuple[QuadCoeffs, QuadCoeffs]:
    """(lower, upper) quadratic bounds anchored at a in {0, 1}.

    Both share the line b + c(x - a) through are at the anchor: b is
    are(a); c is are'(1-) at a = 1 and 0 at a = 0, where are is even.
    The lower q is q_a(0+) and the upper q is q_a(1-), the one-sided
    limits of the second-difference function.  All four constants are
    read off the cached endpoint series.
    """
    if a not in (0, 1):
        raise DomainError(f"anchor must be 0 or 1, got {a!r}")
    s0, s1 = _series(tag, 0), _series(tag, 1)
    b0, b1, c1 = s0.coeffs[0], s1.coeffs[0], s1.coeffs[1]
    if a == 0:
        b, c, q_low, q_high = b0, 0.0, s0.coeffs[2], b1 - b0
    else:
        b, c, q_low, q_high = b1, c1, b0 - b1 + c1, s1.coeffs[2]
    return QuadCoeffs(a=a, b=b, c=c, q=q_low), QuadCoeffs(a=a, b=b, c=c, q=q_high)


def endpoint_constants(tag: str) -> Endpoints:
    """are(0), are(1-), are'(1-): b at anchor 0, and b and c at anchor 1."""
    at0, at1 = quad_bounds(tag, 0)[0], quad_bounds(tag, 1)[0]
    return Endpoints(are_at_0=at0.b, are_at_1=at1.b, dare_at_1=at1.c)


def _in_open_unit(v) -> bool:
    return (0.0 < v) & (v < 1.0)


def q(tag: str, a: int, x: float) -> float:
    """Second-difference function q_a(x) = (are(x) - b - c(x-a))/(x-a)^2,
    for x in (0, 1): `q_from_are` fed are(tag, x) off the anchor's series
    band, the only place it reads it; x stands in for it in the band."""
    x = _domain(x, _in_open_unit, "q needs x in (0, 1)")
    near = abs(x - a) <= SERIES_RADIUS
    return q_from_are(tag, a, x, _branch(near, lambda v: v, lambda v: are(tag, v), x))


def q_from_are(tag: str, a: int, x: float, are_x: float) -> float:
    """q_a(x) from are_x = are(tag, x), for x in (0, 1); with x an array,
    are_x is the array of are's values there.

    Within SERIES_RADIUS of the anchor, where the ratio is near 0/0, it
    is the endpoint series with its first two terms dropped, and are_x
    is not read.
    """
    line = quad_bounds(tag, a)[0]
    x = _domain(x, _in_open_unit, "q needs x in (0, 1)")

    def direct(v, are_v):
        t = v - a
        return (are_v - line.b - line.c * t) / (t * t)

    series = Jet(0.0, _series(tag, a).coeffs[2:])
    return _branch(abs(x - a) <= SERIES_RADIUS, lambda v, _: series(v - a), direct, x, are_x)


def quartic_bounds_rs(x: float) -> tuple[float, float]:
    """Products of the RT and TS quadratic bounds: tighter bounds on are_RS."""
    ax = _check_open_unit(x)
    lowers = []
    uppers = []
    for a in (0, 1):
        lo_rt, up_rt = quad_bounds("RT", a)
        lo_ts, up_ts = quad_bounds("TS", a)
        lowers.append(lo_rt(ax) * lo_ts(ax))
        uppers.append(up_rt(ax) * up_ts(ax))
    if isinstance(ax, np.ndarray):
        # Python's max and min of two, elementwise.
        (l0, l1), (u0, u1) = lowers, uppers
        return np.where(l1 > l0, l1, l0), np.where(u1 < u0, u1, u0)
    return max(lowers), min(uppers)


def crossover(tag: str, which: str) -> float:
    """The one root in [1e-6, 1 - 1e-6] of L0 - L1 (which='L') or U0 - U1
    (which='U'), whose other root lies at 0 or 1 up to rounding;
    NoBracket if none or two lie in that window."""
    w = which.upper()
    if w not in ("L", "U"):
        raise DomainError(f"which must be 'L' or 'U', got {which!r}")
    idx = 0 if w == "L" else 1
    u, v = quad_bounds(tag, 0)[idx], quad_bounds(tag, 1)[idx]
    # Each bound b + c(x - a) + q(x - a)^2 expanded around its own a, as
    # q x^2 + (c - 2qa) x + (b - ca + qa^2); the difference is A x^2 + B x + C.
    A = u.q - v.q
    B = (u.c - 2.0 * u.q * u.a) - (v.c - 2.0 * v.q * v.a)
    C = (u.b - u.c * u.a + u.q * u.a * u.a) - (v.b - v.c * v.a + v.q * v.a * v.a)
    disc = B * B - 4.0 * A * C
    lo, hi = 1e-6, 1.0 - 1e-6
    # The roots s/A and C/s, free of cancellation; NaN where one is missing.
    s = -0.5 * (B + math.copysign(math.sqrt(disc), B)) if disc >= 0.0 else math.nan
    r1 = s / A if A != 0.0 else math.nan
    r2 = C / s if s != 0.0 else math.nan
    in1, in2 = lo <= r1 <= hi, lo <= r2 <= hi
    if in1 == in2:
        raise NoBracket(f"no single root of {w}0-{w}1 for {tag} in [{lo}, {hi}]")
    return r1 if in1 else r2
