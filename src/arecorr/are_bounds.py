"""The three pairwise ARE functions and their quadratic/quartic bounds.

Each ARE is evaluated in factored f/g form.  Near x = 1 both f and g of
the TS and RS pairs vanish (to second order), so direct division would
amplify quadrature noise in the Spearman variance without bound; all
evaluation within SERIES_RADIUS of 1 therefore goes through a cached
Taylor expansion of f/g at the endpoint, whose coefficients are free of
quadrature noise (the noisy vanishing coefficients are dropped before
dividing the series).  The same expansions supply the endpoint constants
are(1-), are'(1-) and the one-sided limits of the second-difference
functions q_a.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Literal

from .corrmath import _arcsine, moments_r, moments_s, moments_t, sigma_s2, sigma_s2_jet
from .errors import BadPartition, DomainError, NoBracket
from .taylor import Jet

__all__ = [
    "Pair",
    "QuadCoeffs",
    "Endpoints",
    "PiecewiseBounds",
    "PAIR_TAGS",
    "pair",
    "bisect_root",
    "are",
    "ratio_slope",
    "are_from_moments",
    "endpoint_constants",
    "q",
    "quad_bounds",
    "partition_bounds",
    "quartic_bounds_rs",
    "crossover",
    "SERIES_RADIUS",
    "Q_GUARD",
]

PairTag = Literal["RT", "TS", "RS"]
PAIR_TAGS: tuple[PairTag, ...] = ("RT", "TS", "RS")

_PI2 = math.pi**2

# Direct f/g evaluation hands off to the endpoint expansion inside this
# distance from x = 1; the expansions' nearest singularity sits at
# |t| ~ 0.236, so truncation error at 0.01 is far below 1e-12.
SERIES_RADIUS = 0.01

# Within this distance of the anchor, q_a returns its one-sided limit
# (the ratio is 0/0 there).
Q_GUARD = 1e-4

_JET_ORDER = 12


@dataclass(frozen=True)
class Pair:
    """One ARE in factored form: are(x) = f(x)/g(x) with g > 0 on (0, 1).

    f and g take a float or a Jet and return the same kind.
    """

    tag: PairTag
    f: Callable
    g: Callable


def _f_rt(x):
    return _PI2 - 36.0 * _arcsine(0.5 * x) ** 2


def _g_rt(x):
    return 9.0 * (1.0 - x * x)


def _f_s(x):
    if isinstance(x, Jet):
        return sigma_s2_jet(x.center, x.order)
    return sigma_s2(x)


def _g_ts(x):
    return 4.0 * (1.0 - x * x) * _f_rt(x) / (_PI2 * (4.0 - x * x))


def _g_rs(x):
    return 36.0 * (1.0 - x * x) ** 2 / (_PI2 * (4.0 - x * x))


_PAIRS: dict[PairTag, Pair] = {
    "RT": Pair("RT", _f_rt, _g_rt),
    "TS": Pair("TS", _f_s, _g_ts),
    "RS": Pair("RS", _f_s, _g_rs),
}


def pair(tag: str) -> Pair:
    key = tag.upper()
    if key not in _PAIRS:
        raise DomainError(f"unknown pair tag {tag!r}; expected one of {PAIR_TAGS}")
    return _PAIRS[key]  # type: ignore[index]


def _as_tag(p: Pair | str) -> PairTag:
    return p.tag if isinstance(p, Pair) else pair(p).tag


# ---------------------------------------------------------------------------
# Endpoint Taylor machinery


# Order of the common zero of f and g at x = 1 (cancelled before division).
_VANISH_AT_1: dict[PairTag, int] = {"RT": 1, "TS": 2, "RS": 2}

# Dropped coefficients must be zero up to quadrature/rounding noise.
_VANISH_NOISE = 1e-8


@dataclass(frozen=True)
class Endpoints:
    are_at_0: float
    are_at_1: float
    dare_at_1: float


_series_cache: dict[tuple[PairTag, int], Jet] = {}


def _series(tag: PairTag, anchor: int) -> Jet:
    """Truncated expansion of are(anchor + t) in t, as a jet centred at t = 0."""
    key = (tag, anchor)
    got = _series_cache.get(key)
    if got is not None:
        return got
    x = Jet.variable(float(anchor), _JET_ORDER)
    fj, gj = _PAIRS[tag].f(x), _PAIRS[tag].g(x)
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


def endpoint_constants(p: Pair | str) -> Endpoints:
    """are(0), are(1-), are'(1-); lazily computed once per pair."""
    tag = _as_tag(p)
    s0 = _series(tag, 0)
    s1 = _series(tag, 1)
    return Endpoints(are_at_0=s0.coeffs[0], are_at_1=s1.coeffs[0], dare_at_1=s1.coeffs[1])


# ---------------------------------------------------------------------------
# ARE evaluation


def _check_open_unit(x: float) -> float:
    ax = abs(x)
    if not (ax < 1.0):
        raise DomainError(f"|x| must be < 1, got {x!r}")
    return ax


def are(p: Pair | str, x: float) -> float:
    """are(x) = f(|x|)/g(|x|); even in x; x = 0 returns the limit constant."""
    tag = _as_tag(p)
    ax = _check_open_unit(x)
    if ax == 0.0:
        return _series(tag, 0).coeffs[0]
    if 1.0 - ax <= SERIES_RADIUS:
        return _series(tag, 1)(ax - 1.0)
    pr = _PAIRS[tag]
    return pr.f(ax) / pr.g(ax)


def ratio_slope(f: Jet, g: Jet) -> float:
    """(f/g)' at the center(s), by the quotient rule on order-1 jets of f and g."""
    f0, f1 = f.coeffs
    g0, g1 = g.coeffs
    return (f1 * g0 - f0 * g1) / (g0 * g0)


def are_from_moments(p: Pair | str, x: float) -> float:
    """Assembly from the moment formulas: (sigma2_2/sigma2_1) * (dmu_1/dmu_2)^2."""
    tag = _as_tag(p)
    ax = _check_open_unit(x)
    num, den = {
        "RT": (moments_t, moments_r),
        "TS": (moments_s, moments_t),
        "RS": (moments_s, moments_r),
    }[tag]
    m1, m2 = den(ax), num(ax)
    return (m2.sigma2 / m1.sigma2) * (m1.dmu / m2.dmu) ** 2


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
        t = abs(x) - self.a
        return self.b + self.c * t + self.q * t * t


_quad_cache: dict[tuple[PairTag, int], tuple[QuadCoeffs, QuadCoeffs]] = {}


def quad_bounds(p: Pair | str, a: int) -> tuple[QuadCoeffs, QuadCoeffs]:
    """(lower, upper) quadratic bounds anchored at a in {0, 1}.

    Both share the line b + c(x - a) through are at the anchor: b is
    are(a); c is are'(1-) at a = 1 and 0 at a = 0, where are is even.
    The lower q is q_a(0+) and the upper q is q_a(1-), the one-sided
    limits of the second-difference function.  All four constants come
    from the endpoint series, and each (pair, anchor) is built once.
    """
    tag = _as_tag(p)
    if a not in (0, 1):
        raise DomainError(f"anchor must be 0 or 1, got {a!r}")
    key = (tag, a)
    got = _quad_cache.get(key)
    if got is not None:
        return got
    s0, s1 = _series(tag, 0), _series(tag, 1)
    b0, b1, c1 = s0.coeffs[0], s1.coeffs[0], s1.coeffs[1]
    if a == 0:
        b, c, q_low, q_high = b0, 0.0, s0.coeffs[2], b1 - b0
    else:
        b, c, q_low, q_high = b1, c1, b0 - b1 + c1, s1.coeffs[2]
    made = (QuadCoeffs(a=a, b=b, c=c, q=q_low), QuadCoeffs(a=a, b=b, c=c, q=q_high))
    _quad_cache[key] = made
    return made


def q(p: Pair | str, a: int, x: float) -> float:
    """Second-difference function q_a(x) = (are(x) - b - c(x-a))/(x-a)^2."""
    tag = _as_tag(p)
    bounds = quad_bounds(tag, a)
    if not (0.0 < x < 1.0):
        raise DomainError(f"q needs x in (0, 1), got {x!r}")
    t = x - a
    if abs(t) < Q_GUARD:
        # The one-sided limit at the anchor: q_0(0+) or q_1(1-).
        return bounds[a].q
    if abs(t) <= SERIES_RADIUS:
        return Jet(0.0, _series(tag, a).coeffs[2:])(t)
    line = bounds[0]
    return (are(tag, x) - line.b - line.c * t) / (t * t)


@dataclass(frozen=True)
class PiecewiseBounds:
    """Cellwise quadratic bounds from a partition of [0, 1]."""

    tag: PairTag
    a: int
    edges: tuple[float, ...]
    lower: tuple[QuadCoeffs, ...]
    upper: tuple[QuadCoeffs, ...]

    def _cell(self, x: float) -> int:
        ax = _check_open_unit(x)
        return bisect.bisect_right(self.edges, ax, 1, len(self.edges) - 1) - 1

    def lower_at(self, x: float) -> float:
        return self.lower[self._cell(x)](x)

    def upper_at(self, x: float) -> float:
        return self.upper[self._cell(x)](x)


def partition_bounds(p: Pair | str, a: int, partition: list[float]) -> PiecewiseBounds:
    """Per cell (x_{i-1}, x_i): lower q = q_a(x_{i-1}+), upper q = q_a(x_i-)."""
    tag = _as_tag(p)
    lower, upper = quad_bounds(tag, a)
    pts = [float(v) for v in partition]
    if len(pts) < 2 or pts[0] != 0.0 or pts[-1] != 1.0:
        raise BadPartition(f"partition must run from 0 to 1, got {partition!r}")
    if any(not (lo < hi) for lo, hi in zip(pts, pts[1:])):
        raise BadPartition(f"partition must be strictly increasing, got {partition!r}")
    # q_a at each edge: its one-sided limits at 0 and 1, else its value.
    qs = [lower.q, *(q(tag, a, v) for v in pts[1:-1]), upper.q]
    cells = [QuadCoeffs(a=a, b=lower.b, c=lower.c, q=v) for v in qs]
    return PiecewiseBounds(
        tag=tag, a=a, edges=tuple(pts), lower=tuple(cells[:-1]), upper=tuple(cells[1:])
    )


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
    return max(lowers), min(uppers)


def bisect_root(h: Callable[[float], float], lo: float, hi: float, flo: float) -> float:
    """A sign change of h in [lo, hi], bisected to width 1e-10; flo = h(lo)."""
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossover(p: Pair | str, which: str) -> float:
    """Root in (0, 1) of L0 - L1 (which='L') or U0 - U1 (which='U')."""
    tag = _as_tag(p)
    w = which.upper()
    if w not in ("L", "U"):
        raise DomainError(f"which must be 'L' or 'U', got {which!r}")
    idx = 0 if w == "L" else 1
    b0 = quad_bounds(tag, 0)[idx]
    b1 = quad_bounds(tag, 1)[idx]

    def diff(x: float) -> float:
        return b0(x) - b1(x)

    lo, hi = 1e-6, 1.0 - 1e-6
    flo, fhi = diff(lo), diff(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracket(f"no sign change of {w}0-{w}1 for {tag} on ({lo}, {hi})")
    return bisect_root(diff, lo, hi, flo)
