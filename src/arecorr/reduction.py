"""Derivative reduction chain for the RT pair with pattern classification.

The chain starts from f0 = f - b*g - c*(x-a)*g and g0 = (x-a)^2*g and
repeatedly applies f_i = a_i * f_{i-1}', g_i = a_i * g_{i-1}' with fixed
positive multipliers a_i, so the monotonicity of r_0 = f_0/g_0 (which is
the second-difference function q_a) reduces to sign questions about the
last ratio.  `ChainNode.jets` evaluates node i in one pass up this
recursion: it expands f0 and g0 as Taylor jets of order `order + i` and
differentiates and multiplies i times, so f_i and g_i come out together
and nested differentiation is exact to rounding.  On an array of points
one pass gives the whole grid, bitwise equal to the pass at each point,
and `tabulated` hands it to `classify_sign`.  Only the RT chain is
available: the multiplier lists for the other two pairs are not
published in reproducible form, so nothing is guessed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .are_bounds import bisect_root, pair, quad_bounds
from .errors import DomainError, Indeterminate
from .taylor import Jet

__all__ = [
    "MULTIPLIERS",
    "ChainNode",
    "SignPattern",
    "MonotonePattern",
    "interior_grid",
    "tabulated",
    "build_chain_rt",
    "classify_sign",
    "classify_monotone",
    "rho_tilde",
    "SIGN_FLOOR",
]

# Grid values closer to zero than this cannot be assigned a sign.
SIGN_FLOOR = 1e-12

ScalarFun = Callable[[float], float]

# The multipliers a_1..a_4, each positive on [0, 1].
MULTIPLIERS: tuple[Callable[[Jet], Jet], ...] = (
    lambda x: (4.0 - x * x).sqrt(),
    lambda x: (4.0 - x * x).sqrt() / (2.0 - x * x),
    lambda x: (2.0 - x * x) ** 2 / (50.0 - 29.0 * x * x + 9.0 * x**4),
    lambda x: (50.0 - 29.0 * x * x + 9.0 * x**4) ** 2 / (2.0 - x * x),
)


@dataclass(frozen=True)
class ChainNode:
    """Stage i of the reduction at the anchor line b + c(x - anchor)."""

    anchor: float
    index: int
    b: float
    c: float

    def jets(self, x: float | np.ndarray, order: int = 0) -> tuple[Jet, Jet]:
        """The jets of f_i and g_i at x (a point or an array), truncated at `order`.

        Coefficient k of a jet operation depends only on coefficients
        <= k of its operands, so the low coefficients do not depend on
        `order`.
        """
        rt = pair("RT")
        v = Jet.variable(x, order + self.index)
        g = rt.g(v)
        f = rt.f(v) - self.b * g - self.c * (v - self.anchor) * g
        g = (v - self.anchor) ** 2 * g
        for k in range(1, self.index + 1):
            m = MULTIPLIERS[k - 1](Jet.variable(x, order + self.index - k))
            f, g = m * f.deriv(), m * g.deriv()
        return f, g

    def f(self, x: float) -> float:
        return self.jets(x)[0].value

    def g(self, x: float) -> float:
        return self.jets(x)[1].value

    def r_jet(self, x: float, order: int) -> Jet:
        """The jet of r_i = f_i/g_i at x."""
        f, g = self.jets(x, order)
        return f / g


def build_chain_rt(a: int) -> list[ChainNode]:
    """Nodes 0..4 of the RT reduction anchored at a in {0, 1}."""
    line = quad_bounds("RT", a)[0]
    return [ChainNode(float(a), i, line.b, line.c) for i in range(len(MULTIPLIERS) + 1)]


@dataclass(frozen=True)
class SignPattern:
    symbols: str  # over {+, -}
    breakpoints: tuple[float, ...]


@dataclass(frozen=True)
class MonotonePattern:
    symbols: str  # over the two arrows
    breakpoints: tuple[float, ...]


def interior_grid(lo: float, hi: float, grid: int) -> list[float]:
    """The points lo + (hi - lo) j/(grid + 1), j = 1..grid, inside (lo, hi)."""
    return [lo + (hi - lo) * j / (grid + 1) for j in range(1, grid + 1)]


def tabulated(xs: list[float], values: np.ndarray, fallback: ScalarFun) -> ScalarFun:
    """h with h(xs[j]) = values[j] and h(x) = fallback(x) elsewhere, so a
    scan of h reads its grid from one array pass and evaluates only its
    bisection midpoints through the scalar `fallback`."""
    table = dict(zip(xs, values.tolist()))
    return lambda x: table[x] if x in table else fallback(x)


def classify_sign(h: ScalarFun, lo: float, hi: float, grid: int) -> SignPattern:
    """Sign pattern of h on (lo, hi); roots refined by bisection.

    A grid value with |h| < SIGN_FLOOR raises Indeterminate: pattern
    claims are sign claims, so a value too close to zero must fail the
    scan loudly rather than be skipped.
    """
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid!r}")
    if not (lo < hi):
        raise ValueError("require lo < hi")
    pts = interior_grid(lo, hi, grid)
    vals: list[float] = []
    for x in pts:
        v = h(x)
        if not math.isfinite(v) or abs(v) < SIGN_FLOOR:
            raise Indeterminate(f"|h({x!r})| = {v!r} too small to carry a sign")
        vals.append(v)
    symbols = ["+" if vals[0] > 0.0 else "-"]
    breakpoints: list[float] = []
    for i in range(1, len(pts)):
        if (vals[i] > 0.0) != (vals[i - 1] > 0.0):
            symbols.append("+" if vals[i] > 0.0 else "-")
            breakpoints.append(bisect_root(h, pts[i - 1], pts[i], vals[i - 1]))
    return SignPattern(symbols="".join(symbols), breakpoints=tuple(breakpoints))


def classify_monotone(dh: ScalarFun, lo: float, hi: float, grid: int) -> MonotonePattern:
    """Arrow pattern of a function from the sign pattern of its derivative dh."""
    sp = classify_sign(dh, lo, hi, grid)
    arrows = sp.symbols.replace("+", "↗").replace("-", "↘")
    return MonotonePattern(symbols=arrows, breakpoints=sp.breakpoints)


def rho_tilde(node: ChainNode, x: float) -> float:
    """sign(g_i') * (r_{i+1} g_i - f_i); its sign equals the sign of r_i'."""
    fj, gj = node.jets(x, 1)
    f0, f1 = fj.coeffs
    g0, g1 = gj.coeffs
    if abs(g1) < SIGN_FLOOR:
        raise DomainError(f"g_{node.index}'({x!r}) ~ 0; rho_tilde undefined")
    sign = 1.0 if g1 > 0.0 else -1.0
    return sign * ((f1 / g1) * g0 - f0)
