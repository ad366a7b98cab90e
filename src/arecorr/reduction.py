"""Derivative reduction chain for the RT pair with pattern classification.

The chain starts from f0 = f - b*g - c*(x-a)*g and g0 = (x-a)^2*g and
repeatedly applies f_i = a_i * f_{i-1}', g_i = a_i * g_{i-1}' with fixed
positive multipliers a_i, so the monotonicity of r_0 = f_0/g_0 (which is
the second-difference function q_a) reduces to sign questions about the
last ratio.  All derivatives come from truncated Taylor jets, so nested
differentiation is exact to rounding.  Only the RT chain is available:
the corresponding multiplier lists for the other two pairs are not
published in reproducible form, so nothing is guessed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .are_bounds import anchor_line, bisect_root, pair
from .errors import DomainError, Indeterminate
from .taylor import Jet

__all__ = [
    "JetFun",
    "ChainNode",
    "SignPattern",
    "MonotonePattern",
    "lift",
    "interior_grid",
    "build_chain_rt",
    "classify_sign",
    "classify_monotone",
    "rho_tilde",
    "SIGN_FLOOR",
    "DEFAULT_JET_ORDER",
]

# A callable returning the Taylor jet of a scalar function: (x0, order) -> Jet.
JetFun = Callable[[float, int], Jet]

# Grid values closer to zero than this cannot be assigned a sign.
SIGN_FLOOR = 1e-12

# Default expansion order for jet evaluations exposed on chain nodes.
DEFAULT_JET_ORDER = 6


def lift(fn: Callable[[Jet], Jet]) -> JetFun:
    """Wrap an expression built from jet arithmetic into a JetFun."""

    def jf(x0: float, order: int = DEFAULT_JET_ORDER) -> Jet:
        return fn(Jet.variable(x0, order))

    return jf


def _derived(jf: JetFun) -> JetFun:
    def d(x0: float, order: int) -> Jet:
        return jf(x0, order + 1).deriv()

    return d


def _product(a: JetFun, b: JetFun) -> JetFun:
    def m(x0: float, order: int) -> Jet:
        return a(x0, order) * b(x0, order)

    return m


@dataclass(frozen=True)
class ChainNode:
    """One stage of the reduction: holds f_i, g_i and their jets."""

    index: int
    f_jetfun: JetFun
    g_jetfun: JetFun
    multiplier: JetFun | None  # a_i; None at the chain root

    def f(self, x: float) -> float:
        return self.f_jetfun(x, 0).value

    def g(self, x: float) -> float:
        return self.g_jetfun(x, 0).value

    def r(self, x: float) -> float:
        return self.f(x) / self.g(x)

    def f_jet(self, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
        return self.f_jetfun(x, order)

    def g_jet(self, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
        return self.g_jetfun(x, order)

    def dr(self, x: float) -> float:
        """r_i'(x) by the quotient rule over jets."""
        fj = self.f_jetfun(x, 1)
        gj = self.g_jetfun(x, 1)
        f0, f1 = fj.coeffs
        g0, g1 = gj.coeffs
        return (f1 * g0 - f0 * g1) / (g0 * g0)

    def r_jetfun(self) -> JetFun:
        def jf(x0: float, order: int = DEFAULT_JET_ORDER) -> Jet:
            return self.f_jetfun(x0, order) / self.g_jetfun(x0, order)

        return jf


def build_chain_rt(a: int) -> list[ChainNode]:
    """Nodes 0..4 of the RT reduction anchored at a in {0, 1}."""
    b, c = anchor_line("RT", a)
    rt = pair("RT")
    anchor = float(a)
    f0 = lift(lambda x: rt.f(x) - b * rt.g(x) - c * (x - anchor) * rt.g(x))
    g0 = lift(lambda x: (x - anchor) ** 2 * rt.g(x))
    multipliers: list[JetFun] = [
        lift(lambda x: (4.0 - x * x).sqrt()),
        lift(lambda x: (4.0 - x * x).sqrt() / (2.0 - x * x)),
        lift(lambda x: (2.0 - x * x) ** 2 / (50.0 - 29.0 * x * x + 9.0 * x**4)),
        lift(lambda x: (50.0 - 29.0 * x * x + 9.0 * x**4) ** 2 / (2.0 - x * x)),
    ]
    nodes = [ChainNode(index=0, f_jetfun=f0, g_jetfun=g0, multiplier=None)]
    for i, mult in enumerate(multipliers, start=1):
        prev = nodes[-1]
        nodes.append(
            ChainNode(
                index=i,
                f_jetfun=_product(mult, _derived(prev.f_jetfun)),
                g_jetfun=_product(mult, _derived(prev.g_jetfun)),
                multiplier=mult,
            )
        )
    return nodes


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


def classify_sign(
    h: Callable[[float], float], lo: float, hi: float, grid: int
) -> SignPattern:
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


def classify_monotone(h: JetFun, lo: float, hi: float, grid: int) -> MonotonePattern:
    """Arrow pattern of h from the sign pattern of its jet derivative."""

    def hprime(x: float) -> float:
        return h(x, 1).coeffs[1]

    sp = classify_sign(hprime, lo, hi, grid)
    arrows = sp.symbols.replace("+", "↗").replace("-", "↘")
    return MonotonePattern(symbols=arrows, breakpoints=sp.breakpoints)


def rho_tilde(node: ChainNode, x: float) -> float:
    """sign(g_i') * (r_{i+1} g_i - f_i); its sign equals the sign of r_i'."""
    fj = node.f_jetfun(x, 1)
    gj = node.g_jetfun(x, 1)
    f0, f1 = fj.coeffs
    g0, g1 = gj.coeffs
    if abs(g1) < SIGN_FLOOR:
        raise DomainError(f"g_{node.index}'({x!r}) ~ 0; rho_tilde undefined")
    sign = 1.0 if g1 > 0.0 else -1.0
    return sign * ((f1 / g1) * g0 - f0)
