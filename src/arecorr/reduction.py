"""Derivative reduction chain for the RT pair with pattern classification.

The chain starts from f0 = f - b*g - c*(x-a)*g and g0 = (x-a)^2*g and
repeatedly applies f_i = a_i * f_{i-1}', g_i = a_i * g_{i-1}' with fixed
positive multipliers a_i, so the monotonicity of r_0 = f_0/g_0 (which is
the second-difference function q_a) reduces to sign questions about the
last ratio.  `ChainNode.stages` evaluates node i in one pass up this
recursion: it expands f0 and g0 as Taylor jets of order `order + i` and
differentiates and multiplies i times, so every f_k and g_k, k <= i,
comes out of the one pass, and nested differentiation is exact to
rounding.  Stage k holds the bits of node k's own pass, so one order-1
pass of node 4 serves the whole chain.  On an array of points one pass
gives the whole grid, bitwise equal to the pass at each point.
`scan_signs` reads the sign pattern of such a pass as an array: a mask
finds the first value that is not finite or lies below SIGN_FLOOR in
size, which it names in its Indeterminate error, and a change mask of
the signs gives the pattern and the point before each change; `verify`
needs only that.  `stage_rho_tilde` reads rho_tilde off a stage's
order-1 jets at one point, for `verify` and `reduce`.  `sign_patterns`
also finds where each sign changes, for `reduce`: it bisects every sign
change of all the scans it is given in one `bisect_roots` lockstep, so
one node-4 pass per step on all the open midpoints serves every f_i,
g_i and r_i'.  `bisect_roots` is the package's one root bisection:
`are_bounds.crossover` needs none, since the difference of two
quadratic bounds is a quadratic, solved in closed form.  Only the RT
chain is available: the multiplier lists for the other two pairs are
not published in reproducible form, so nothing is guessed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .are_bounds import pair, quad_bounds
from .errors import DomainError, Indeterminate
from .taylor import Jet

__all__ = [
    "MULTIPLIERS",
    "ChainNode",
    "SignPattern",
    "interior_grid",
    "build_chain_rt",
    "classify_sign",
    "scan_signs",
    "bisect_roots",
    "sign_patterns",
    "stage_rho_tilde",
    "SIGN_FLOOR",
]

# Grid values closer to zero than this cannot be assigned a sign.
SIGN_FLOOR = 1e-12

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

    def stages(self, x: float | np.ndarray, order: int = 0) -> list[tuple[Jet, Jet]]:
        """The jets of (f_k, g_k) for k = 0..i at x (a point or an array),
        each truncated at `order`, from one pass up the recursion.

        Coefficient k of a jet operation depends only on coefficients
        <= k of its operands, so the low coefficients do not depend on
        the order a pass runs at: stage k is bitwise node k's own pass.
        """
        rt = pair("RT")
        v = Jet.variable(x, order + self.index)
        g = rt.g(v)
        f = rt.f(v) - self.b * g - self.c * (v - self.anchor) * g
        g = (v - self.anchor) ** 2 * g
        out = [(f, g)]
        for k in range(1, self.index + 1):
            m = MULTIPLIERS[k - 1](Jet.variable(x, order + self.index - k))
            f, g = m * f.deriv(), m * g.deriv()
            out.append((f, g))
        n = order + 1
        return [(Jet(f.center, f.coeffs[:n]), Jet(g.center, g.coeffs[:n])) for f, g in out]

    def jets(self, x: float | np.ndarray, order: int = 0) -> tuple[Jet, Jet]:
        """The jets of f_i and g_i at x to `order`; only the gate and tests call it, f or g."""
        return self.stages(x, order)[-1]

    def f(self, x: float) -> float:
        return self.jets(x)[0].value

    def g(self, x: float) -> float:
        return self.jets(x)[1].value


def build_chain_rt(a: int) -> list[ChainNode]:
    """Nodes 0..4 of the RT reduction anchored at a in {0, 1}."""
    line = quad_bounds("RT", a)[0]
    return [ChainNode(float(a), i, line.b, line.c) for i in range(len(MULTIPLIERS) + 1)]


@dataclass(frozen=True)
class SignPattern:
    symbols: str  # over {+, -}
    breakpoints: tuple[float, ...]


def interior_grid(lo: float, hi: float, grid: int) -> list[float]:
    """The points lo + (hi - lo) j/(grid + 1), j = 1..grid, inside (lo, hi)."""
    return [lo + (hi - lo) * j / (grid + 1) for j in range(1, grid + 1)]


def scan_signs(
    xs: list[float], values: np.ndarray | list[float]
) -> tuple[str, list[tuple[int, float]]]:
    """The sign pattern of values (an array, or a list) on the grid xs,
    read in grid order, and for each sign change the index j and value
    of the point before it.

    A value that is not finite or has |value| < SIGN_FLOOR raises
    Indeterminate, naming the first such value in grid order: pattern
    claims are sign claims, so a value too close to zero must fail the
    scan loudly rather than be skipped.
    """
    v = np.asarray(values, dtype=float)
    ok = np.isfinite(v) & (np.abs(v) >= SIGN_FLOOR)
    if not ok.all():
        j = ok.tolist().index(False)
        raise Indeterminate(f"|h({xs[j]!r})| = {v[j].item()!r} too small to carry a sign")
    if not len(v):
        return "", []
    plus = v > 0.0
    at = (plus[:-1] ^ plus[1:]).nonzero()[0].tolist()
    symbols = "".join("+" if plus[k] else "-" for k in [0] + [j + 1 for j in at])
    return symbols, [(j, v[j].item()) for j in at]


def bisect_roots(h: Callable, lo: list[float], hi: list[float], flo: list[float]) -> list[float]:
    """A sign change of h in each bracket [lo[j], hi[j]], with flo[j] = h(lo[j]),
    for `sign_patterns`.

    Each step is one call h(mid, at) on the midpoints of the brackets still
    open and their indices j, two arrays.  A bracket stops when it is at most
    1e-10 wide or h is 0 at its midpoint, so its root has the bits that
    bisecting it alone gives.
    """
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    open_ = np.flatnonzero(hi - lo > 1e-10)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        fm = h(mid, open_)
        up = (fm > 0.0) == (flo[open_] > 0.0)
        lo[open_[up]], flo[open_[up]] = mid[up], fm[up]
        hi[open_[~up]] = mid[~up]
        zero = fm == 0.0
        # A zero closes its bracket on the midpoint: 0.5 * (mid + mid) is mid.
        lo[open_[zero]] = hi[open_[zero]] = mid[zero]
        open_ = open_[hi[open_] - lo[open_] > 1e-10]
    return (0.5 * (lo + hi)).tolist()


def sign_patterns(h: Callable, xs: list[float], scans: list) -> list[SignPattern]:
    """The sign pattern of each `scan_signs` result on the grid xs, with
    every sign change of every scan bisected in one `bisect_roots`
    lockstep; h(mid, k) maps an array of points, and the index into
    `scans` of the function each belongs to, to that function's values."""
    changes = [(k, j, v) for k, (_, ch) in enumerate(scans) for j, v in ch]
    scan_of = np.array([k for k, _, _ in changes], dtype=int)
    lo, hi = [xs[j] for _, j, _ in changes], [xs[j + 1] for _, j, _ in changes]
    roots = iter(bisect_roots(lambda m, at: h(m, scan_of[at]), lo, hi, [v for *_, v in changes]))
    return [SignPattern(sym, tuple(next(roots) for _ in ch)) for sym, ch in scans]


def classify_sign(h: Callable[[float], float], lo: float, hi: float, grid: int) -> SignPattern:
    """Sign pattern of the scalar function h on the interior grid of (lo, hi)."""
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid!r}")
    if not (lo < hi):
        raise ValueError("require lo < hi")
    pts = interior_grid(lo, hi, grid)
    scan = scan_signs(pts, np.array([h(x) for x in pts]))
    return sign_patterns(lambda m, _: np.array([h(x) for x in m.tolist()]), pts, [scan])[0]


def stage_rho_tilde(i: int, f: Jet, g: Jet) -> float:
    """sign(g_i') * (r_{i+1} g_i - f_i) at one point, from the order-1 jets
    of f_i and g_i there; its sign equals the sign of r_i'."""
    f0, f1 = f.coeffs
    g0, g1 = g.coeffs
    if abs(g1) < SIGN_FLOOR:
        raise DomainError(f"g_{i}'({g.center!r}) ~ 0; rho_tilde undefined")
    sign = 1.0 if g1 > 0.0 else -1.0
    return sign * ((f1 / g1) * g0 - f0)
