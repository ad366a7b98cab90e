"""Named invariant suites over the whole package, for the CLI and tests.

Each check gets a stable dotted name, a pass flag and a worst signed
margin.  The grid is the interior scheme x_j = j/(grid+1), j = 1..grid,
on (0, 1).  A check passes by one of three rules:

- a strict check (monotonicity, ranges, sandwiches, the endgame) passes
  when its margin, the worst slack over the grid, is > 0;
- a tolerance check (closed-form endpoints, factorization, moment
  assembly) passes when its worst deviation is <= the tolerance, and
  its margin is the tolerance minus that deviation;
- a reduction trace check is strict on its worst bracket slack, and
  reports margin -1.0 when a sign pattern is wrong (or, at anchor 0,
  the third stage does not vanish at 0+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .are_bounds import (
    are,
    are_from_moments,
    endpoint_constants,
    pair,
    q,
    quad_bounds,
    quartic_bounds_rs,
    ratio_slope,
)
from .corrmath import sigma_s2
from .reduction import build_chain_rt, classify_sign, interior_grid, rho_tilde, tabulated

__all__ = ["CheckResult", "run_checks", "MIN_GRID", "ENDPOINT_TOL"]

# Coarser grids cannot resolve the sign patterns whose roots sit ~0.02
# apart, so the suite refuses them.
MIN_GRID = 99

# Fixed comparison tolerance for the closed-form endpoint constants.
ENDPOINT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _closed_forms() -> dict[tuple[str, int], float]:
    s5 = math.sqrt(5.0)
    return {
        ("RT", 0): math.pi**2 / 9.0,
        ("RT", 1): 2.0 * math.pi * math.sqrt(3.0) / 9.0,
        ("TS", 0): 1.0,
        ("TS", 1): 9.0 * math.sqrt(3.0) * (11.0 * s5 - 15.0) / (40.0 * math.pi),
        ("RS", 0): math.pi**2 / 9.0,
        ("RS", 1): 3.0 * (11.0 * s5 - 15.0) / 20.0,
    }


def _check(name: str, margin: float, detail: str, passed: bool | None = None) -> CheckResult:
    """The result of one check; it passes when margin > 0 unless `passed` is given."""
    return CheckResult(name, margin > 0.0 if passed is None else passed, margin, detail)


def _strict_increase_margin(vals: list[float]) -> float:
    return min(b - a for a, b in zip(vals, vals[1:]))


def run_checks(grid: int = 999, tol: float = 1e-10) -> list[CheckResult]:
    """Run every named invariant; returns one CheckResult per name."""
    if grid < MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID}, got {grid!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    xs = interior_grid(0.0, 1.0, grid)
    # One array quadrature pass; the float sigma_s2 calls below read the memo.
    sigma_s2(np.array(xs))
    pairs = [pair(tag) for tag in ("RT", "TS", "RS")]
    results: list[CheckResult] = []

    # --- endpoint constants against closed forms --------------------------
    for (tag, a), want in _closed_forms().items():
        ep = endpoint_constants(pair(tag))
        got = ep.are_at_1 if a else ep.are_at_0
        diff = abs(got - want)
        detail = f"|{got!r} - {want!r}| = {diff:.3e}"
        name = f"endpoints.closed_form.{tag}.{a}"
        results.append(_check(name, ENDPOINT_TOL - diff, detail, diff <= ENDPOINT_TOL))

    # --- efficiency curves and the second-difference functions -------------
    are_vals = {p.tag: [are(p, x) for x in xs] for p in pairs}
    for p in pairs:
        margin = _strict_increase_margin(are_vals[p.tag])
        results.append(_check(f"are.monotone.{p.tag}", margin, f"min grid step {margin:.3e}"))

    for p in pairs:
        for a in (0, 1):
            qs = [q(p, a, x) for x in xs]
            margin = _strict_increase_margin(qs)
            results.append(
                _check(f"theorem1.q_monotone.{p.tag}.{a}", margin, f"min grid step {margin:.3e}")
            )
            lo, hi = (bound.q for bound in quad_bounds(p, a))
            margin = min(min(v - lo for v in qs), min(hi - v for v in qs))
            results.append(
                _check(f"theorem1.q_range.{p.tag}.{a}", margin, f"q in ({lo:.6f}, {hi:.6f})")
            )

    # --- quadratic sandwich and quartic refinement -------------------------
    for p in pairs:
        for a in (0, 1):
            lower, upper = quad_bounds(p, a)
            vals = are_vals[p.tag]
            margin = min(
                min(v - lower(x) for x, v in zip(xs, vals)),
                min(upper(x) - v for x, v in zip(xs, vals)),
            )
            detail = f"min slack {margin:.3e}"
            results.append(_check(f"bounds.sandwich.{p.tag}.{a}", margin, detail))

    for a in (0, 1):
        (lo_rt, up_rt), (lo_ts, up_ts), (lo_rs, up_rs) = (quad_bounds(p, a) for p in pairs)
        margin = math.inf
        for x, v in zip(xs, are_vals["RS"]):
            ltilde, utilde = lo_rt(x) * lo_ts(x), up_rt(x) * up_ts(x)
            margin = min(margin, ltilde - lo_rs(x), v - ltilde, utilde - v, up_rs(x) - utilde)
        detail = f"min slack in quartic chain {margin:.3e}"
        results.append(_check(f"bounds.quartic.RS.{a}", margin, detail))

    margin = math.inf
    for x, v in zip(xs, are_vals["RS"]):
        lo, hi = quartic_bounds_rs(x)
        margin = min(margin, v - lo, hi - v)
    results.append(_check("bounds.quartic_combined.RS", margin, f"min slack {margin:.3e}"))

    # --- cross-pair and cross-module consistency ---------------------------
    worst = max(abs(rs - rt * ts) for rt, ts, rs in zip(*are_vals.values()))
    detail = f"max |are_RS - are_RT*are_TS| = {worst:.3e}"
    results.append(_check("factorization.identity", tol - worst, detail, worst <= tol))

    for p in pairs:
        worst = max(abs(p.f(x) / p.g(x) - are_from_moments(p, x)) for x in xs)
        detail = f"max |f/g - moment assembly| = {worst:.3e}"
        results.append(
            _check(f"consistency.moment_assembly.{p.tag}", tol - worst, detail, worst <= tol)
        )

    # --- reduction chain ----------------------------------------------------
    for a in (0, 1):
        f4, g4 = build_chain_rt(a)[4].jets(np.array(xs), 1)
        # Python's min in grid order, as the scalar scan took it (np.min
        # treats NaN differently).
        margin = math.inf
        for vals in zip((-f4.value).tolist(), (-g4.value).tolist(), ratio_slope(f4, g4).tolist()):
            margin = min(margin, *vals)
        detail = "needs f4 < 0, g4 < 0, r4' > 0 on the grid"
        results.append(_check(f"reduction.endgame.RT.{a}", margin, detail))

    return results + [_trace_rt0(xs), _trace_rt1(xs)]


def _pattern_problems(nodes: list, xs: list[float], wants: list[tuple[str, str]]) -> list[str]:
    """Classify each named f_i or g_i on xs, one array pass per node; one
    line per pattern that is not the wanted one."""
    funcs = {}
    for node in nodes:
        fj, gj = node.jets(np.array(xs))
        funcs[f"f{node.index}"] = tabulated(xs, fj.value, node.f)
        funcs[f"g{node.index}"] = tabulated(xs, gj.value, node.g)
    problems = []
    for name, want in wants:
        got = classify_sign(funcs[name], 0.0, 1.0, len(xs)).symbols
        if got != want:
            problems.append(f"{name}: got {got!r}, want {want!r}")
    return problems


def _trace_rt0(xs: list[float]) -> CheckResult:
    chain = build_chain_rt(0)
    problems = _pattern_problems(
        chain[:3],
        xs,
        [("g2", "+-"), ("f2", "+-"), ("g1", "+-"), ("f1", "+-"), ("g0", "+")],
    )
    # Bracketing facts and the vanishing of the third stage at 0+.
    f2, g2 = chain[2].jets(0.41)
    f1, g1 = chain[1].jets(0.71)
    margin = min(-g2.value, f2.value, -g1.value, f1.value)
    f3, g3 = chain[3].jets(1e-6)
    vanish = max(abs(f3.value), abs(g3.value))
    if vanish > 1e-4:
        problems.append(f"stage-3 at 0+ = {vanish:.3e}")
    detail = "; ".join(problems) or f"min bracket slack {margin:.3e}"
    return _check("reduction.trace.RT.0", -1.0 if problems else margin, detail)


def _trace_rt1(xs: list[float]) -> CheckResult:
    chain = build_chain_rt(1)
    problems = _pattern_problems(
        chain[:4],
        xs,
        [("g3", "+-"), ("f3", "+-"), ("g2", "+"), ("f2", "-+"), ("g1", "-"), ("g0", "+")],
    )
    f3, g3 = chain[3].jets(0.6)
    margin = min(-g3.value, f3.value, rho_tilde(chain[2], 1e-6))
    detail = "; ".join(problems) or f"min bracket/rho_tilde slack {margin:.3e}"
    return _check("reduction.trace.RT.1", -1.0 if problems else margin, detail)
