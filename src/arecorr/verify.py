"""Named invariant suites over the whole package, for the CLI and tests.

Each check gets a stable dotted name, a pass flag, and a worst signed
margin (positive slack means pass; for tolerance-style checks the
margin is tolerance minus the worst observed deviation).  The grid is
the interior scheme x_j = j/(grid+1), j = 1..grid, on (0, 1).
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
    results: list[CheckResult] = []

    # --- endpoint constants against closed forms --------------------------
    closed = _closed_forms()
    for tag in ("RT", "TS", "RS"):
        ep = endpoint_constants(pair(tag))
        for a, got in ((0, ep.are_at_0), (1, ep.are_at_1)):
            diff = abs(got - closed[(tag, a)])
            results.append(
                CheckResult(
                    name=f"endpoints.closed_form.{tag}.{a}",
                    passed=diff <= ENDPOINT_TOL,
                    margin=ENDPOINT_TOL - diff,
                    detail=f"|{got!r} - {closed[(tag, a)]!r}| = {diff:.3e}",
                )
            )

    # --- efficiency curves and their second differences -------------------
    are_vals: dict[str, list[float]] = {}
    for tag in ("RT", "TS", "RS"):
        p = pair(tag)
        vals = [are(p, x) for x in xs]
        are_vals[tag] = vals
        margin = _strict_increase_margin(vals)
        results.append(
            CheckResult(
                name=f"are.monotone.{tag}",
                passed=margin > 0.0,
                margin=margin,
                detail=f"min grid step {margin:.3e}",
            )
        )

    for tag in ("RT", "TS", "RS"):
        p = pair(tag)
        for a in (0, 1):
            qs = [q(p, a, x) for x in xs]
            margin = _strict_increase_margin(qs)
            results.append(
                CheckResult(
                    name=f"theorem1.q_monotone.{tag}.{a}",
                    passed=margin > 0.0,
                    margin=margin,
                    detail=f"min grid step {margin:.3e}",
                )
            )
            lower, upper = quad_bounds(p, a)
            lo_lim, hi_lim = lower.q, upper.q
            margin = min(min(v - lo_lim for v in qs), min(hi_lim - v for v in qs))
            results.append(
                CheckResult(
                    name=f"theorem1.q_range.{tag}.{a}",
                    passed=margin > 0.0,
                    margin=margin,
                    detail=f"q in ({lo_lim:.6f}, {hi_lim:.6f})",
                )
            )

    # --- quadratic sandwich and quartic refinement -------------------------
    for tag in ("RT", "TS", "RS"):
        p = pair(tag)
        for a in (0, 1):
            lower, upper = quad_bounds(p, a)
            margin = min(
                min(v - lower(x) for x, v in zip(xs, are_vals[tag])),
                min(upper(x) - v for x, v in zip(xs, are_vals[tag])),
            )
            results.append(
                CheckResult(
                    name=f"bounds.sandwich.{tag}.{a}",
                    passed=margin > 0.0,
                    margin=margin,
                    detail=f"min slack {margin:.3e}",
                )
            )

    for a in (0, 1):
        lo_rt, up_rt = quad_bounds(pair("RT"), a)
        lo_ts, up_ts = quad_bounds(pair("TS"), a)
        lo_rs, up_rs = quad_bounds(pair("RS"), a)
        margin = math.inf
        for x, v in zip(xs, are_vals["RS"]):
            ltilde = lo_rt(x) * lo_ts(x)
            utilde = up_rt(x) * up_ts(x)
            margin = min(
                margin,
                ltilde - lo_rs(x),
                v - ltilde,
                utilde - v,
                up_rs(x) - utilde,
            )
        results.append(
            CheckResult(
                name=f"bounds.quartic.RS.{a}",
                passed=margin > 0.0,
                margin=margin,
                detail=f"min slack in quartic chain {margin:.3e}",
            )
        )

    combined_margin = math.inf
    for x, v in zip(xs, are_vals["RS"]):
        lo, hi = quartic_bounds_rs(x)
        combined_margin = min(combined_margin, v - lo, hi - v)
    results.append(
        CheckResult(
            name="bounds.quartic_combined.RS",
            passed=combined_margin > 0.0,
            margin=combined_margin,
            detail=f"min slack {combined_margin:.3e}",
        )
    )

    # --- cross-pair and cross-module consistency ---------------------------
    worst = max(
        abs(rs - rt * ts)
        for rt, ts, rs in zip(are_vals["RT"], are_vals["TS"], are_vals["RS"])
    )
    results.append(
        CheckResult(
            name="factorization.identity",
            passed=worst <= tol,
            margin=tol - worst,
            detail=f"max |are_RS - are_RT*are_TS| = {worst:.3e}",
        )
    )

    for tag in ("RT", "TS", "RS"):
        p = pair(tag)
        worst = max(abs(p.f(x) / p.g(x) - are_from_moments(p, x)) for x in xs)
        results.append(
            CheckResult(
                name=f"consistency.moment_assembly.{tag}",
                passed=worst <= tol,
                margin=tol - worst,
                detail=f"max |f/g - moment assembly| = {worst:.3e}",
            )
        )

    # --- reduction chain ----------------------------------------------------
    for a in (0, 1):
        f4, g4 = build_chain_rt(a)[4].jets(np.array(xs), 1)
        slopes = ratio_slope(f4, g4)
        # Python's min in grid order, as the scalar scan took it (np.min
        # treats NaN differently).
        margin = math.inf
        for vals in zip((-f4.value).tolist(), (-g4.value).tolist(), slopes.tolist()):
            margin = min(margin, *vals)
        results.append(
            CheckResult(
                name=f"reduction.endgame.RT.{a}",
                passed=margin > 0.0,
                margin=margin,
                detail="needs f4 < 0, g4 < 0, r4' > 0 on the grid",
            )
        )

    results.append(_trace_rt0(xs))
    results.append(_trace_rt1(xs))
    return results


def _pattern_checks(
    nodes: list, xs: list[float], wants: list[tuple[str, str]]
) -> tuple[bool, str]:
    """Classify each named f_i or g_i on xs, one array pass per node."""
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
    return (not problems, "; ".join(problems))


def _trace_rt0(xs: list[float]) -> CheckResult:
    chain = build_chain_rt(0)
    ok, detail = _pattern_checks(
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
        ok = False
        detail = (detail + "; " if detail else "") + f"stage-3 at 0+ = {vanish:.3e}"
    return CheckResult(
        name="reduction.trace.RT.0",
        passed=ok and margin > 0.0,
        margin=margin if ok else -1.0,
        detail=detail or f"min bracket slack {margin:.3e}",
    )


def _trace_rt1(xs: list[float]) -> CheckResult:
    chain = build_chain_rt(1)
    ok, detail = _pattern_checks(
        chain[:4],
        xs,
        [("g3", "+-"), ("f3", "+-"), ("g2", "+"), ("f2", "-+"), ("g1", "-"), ("g0", "+")],
    )
    f3, g3 = chain[3].jets(0.6)
    margin = min(-g3.value, f3.value, rho_tilde(chain[2], 1e-6))
    return CheckResult(
        name="reduction.trace.RT.1",
        passed=ok and margin > 0.0,
        margin=margin if ok else -1.0,
        detail=detail or f"min bracket/rho_tilde slack {margin:.3e}",
    )
