"""Named invariant suites over the whole package, for the CLI and tests.

Each check gets a stable dotted name, a pass flag and a worst signed
margin.  The grid is `reduction.sign_grid`, the interior scheme
x_j = j/(grid+1), j = 1..grid, on (0, 1) with grid >= MIN_GRID; a
coarser or too large grid, and then a tol that is not finite and > 0,
raise BadArgument before the grid is built.  Every grid check is an
array pass: one call of `are`, the bounds or the moment assembly per
pair and anchor gives the whole grid,
bitwise equal to the calls at each point, and each worst margin is
taken by Python's `min`/`max` over the list of slacks in grid order, as
a loop over the points took it.  Each grid quantity is computed once:
q_a comes from the `are` values by `q_from_are`, and the moment-assembly
row compares with those same values, except within SERIES_RADIUS of 1,
where `are` is the endpoint series and f/g is taken directly.  One
`reduction.scan_chain` pass of node 4 per anchor, on the grid and a few
probe points after it, gives the endgame, the sign patterns of the
reduction trace (its scans, with no root bisection) and the trace's
bracket values and rho_tilde.  A check passes by one of three rules:

- a strict check (`_strict`: monotonicity, ranges, sandwiches, the
  endgame) passes when its margin, the worst slack over the grid, is > 0;
- a tolerance check (`_within`: closed-form endpoints, factorization,
  moment assembly) passes when its worst deviation is <= the tolerance,
  and its margin is the tolerance minus that deviation;
- a reduction trace check is strict on its worst bracket slack, and
  reports margin -1.0 when a sign pattern is wrong (or, at anchor 0,
  the third stage does not vanish at 0+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .are_bounds import (
    PAIR_TAGS,
    SERIES_RADIUS,
    are,
    are_from_moments,
    endpoint_constants,
    pair,
    q_from_are,
    quad_bounds,
    quartic_bounds_rs,
)
from .are_bounds import q  # noqa: F401  bench/layertrace.py patches it here
from .corrmath import sigma_s2
from .errors import BadArgument, Indeterminate
from .reduction import MIN_GRID, build_chain_rt, check_sign_grid, scan_chain, sign_grid
from .reduction import stage_rho_tilde
from .reduction import classify_sign  # noqa: F401  bench/layertrace.py patches it here

__all__ = ["CheckResult", "run_checks", "MIN_GRID", "ENDPOINT_TOL"]

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


def _strict(name: str, detail: str, *slacks: float | np.ndarray) -> CheckResult:
    """A row that passes when its margin is > 0: min(s0[0], s1[0], ...,
    s0[1], s1[1], ...) by Python's min over slacks that are grid arrays
    or floats, the least slack point by point in grid order, as a loop
    over the grid took it.  Its detail is `detail.format(margin)`."""
    margin = min(np.column_stack(slacks).ravel().tolist())
    return CheckResult(name, margin > 0.0, margin, detail.format(margin))


def _within(name: str, tol: float, what: str, deviation: float | np.ndarray) -> CheckResult:
    """A tolerance row: it passes when the largest |deviation| (a float,
    or an array over the grid) is <= tol, with margin tol minus it."""
    worst = max(np.abs(np.ravel(deviation)).tolist())
    return CheckResult(name, worst <= tol, tol - worst, f"{what} = {worst:.3e}")


def run_checks(grid: int = 999, tol: float = 1e-10) -> list[CheckResult]:
    """Run every named invariant; returns one CheckResult per name.  A bad
    grid, and then a bad tol, raise BadArgument before the grid is built."""
    check_sign_grid(grid)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise BadArgument(f"tol must be finite and > 0, got {tol!r}")
    xs = sign_grid(grid)
    x = np.array(xs)
    # One quadrature pass over the whole grid: the memo then holds exactly
    # the grid, so no later sigma_s2 read of grid points integrates again.
    sigma_s2(x)
    results: list[CheckResult] = []

    # --- endpoint constants against closed forms --------------------------
    for (tag, a), want in _closed_forms().items():
        ep = endpoint_constants(tag)
        got = ep.are_at_1 if a else ep.are_at_0
        name = f"endpoints.closed_form.{tag}.{a}"
        results.append(_within(name, ENDPOINT_TOL, f"|{got!r} - {want!r}|", got - want))

    # --- efficiency curves and the second-difference functions -------------
    are_vals = {tag: are(tag, x) for tag in PAIR_TAGS}
    for tag in PAIR_TAGS:
        step = np.diff(are_vals[tag])
        results.append(_strict(f"are.monotone.{tag}", "min grid step {:.3e}", step))

    for tag in PAIR_TAGS:
        for a in (0, 1):
            qs = q_from_are(tag, a, x, are_vals[tag])
            name = f"theorem1.q_monotone.{tag}.{a}"
            results.append(_strict(name, "min grid step {:.3e}", np.diff(qs)))
            lo, hi = (bound.q for bound in quad_bounds(tag, a))
            detail = f"q in ({lo:.6f}, {hi:.6f})"
            results.append(_strict(f"theorem1.q_range.{tag}.{a}", detail, qs - lo, hi - qs))

    # --- quadratic sandwich and quartic refinement -------------------------
    for tag in PAIR_TAGS:
        for a in (0, 1):
            lower, upper = quad_bounds(tag, a)
            vals = are_vals[tag]
            name = f"bounds.sandwich.{tag}.{a}"
            results.append(_strict(name, "min slack {:.3e}", vals - lower(x), upper(x) - vals))

    rs = are_vals["RS"]
    for a in (0, 1):
        (lo_rt, up_rt), (lo_ts, up_ts), (lo_rs, up_rs) = (quad_bounds(tag, a) for tag in PAIR_TAGS)
        ltilde, utilde = lo_rt(x) * lo_ts(x), up_rt(x) * up_ts(x)
        slacks = ltilde - lo_rs(x), rs - ltilde, utilde - rs, up_rs(x) - utilde
        detail = "min slack in quartic chain {:.3e}"
        results.append(_strict(f"bounds.quartic.RS.{a}", detail, *slacks))

    lo, hi = quartic_bounds_rs(x)
    results.append(_strict("bounds.quartic_combined.RS", "min slack {:.3e}", rs - lo, hi - rs))

    # --- cross-pair and cross-module consistency ---------------------------
    product = are_vals["RT"] * are_vals["TS"]
    what = "max |are_RS - are_RT*are_TS|"
    results.append(_within("factorization.identity", tol, what, rs - product))

    # Off the endpoint-series band, are is f/g itself.
    band = 1.0 - x <= SERIES_RADIUS
    for tag in PAIR_TAGS:
        p = pair(tag)
        fg = are_vals[tag].copy()
        if band.any():
            fg[band] = p.f(x[band]) / p.g(x[band])
        name = f"consistency.moment_assembly.{tag}"
        what = "max |f/g - moment assembly|"
        results.append(_within(name, tol, what, fg - are_from_moments(tag, x)))

    # --- reduction chain ----------------------------------------------------
    # One `scan_chain` pass of node 4 per anchor, on the grid and then the
    # trace's probe points, holds every f_i and g_i for the endgame and
    # for the anchor's trace.
    traces = []
    for a, probes, trace in ((0, (0.41, 0.71, 1e-6), _trace_rt0), (1, (0.6, 1e-6), _trace_rt1)):
        values, scans, at = scan_chain(build_chain_rt(a)[4], xs, probes)
        f4, g4, r4 = values[-3:]
        detail = "needs f4 < 0, g4 < 0, r4' > 0 on the grid"
        results.append(_strict(f"reduction.endgame.RT.{a}", detail, -f4, -g4, r4))
        traces.append(trace(scans, at))

    return results + traces


def _pattern_problems(scans: list, wants: list[tuple[str, str]]) -> list[str]:
    """One line per named f_i or g_i whose pattern in `scan_chain`'s scans
    is not the wanted one, read in `wants` order; the first of them that
    has no sign raises its Indeterminate."""
    problems = []
    for name, want in wants:
        scan = scans[3 * int(name[1:]) + "fg".index(name[0])]
        if isinstance(scan, Indeterminate):
            raise scan
        if scan[0] != want:
            problems.append(f"{name}: got {scan[0]!r}, want {want!r}")
    return problems


def _trace_rt0(scans: list, at: dict) -> CheckResult:
    problems = _pattern_problems(
        scans, [("g2", "+-"), ("f2", "+-"), ("g1", "+-"), ("f1", "+-"), ("g0", "+")]
    )
    # Bracketing facts and the vanishing of the third stage at 0+.
    f2, g2 = at[0.41][2]
    f1, g1 = at[0.71][1]
    margin = min(-g2.value, f2.value, -g1.value, f1.value)
    f3, g3 = at[1e-6][3]
    vanish = max(abs(f3.value), abs(g3.value))
    if vanish > 1e-4:
        problems.append(f"stage-3 at 0+ = {vanish:.3e}")
    detail = "; ".join(problems) or "min bracket slack {:.3e}"
    return _strict("reduction.trace.RT.0", detail, -1.0 if problems else margin)


def _trace_rt1(scans: list, at: dict) -> CheckResult:
    problems = _pattern_problems(
        scans, [("g3", "+-"), ("f3", "+-"), ("g2", "+"), ("f2", "-+"), ("g1", "-"), ("g0", "+")]
    )
    f3, g3 = at[0.6][3]
    margin = min(-g3.value, f3.value, stage_rho_tilde(2, *at[1e-6][2]))
    detail = "; ".join(problems) or "min bracket/rho_tilde slack {:.3e}"
    return _strict("reduction.trace.RT.1", detail, -1.0 if problems else margin)
