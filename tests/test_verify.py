"""Argument checks of the verify suite, called as a library."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from arecorr import are_bounds, corrmath, reduction, verify
from arecorr.reduction import ChainNode, build_chain_rt, classify_sign, interior_grid
from arecorr.verify import MIN_GRID, CheckResult, run_checks


@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan], ids=["zero", "inf", "nan"])
def test_run_checks_refuses_a_tolerance_that_is_not_finite_and_positive(tol: float) -> None:
    # An infinite tolerance would pass every tolerance check with an
    # infinite margin, which JSON cannot carry.
    with pytest.raises(ValueError, match="tol"):
        run_checks(MIN_GRID, tol)


def _trace_results() -> dict[str, CheckResult]:
    return {r.name: r for r in run_checks(MIN_GRID) if r.name.startswith("reduction.trace.")}


def test_trace_checks_report_a_wrong_sign_pattern(monkeypatch) -> None:
    # Negating a_1 flips the sign of every f_i and g_i with i >= 1.
    a1 = reduction.MULTIPLIERS[0]
    monkeypatch.setattr(
        reduction, "MULTIPLIERS", (lambda x: -a1(x),) + reduction.MULTIPLIERS[1:]
    )
    mismatch = r"\w+: got '[+-]+', want '[+-]+'"
    traces = _trace_results()
    for name, r in traces.items():
        assert r.passed is False and r.margin == -1.0, name
        assert re.fullmatch(f"({mismatch}; )*{mismatch}", r.detail), r.detail
    assert "g1: got '-+', want '+-'" in traces["reduction.trace.RT.0"].detail


def test_trace_check_reports_a_third_stage_that_does_not_vanish_at_0(monkeypatch) -> None:
    # Scaling a_3 keeps every sign pattern but lifts f_3 and g_3 at 0+.
    a3 = reduction.MULTIPLIERS[2]
    multipliers = list(reduction.MULTIPLIERS)
    multipliers[2] = lambda x: 1e12 * a3(x)
    monkeypatch.setattr(reduction, "MULTIPLIERS", tuple(multipliers))
    traces = _trace_results()
    rt0 = traces["reduction.trace.RT.0"]
    assert rt0.passed is False and rt0.margin == -1.0
    assert re.fullmatch(r"stage-3 at 0\+ = \d\.\d{3}e\+\d\d", rt0.detail), rt0.detail
    assert traces["reduction.trace.RT.1"].passed is True


def test_checks_read_the_chain_from_array_passes_alone(monkeypatch) -> None:
    # verify reads every chain value, the trace brackets and rho_tilde
    # included, from one pass of node 4 per anchor and bisects nothing,
    # so it must pass without the accessors.
    def refuse(self, x, order=0):
        raise AssertionError(f"scalar evaluation of node {self.index} at {x!r}")

    passes = []
    stages = ChainNode.stages

    def counted(self, x, order=0):
        passes.append((self.index, len(x), order))
        return stages(self, x, order)

    for name in ("f", "g", "jets"):
        monkeypatch.setattr(ChainNode, name, refuse)
    monkeypatch.setattr(ChainNode, "stages", counted)
    results = run_checks(MIN_GRID)
    assert len(results) == 38
    assert [r.name for r in results if not r.passed] == []
    # The grid and the probe points: three at anchor 0, two at anchor 1.
    assert passes == [(4, MIN_GRID + 3, 1), (4, MIN_GRID + 2, 1)]


@pytest.mark.parametrize("grid", [99, 499])
def test_pattern_scan_agrees_with_classify_sign_on_every_node(grid: int) -> None:
    xs = interior_grid(0.0, 1.0, grid)
    for a in (0, 1):
        nodes = build_chain_rt(a)
        wants = [
            (f"{name}{node.index}", classify_sign(getattr(node, name), 0.0, 1.0, grid).symbols)
            for node in nodes
            for name in "fg"
        ]
        stages = nodes[-1].stages(np.array(xs), 1)
        assert verify._pattern_problems(stages, xs, wants) == [], (a, wants)


def _bits(results: list[CheckResult]) -> list[tuple]:
    return [(r.name, r.passed, r.margin.hex(), r.detail) for r in results]


def test_run_checks_repeat_their_results_warm_and_after_every_memo_is_cleared(
    monkeypatch,
) -> None:
    first = _bits(run_checks(MIN_GRID))
    assert _bits(run_checks(MIN_GRID)) == first
    monkeypatch.setattr(corrmath, "_MEMO", {})
    monkeypatch.setattr(corrmath, "_JET_MEMO", {})
    monkeypatch.setattr(are_bounds, "_series_cache", {})
    assert _bits(run_checks(MIN_GRID)) == first
