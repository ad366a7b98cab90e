"""Argument checks of the verify suite, called as a library."""

from __future__ import annotations

import math
import re

import pytest

from arecorr import reduction
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
