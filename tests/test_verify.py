"""Argument checks of the verify suite, called as a library."""

from __future__ import annotations

import math
import re

import pytest

from arecorr import are_bounds, corrmath, reduction, verify
from arecorr.errors import BadArgument, Indeterminate
from arecorr.reduction import ChainNode, build_chain_rt, classify_sign, interior_grid
from arecorr.verify import MIN_GRID, CheckResult, run_checks


@pytest.mark.parametrize(
    "call, name",
    [
        ((run_checks, MIN_GRID, 0.0), "tol"),
        ((run_checks, MIN_GRID, math.inf), "tol"),
        ((run_checks, MIN_GRID, math.nan), "tol"),
        ((run_checks, MIN_GRID - 1), "grid"),
        ((run_checks, MIN_GRID - 1, 0.0), "grid"),
        ((run_checks, 2**55), "grid"),
        ((interior_grid, 0.0, 1.0, 2**55), "grid"),
    ],
    ids=["zero", "inf", "nan", "coarse-grid", "coarse-grid-and-zero", "huge-grid", "interior"],
)
def test_run_checks_refuses_a_tolerance_that_is_not_finite_and_positive(call, name) -> None:
    # An infinite tolerance would pass every tolerance check with an
    # infinite margin, which JSON cannot carry.  A grid of 2**55 points
    # is refused before any of its list is built; with both a bad grid
    # and a bad tol, the grid is named.  BadArgument is a ValueError.
    fn, *args = call
    with pytest.raises(BadArgument, match=f"^{name} ") as raised:
        fn(*args)
    assert isinstance(raised.value, ValueError)


def test_run_checks_names_a_bad_tol_before_it_builds_the_grid(monkeypatch) -> None:
    # 10**12 points pass the size bound but would not fit in memory, so
    # the grid builder is patched to raise if it is reached.
    def refuse(*args):
        raise AssertionError(f"grid built: {args!r}")

    monkeypatch.setattr(reduction, "interior_grid", refuse)
    with pytest.raises(BadArgument, match="^tol "):
        run_checks(10**12, 0.0)
    with pytest.raises(BadArgument, match="^grid "):
        run_checks(MIN_GRID - 1, 0.0)


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

    for name in ("f", "g"):
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
        scans = reduction.scan_chain(nodes[-1], xs, ())[1]
        assert verify._pattern_problems(scans, wants) == [], (a, wants)


def test_one_stored_scan_serves_both_rules_for_a_value_without_a_sign() -> None:
    # At grid 99999 f_0 and g_0 at anchor 1, both ~ (1 - x)^3 near 1, fall
    # below SIGN_FLOOR.  reduce raises the first f_i or g_i in node order,
    # f_0 (test_cli); verify's trace raises the first function it wants, in
    # its `wants` order, which is g_0: the scan stored for it, unchanged.
    xs = interior_grid(0.0, 1.0, 99999)
    _, scans, at = reduction.scan_chain(build_chain_rt(1)[4], xs, (0.6, 1e-6))
    errors = {k: str(scan) for k, scan in enumerate(scans) if isinstance(scan, Indeterminate)}
    assert errors == {
        0: "|h(0.99994)| = 8.745724571165456e-13 too small to carry a sign",
        1: "|h(0.99997)| = 4.859927099990565e-13 too small to carry a sign",
    }
    with pytest.raises(Indeterminate) as raised:
        verify._trace_rt1(scans, at)
    assert raised.value is scans[1]


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
