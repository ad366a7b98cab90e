"""Tests for the RT derivative-reduction chain and pattern classifiers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arecorr.are_bounds import endpoint_constants, q, quad_bounds, ratio_slope
from arecorr.cli import _arrows, _chain_values
from arecorr.errors import DomainError, Indeterminate
from arecorr.reduction import (
    MULTIPLIERS,
    SIGN_FLOOR,
    ChainNode,
    bisect_roots,
    build_chain_rt,
    classify_sign,
    interior_grid,
    scan_signs,
    sign_patterns,
    stage_rho_tilde,
)
from arecorr.taylor import Jet

XS = [k / 10 for k in range(1, 10)]


def _dr(node: ChainNode, x: float) -> float:
    """r_i'(x) by the quotient rule over order-1 jets."""
    return ratio_slope(*node.jets(x, 1))


def _rho_tilde(node, x: float) -> float:
    """rho_tilde of node i at x, from node i's own order-1 pass."""
    return stage_rho_tilde(node.index, *node.jets(x, 1))


def test_chain_has_five_nodes_with_multipliers() -> None:
    for a in (0, 1):
        nodes = build_chain_rt(a)
        assert [n.index for n in nodes] == [0, 1, 2, 3, 4]
        assert all(n.anchor == float(a) for n in nodes)
        line = quad_bounds("RT", a)[0]
        assert all((n.b, n.c) == (line.b, line.c) for n in nodes)
    assert len(MULTIPLIERS) == 4
    for mult in MULTIPLIERS:
        # Every multiplier must be strictly positive on (0, 1): the
        # chain preserves sign information only under that condition.
        for x in XS:
            assert mult(Jet.variable(x, 0)).value > 0.0


def test_chain_rejects_unknown_anchor() -> None:
    with pytest.raises(DomainError):
        build_chain_rt(2)
    with pytest.raises(DomainError):
        build_chain_rt(-1)


def test_root_ratio_equals_second_difference_function() -> None:
    for a in (0, 1):
        root = build_chain_rt(a)[0]
        for x in XS:
            assert root.f(x) / root.g(x) == pytest.approx(q("RT", a, x), abs=1e-12)


def test_node_one_matches_hand_derived_closed_forms() -> None:
    # f1 = a1 * f0' and g1 = a1 * g0' admit elementary closed forms; the
    # jet pipeline has to reproduce them to rounding.
    ep = endpoint_constants("RT")
    b0, b1, c1 = ep.are_at_0, ep.are_at_1, ep.dare_at_1
    n0 = build_chain_rt(0)[1]
    n1 = build_chain_rt(1)[1]
    for x in XS:
        s = math.sqrt(4.0 - x * x)
        assert n0.f(x) == pytest.approx(
            -72.0 * math.asin(0.5 * x) + 18.0 * b0 * x * s, abs=1e-12
        )
        assert n0.g(x) == pytest.approx(s * (18.0 * x - 36.0 * x**3), abs=1e-12)
        f1 = -72.0 * math.asin(0.5 * x) + s * (
            18.0 * b1 * x - 9.0 * c1 * (1.0 - x * x) + 18.0 * c1 * x * (x - 1.0)
        )
        assert n1.f(x) == pytest.approx(f1, abs=1e-12)
        assert n1.g(x) == pytest.approx(
            -18.0 * s * (1.0 - x) ** 2 * (1.0 + 2.0 * x), abs=1e-12
        )


def test_anchor_zero_chain_sign_patterns() -> None:
    nodes = build_chain_rt(0)
    expected = {
        (0, "f"): ("+", ()),
        (0, "g"): ("+", ()),
        (1, "f"): ("+-", (0.7204661,)),
        (1, "g"): ("+-", (0.7071068,)),
        (2, "f"): ("+-", (0.4197841,)),
        (2, "g"): ("+-", (0.4023835,)),
        (3, "f"): ("-", ()),
        (3, "g"): ("-", ()),
        (4, "f"): ("-", ()),
        (4, "g"): ("-", ()),
    }
    for (i, which), (symbols, bps) in expected.items():
        fn = nodes[i].f if which == "f" else nodes[i].g
        sp = classify_sign(fn, 0.002, 0.998, 499)
        assert sp.symbols == symbols, (i, which)
        assert len(sp.breakpoints) == len(bps)
        for got, want in zip(sp.breakpoints, bps):
            assert got == pytest.approx(want, abs=1e-6)


def test_anchor_zero_g_flips_before_f_at_both_crossings() -> None:
    nodes = build_chain_rt(0)
    f1 = classify_sign(nodes[1].f, 0.002, 0.998, 499)
    g1 = classify_sign(nodes[1].g, 0.002, 0.998, 499)
    f2 = classify_sign(nodes[2].f, 0.002, 0.998, 499)
    g2 = classify_sign(nodes[2].g, 0.002, 0.998, 499)
    # The g-root precedes the f-root at each stage, so the ratio stays
    # controlled through the crossing; 1/sqrt(2) is the exact g1 root.
    assert g1.breakpoints[0] < 0.71 < f1.breakpoints[0]
    assert g1.breakpoints[0] == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert g2.breakpoints[0] < 0.41 < f2.breakpoints[0]


def test_anchor_zero_stage_three_vanishes_at_the_anchor() -> None:
    nodes = build_chain_rt(0)
    assert abs(nodes[3].f(1e-6)) <= 1e-4
    assert abs(nodes[3].g(1e-6)) <= 1e-4
    assert abs(nodes[3].f(0.5)) > 1e-2
    assert abs(nodes[3].g(0.5)) > 1e-2


def test_anchor_one_chain_sign_patterns() -> None:
    nodes = build_chain_rt(1)
    expected = {
        (0, "f"): ("+", ()),
        (0, "g"): ("+", ()),
        (1, "f"): ("-", ()),
        (1, "g"): ("-", ()),
        (2, "f"): ("-+", (0.068881,)),
        (2, "g"): ("+", ()),
        (3, "f"): ("+-", (0.6488742,)),
        (3, "g"): ("+-", (0.5374104,)),
        (4, "f"): ("-", ()),
        (4, "g"): ("-", ()),
    }
    for (i, which), (symbols, bps) in expected.items():
        fn = nodes[i].f if which == "f" else nodes[i].g
        sp = classify_sign(fn, 0.002, 0.998, 499)
        assert sp.symbols == symbols, (i, which)
        assert len(sp.breakpoints) == len(bps)
        for got, want in zip(sp.breakpoints, bps):
            assert got == pytest.approx(want, abs=1e-6)
    # Between the stage-3 roots both signs are pinned: g3 < 0 < f3.
    assert nodes[3].g(0.6) < 0.0 < nodes[3].f(0.6)


def test_endgame_final_ratio_is_increasing() -> None:
    for a in (0, 1):
        last = build_chain_rt(a)[4]
        for x in XS:
            assert last.f(x) < 0.0
            assert last.g(x) < 0.0
            assert _dr(last, x) > 0.0


def test_root_ratio_is_monotone_increasing() -> None:
    for a in (0, 1):
        root = build_chain_rt(a)[0]
        sp = classify_sign(lambda x, root=root: _dr(root, x), 0.05, 0.95, 199)
        assert _arrows(sp.symbols) == "↗"
        assert sp.breakpoints == ()


def test_classify_sign_finds_a_simple_crossing() -> None:
    sp = classify_sign(lambda x: x - 0.5, 0.0, 1.0, 1000)
    assert sp.symbols == "-+"
    assert len(sp.breakpoints) == 1
    assert sp.breakpoints[0] == pytest.approx(0.5, abs=1e-9)


def test_classify_sign_constant_has_no_breakpoints() -> None:
    sp = classify_sign(lambda x: 2.0, 0.0, 1.0, 50)
    assert sp.symbols == "+"
    assert sp.breakpoints == ()


def _scan_grid(h, grid: int) -> str:
    """scan_signs of h's values on the interior grid, read from one array."""
    xs = interior_grid(0.0, 1.0, grid)
    return scan_signs(xs, np.array([h(x) for x in xs]).tolist())[0]


def _rejected_at(h, grid: int, x: float, v: float) -> None:
    """Both classify_sign and the shared scan refuse h at the grid point x,
    the first bad one, with the same message."""
    message = f"|h({x!r})| = {v!r} too small to carry a sign"
    for scan in (lambda: classify_sign(h, 0.0, 1.0, grid), lambda: _scan_grid(h, grid)):
        with pytest.raises(Indeterminate) as err:
            scan()
        assert str(err.value) == message


def test_classify_sign_rejects_grid_values_too_close_to_zero() -> None:
    # grid=3 on (0, 1) places a point exactly at the root of x - 0.5.
    _rejected_at(lambda x: x - 0.5, 3, 0.5, 0.0)
    _rejected_at(lambda x: 1e-15, 10, 1 / 11, 1e-15)
    _rejected_at(lambda x: -1e-13 if x > 0.5 else 1.0, 10, 6 / 11, -1e-13)


def test_classify_sign_rejects_non_finite_values() -> None:
    # |inf| >= SIGN_FLOOR, so a magnitude test alone would let +inf through.
    _rejected_at(lambda x: math.inf if x > 0.5 else 1.0, 10, 6 / 11, math.inf)
    _rejected_at(lambda x: -math.inf if x > 0.7 else -1.0, 10, 8 / 11, -math.inf)
    _rejected_at(lambda x: math.nan, 10, 1 / 11, math.nan)


def test_scan_names_the_first_of_several_bad_values() -> None:
    # Of 0.0 at x = 0.3 and the NaN after it, the scan names the first.
    with pytest.raises(Indeterminate, match=r"^\|h\(0\.3\)\| = 0\.0 too small"):
        scan_signs([0.1, 0.2, 0.3, 0.4], [1.0, -2.0, 0.0, math.nan])
    symbols, changes = scan_signs([0.1, 0.2, 0.3, 0.4], [1.0, -2.0, -3.0, 4.0])
    assert symbols == "+-+" and changes == [(0, 1.0), (2, -3.0)]


def _scan_loop(xs: list[float], values: list[float]) -> tuple[str, list[tuple[int, float]]]:
    """The point-by-point scan that `scan_signs` must reproduce."""
    symbols = ""
    changes: list[tuple[int, float]] = []
    before = 0.0
    for j, (x, v) in enumerate(zip(xs, values)):
        if not math.isfinite(v) or abs(v) < SIGN_FLOOR:
            raise Indeterminate(f"|h({x!r})| = {v!r} too small to carry a sign")
        sign = "+" if v > 0.0 else "-"
        if sign != symbols[-1:]:
            if symbols:
                changes.append((j - 1, before))
            symbols += sign
        before = v
    return symbols, changes


def _outcome(scan, xs: list[float], values) -> tuple:
    try:
        return scan(xs, values)
    except Indeterminate as err:
        return ("Indeterminate", str(err))


_SCAN_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e-13, -1e-13, 0.0, -0.0]),
    st.floats(-1e3, 1e3).filter(lambda v: abs(v) >= SIGN_FLOOR),
    st.sampled_from([SIGN_FLOOR, -SIGN_FLOOR, 1e300, -1e300, 5e-13]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_SCAN_VALUES, max_size=40))
@example([1.0, -2.0, 0.0, math.nan])
@example([1e300, -1e300, 1e300])
@example([SIGN_FLOOR, -SIGN_FLOOR])
@example([])
def test_array_scan_agrees_with_the_scalar_loop(values: list[float]) -> None:
    xs = [(j + 1) / (len(values) + 1) for j in range(len(values))]
    want = _outcome(_scan_loop, xs, values)
    assert _outcome(scan_signs, xs, np.array(values, dtype=float)) == want
    assert _outcome(scan_signs, xs, values) == want


def test_classify_sign_validates_window_and_grid() -> None:
    with pytest.raises(ValueError):
        classify_sign(lambda x: 1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        classify_sign(lambda x: 1.0, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        classify_sign(lambda x: 1.0, 0.5, 0.5, 10)


def test_arrows_map_derivative_signs_to_monotonicity() -> None:
    def parabola_slope(x0: float) -> float:
        return ((Jet.variable(x0, 1) - 0.5) ** 2).coeffs[1]

    sp = classify_sign(parabola_slope, 0.0, 1.0, 1000)
    assert _arrows(sp.symbols) == "↘↗"
    assert len(sp.breakpoints) == 1
    assert sp.breakpoints[0] == pytest.approx(0.5, abs=1e-9)


def test_rho_tilde_sign_tracks_the_ratio_derivative() -> None:
    compared = 0
    for a in (0, 1):
        for node in build_chain_rt(a):
            for x in XS:
                try:
                    rt = _rho_tilde(node, x)
                except DomainError:
                    continue
                dr = _dr(node, x)
                if abs(rt) < 1e-9 or abs(dr) < 1e-12:
                    continue
                assert (rt > 0.0) == (dr > 0.0), (a, node.index, x)
                compared += 1
    assert compared >= 60


def test_rho_tilde_positive_at_stage_two_near_anchor_one() -> None:
    nodes = build_chain_rt(1)
    assert _rho_tilde(nodes[2], 1e-6) == pytest.approx(1.9584203, abs=1e-6)
    assert _rho_tilde(nodes[2], 1e-6) > 0.0


def test_rho_tilde_rejects_flat_denominator() -> None:
    class Flat:
        index = 9

        def jets(self, x: float, order: int = 0) -> tuple[Jet, Jet]:
            v = Jet.variable(x, order)
            return v, v * 0.0 + 1.0

    with pytest.raises(DomainError):
        _rho_tilde(Flat(), 0.5)


def test_jet_accessors_expose_requested_order() -> None:
    node = build_chain_rt(0)[1]
    fj, gj = node.jets(0.3, 2)
    assert len(fj.coeffs) == len(gj.coeffs) == 3
    assert fj.coeffs[0] == pytest.approx(node.f(0.3))
    assert gj.coeffs[0] == pytest.approx(node.g(0.3))
    assert len(node.jets(0.3)[0].coeffs) == 1  # default order 0


def _bits(coeffs: tuple[float, ...]) -> list[str]:
    return [c.hex() for c in coeffs]


def test_low_jet_coefficients_do_not_depend_on_the_order() -> None:
    # One pass at order k must give, in coefficients 0..j, the bits of a
    # pass at order j <= k; the scalar accessors rest on that.
    for a in (0, 1):
        for node in build_chain_rt(a):
            for x in XS:
                by_order = [node.jets(x, k) for k in (0, 1, 2)]
                for j, (fj, gj) in enumerate(by_order):
                    for fk, gk in by_order[j:]:
                        assert _bits(fk.coeffs[: j + 1]) == _bits(fj.coeffs)
                        assert _bits(gk.coeffs[: j + 1]) == _bits(gj.coeffs)
                (f0, f1), (g0, g1) = (jet.coeffs for jet in by_order[1])
                assert node.f(x).hex() == f0.hex()
                assert node.g(x).hex() == g0.hex()
                assert _dr(node, x).hex() == ((f1 * g0 - f0 * g1) / (g0 * g0)).hex()


def _raw(jet: Jet, x) -> list[bytes]:
    """The bytes of each coefficient of a jet at a point or over an array x."""
    return [np.broadcast_to(c, np.shape(x)).tobytes() for c in jet.coeffs]


def test_stages_of_one_pass_hold_the_bits_of_each_nodes_own_pass() -> None:
    # verify and reduce read every f_i and g_i from one pass of node 4;
    # stage i must be node i's own pass, coefficient for coefficient.
    grid = np.array(interior_grid(0.0, 1.0, 99))
    for a in (0, 1):
        chain = build_chain_rt(a)
        for x in (*XS, grid):
            for order in (0, 1):
                stages = chain[4].stages(x, order)
                assert len(stages) == len(chain)
                for node, stage in zip(chain, stages):
                    for got, want in zip(stage, node.jets(x, order)):
                        assert len(got.coeffs) == order + 1
                        assert _raw(got, x) == _raw(want, x), (a, node.index, order)


def test_array_pass_holds_the_bits_of_the_pass_at_each_point() -> None:
    # verify and reduce read f_i, g_i and r_i' of a whole grid from one
    # array pass; each element must be the scalar pass at that point.
    xs = interior_grid(0.0, 1.0, 999)
    for a in (0, 1):
        for node in build_chain_rt(a):
            for order in (0, 1, 2):
                fa, ga = node.jets(np.array(xs), order)
                want = [node.jets(x, order) for x in xs]
                for k in range(order + 1):
                    for arr, pick in ((fa, 0), (ga, 1)):
                        got = np.broadcast_to(arr.coeffs[k], len(xs)).tolist()
                        assert [v.hex() for v in got] == [
                            w[pick].coeffs[k].hex() for w in want
                        ], (a, node.index, order, k)


def _bisect_root(h, lo: float, hi: float, flo: float) -> float:
    """The scalar bisection loop that `bisect_roots` must reproduce per bracket."""
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


def _cubic(x):
    """A function of floats and arrays alike, with roots 0.2, 0.55 and 2.3."""
    return (x - 0.2) * (x - 0.55) * (x - 2.3)


def _half(x):
    return x - 0.5


@pytest.mark.parametrize(
    "h, brackets",
    [
        # Widths 0.25, 0.03 and 2 take different step counts; the first and
        # last start from a negative h(lo), the second from a positive one.
        (_cubic, [(0.1, 0.35), (0.53, 0.56), (1.0, 3.0)]),
        # Already at most 1e-10 wide: no step, the midpoint as it stands.
        (_cubic, [(0.2 - 3e-11, 0.2 + 4e-11), (1.0, 3.0)]),
        # The first midpoint is an exact zero, which ends that bracket alone.
        (_half, [(0.0, 1.0)]),
        (_half, [(0.0, 1.0), (0.25, 0.625), (0.3, 0.7), (0.5 - 2**-40, 0.75)]),
    ],
    ids=["unequal-widths", "already-narrow", "zero-midpoint", "zero-among-others"],
)
def test_bisect_roots_gives_the_scalar_loop_bits_on_every_bracket(h, brackets) -> None:
    lo, hi = (list(ends) for ends in zip(*brackets))
    flo = [h(v) for v in lo]
    got = bisect_roots(lambda m, _: h(m), lo, hi, flo)
    want = [_bisect_root(h, *args) for args in zip(lo, hi, flo)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_bisect_roots_of_no_brackets_evaluates_nothing() -> None:
    def refuse(m, at):
        raise AssertionError(f"h called on {m!r}")

    assert bisect_roots(refuse, [], [], []) == []


def _scalar_pattern(h, xs: list[float]) -> tuple[str, tuple[float, ...]]:
    """Sign pattern and roots of h point by point: the oracle of `sign_patterns`."""
    symbols, changes = scan_signs(xs, [h(x) for x in xs])
    return symbols, tuple(_bisect_root(h, xs[j], xs[j + 1], v) for j, v in changes)


def _node_functions(node: ChainNode):
    """(name, function of a point or an array) for f_i, g_i and r_i', each
    from node i's own pass."""
    return [("f", node.f), ("g", node.g), ("r'", lambda x: ratio_slope(*node.jets(x, 1)))]


@pytest.mark.parametrize("grid", [99, 499])
def test_sign_pattern_breakpoints_are_the_scalar_bisection_bits(grid: int) -> None:
    # reduce bisects the sign changes of all 15 functions of an anchor in
    # one lockstep, each step one pass of node 4 on every open midpoint;
    # each pattern and root must be the scalar loop's on node i's own pass.
    xs = interior_grid(0.0, 1.0, grid)
    for a in (0, 1):
        chain = build_chain_rt(a)
        scans = [scan_signs(xs, v) for v in _chain_values(chain[4], np.array(xs))]
        got = sign_patterns(lambda m, at: np.choose(at, _chain_values(chain[4], m)), xs, scans)
        named = [(node.index, name, h) for node in chain for name, h in _node_functions(node)]
        assert len(got) == len(named) == 15
        for (i, name, h), pattern in zip(named, got):
            symbols, roots = _scalar_pattern(h, xs)
            assert pattern.symbols == symbols, (a, i, name)
            assert [v.hex() for v in pattern.breakpoints] == [v.hex() for v in roots]


def test_sign_pattern_bisects_two_slope_roots_in_lockstep() -> None:
    # At grid 9999, r_0' at anchor 1 changes sign twice near x = 1.
    xs = interior_grid(0.0, 1.0, 9999)
    h = _node_functions(build_chain_rt(1)[0])[2][1]
    values = h(np.array(xs)).tolist()
    symbols, changes = scan_signs(xs, values)
    got = sign_patterns(lambda m, _: h(m), xs, [(symbols, changes)])
    want = [_bisect_root(h, xs[j], xs[j + 1], v) for j, v in changes]
    assert got[0].symbols == symbols == "+-+"
    assert [v.hex() for v in got[0].breakpoints] == [v.hex() for v in want]
