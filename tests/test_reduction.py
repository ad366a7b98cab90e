"""Tests for the RT derivative-reduction chain and pattern classifiers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from arecorr.are_bounds import endpoint_constants, q, quad_bounds, ratio_slope
from arecorr.errors import DomainError, Indeterminate
from arecorr.reduction import (
    MULTIPLIERS,
    ChainNode,
    build_chain_rt,
    classify_monotone,
    classify_sign,
    interior_grid,
    rho_tilde,
    tabulated,
)
from arecorr.taylor import Jet

XS = [k / 10 for k in range(1, 10)]


def _dr(node: ChainNode, x: float) -> float:
    """r_i'(x) by the quotient rule over order-1 jets."""
    return ratio_slope(*node.jets(x, 1))


def _slope(node: ChainNode):
    """r_i' as a scalar function, from the jet of r_i."""
    return lambda x: node.r_jet(x, 1).coeffs[1]


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
        mp = classify_monotone(_slope(root), 0.05, 0.95, 199)
        assert mp.symbols == "↗"
        assert mp.breakpoints == ()


def test_classify_sign_finds_a_simple_crossing() -> None:
    sp = classify_sign(lambda x: x - 0.5, 0.0, 1.0, 1000)
    assert sp.symbols == "-+"
    assert len(sp.breakpoints) == 1
    assert sp.breakpoints[0] == pytest.approx(0.5, abs=1e-9)


def test_classify_sign_constant_has_no_breakpoints() -> None:
    sp = classify_sign(lambda x: 2.0, 0.0, 1.0, 50)
    assert sp.symbols == "+"
    assert sp.breakpoints == ()


def test_classify_sign_rejects_grid_values_too_close_to_zero() -> None:
    # grid=3 on (0, 1) places a point exactly at the root of x - 0.5.
    with pytest.raises(Indeterminate):
        classify_sign(lambda x: x - 0.5, 0.0, 1.0, 3)
    with pytest.raises(Indeterminate):
        classify_sign(lambda x: 1e-15, 0.0, 1.0, 10)


def test_classify_sign_rejects_non_finite_values() -> None:
    with pytest.raises(Indeterminate):
        classify_sign(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0, 10)
    with pytest.raises(Indeterminate):
        classify_sign(lambda x: math.nan, 0.0, 1.0, 10)


def test_classify_sign_validates_window_and_grid() -> None:
    with pytest.raises(ValueError):
        classify_sign(lambda x: 1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        classify_sign(lambda x: 1.0, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        classify_sign(lambda x: 1.0, 0.5, 0.5, 10)


def test_classify_monotone_maps_derivative_signs_to_arrows() -> None:
    def parabola_slope(x0: float) -> float:
        return ((Jet.variable(x0, 1) - 0.5) ** 2).coeffs[1]

    mp = classify_monotone(parabola_slope, 0.0, 1.0, 1000)
    assert mp.symbols == "↘↗"
    assert len(mp.breakpoints) == 1
    assert mp.breakpoints[0] == pytest.approx(0.5, abs=1e-9)


def test_rho_tilde_sign_tracks_the_ratio_derivative() -> None:
    compared = 0
    for a in (0, 1):
        for node in build_chain_rt(a):
            for x in XS:
                try:
                    rt = rho_tilde(node, x)
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
    assert rho_tilde(nodes[2], 1e-6) == pytest.approx(1.9584203, abs=1e-6)
    assert rho_tilde(nodes[2], 1e-6) > 0.0


def test_rho_tilde_rejects_flat_denominator() -> None:
    class Flat:
        index = 9

        def jets(self, x: float, order: int = 0) -> tuple[Jet, Jet]:
            v = Jet.variable(x, order)
            return v, v * 0.0 + 1.0

    with pytest.raises(DomainError):
        rho_tilde(Flat(), 0.5)


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


def test_tabulated_reads_the_grid_and_evaluates_elsewhere() -> None:
    node = build_chain_rt(1)[3]
    xs = interior_grid(0.0, 1.0, 99)
    calls = []

    def fallback(x: float) -> float:
        calls.append(x)
        return node.f(x)

    h = tabulated(xs, node.jets(np.array(xs))[0].value, fallback)
    assert [h(x) for x in xs] == [node.f(x) for x in xs]
    assert calls == []
    assert h(0.123) == node.f(0.123) and calls == [0.123]
    assert classify_sign(h, 0.0, 1.0, 99) == classify_sign(node.f, 0.0, 1.0, 99)
