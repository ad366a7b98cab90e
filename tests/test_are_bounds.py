"""Efficiency curves, endpoint constants, second-difference bounds."""

import math

import pytest

import arecorr.are_bounds as ab
from arecorr.are_bounds import (
    Q_GUARD,
    QuadCoeffs,
    are,
    are_from_moments,
    crossover,
    endpoint_constants,
    pair,
    partition_bounds,
    q,
    quad_bounds,
    quartic_bounds_rs,
    ratio_slope,
)
from arecorr.errors import BadPartition, DomainError, NoBracket
from arecorr.taylor import Jet

# Endpoint values, endpoint slopes, and one-sided second-difference
# limits frozen from an independent 30-digit symbolic-series
# computation; the float pipeline reproduced each to ~2e-15 when frozen.
ORACLE = {
    ("RT", "b0"): 1.09662271123215095764827677776,
    ("RT", "b1"): 1.20919957615614523372938550509,
    ("RT", "c1"): 0.263600141281284922090204831635,
    ("RT", "q00"): 0.0966227112321509576482767777640,
    ("RT", "q01"): 0.112576864923994276081108727331,
    ("RT", "q10"): 0.151023276357290646009096104304,
    ("RT", "q11"): 0.224777660043373676035940418082,
    ("TS", "b0"): 1.0,
    ("TS", "b1"): 1.19046697605587587044587008519,
    ("TS", "c1"): 0.742092846057416305310756267556,
    ("TS", "q00"): 0.0984256960048827416554687748045,
    ("TS", "q01"): 0.190466976055875870445870085194,
    ("TS", "q10"): 0.551625870001540434864886182362,
    ("TS", "q11"): 1.82004035618275616809829758644,
    ("RS", "b0"): 1.09662271123215095764827677776,
    ("RS", "b1"): 1.43951216287465299907513655341,
    ("RS", "c1"): 1.21114561800016824287266106502,
    ("RS", "q00"): 0.204558564839936958624341271769,
    ("RS", "q01"): 0.342889451642502041426859775643,
    ("RS", "q10"): 0.868256166357666201445801289372,
    ("RS", "q11"): 2.66399818758458486071170882208,
}

GRID = [k / 20 for k in range(1, 20)]


def test_pair_lookup() -> None:
    assert pair("rt").tag == "RT"
    assert pair("TS").tag == "TS"
    with pytest.raises(DomainError):
        pair("xy")


def test_endpoint_constants_match_closed_forms() -> None:
    s5 = math.sqrt(5.0)
    ep = endpoint_constants("RT")
    assert ep.are_at_0 == pytest.approx(math.pi**2 / 9.0, abs=1e-12)
    assert ep.are_at_1 == pytest.approx(2.0 * math.pi * math.sqrt(3.0) / 9.0, abs=1e-12)
    ep = endpoint_constants("TS")
    assert ep.are_at_0 == pytest.approx(1.0, abs=1e-12)
    assert ep.are_at_1 == pytest.approx(
        9.0 * math.sqrt(3.0) * (11.0 * s5 - 15.0) / (40.0 * math.pi), abs=1e-12
    )
    ep = endpoint_constants("RS")
    assert ep.are_at_1 == pytest.approx(3.0 * (11.0 * s5 - 15.0) / 20.0, abs=1e-12)


def test_endpoint_constants_match_series_oracles() -> None:
    for tag in ("RT", "TS", "RS"):
        ep = endpoint_constants(tag)
        assert ep.are_at_0 == pytest.approx(ORACLE[(tag, "b0")], abs=1e-13)
        assert ep.are_at_1 == pytest.approx(ORACLE[(tag, "b1")], abs=1e-13)
        assert ep.dare_at_1 == pytest.approx(ORACLE[(tag, "c1")], abs=1e-13)


def test_q_limits_match_series_oracles() -> None:
    for tag in ("RT", "TS", "RS"):
        for a in (0, 1):
            lower, upper = quad_bounds(tag, a)
            assert lower.q == pytest.approx(ORACLE[(tag, f"q{a}0")], abs=1e-12)
            assert upper.q == pytest.approx(ORACLE[(tag, f"q{a}1")], abs=1e-12)


def test_endpoint_constants_idempotent() -> None:
    assert endpoint_constants("RS") == endpoint_constants("RS")


def test_are_value_at_zero_and_symmetry() -> None:
    for tag in ("RT", "TS", "RS"):
        p = pair(tag)
        assert are(p, 0.0) == ORACLE[(tag, "b0")] == pytest.approx(
            ORACLE[(tag, "b0")], abs=0
        )
        for x in (0.25, 0.7, 0.995):
            assert are(p, -x) == are(p, x)


def test_are_rt_matches_hand_formula() -> None:
    # f/g with elementary functions only, written out independently.
    for x in GRID:
        want = (math.pi**2 - 36.0 * math.asin(0.5 * x) ** 2) / (9.0 * (1.0 - x * x))
        assert are("RT", x) == pytest.approx(want, rel=1e-14)


def test_are_monotone_and_factorization() -> None:
    for tag in ("RT", "TS", "RS"):
        vals = [are(tag, x) for x in GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for x in GRID:
        assert are("RS", x) == pytest.approx(are("RT", x) * are("TS", x), abs=1e-10)


def test_are_rejects_closed_endpoints() -> None:
    with pytest.raises(DomainError):
        are("RT", 1.0)
    with pytest.raises(DomainError):
        are("TS", -1.1)


def dare(tag: str, x: float) -> float:
    """d(are)/dx, odd in x: the endpoint series within SERIES_RADIUS of
    1, the quotient rule on order-1 jets of f and g elsewhere."""
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if 1.0 - ax <= ab.SERIES_RADIUS:
        val = ab._series(tag, 1).deriv()(ax - 1.0)
    else:
        var = Jet.variable(ax, 1)
        val = ratio_slope(pair(tag).f(var), pair(tag).g(var))
    return math.copysign(val, x)


def test_series_direct_handoff_is_continuous() -> None:
    # Either side of the evaluation switch at |x| = 0.99 must agree up
    # to the curve's own motion over the 2*eps step.
    eps = 1e-9
    for tag in ("RT", "TS", "RS"):
        gap = are(tag, 0.99 + eps) - are(tag, 0.99 - eps)
        assert gap == pytest.approx(2.0 * eps * dare(tag, 0.99), abs=2e-10)
        dgap = abs(dare(tag, 0.99 + eps) - dare(tag, 0.99 - eps))
        assert dgap < 1e-7


def test_dare_matches_finite_differences() -> None:
    h = 1e-6
    for tag in ("RT", "TS", "RS"):
        for x in (0.1, 0.5, 0.9, 0.995):
            fd = (are(tag, x + h) - are(tag, x - h)) / (2.0 * h)
            assert dare(tag, x) == pytest.approx(fd, rel=1e-5)
        assert dare(tag, 0.0) == 0.0
        assert dare(tag, -0.5) == -dare(tag, 0.5)


def test_moment_assembly_agrees_with_curve() -> None:
    for tag in ("RT", "TS", "RS"):
        p = pair(tag)
        for x in GRID:
            direct = p.f(x) / p.g(x)
            assert are_from_moments(p, x) == pytest.approx(direct, abs=1e-10)


def test_q_guard_returns_limits_near_anchors() -> None:
    for tag in ("RT", "TS", "RS"):
        lower0, upper0 = quad_bounds(tag, 0)
        lower1, upper1 = quad_bounds(tag, 1)
        assert q(tag, 0, 0.5 * Q_GUARD) == lower0.q
        assert q(tag, 1, 1.0 - 0.5 * Q_GUARD) == upper1.q
        # Jump across the guard edge is bounded by slope * guard width:
        # q_0 is flat at 0 (even series), q_1 has slope O(1) at 1.
        assert q(tag, 0, 1.01 * Q_GUARD) == pytest.approx(lower0.q, abs=1e-8)
        assert q(tag, 1, 1.0 - 1.01 * Q_GUARD) == pytest.approx(upper1.q, abs=1e-3)


def test_q_monotone_within_limits() -> None:
    for tag in ("RT", "TS", "RS"):
        for a in (0, 1):
            lower, upper = quad_bounds(tag, a)
            vals = [q(tag, a, x) for x in GRID]
            assert all(b > a_ for a_, b in zip(vals, vals[1:]))
            assert all(lower.q < v < upper.q for v in vals)


def test_q_domain_errors() -> None:
    with pytest.raises(DomainError):
        q("RT", 2, 0.5)
    with pytest.raises(DomainError):
        q("RT", 0, 0.0)
    with pytest.raises(DomainError):
        q("RT", 0, 1.0)


def test_quad_bounds_structure_and_sandwich() -> None:
    for tag in ("RT", "TS", "RS"):
        ep = endpoint_constants(tag)
        for a in (0, 1):
            lower, upper = quad_bounds(tag, a)
            assert quad_bounds(tag, a) == (lower, upper)
            assert lower.a == a and upper.a == a
            assert lower.b == (ep.are_at_0 if a == 0 else ep.are_at_1)
            assert lower.c == (0.0 if a == 0 else ep.dare_at_1)
            assert 0.0 < lower.q < upper.q
            for x in GRID:
                v = are(tag, x)
                assert lower(x) < v < upper(x)
                assert lower(-x) == lower(x)  # even in x
    cached = dict(ab._quad_cache)
    for a in (2, -1):
        with pytest.raises(DomainError):
            quad_bounds("RT", a)
    assert ab._quad_cache == cached


def test_partition_bounds_refine_the_quadratic_bounds() -> None:
    # Edges chosen off the test grid: at an edge the cellwise bound
    # touches the curve exactly, by construction.
    edges = [0.0, 0.31, 0.73, 1.0]
    for tag in ("RT", "TS", "RS"):
        for a in (0, 1):
            lower, upper = quad_bounds(tag, a)
            pw = partition_bounds(tag, a, edges)
            assert pw.edges == (0.0, 0.31, 0.73, 1.0)
            for x in GRID:
                v = are(tag, x)
                assert lower(x) <= pw.lower_at(x) < v < pw.upper_at(x) <= upper(x)
            # Strict refinement away from the first/last cell edges.
            assert pw.lower_at(0.5) > lower(0.5)
            assert pw.upper_at(0.5) < upper(0.5)
    # An inner edge opens the cell to its right.
    below = math.nextafter(0.31, 0.0)
    for x, cell in [(5e-324, 0), (below, 0), (0.31, 1), (-0.31, 1), (0.73, 2), (1.0 - 2**-53, 2)]:
        assert pw._cell(x) == cell, x


def test_bad_partitions_rejected() -> None:
    with pytest.raises(BadPartition):
        partition_bounds("RT", 0, [0.3, 0.7])
    with pytest.raises(BadPartition):
        partition_bounds("RT", 0, [0.0, 0.5, 0.5, 1.0])
    with pytest.raises(BadPartition):
        partition_bounds("RT", 0, [0.0])
    with pytest.raises(DomainError):
        partition_bounds("RT", 2, [0.0, 1.0])


def test_quartic_bounds_tighter_than_quadratic() -> None:
    lo_rs0, up_rs0 = quad_bounds("RS", 0)
    lo_rs1, up_rs1 = quad_bounds("RS", 1)
    for x in GRID:
        lo, hi = quartic_bounds_rs(x)
        v = are("RS", x)
        assert lo < v < hi
        assert lo > max(lo_rs0(x), lo_rs1(x)) - 1e-15
        assert hi < min(up_rs0(x), up_rs1(x)) + 1e-15
    with pytest.raises(DomainError):
        quartic_bounds_rs(1.0)


# Crossing points of the anchored bound families, frozen from this
# package's bisection at tolerance 1e-10 (stable across runs).
CROSSOVERS = {
    ("RT", "L"): 0.7067281626,
    ("RT", "U"): 0.6573427898,
    ("TS", "L"): 0.7969081096,
    ("TS", "U"): 0.7783721197,
    ("RS", "L"): 0.7915754306,
    ("RS", "U"): 0.7736570000,
}


def test_crossover_roots() -> None:
    for (tag, which), want in CROSSOVERS.items():
        got = crossover(tag, which)
        assert got == pytest.approx(want, abs=1e-8)
        # The two anchored bounds really do cross there.
        idx = 0 if which == "L" else 1
        b0 = quad_bounds(tag, 0)[idx]
        b1 = quad_bounds(tag, 1)[idx]
        assert b0(got) == pytest.approx(b1(got), abs=1e-9)
        d_lo = b0(got - 1e-4) - b1(got - 1e-4)
        d_hi = b0(got + 1e-4) - b1(got + 1e-4)
        assert (d_lo > 0.0) != (d_hi > 0.0)


def test_crossover_invalid_which() -> None:
    with pytest.raises(DomainError):
        crossover("RT", "M")


def test_crossover_requires_a_bracket(monkeypatch) -> None:
    flat = (
        QuadCoeffs(a=0, b=1.0, c=0.0, q=1.0),
        QuadCoeffs(a=0, b=1.0, c=0.0, q=2.0),
    )
    raised = (
        QuadCoeffs(a=0, b=2.0, c=0.0, q=1.0),
        QuadCoeffs(a=0, b=2.0, c=0.0, q=2.0),
    )
    monkeypatch.setattr(ab, "quad_bounds", lambda tag, a: flat if a == 0 else raised)
    with pytest.raises(NoBracket):
        crossover("RT", "L")


def richardson_q_limit(tag: str, a: int, end: int, kmax: int = 8) -> float:
    """Extrapolated one-sided limit of q_a at x -> end over x = end -+ 2^-k/100.

    Evaluates q through its raw difference quotient (no anchor guard) and
    runs a Richardson table assuming an expansion in the distance to the
    endpoint.
    """
    lower, _ = quad_bounds(tag, a)

    def raw_q(x: float) -> float:
        t = x - a
        return (are(tag, x) - lower.b - lower.c * t) / (t * t)

    steps = [1e-2 * 2.0**-k for k in range(kmax + 1)]
    row = [raw_q(d if end == 0 else 1.0 - d) for d in steps]
    for j in range(1, kmax + 1):
        fac = 2.0**j
        row = [(fac * row[i + 1] - row[i]) / (fac - 1.0) for i in range(len(row) - 1)]
    return row[0]


def test_richardson_extrapolation_cross_checks() -> None:
    # The raw difference-quotient ladder converges wherever the direct
    # evaluation is well conditioned: every RT limit, and the anchor-0
    # limits of the other two pairs.  (At anchor 1 of TS/RS the direct
    # path loses too many digits for the ladder to settle.)
    cases = [("RT", 0), ("RT", 1), ("TS", 0), ("RS", 0)]
    for tag, a in cases:
        lower, upper = quad_bounds(tag, a)
        assert richardson_q_limit(tag, a, 0) == pytest.approx(lower.q, abs=1e-5)
        assert richardson_q_limit(tag, a, 1) == pytest.approx(upper.q, abs=1e-4)
