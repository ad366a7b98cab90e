"""Adaptive Gauss-Kronrod integration: exactness, error control, limits,
and the lockstep rows of _integrate_arrays, one integrand or K at a time,
against a one-node-at-a-time reference."""

import heapq
import math

import numpy as np
import pytest

from arecorr import quadrature
from arecorr.corrmath import _integrands
from arecorr.errors import NoConvergence, NonFinite
from arecorr.quadrature import MAX_INTERVALS, _integrate_arrays, integrate

# Frozen reference for the second arcsine integral on [0, 1], computed
# with composite Simpson on 2**20 panels plus Richardson extrapolation.
I2_REFERENCE = 0.054831135561607548


def test_polynomial_exact_in_one_panel() -> None:
    res = integrate(lambda u: u**4, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(0.2, abs=1e-15)
    assert res.evaluations == 15


def test_sine_integral() -> None:
    res = integrate(np.sin, 0.0, math.pi, 1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-13)
    assert res.err_estimate >= abs(res.value - 2.0)


def test_error_estimate_envelopes_true_error() -> None:
    for f, lo, hi, truth in (
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda u: 1.0 / (1.0 + u * u), 0.0, 1.0, math.pi / 4.0),
        (lambda u: np.cos(10.0 * u), 0.0, 1.0, math.sin(10.0) / 10.0),
    ):
        res = integrate(f, lo, hi, 1e-12)
        assert abs(res.value - truth) <= max(res.err_estimate, 1e-15)
        assert abs(res.value - truth) <= 1e-12


def test_arcsine_integral_matches_frozen_reference() -> None:
    res = integrate(lambda u: _integrands(u)[1], 0.0, 1.0, 1e-13)
    assert res.value == pytest.approx(I2_REFERENCE, abs=1e-14)


def test_integrable_endpoint_singularity() -> None:
    res = integrate(lambda u: 1.0 / np.sqrt(u), 1e-300, 1.0, 1e-9)
    assert res.value == pytest.approx(2.0, abs=1e-8)
    assert res.evaluations > 15
    assert res.evaluations % 15 == 0


def test_degenerate_interval_is_zero() -> None:
    res = integrate(np.sin, 0.7, 0.7, 1e-12)
    assert res.value == 0.0
    assert res.evaluations == 15


def test_unreachable_tolerance_raises_no_convergence() -> None:
    # Below the rounding floor of the error estimator the subdivision
    # budget runs out; this must fail loudly, not return a bad value.
    with pytest.raises(NoConvergence):
        integrate(np.exp, 0.0, 1.0, 1e-18)


def test_non_finite_integrand_raises() -> None:
    with pytest.raises(NonFinite):
        integrate(lambda u: np.where(u < 0.5, math.inf, 1.0), 0.0, 1.0, 1e-6)
    with pytest.raises(NonFinite):
        integrate(lambda u: np.full_like(u, math.nan), 0.0, 1.0, 1e-6)


def test_invalid_arguments_rejected() -> None:
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0, 1e-12)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, math.inf, 1e-12)
    with pytest.raises(ValueError):
        _integrate_arrays(np.sin, [0.0, 0.0], [1.0], 1e-12)


# --------------------------------------------------------- lockstep rows

# The rule as it ran before the lockstep: one node at a time, in Python
# floats, one interval at a time.
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308


def _gk15_reference(f, lo: float, hi: float) -> tuple[float, float]:
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    fc = f(centr)
    resg = fc * _WG[3]
    resk = fc * _WGK[7]
    resabs = abs(resk)
    pairs = []
    for j in range(7):
        absc = hlgth * _XGK[j]
        f1, f2 = f(centr - absc), f(centr + absc)
        pairs.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(pairs[j][0] - reskh) + abs(pairs[j][1] - reskh))
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return result, abserr


def _integrate_reference(f, lo: float, hi: float, abs_tol: float) -> tuple[str, str, int]:
    value, err = _gk15_reference(f, lo, hi)
    evaluations = 15
    if lo == hi:
        return value.hex(), err.hex(), evaluations
    seq = 0
    heap = [(-err, seq, lo, hi, value, err)]
    while err > abs_tol:
        assert len(heap) < MAX_INTERVALS
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk15_reference(f, a, mid)
        v2, e2 = _gk15_reference(f, mid, b)
        evaluations += 30
        value += v1 + v2 - v
        err += e1 + e2 - e
        seq += 1
        heapq.heappush(heap, (-e1, seq, a, mid, v1, e1))
        seq += 1
        heapq.heappush(heap, (-e2, seq, mid, b, v2, e2))
    return value.hex(), err.hex(), evaluations


def _pair(arrays, i: int, k: int = 0) -> tuple[str, str, int]:
    """Pair [i, k] of `_integrate_arrays`' result, as the reference gives it."""
    values, errs, evaluations = arrays
    return values[i, k].hex(), errs[i, k].hex(), int(evaluations[i, k])


def _elementwise(f):
    """f on a float64 array, one math call per element."""
    return lambda u: np.array([f(v) for v in u.tolist()])


_SCALAR_INTEGRANDS = {
    "u^4": lambda u: u**4,
    "sin": math.sin,
    "exp": math.exp,
    "lorentz": lambda u: 1.0 / (1.0 + u * u),
    "cos10": lambda u: math.cos(10.0 * u),
    "inv_sqrt": lambda u: 1.0 / math.sqrt(u),
    **{f"arcsine{k + 1}": (lambda u, k=k: _integrands(u)[k]) for k in range(4)},
}


def _columns(one_pass, i: int, k: int = 0) -> tuple[str, str]:
    """Column [k, i] of a `_gk15` result, its value and err, as the
    reference gives them."""
    return one_pass[0, k, i].hex(), one_pass[1, k, i].hex()


def test_one_pass_equals_the_one_node_rule_column_by_column() -> None:
    los, his = [0.0, 1e-300, 0.25, 0.9], [1.0, 0.01, 0.75, 0.999]
    one_pass = quadrature._gk15(_integrands, np.array(los), np.array(his))
    assert one_pass.shape == (2, 4, len(los))
    for i, (lo, hi) in enumerate(zip(los, his)):
        for k in range(4):
            value, err = _gk15_reference(lambda u: _integrands(u)[k], lo, hi)
            assert _columns(one_pass, i, k) == (value.hex(), err.hex())


def test_one_pass_skips_the_zero_gauss_weights_unseen() -> None:
    # Signed zeros: +0.0 at the Gauss pair +-_XGK[3] of [-1, 1], -0.0 at
    # every other node.  Neither the pass nor the reference adds a Gauss
    # term for the even pairs, and the two agree on every bit.
    def f(u: float) -> float:
        return 0.0 if abs(u) == _XGK[3] else -0.0

    one_pass = quadrature._gk15(_elementwise(f), np.array([-1.0]), np.array([1.0]))
    value, err = _gk15_reference(f, -1.0, 1.0)
    assert _columns(one_pass, 0) == (value.hex(), err.hex())


@pytest.mark.parametrize("name", sorted(_SCALAR_INTEGRANDS))
def test_lockstep_rows_equal_the_one_node_reference(name: str) -> None:
    f = _SCALAR_INTEGRANDS[name]
    # Rows of different lengths converge in different rounds; the
    # degenerate row stops after one pass.
    los = [1e-300, 1e-300, 0.25, 0.5, 0.3]
    his = [1.0, 0.01, 0.75, 0.999, 0.3]
    for tol in (1e-12, 1e-9):
        arrays = _integrate_arrays(_elementwise(f), los, his, tol)
        for i, (lo, hi) in enumerate(zip(los, his)):
            want = _integrate_reference(f, lo, hi, tol)
            assert _pair(arrays, i) == want
            alone = integrate(_elementwise(f), lo, hi, tol)
            assert (alone.value.hex(), alone.err_estimate.hex(), alone.evaluations) == want


def test_one_valued_f_gives_rows_by_one_arrays() -> None:
    values, errs, evaluations = _integrate_arrays(np.sin, [0.0, 0.5, 0.3], [1.0, 1.0, 0.3], 1e-12)
    assert values.shape == errs.shape == evaluations.shape == (3, 1)
    assert evaluations.dtype.kind == "i"
    assert values[2, 0] == 0.0


def test_integrate_refuses_a_k_valued_f() -> None:
    with pytest.raises(ValueError, match="one-valued"):
        integrate(_integrands, 0.0, 0.5, 1e-12)
    # A (1, N) array is one value per node.
    one_per_node = integrate(_stacked(math.exp), 0.0, 1.0, 1e-12)
    assert one_per_node == integrate(_elementwise(math.exp), 0.0, 1.0, 1e-12)


def test_tied_error_estimates_pop_in_push_order() -> None:
    # Mirror intervals about 0 of an even or odd integrand get bitwise
    # equal error estimates, so these rows tie for their worst interval:
    # sqrt|u| on [-1, 1] in 24 rounds, sin 3u on [-7, 9] and cbrt on
    # [-3, 5] between intervals of opposite values.
    cases = {
        "sqrt_abs": (lambda u: math.sqrt(abs(u)), -1.0, 1.0),
        "sin3": (lambda u: math.sin(3.0 * u), -7.0, 9.0),
        "cbrt": (lambda u: math.copysign(abs(u) ** (1.0 / 3.0), u), -3.0, 5.0),
    }
    for f, lo, hi in cases.values():
        los, his = [0.25, lo, 0.0], [0.75, hi, 1.0]
        arrays = _integrate_arrays(_elementwise(f), los, his, 1e-12)
        for i, (lo, hi) in enumerate(zip(los, his)):
            assert _pair(arrays, i) == _integrate_reference(f, lo, hi, 1e-12)
    fs = [f for f, _, _ in cases.values()]
    arrays = _integrate_arrays(_stacked(*fs), [-1.0], [1.0], 1e-12)
    for k, f in enumerate(fs):
        assert _pair(arrays, 0, k) == _integrate_reference(f, -1.0, 1.0, 1e-12)


def _stacked(*fs):
    """The scalar integrands fs as one K-valued integrand, one math call
    per element, on every node whatever the need mask."""
    return lambda u, need=None: np.array([[f(v) for v in u.tolist()] for f in fs])


# 1/sqrt(u) refines next to 0 and sqrt(1 - u) next to 1, so on [1e-300, 1]
# the two pop different intervals from the second round on.
_INV_SQRT = _SCALAR_INTEGRANDS["inv_sqrt"]
_STACKS = {
    "sigma_s2": (_integrands, [_SCALAR_INTEGRANDS[f"arcsine{k}"] for k in (1, 2, 3, 4)]),
    "apart": (None, [_INV_SQRT, lambda u: math.sqrt(1.0 - u)]),
    "mixed": (None, [math.exp, _INV_SQRT, lambda u: math.cos(10.0 * u)]),
}


@pytest.mark.parametrize("name", sorted(_STACKS))
def test_k_valued_rows_equal_the_one_integrand_reference(name: str) -> None:
    f, fs = _STACKS[name]
    f = f or _stacked(*fs)
    los = [1e-300, 1e-300, 0.25, 0.5, 0.3]
    his = [1.0, 0.01, 0.75, 0.999, 0.3]
    for tol in (1e-12, 1e-9):
        arrays = _integrate_arrays(f, los, his, tol)
        assert arrays[0].shape == (len(los), len(fs))
        for i, (lo, hi) in enumerate(zip(los, his)):
            # Each row alone gives what it gives among the others.
            alone = _integrate_arrays(f, [lo], [hi], tol)
            for k, one in enumerate(fs):
                assert _pair(arrays, i, k) == _integrate_reference(one, lo, hi, tol)
                assert _pair(alone, 0, k) == _pair(arrays, i, k)


def test_k_valued_pairs_that_pop_different_intervals_get_each_evaluated() -> None:
    nodes = []
    apart = _stacked(*_STACKS["apart"][1])

    def recording(u, need=None):
        nodes.append(len(u))
        return apart(u)

    _integrate_arrays(recording, [1e-300], [1.0], 1e-12)
    # One row: a round evaluates 2 halves (30 nodes) of each distinct
    # popped interval, so 60 nodes mean the two integrands popped two.
    assert 60 in nodes[1:]
    assert set(nodes[1:]) <= {30, 60}


def test_k_valued_call_reads_the_interval_cap_at_call_time(monkeypatch) -> None:
    f = _stacked(math.exp, _INV_SQRT)
    # 1/sqrt(u) on [1e-300, 1] takes 82 intervals at 1e-12.
    assert _integrate_arrays(f, [1e-300], [1.0], 1e-12)[2][0, 1] == 15 + 30 * 81
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 64)
    with pytest.raises(NoConvergence):
        _integrate_arrays(f, [0.5, 1e-300], [0.75, 1.0], 1e-12)


def test_one_failing_row_fails_the_call(monkeypatch) -> None:
    spike = lambda u: np.where(u > 2.5, math.inf, 1.0)  # noqa: E731
    with pytest.raises(NonFinite):
        _integrate_arrays(spike, [0.0, 2.0], [1.0, 3.0], 1e-9)
    # exp on [0, 30] has a rounding floor far above 1e-12; a lower cap
    # keeps the test short.
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 64)
    with pytest.raises(NoConvergence):
        _integrate_arrays(np.exp, [0.0, 0.0], [1.0, 30.0], 1e-12)


def test_no_rows_give_no_integrals() -> None:
    assert all(len(a) == 0 for a in _integrate_arrays(np.sin, [], [], 1e-12))


def test_need_mask_changes_no_bit_of_the_sigma_s2_pairs() -> None:
    # The reference is the same engine with an integrand that ignores
    # the mask, so it evaluates all four integrands on every interval.
    calls = []

    def masked(u, need=None):
        calls.append(need)
        return _integrands(u, need)

    def every_integrand(u, need=None):
        return _integrands(u)

    # lo == hi, x near 0, x next to the cap, and a full 64-row block.
    his = [0.3, 1e-300, 1e-8, 1e-3, 1.0 - 1e-12] + [j / 65 for j in range(1, 65)]
    los = [0.3] + [0.0] * (len(his) - 1)
    for rows in (slice(0, 5), slice(5, None), slice(None)):
        got = _integrate_arrays(masked, los[rows], his[rows], 1e-12 / 66.0)
        want = _integrate_arrays(every_integrand, los[rows], his[rows], 1e-12 / 66.0)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
    # Only each call's first pass takes no mask; later rounds leave some
    # integrands out.
    masks = [need for need in calls if need is not None]
    assert len(calls) - len(masks) == 3
    assert all(need.shape[0] == 4 and need.dtype == bool for need in masks)
    assert any(not need.all() for need in masks)
