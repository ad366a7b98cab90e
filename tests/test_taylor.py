"""Jet arithmetic against closed-form Taylor coefficients."""

import math

import numpy as np
import pytest

from arecorr.taylor import Jet, each, power, powers


def test_variable_and_constant_layout() -> None:
    x = Jet.variable(0.5, 3)
    assert x.center == 0.5
    assert x.coeffs == (0.5, 1.0, 0.0, 0.0)
    c = Jet.constant(7.0, 0.5, 3)
    assert c.coeffs == (7.0, 0.0, 0.0, 0.0)
    assert x.order == 3 and x.value == 0.5


def test_polynomial_product_coefficients() -> None:
    x = Jet.variable(0.5, 4)
    p = (2.0 + x) * (3.0 - x)
    # (2+x)(3-x) = 6 + x - x^2; recentered at 0.5: 6.25 + 0*t - t^2.
    assert p.coeffs == pytest.approx((6.25, 0.0, -1.0, 0.0, 0.0), abs=1e-15)


def test_division_round_trip() -> None:
    x = Jet.variable(0.3, 6)
    u = 1.0 + x * x
    v = 2.0 - x
    w = (u * v) / v
    for a, b in zip(w.coeffs, u.coeffs):
        assert a == pytest.approx(b, abs=1e-15)


def test_reciprocal_matches_geometric_series() -> None:
    x = Jet.variable(0.0, 5)
    inv = 1.0 / (1.0 - x)
    assert inv.coeffs == pytest.approx((1.0,) * 6, abs=1e-15)


def derivative(j: Jet, k: int) -> float:
    """k-th derivative value at the center (coefficient times k!)."""
    return j.coeffs[k] * math.factorial(k)


def test_sqrt_derivatives_match_closed_forms() -> None:
    x0 = 0.49
    j = Jet.variable(x0, 3).sqrt()
    assert derivative(j, 0) == pytest.approx(math.sqrt(x0), abs=1e-15)
    assert derivative(j, 1) == pytest.approx(0.5 / math.sqrt(x0), abs=1e-14)
    assert derivative(j, 2) == pytest.approx(-0.25 * x0**-1.5, abs=1e-13)
    assert derivative(j, 3) == pytest.approx(0.375 * x0**-2.5, abs=1e-12)


def test_asin_derivatives_match_closed_forms() -> None:
    x0 = 0.3
    j = Jet.variable(x0, 3).asin()
    d = 1.0 - x0 * x0
    assert derivative(j, 0) == pytest.approx(math.asin(x0), abs=1e-15)
    assert derivative(j, 1) == pytest.approx(d**-0.5, abs=1e-14)
    assert derivative(j, 2) == pytest.approx(x0 * d**-1.5, abs=1e-13)
    assert derivative(j, 3) == pytest.approx((1.0 + 2.0 * x0 * x0) * d**-2.5, abs=1e-12)


def test_power_matches_repeated_product() -> None:
    x = Jet.variable(0.7, 5)
    u = 1.0 + 2.0 * x
    assert (u**3).coeffs == (u * u * u).coeffs


def test_evaluation_tracks_function() -> None:
    j = (0.5 * Jet.variable(0.4, 10)).asin()
    for t in (-0.05, 0.0, 0.02, 0.05):
        assert j(t) == pytest.approx(math.asin(0.5 * (0.4 + t)), abs=1e-13)


def test_deriv_shifts_coefficients() -> None:
    x = Jet.variable(0.2, 4)
    p = x * x * x
    dp = p.deriv()
    assert dp.order == 3
    for t in (0.0, 0.01):
        assert dp(t) == pytest.approx(3.0 * (0.2 + t) ** 2, abs=1e-14)


def test_center_mismatch_rejected() -> None:
    with pytest.raises(ValueError):
        Jet.variable(0.0, 2) + Jet.variable(0.5, 2)


def test_division_by_zero_value_rejected() -> None:
    x = Jet.variable(0.0, 3)
    with pytest.raises(ZeroDivisionError):
        (1.0 + x) / x


def test_sqrt_and_asin_domain_checks() -> None:
    with pytest.raises(ValueError):
        Jet.variable(-1.0, 2).sqrt()
    with pytest.raises(ValueError):
        Jet.variable(1.0, 2).asin()


def test_negative_power_rejected() -> None:
    with pytest.raises(ValueError):
        Jet.variable(0.5, 2) ** -1


def test_array_jets_hold_the_bits_of_float_jets() -> None:
    xs = np.linspace(-0.9, 0.9, 37)
    order = 4

    def expr(x: Jet) -> Jet:
        u = 0.5 * x
        return (1.0 + x * x).sqrt() * u.asin() / (2.0 - x) - 3.0 * x**3

    got = expr(Jet.variable(xs, order))
    for j, x0 in enumerate(xs.tolist()):
        want = expr(Jet.variable(x0, order))
        for k in range(order + 1):
            assert float(got.coeffs[k][j]).hex() == want.coeffs[k].hex()


def test_each_has_the_bits_of_the_float_calls() -> None:
    # Tiled so that the stride-3 view holds all five values, without a copy.
    v = np.tile([-0.0, 5e-324, 1e-300, 0.5, 1.0], 3)
    strided = v[::3]
    assert not strided.flags.contiguous and sorted(strided.tolist()) == sorted(v[:5].tolist())
    calls = [(math.asin, ()), (math.erfc, ())] + [(math.pow, (p,)) for p in (1.5, 2, 3, 4)]
    for arr in (v, strided, v.tolist()):
        for fn, args in calls:
            got = each(fn, arr, *args)
            assert got.dtype == np.float64
            assert [g.hex() for g in got.tolist()] == [fn(x, *args).hex() for x in list(arr)]


def _bits(v) -> list[str]:
    """The hex of every float in a float, an array or a jet's coefficients."""
    if isinstance(v, Jet):
        return [b for c in v.coeffs for b in _bits(c)]
    return [x.hex() for x in np.ravel(v).tolist()]


def test_powers_have_the_bits_of_power() -> None:
    v = np.tile([-0.0, 5e-324, 1e-300, 0.3, 0.5, 1.0, 1.9], 3)
    strided = v[::3]
    assert not strided.flags.contiguous
    floats = v[:7].tolist()
    jets = [Jet.variable(0.3, 3), Jet.variable(-0.7, 2), Jet.variable(v[3:7], 3)]
    for arg in (v, strided, *floats, *jets):
        got = powers(arg, 2, 3, 4)
        assert len(got) == 3
        for n, g in zip((2, 3, 4), got):
            assert type(g) is type(power(arg, n))
            assert _bits(g) == _bits(power(arg, n)), (arg, n)


def test_array_guards_reject_a_single_bad_element() -> None:
    # One failing element fails the jet, with the float path's exception.
    xs = np.array([0.25, 0.5, 0.75])
    for bad, op, exc in (
        (0.0, lambda v: 1.0 / v, ZeroDivisionError),
        (0.0, lambda v: (1.0 + v) / v, ZeroDivisionError),
        (-0.5, lambda v: v.sqrt(), ValueError),
        (0.0, lambda v: v.sqrt(), ValueError),
        (1.0, lambda v: v.asin(), ValueError),
        (-1.5, lambda v: v.asin(), ValueError),
    ):
        with pytest.raises(exc):
            op(Jet.variable(bad, 2))
        for j in range(xs.size):
            centers = xs.copy()
            centers[j] = bad
            with pytest.raises(exc):
                op(Jet.variable(centers, 2))
        op(Jet.variable(xs, 2))


def test_array_centers_must_agree_elementwise() -> None:
    a = Jet.variable(np.array([0.1, 0.2, 0.3]), 2)
    same = Jet.variable(np.array([0.1, 0.2, 0.3]), 2)
    assert (a + same).coeffs[0].tolist() == [0.2, 0.4, 0.6]
    with pytest.raises(ValueError):
        a + Jet.variable(np.array([0.1, 0.2, 0.4]), 2)
