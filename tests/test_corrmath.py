"""Closed-form moments, their derivatives, and the quadrature variance."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arecorr import corrmath
from arecorr.corrmath import (
    RHO_CAP,
    _integrand,
    moments_r,
    moments_s,
    moments_t,
    mu_s_finite_n,
    sigma_s2,
    sigma_s2_jet,
)
from arecorr.errors import DomainError

# Frozen from this package's quadrature at abs_tol 1e-14, cross-checked
# against a 2**20-panel Simpson evaluation of each arcsine integral.
SIGMA_S2_HALF = 0.63087331600121588


def isin_integrand(k: int, u: float) -> float:
    """The k-th Spearman-variance integrand at one u in [0, 1]."""
    if not (0.0 <= u <= 1.0):
        raise DomainError(f"integrand argument must lie in [0, 1], got {u!r}")
    return _integrand(k, float(u))


def dsigma_s2(x: float) -> float:
    """d(sigma_s2)/dx at x = |rho|; integral terms via their integrands."""
    pi2 = math.pi**2
    weights = (1.0, 2.0, 2.0, 4.0)
    isum = sum(w * isin_integrand(k, x) for k, w in enumerate(weights, start=1))
    return (
        -(324.0 / pi2) * math.asin(0.5 * x) / math.sqrt(1.0 - 0.25 * x * x)
        + (72.0 / pi2) * isum
    )


def dsigma2(maker, rho: float) -> float:
    """d(sigma2)/d(rho) of moments_r, moments_t or moments_s, in closed form."""
    if maker is moments_r:
        return -4.0 * rho * (1.0 - rho * rho)
    if maker is moments_t:
        half = math.asin(0.5 * rho)
        return -(16.0 / math.pi**2) * half / math.sqrt(1.0 - 0.25 * rho * rho)
    return math.copysign(1.0, rho) * dsigma_s2(abs(rho)) if rho != 0.0 else 0.0


def test_pearson_moments_closed_forms() -> None:
    for rho in (-0.9, -0.3, 0.0, 0.4, 0.8):
        ms = moments_r(rho)
        assert ms.mu == rho
        assert ms.dmu == 1.0
        assert ms.sigma2 == pytest.approx((1 - rho * rho) ** 2, abs=1e-15)


def test_kendall_moments_closed_forms() -> None:
    ms = moments_t(0.0)
    assert ms.mu == 0.0
    assert ms.sigma2 == pytest.approx(4.0 / 9.0, abs=1e-15)
    ms = moments_t(0.5)
    assert ms.mu == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ms.dmu == pytest.approx(2.0 / (math.pi * math.sqrt(0.75)), abs=1e-15)
    pi2 = math.pi**2
    assert ms.sigma2 == pytest.approx(
        4.0 / 9.0 - (16.0 / pi2) * math.asin(0.25) ** 2, abs=1e-15
    )


def test_spearman_mean_and_variance_values() -> None:
    ms = moments_s(0.0)
    assert ms.mu == 0.0
    assert ms.sigma2 == pytest.approx(1.0, abs=1e-13)
    ms = moments_s(0.5)
    assert ms.mu == pytest.approx((6.0 / math.pi) * math.asin(0.25), abs=1e-15)
    assert ms.sigma2 == pytest.approx(SIGMA_S2_HALF, abs=1e-12)
    assert sigma_s2(0.5) == pytest.approx(SIGMA_S2_HALF, abs=1e-12)


def test_spearman_variance_even_derivative_odd() -> None:
    for rho in (0.2, 0.7):
        plus = moments_s(rho)
        minus = moments_s(-rho)
        assert plus.sigma2 == minus.sigma2
        assert dsigma2(moments_s, rho) == -dsigma2(moments_s, -rho)
        assert plus.dmu == minus.dmu
        assert plus.mu == -minus.mu


def test_derivatives_match_central_differences() -> None:
    h = 1e-6
    for maker in (moments_r, moments_t, moments_s):
        for rho in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
            ms = maker(rho)
            fd_mu = (maker(rho + h).mu - maker(rho - h).mu) / (2 * h)
            fd_s2 = (maker(rho + h).sigma2 - maker(rho - h).sigma2) / (2 * h)
            assert ms.dmu == pytest.approx(fd_mu, rel=1e-6)
            assert dsigma2(maker, rho) == pytest.approx(fd_s2, rel=1e-6, abs=1e-8)


def test_finite_n_mean_interpolates() -> None:
    rho = 0.5
    mu_s = moments_s(rho).mu
    mu_t = moments_t(rho).mu
    for n in (2, 3, 10, 100):
        got = mu_s_finite_n(rho, n)
        want = ((n - 2) * mu_s + 3.0 * mu_t) / (n + 1)
        assert got == pytest.approx(want, abs=1e-15)
    assert mu_s_finite_n(rho, 2) == pytest.approx(mu_t, abs=1e-15)
    assert mu_s_finite_n(rho, 10**7) == pytest.approx(mu_s, abs=1e-6)
    with pytest.raises(DomainError):
        mu_s_finite_n(rho, 1)


def test_integrand_values_and_domain() -> None:
    # At u = 1 each arcsine argument has an elementary value.
    v1 = isin_integrand(1, 1.0)
    assert v1 == pytest.approx(math.asin(0.25) / math.sqrt(3.0), abs=1e-15)
    v2 = isin_integrand(2, 1.0)
    assert v2 == pytest.approx(math.asin(0.25) / math.sqrt(3.0), abs=1e-15)
    assert isin_integrand(3, 0.0) == 0.0
    assert isin_integrand(4, 0.0) == 0.0
    with pytest.raises(DomainError):
        isin_integrand(5, 0.5)
    with pytest.raises(DomainError):
        isin_integrand(1, 1.5)


def test_sigma_jet_matches_value_and_derivative() -> None:
    x = 0.3
    j = sigma_s2_jet(x, 3)
    assert j.coeffs[0] == pytest.approx(sigma_s2(x), abs=1e-13)
    assert j.coeffs[1] == pytest.approx(dsigma_s2(x), abs=1e-11)


def test_spearman_variance_collapses_toward_one() -> None:
    assert 0.0 <= sigma_s2(1.0 - 1e-4) < 1e-2


def test_out_of_range_rho_rejected() -> None:
    with pytest.raises(DomainError):
        moments_t(1.0)
    with pytest.raises(DomainError):
        moments_s(-1.2)


# ------------------------------------------------------ the array form


def _cold_float_values(xs: list[float]) -> list[str]:
    """sigma_s2 of each x through the float path from an empty memo, as hex."""
    out = []
    for x in xs:
        corrmath._MEMO.clear()
        out.append(sigma_s2(x).hex())
    corrmath._MEMO.clear()
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=10))
@example([0.0, 5e-324, 1e-300, 0.5, 0.99, RHO_CAP])
@example([0.7, 0.2, 0.7, 0.0, 0.2])
def test_array_sigma_s2_has_the_bits_of_the_float_path(xs: list[float]) -> None:
    want = _cold_float_values(xs)
    got = sigma_s2(np.array(xs))
    assert [v.hex() for v in got.tolist()] == want
    # The array call left its values in the memo for the float path.
    assert [sigma_s2(x).hex() for x in xs] == want


def test_array_sigma_s2_across_quadrature_blocks() -> None:
    xs = [j / 301 for j in range(300, -1, -1)]
    want = _cold_float_values(xs)
    assert [v.hex() for v in sigma_s2(np.array(xs)).tolist()] == want


def test_integrand_arrays_have_the_bits_of_floats() -> None:
    # numpy's `**` and np.arcsin differ from math in the last bit on a
    # fraction of inputs, so a few thousand draws expose either.
    us = [0.0, 5e-324, 1e-300, 1e-8, 0.3, 0.5, 0.77, 0.999, 1.0]
    us += np.random.default_rng(7).random(4000).tolist()
    for k in (1, 2, 3, 4):
        got = _integrand(k, np.array(us)).tolist()
        assert [v.hex() for v in got] == [_integrand(k, u).hex() for u in us]


def test_sigma_s2_memo_stays_bounded_and_keeps_each_calls_values(monkeypatch) -> None:
    monkeypatch.setattr(corrmath, "_MEMO_SIZE", 8)
    corrmath._MEMO.clear()
    first = [0.11, 0.12, 0.13, 0.14, 0.15]
    second = [0.21, 0.22, 0.23, 0.24, 0.25]
    want = _cold_float_values(first + second)
    sigma_s2(np.array(first))
    got = sigma_s2(np.array(second))
    assert len(corrmath._MEMO) <= 8
    assert set(corrmath._MEMO) >= set(second)
    assert [v.hex() for v in got.tolist()] == want[5:]
    # An array with more new values than the memo holds still returns all.
    many = [j / 20 for j in range(20)]
    want = _cold_float_values(many)
    got = sigma_s2(np.array(many))
    assert len(corrmath._MEMO) <= 8
    assert [v.hex() for v in got.tolist()] == want
    corrmath._MEMO.clear()


def test_array_sigma_s2_refuses_elements_outside_the_domain() -> None:
    for bad in ([0.5, 1.0], [-0.1], [0.2, math.nan], [math.inf]):
        with pytest.raises(DomainError):
            sigma_s2(np.array(bad))
    with pytest.raises(DomainError):
        sigma_s2(np.array([[0.5]]))
