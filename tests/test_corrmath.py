"""Closed-form moments, their derivatives, and the quadrature variance."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arecorr import corrmath
from arecorr.corrmath import (
    _INTEGRAL_TOL,
    _integrands,
    moments_r,
    moments_s,
    moments_t,
    mu_s_finite_n,
    sigma_s2,
    sigma_s2_jet,
)
from arecorr.errors import DomainError
from arecorr.quadrature import _integrate_arrays, integrate
from arecorr.reduction import interior_grid
from arecorr.taylor import Jet

# Frozen from this package's quadrature at abs_tol 1e-14, cross-checked
# against a 2**20-panel Simpson evaluation of each arcsine integral.
SIGMA_S2_HALF = 0.63087331600121588


def isin_integrand(k: int, u: float) -> float:
    """The k-th (1..4) Spearman-variance integrand at one u in [0, 1]."""
    if k not in (1, 2, 3, 4):
        raise DomainError(f"integrand index must be 1..4, got {k!r}")
    if not (0.0 <= u <= 1.0):
        raise DomainError(f"integrand argument must lie in [0, 1], got {u!r}")
    return _integrands(float(u))[k - 1]


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


def test_spearman_variance_near_one_is_sigma_s2_at_the_magnitude() -> None:
    # Past 1 - 1e-12 too: moments_s reads sigma_s2 at |rho| itself, for
    # floats and arrays alike.
    xs = [1.0 - 1e-13, 0.99999999999995, math.nextafter(1.0, 0.0)]
    rhos = xs + [-x for x in xs]
    for rho in rhos:
        assert moments_s(rho).sigma2.hex() == sigma_s2(abs(rho)).hex(), rho
    got = moments_s(np.array(rhos)).sigma2
    assert [v.hex() for v in got.tolist()] == [sigma_s2(abs(v)).hex() for v in rhos]


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
    for k in (0, 5):
        with pytest.raises(DomainError):
            isin_integrand(k, 0.5)
    with pytest.raises(DomainError):
        isin_integrand(1, 1.5)


def test_arcsine_arguments_stay_far_inside_the_unit_interval() -> None:
    # Why asin needs no clamp: on [-1, 1] no integrand's argument passes
    # 3/(2 sqrt 6) ~ 0.61237 in magnitude, reached at |u| = 1.
    edge = math.nextafter(1.0, 0.0)
    u = np.concatenate([np.linspace(-1.0, 1.0, 20001), [-edge, edge]])
    powers = corrmath._powers(u, 2, 3, 4)
    peak = max(float(np.abs(corrmath._arcsine_arg(k, u, *powers)).max()) for k in range(4))
    assert peak <= 0.62
    assert peak == pytest.approx(3.0 / (2.0 * math.sqrt(6.0)), rel=1e-12)


@pytest.mark.parametrize("over", [1.0 + 2.0**-52, -(1.0 + 2.0**-52)])
def test_asin_past_one_raises_rather_than_clamps(over: float) -> None:
    with pytest.raises(ValueError):
        corrmath._arcsine(over)
    with pytest.raises(ValueError):
        corrmath._arcsine(np.array([0.5, over]))
    with pytest.raises(ValueError):
        corrmath._arcsine(Jet.variable(over, 2))


def test_sigma_jet_matches_value_and_derivative() -> None:
    x = 0.3
    j = sigma_s2_jet(x, 3)
    assert j.coeffs[0] == pytest.approx(sigma_s2(x), abs=1e-13)
    assert j.coeffs[1] == pytest.approx(dsigma_s2(x), abs=1e-11)


def _one_integrand(k: int, u):
    """Row k (0..3) of the four integrands alone: what the endpoint series
    once integrated one row at a time."""
    u2 = corrmath._pow(u, 2)
    u3 = corrmath._pow(u, 3) if k == 0 else None
    u4 = corrmath._pow(u, 4) if k >= 2 else None
    arg = corrmath._arcsine_arg(k, u, u2, u3, u4)
    return corrmath._arcsine(arg) / corrmath._sqrt(4.0 - u2)


def _sigma_s2_jet_by_rows(x0: float, order: int) -> Jet:
    """sigma_s2_jet with its four integrals as four one-row quadratures."""
    pi2 = math.pi**2
    total = 1.0 - (324.0 / pi2) * (0.5 * Jet.variable(x0, order)).asin() ** 2
    igrands = _integrands(Jet.variable(x0, order - 1)) if order >= 1 else None
    for k, w in enumerate((1.0, 2.0, 2.0, 4.0)):
        value = integrate(lambda u, k=k: _one_integrand(k, u), 0.0, x0, 1e-12 / 66.0).value
        coeffs = [value]
        if order >= 1:
            coeffs += [igrands[k].coeffs[m - 1] / m for m in range(1, order + 1)]
        total = total + (72.0 / pi2) * w * Jet(x0, tuple(coeffs))
    return total


@pytest.mark.parametrize("x0", [0.0, 1e-3, 0.011, 0.5, 0.99, 1.0])
def test_sigma_jet_has_the_bits_of_one_row_quadratures(x0: float) -> None:
    # The higher coefficients keep the bits of the jet built row by row.
    # Coefficient 0 is sigma_s2(x0), exactly 1.0 at 0 and 0.0 at 1, not
    # the sum of the rows' quadratures on [0, x0].
    value = {0.0: 1.0, 1.0: 0.0}[x0] if x0 in (0.0, 1.0) else sigma_s2(x0)
    for order in (0, 1, 12):
        want = _sigma_s2_jet_by_rows(x0, order)
        got = sigma_s2_jet(x0, order)
        assert got.coeffs[0].hex() == value.hex(), order
        assert [v.hex() for v in got.coeffs[1:]] == [v.hex() for v in want.coeffs[1:]], order


def test_four_integrals_on_0_1_give_sigma_s2_of_1_zero() -> None:
    # S = 1 almost surely at rho = 1, so sigma_s2(1) = 0: the quadrature of
    # the four integrands on [0, 1] must agree to its tolerance.
    assert abs(_sigma_s2_jet_by_rows(1.0, 0).value) <= 1e-12


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
@example([0.0, 5e-324, 1e-300, 0.5, 0.99, 1.0 - 1e-12])
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
    got = _integrands(np.array(us))
    assert got.shape == (4, len(us))
    for k in range(4):
        assert [v.hex() for v in got[k].tolist()] == [_integrands(u)[k].hex() for u in us]
    # A need mask leaves each marked entry's bits and zeros the others.
    need = np.random.default_rng(8).random((4, len(us))) < 0.5
    masked = _integrands(np.array(us), need)
    assert [v.hex() for v in masked[need].tolist()] == [v.hex() for v in got[need].tolist()]
    assert not masked[~need].any()


def _refuse_quadrature(monkeypatch, allowed: list[float] | None = None) -> list[list[float]]:
    """Make `_integrate_arrays` raise, or integrate only the abscissae in
    `allowed`; returns the list of abscissae of each call it let through."""
    real = corrmath._integrate_arrays
    seen: list[list[float]] = []

    def guarded(f, lo, hi, abs_tol):
        if allowed is None or not set(hi) <= set(allowed):
            raise AssertionError(f"quadrature on {hi!r}")
        seen.append(list(hi))
        return real(f, lo, hi, abs_tol)

    monkeypatch.setattr(corrmath, "_integrate_arrays", guarded)
    return seen


def test_fully_memoized_array_read_runs_no_quadrature(monkeypatch) -> None:
    xs = [0.0, 0.3, 0.5, 0.3, 0.9]
    want = [v.hex() for v in sigma_s2(np.array(xs)).tolist()]
    memo = [corrmath._MEMO[x].hex() for x in xs]
    _refuse_quadrature(monkeypatch)
    assert [v.hex() for v in sigma_s2(np.array(xs)).tolist()] == want == memo
    # -0.0 is the key 0.0, as it is on the float path.
    assert sigma_s2(np.array([-0.0])).tolist()[0].hex() == want[0]


def test_bad_element_among_memo_hits_is_named(monkeypatch) -> None:
    hits = [0.2, 0.4]
    sigma_s2(np.array(hits))
    _refuse_quadrature(monkeypatch)
    for bad in (-0.1, 1.0, math.nan):
        with pytest.raises(DomainError, match=f"got {bad!r}"):
            sigma_s2(np.array([hits[0], bad, hits[1]]))


def test_partly_memoized_array_integrates_only_the_missing_abscissae(monkeypatch) -> None:
    hits, missing = [0.31, 0.62], [0.47, 0.83]
    xs = [hits[0], missing[0], hits[1], missing[1]]
    want = _cold_float_values(xs)
    sigma_s2(np.array(hits))
    seen = _refuse_quadrature(monkeypatch, allowed=missing)
    assert [v.hex() for v in sigma_s2(np.array(xs)).tolist()] == want
    assert seen == [missing]


def test_a_call_that_integrates_leaves_exactly_its_distinct_keys_in_the_memo() -> None:
    first = [0.11, 0.12, 0.13]
    second = [0.21, 0.12, 0.21, 0.22]
    want = _cold_float_values(second)
    sigma_s2(np.array(first))
    assert list(corrmath._MEMO) == first
    # 0.12 is a hit and 0.21 a repeat; the memo keeps only this call's keys.
    got = sigma_s2(np.array(second))
    assert [v.hex() for v in got.tolist()] == want
    assert list(corrmath._MEMO) == [0.21, 0.12, 0.22]
    corrmath._MEMO.clear()


def test_a_repeat_or_a_float_read_of_the_memo_runs_no_quadrature(monkeypatch) -> None:
    # A call of hits, whole or in part, leaves the memo as it is.
    xs = [j / 40 for j in range(1, 21)]
    want = [v.hex() for v in sigma_s2(np.array(xs)).tolist()]
    _refuse_quadrature(monkeypatch)
    assert [v.hex() for v in sigma_s2(np.array(xs)).tolist()] == want
    assert [v.hex() for v in sigma_s2(np.array(xs[5:9])).tolist()] == want[5:9]
    assert [sigma_s2(x).hex() for x in xs] == want
    assert list(corrmath._MEMO) == xs
    corrmath._MEMO.clear()


def test_a_float_miss_leaves_one_key_in_the_memo() -> None:
    sigma_s2(np.array([0.3, 0.4]))
    want = _cold_float_values([0.35])
    assert sigma_s2(0.35).hex() == want[0]
    assert list(corrmath._MEMO) == [0.35]
    corrmath._MEMO.clear()


def test_array_sigma_s2_refuses_elements_outside_the_domain() -> None:
    for bad in ([0.5, 1.0], [-0.1], [0.2, math.nan], [math.inf]):
        with pytest.raises(DomainError):
            sigma_s2(np.array(bad))
    with pytest.raises(DomainError):
        sigma_s2(np.array([[0.5]]))


def test_array_moments_have_the_bits_of_floats() -> None:
    # np.arcsin and numpy's `**` differ from math in the last bit on a
    # fraction of inputs, so a thousand draws expose either.
    rhos = [0.0, -0.0, 5e-324, 1e-8, 0.005, 0.5, 0.995, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]
    rhos += [-v for v in rhos] + (2.0 * np.random.default_rng(3).random(1000) - 1.0).tolist()
    for maker in (moments_r, moments_t, moments_s):
        got = maker(np.array(rhos))
        want = [maker(v) for v in rhos]
        for field in ("mu", "dmu", "sigma2"):
            values = getattr(got, field)
            assert isinstance(values, np.ndarray) and values.shape == (len(rhos),)
            assert [v.hex() for v in values.tolist()] == [
                getattr(w, field).hex() for w in want
            ], (maker.__name__, field)


def test_array_moments_refuse_any_element_outside_the_domain() -> None:
    for maker in (moments_r, moments_t, moments_s):
        for bad in ([0.5, 1.0], [-1.0], [0.2, math.nan, 2.0], [math.inf]):
            first = next(v for v in bad if not abs(v) < 1.0)
            with pytest.raises(DomainError, match=f"got {first!r}"):
                maker(np.array(bad))
        with pytest.raises(DomainError):
            maker(np.array([[0.5]]))


def test_no_sigma_s2_integral_takes_more_than_two_bisection_rounds() -> None:
    # The depth that the quadrature's interval store serves: at each
    # abscissa sigma_s2 reads, from the smallest to 1 - 1e-12 and past it,
    # each of the four integrals is done after its first pass and at
    # most two rounds, 15 + 30 * 2 evaluations, so holds <= 3 intervals.
    xs = interior_grid(0.0, 1.0, 999)
    xs += [5e-324, 1e-300, 0.9999, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]
    evaluations = _integrate_arrays(_integrands, [0.0] * len(xs), xs, _INTEGRAL_TOL)[2]
    assert evaluations.shape == (len(xs), 4)
    assert evaluations.max() <= 15 + 30 * 2
