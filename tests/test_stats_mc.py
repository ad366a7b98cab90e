"""Tests for finite-sample estimators, sampling, and Monte Carlo checks."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from arecorr import stats_mc
from arecorr.corrmath import moments_s, moments_t, mu_s_finite_n
from arecorr.errors import DegenerateSample, DomainError, TiesPresent
from arecorr.stats_mc import (
    DEFAULT_SEED,
    BivariateSample,
    kendall_t,
    SEED_LIMIT,
    kendall_t_brute,
    kernel_h_s,
    kernel_h_s_n,
    kernel_h_t,
    mc_moments,
    mc_reports,
    pearson_r,
    phi,
    sample_bivariate_normal,
    spearman_s,
    spearman_ustat_identity,
)


def _sample(n: int, rho: float, stream: int) -> BivariateSample:
    return sample_bivariate_normal(n, rho, DEFAULT_SEED, stream=stream)


def _from_pairs(pairs) -> BivariateSample:
    arr = np.asarray(list(pairs), dtype=np.float64)
    return BivariateSample(x=arr[:, 0], y=arr[:, 1])


def _le_ranks(v: np.ndarray) -> np.ndarray:
    """Oracle for the "<=" ranks #{j : v_j <= v_i}."""
    return np.searchsorted(np.sort(v), v, side="right").astype(np.int64)


def _lt_counts(v: np.ndarray) -> np.ndarray:
    """Oracle for the counts #{j : v_j < v_i} of strictly smaller values."""
    return np.searchsorted(np.sort(v), v, side="left").astype(np.int64)


def _spearman_oracle(s: BivariateSample) -> float:
    """6(2A - 3C(n,3) - C(n,2)) / ((n+1)n(n-1)) with A = sum Lx_i Ly_i."""
    n = s.n
    a = int(_lt_counts(s.x) @ _lt_counts(s.y))
    return 6 * (2 * a - 3 * math.comb(n, 3) - math.comb(n, 2)) / ((n + 1) * n * (n - 1))


def _spearman_kernel_average(s: BivariateSample) -> float:
    """S by definition: the average of kernel_h_s_n over all triples, n >= 3.

    (n + 1) times each kernel value is an integer, so the sum is exact and
    the average is one correctly rounded division.
    """
    n, pts = s.n, s.pairs
    total = 0
    for i, j, k in combinations(range(n), 3):
        vi, vj, vk = pts[i], pts[j], pts[k]
        pair_part = kernel_h_t(vi, vj) + kernel_h_t(vi, vk) + kernel_h_t(vj, vk)
        total += int((n - 2) * kernel_h_s(vi, vj, vk) + pair_part)
    return total / ((n + 1) * math.comb(n, 3))


# ---------------------------------------------------------------- samples


def test_sample_container_validates_input() -> None:
    with pytest.raises(DomainError):
        BivariateSample(x=np.arange(3.0), y=np.arange(4.0))
    with pytest.raises(DomainError):
        BivariateSample(x=np.zeros((2, 2)), y=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        BivariateSample(x=np.array([]), y=np.array([]))
    with pytest.raises(DomainError):
        BivariateSample(x=np.array([1.0, math.inf]), y=np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        BivariateSample(x=np.array([1.0, math.nan]), y=np.array([1.0, 2.0]))


def test_sample_container_is_immutable_and_round_trips() -> None:
    s = _from_pairs([(1.0, 2.0), (3.0, 4.0)])
    assert s.n == 2
    assert s.pairs == [(1.0, 2.0), (3.0, 4.0)]
    with pytest.raises(ValueError):
        s.x[0] = 99.0


def test_sampling_is_deterministic_and_prefix_coupled() -> None:
    a = _sample(100, 0.3, stream=7)
    b = _sample(100, 0.3, stream=7)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    small = _sample(50, 0.3, stream=7)
    big = _sample(1000, 0.3, stream=7)
    assert np.array_equal(small.x, big.x[:50])
    assert np.array_equal(small.y, big.y[:50])
    other = _sample(100, 0.3, stream=8)
    assert not np.array_equal(a.x, other.x)


def _new_generator_sample(n: int, rho: float, seed: int, stream: int):
    """The sampler by its definition: a new Philox generator per key."""
    raw = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(2 * n)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    x = ndtri(u[0::2])
    return x, rho * x + math.sqrt(1.0 - rho * rho) * ndtri(u[1::2])


@pytest.mark.parametrize("n", [1, 10, 333])
@pytest.mark.parametrize("rho", [0.0, 0.5, -0.9])
def test_a_rekeyed_generator_draws_what_a_new_one_would(n: int, rho: float) -> None:
    seed = 5 + n
    xs, zs = stats_mc._normal_rows(n, seed, range(3, 40))
    assert xs.flags.c_contiguous and zs.flags.c_contiguous
    ys = stats_mc._correlated(xs, zs, rho)
    for stream, x, y in zip(range(3, 40), xs, ys):
        want_x, want_y = _new_generator_sample(n, rho, seed, stream)
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y), stream
        s = sample_bivariate_normal(n, rho, seed, stream=stream)
        assert np.array_equal(s.x, want_x) and np.array_equal(s.y, want_y), stream


def test_uniform_map_clamps_the_top_cell_below_one() -> None:
    # The centre of the top 53-bit cell, 1 - 2**-54, rounds to 1.0, where
    # ndtri is +inf; both words in that cell used to give a non-finite sample.
    words = [2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1, 2**64 - 2**12, 2**63, 2**11 - 1, 0]
    raw = np.array(words, dtype=np.uint64)
    unclamped = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    assert unclamped[:2].tolist() == [1.0, 1.0]
    u = stats_mc._uniforms(raw.copy())
    assert u[:2].tolist() == [1.0 - 2.0**-53] * 2
    assert np.array_equal(u[2:], unclamped[2:])
    assert u[-1] == 2.0**-54 and u[-2] == 2.0**-54
    assert 0.0 < u.min() and u.max() < 1.0
    assert np.isfinite(ndtri(u)).all()


def test_sampling_hits_the_requested_correlation() -> None:
    s = _sample(100_000, 0.0, stream=0)
    assert abs(pearson_r(s)) < 4.0 / math.sqrt(100_000)
    near_line = _sample(1000, 0.99, stream=0)
    assert pearson_r(near_line) > 0.9


def test_sampling_rejects_bad_arguments() -> None:
    # int() of 1.5 would draw seed 1's sample.
    for seed in (-1, np.int64(-1), SEED_LIMIT, 1.5, np.float64(2.0), "3"):
        with pytest.raises(DomainError):
            sample_bivariate_normal(10, 0.5, seed)
    for stream in (2.7, np.float64(1.0)):
        with pytest.raises(DomainError, match="stream"):
            sample_bivariate_normal(10, 0.5, 1, stream=stream)
    for n in (10.0, np.float64(10.0), 2.5):
        with pytest.raises(DomainError, match="n must be an integer"):
            sample_bivariate_normal(n, 0.5, 1)
    by_int = sample_bivariate_normal(10, 0.5, 3, stream=2)
    by_np = sample_bivariate_normal(np.int64(10), 0.5, np.uint64(3), stream=np.int32(2))
    assert by_np.x.tolist() == by_int.x.tolist() and by_np.y.tolist() == by_int.y.tolist()
    with pytest.raises(DomainError):
        sample_bivariate_normal(0, 0.5, 1)
    with pytest.raises(DomainError):
        sample_bivariate_normal(10, 1.0, 1)
    with pytest.raises(DomainError):
        sample_bivariate_normal(10, 0.5, 1, stream=-1)


# ------------------------------------------------------------- estimators


def test_pearson_matches_hand_evaluations() -> None:
    zero = _from_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    assert pearson_r(zero) == pytest.approx(0.0, abs=1e-15)
    xs = np.linspace(-2.0, 3.0, 17)
    line = BivariateSample(x=xs, y=2.0 * xs + 1.0)
    assert pearson_r(line) == pytest.approx(1.0, abs=1e-15)
    anti = BivariateSample(x=xs, y=-xs)
    assert pearson_r(anti) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_rejects_degenerate_and_tiny_samples() -> None:
    with pytest.raises(DegenerateSample):
        pearson_r(BivariateSample(x=np.array([1.0, 1.0]), y=np.array([0.0, 2.0])))
    with pytest.raises(DegenerateSample):
        pearson_r(BivariateSample(x=np.array([0.0, 2.0]), y=np.array([5.0, 5.0])))
    with pytest.raises(DomainError):
        pearson_r(BivariateSample(x=np.array([1.0]), y=np.array([1.0])))
    # Constant columns at the ends of the float range are degenerate too,
    # and so are those whose computed mean is not the value itself.
    for n, const in ((3, 1e300), (3, 1e-310), (3, 0.1), (10, 0.3), (50, 0.3), (10, 0.1)):
        line = np.arange(n, dtype=np.float64)
        with pytest.raises(DegenerateSample):
            pearson_r(BivariateSample(x=np.full(n, const), y=line))
        with pytest.raises(DegenerateSample):
            pearson_r(BivariateSample(x=line, y=np.full(n, const)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "x, y, scales, want",
    [
        ([1e200, 2e200, 3e200], [1e200, 2e200, 3e200], (-660, -660), 1.0),
        ([1e-200, 2e-200, 3e-200], [1.0, 2.0, 3.0], (660, 0), 1.0),
        # Centred, x/1e308 is (5, -11, 5, 1)/8 and y is (0, 1, -4, 3).
        (
            [1e308, -1e308, 1e308, 0.5e308],
            [1.0, 2.0, -3.0, 4.0],
            (-1020, 0),
            -3.5 / math.sqrt(2.6875 * 26.0),
        ),
    ],
    ids=["overflow", "underflow", "max-finite"],
)
def test_pearson_of_an_extreme_scale_sample_is_that_of_the_sample_scaled(
    x: list[float], y: list[float], scales: tuple[int, int], want: float
) -> None:
    # Sums of squares that overflow or underflow used to give -1.0 or a
    # DegenerateSample.  Scaling a coordinate by a power of two is exact,
    # so r must equal its value on a sample scaled into the normal range.
    got = pearson_r(BivariateSample(x=np.array(x), y=np.array(y)))
    sx, sy = scales
    ref = pearson_r(BivariateSample(x=np.ldexp(np.array(x), sx), y=np.ldexp(np.array(y), sy)))
    assert got == ref
    assert got == pytest.approx(want, abs=1e-15)


def _pearson_1d(x: np.ndarray, y: np.ndarray) -> float:
    """r of one row by 1-D dot products, for rows in the normal range."""
    xc, yc = x - x.mean(), y - y.mean()
    return float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))


@pytest.mark.filterwarnings("error")
def test_block_r_equals_pearson_r_on_every_row_at_any_scale() -> None:
    x0, z0 = stats_mc._normal_rows(50, DEFAULT_SEED, range(4))
    base = (x0, stats_mc._correlated(x0, z0, 0.6))
    x, y = (np.concatenate([v, np.ldexp(v, 600), np.ldexp(v, -600)]) for v in base)
    # The scaled rows' sums overflow or underflow, so they take the fallback.
    with np.errstate(over="ignore", invalid="ignore"):
        sxx, syy, _ = stats_mc._centred_sums(x, y)
        prod = sxx * syy
    assert not ((prod[4:] >= sys.float_info.min) & (prod[4:] < math.inf)).any()
    r = stats_mc._pearson_rows(x, y)
    for k in range(len(r)):
        assert r[k] == pearson_r(BivariateSample(x=x[k], y=y[k])), k
    # Scaling by a power of two is exact, so r is the unscaled row's.
    assert np.array_equal(r[4:8], r[:4]) and np.array_equal(r[8:], r[:4])
    for k in range(4):
        assert r[k] == _pearson_1d(x[k], y[k]), k


@pytest.mark.parametrize(
    "n, const", [(10, 0.5), (3, 1e300), (3, 1e-310), (3, 0.1), (10, 0.3), (50, 0.3)]
)
def test_block_r_refuses_a_constant_row(n: int, const: float) -> None:
    x, z = stats_mc._normal_rows(n, DEFAULT_SEED, range(3))
    y = stats_mc._correlated(x, z, 0.3)
    for v in (x, y):
        saved = v[1].copy()
        v[1] = const
        with pytest.raises(DegenerateSample):
            stats_mc._refuse_constant(v)
        with pytest.raises(DegenerateSample):
            pearson_r(BivariateSample(x=x[1], y=y[1]))
        v[1] = saved


@pytest.mark.parametrize("coordinate", [0, 1], ids=["x", "y"])
def test_replicates_refuse_a_constant_row(monkeypatch, coordinate: int) -> None:
    # At rho = 0, y is z exactly, so a constant row of z is one of y.
    draw = stats_mc._normal_rows

    def with_a_constant_row(n, seed, streams):
        rows = draw(n, seed, streams)
        rows[coordinate][1] = 0.5
        return rows

    monkeypatch.setattr(stats_mc, "_normal_rows", with_a_constant_row)
    with pytest.raises(DegenerateSample):
        stats_mc._replicates((0.0,), 20, 5, DEFAULT_SEED)


def test_spearman_matches_hand_evaluations() -> None:
    s = _from_pairs([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)])
    assert spearman_s(s) == 0.5  # (12/24)*13 - 6, exact
    xs = np.linspace(0.0, 1.0, 11)
    assert spearman_s(BivariateSample(x=xs, y=np.exp(xs))) == 1.0


def test_spearman_equals_pearson_of_ranks() -> None:
    for stream in range(5):
        s = _sample(20, 0.4, stream=stream)
        oracle = pearson_r(BivariateSample(x=_le_ranks(s.x), y=_le_ranks(s.y)))
        assert spearman_s(s) == pytest.approx(oracle, abs=1e-12)


def test_kendall_matches_hand_evaluations() -> None:
    assert kendall_t(_from_pairs([(1, 1), (2, 2), (3, 3)])) == 1.0
    s = _from_pairs([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)])
    assert kendall_t(s) == (2 - 1) / 3  # 2 concordant, 1 discordant


def test_kendall_fast_path_equals_kernel_sum_exactly() -> None:
    sizes = [2, 3, 4, 5, 8, 13, 47, 100, 199, 350, 500]
    rhos = [0.0, -0.5, 0.5, 0.9, -0.9]
    checked = 0
    for i in range(50):
        n = sizes[i % len(sizes)]
        s = _sample(n, rhos[i % len(rhos)], stream=100 + i)
        assert kendall_t(s) == kendall_t_brute(s), (i, n)
        checked += 1
    assert checked == 50


def test_estimators_are_invariant_to_increasing_affine_maps() -> None:
    s = _sample(100, 0.6, stream=3)
    mapped = BivariateSample(x=2.5 * s.x - 1.0, y=0.75 * s.y + 3.0)
    assert pearson_r(mapped) == pytest.approx(pearson_r(s), abs=1e-12)
    assert spearman_s(mapped) == spearman_s(s)
    assert kendall_t(mapped) == kendall_t(s)


def test_estimators_negate_when_y_is_negated() -> None:
    s = _sample(100, 0.6, stream=4)
    flipped = BivariateSample(x=s.x, y=-s.y)
    assert pearson_r(flipped) == pytest.approx(-pearson_r(s), abs=1e-12)
    assert spearman_s(flipped) == -spearman_s(s)
    assert kendall_t(flipped) == -kendall_t(s)


def test_estimators_stay_in_range() -> None:
    for stream in range(10):
        s = _sample(25, 0.8, stream=stream)
        for est in (pearson_r, spearman_s, kendall_t):
            assert -1.0 <= est(s) <= 1.0


def test_tied_coordinates_warn_but_still_evaluate() -> None:
    tied = _from_pairs([(1.0, 5.0), (1.0, 2.0), (3.0, 4.0)])
    with pytest.warns(TiesPresent):
        sv = spearman_s(tied)
    assert math.isfinite(sv)
    with pytest.warns(TiesPresent):
        tv = kendall_t(tied)
    assert tv == kendall_t_brute(tied)


# Few distinct values, so most samples have ties in one or both columns.
_TIED_SAMPLES = st.integers(2, 40).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 3), min_size=n, max_size=n)] * 2)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TIED_SAMPLES)
@example(([0, 0], [0, 1]))
@example(([1, 1, 1], [2, 2, 2]))
@example(([0, 1], [1, 0]))
@example(([1, 1, 2], [1, 2, 3]))
def test_tied_estimators_match_the_oracles(columns) -> None:
    # S is its triple-kernel average on tied samples too; at n = 2 the
    # kernel keeps only its pair part, so S equals T there.
    s = BivariateSample(x=np.array(columns[0]), y=np.array(columns[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiesPresent)
        assert kendall_t(s) == kendall_t_brute(s)
        want = _spearman_kernel_average(s) if s.n >= 3 else kendall_t_brute(s)
        assert spearman_s(s) == want
        assert _spearman_oracle(s) == want


def test_tied_estimators_run_in_linear_memory() -> None:
    # The quadratic kernel sum builds n x n matrices, about 30 MiB here.
    n = 4000
    s = BivariateSample(x=np.arange(n) // 3, y=np.arange(n) % 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiesPresent)
        tracemalloc.start()
        try:
            tv, sv = kendall_t(s), spearman_s(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert tv == kendall_t_brute(s)
    assert sv == _spearman_oracle(s)


def test_tie_free_paths_emit_no_warnings() -> None:
    s = _sample(50, 0.2, stream=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spearman_s(s)
        kendall_t(s)


# ----------------------------------------------------------------- kernels


def test_pair_kernel_values() -> None:
    assert kernel_h_t((1.0, 1.0), (2.0, 2.0)) == 1.0  # concordant
    assert kernel_h_t((1.0, 2.0), (2.0, 1.0)) == -1.0  # discordant
    assert kernel_h_t((1.0, 1.0), (2.0, 2.0)) == kernel_h_t((2.0, 2.0), (1.0, 1.0))


def test_triple_kernel_takes_only_the_two_allowed_magnitudes() -> None:
    for stream in range(5):
        s = _sample(12, 0.3, stream=30 + stream)
        pts = s.pairs
        n = s.n
        allowed = (1.0, (n - 1) / (n + 1))
        for i, j, k in [(0, 1, 2), (3, 7, 9), (2, 5, 11), (0, 6, 10)]:
            v = abs(kernel_h_s_n(n, pts[i], pts[j], pts[k]))
            assert min(abs(v - t) for t in allowed) <= 1e-12
            hs = kernel_h_s(pts[i], pts[j], pts[k])
            assert hs in (-3.0, -1.0, 1.0, 3.0)


def test_spearman_ustat_identity_on_seeded_samples() -> None:
    for i in range(25):
        n = 3 + (i % 23)
        s = _sample(n, 0.5 if i % 2 else -0.3, stream=200 + i)
        direct, ustat = spearman_ustat_identity(s)
        assert abs(direct - ustat) <= 1e-12, (i, n)


def test_spearman_ustat_identity_on_concordant_quadruple() -> None:
    s = _from_pairs([(1, 1), (2, 2), (3, 3), (4, 4)])
    direct, ustat = spearman_ustat_identity(s)
    assert direct == 1.0
    assert ustat == pytest.approx(1.0, abs=1e-12)


def test_spearman_ustat_identity_holds_on_tied_samples() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TiesPresent)
        assert spearman_ustat_identity(_from_pairs([(1, 1), (1, 2), (2, 3)])) == (0.5, 0.5)
        constant = BivariateSample(x=np.ones(7), y=np.arange(7.0))
        direct, ustat = spearman_ustat_identity(constant)
        assert direct == -3 * 6 / 8  # the low end of S on tied samples
        assert ustat == pytest.approx(direct, abs=1e-12)
        for stream in range(5):
            s = _sample(15, 0.5, stream=300 + stream)
            tied = BivariateSample(x=np.round(s.x), y=np.round(2.0 * s.y))
            direct, ustat = spearman_ustat_identity(tied)
            assert abs(direct - ustat) <= 1e-12, stream


def test_spearman_ustat_identity_rejects_out_of_range_n() -> None:
    with pytest.raises(DomainError):
        spearman_ustat_identity(_sample(2, 0.0, stream=0))
    with pytest.raises(DomainError):
        spearman_ustat_identity(_sample(41, 0.0, stream=0))


# --------------------------------------------------------------------- phi


def test_phi_matches_reference_values() -> None:
    assert phi(0.0) == 0.5
    assert phi(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert phi(-1.0) + phi(1.0) == pytest.approx(1.0, abs=1e-15)
    assert phi(37.0) == 1.0
    assert phi(-37.0) == pytest.approx(0.0, abs=1e-250)


def test_phi_of_an_array_has_the_bits_of_floats() -> None:
    z = np.random.default_rng(9).standard_normal(20_000) * 4.0
    z = np.concatenate([z, [0.0, -0.0, 1e-300, -1e-300, 8.3, -8.3, 37.0, -37.0, -40.0]])
    got = phi(z)
    assert got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [phi(v).hex() for v in z.tolist()]


# ------------------------------------------------------------- Monte Carlo


def test_mc_moments_validates_arguments() -> None:
    with pytest.raises(DomainError):
        mc_moments("X", 0.5, 50, 100)
    with pytest.raises(DomainError):
        mc_moments("T", 0.5, 9, 100)
    with pytest.raises(DomainError):
        mc_moments("T", 0.5, 50, 99)
    with pytest.raises(DomainError):
        mc_moments("T", 1.0, 50, 100)
    with pytest.raises(DomainError, match="n must be an integer"):
        mc_moments("T", 0.5, 50.0, 100)
    with pytest.raises(DomainError, match="reps must be an integer"):
        mc_moments("T", 0.5, 50, 100.0)
    report = mc_moments("T", 0.5, np.int64(50), np.int32(100))
    assert report == mc_moments("T", 0.5, 50, 100)


# Warnings are errors: a block of ordinary draws emits none.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [10, 50, 1000])
def test_replicates_match_per_sample_estimators_across_block_boundaries(n) -> None:
    rows = max(1, stats_mc._BLOCK_CELLS // n)
    reps = 2 * rows + rows // 2 + 1  # two full blocks and a partial one
    seed = 20 + n
    rhos = (0.7, 0.0, -0.9)
    # One call draws and ranks each block once for all three rhos.
    all_values = stats_mc._replicates(rhos, n, reps, seed)
    assert all_values.shape == (3, 3, reps)
    for rho, values in zip(rhos, all_values):
        for i in range(reps):
            s = sample_bivariate_normal(n, rho, seed, stream=i)
            for k, stat in enumerate("RST"):
                assert values[k, i] == stats_mc._ESTIMATORS[stat](s), (rho, stat, i)


# n = 2, 3, and powers of two and their neighbours, where padding changes;
# rows are permutations of 0..n-1 or tied values in 0..n.
_ROW_BLOCKS = st.sampled_from(
    [2, 3] + [m + d for m in (4, 8, 16, 32, 64) for d in (-1, 0, 1)]
).flatmap(
    lambda n: st.lists(
        st.permutations(range(n)) | st.lists(st.integers(0, n), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=60, deadline=None)
@given(_ROW_BLOCKS)
def test_row_inversion_counts_match_the_kernel_sum(rows) -> None:
    block = np.array(rows, dtype=np.int64)
    n = block.shape[1]
    c2 = n * (n - 1) // 2
    counts = stats_mc._inversions(block)
    for row, count in zip(block, counts):
        # With x = 0..n-1 the pairs that are not concordant are the
        # p < q with y_p >= y_q.
        brute = kendall_t_brute(BivariateSample(x=np.arange(n), y=row))
        assert count == round(c2 * (1.0 - brute) / 2.0)


def _strided_inversions(seq: np.ndarray) -> np.ndarray:
    """Reference merge count: the pairs inside each block of 8 by seven
    strided compares of the padded rows, then the same merge levels."""
    rows, n = seq.shape
    m = max(8, 1 << (n - 1).bit_length())
    work = np.empty((rows, m), dtype=np.int64)
    work[:, :n] = seq
    work[:, n:] = np.arange(n + 1, m + 1)
    cube = work.reshape(rows, -1, 8)
    total = np.zeros(rows, dtype=np.int64)
    for d in range(1, 8):
        total += (cube[..., :-d] >= cube[..., d:]).sum(axis=(1, 2))
    cube.sort(axis=2)
    size = 8
    while size < m:
        keys = work.reshape(-1, 2 * size)
        keys <<= 1
        keys[:, :size] += 1
        keys.sort(axis=1)
        positions = (keys & 1) @ np.arange(2 * size, dtype=np.int64)
        total += (positions - size * (size - 1) // 2).reshape(rows, -1).sum(axis=1)
        keys >>= 1
        size *= 2
    return total


# The hypothesis test above stops at n = 65; these are mc-large's n and
# the lengths around a power of two, where the padding changes.
@pytest.mark.parametrize("n", [1000, 1024, 1025, 4097])
def test_inversions_at_long_rows_match_the_strided_count(n) -> None:
    rng = np.random.default_rng(n)
    block = np.array(
        [
            rng.permutation(n),
            rng.permutation(n),
            np.arange(n)[::-1],
            rng.integers(0, n + 1, n),
            rng.integers(0, 4, n),
            np.full(n, n // 2),
        ]
    )
    counts = stats_mc._inversions(block)
    assert np.array_equal(counts, _strided_inversions(block))
    c2 = n * (n - 1) // 2
    assert counts[2] == counts[5] == c2  # every pair is an inversion


def test_block_values_on_tied_rows_match_the_oracles() -> None:
    x, z = stats_mc._normal_rows(12, DEFAULT_SEED, range(4))
    y = stats_mc._correlated(x, z, 0.4)
    x[1, 5] = x[1, 2]
    y[2, 0] = y[2, 7]
    with pytest.warns(TiesPresent) as record:
        values = stats_mc._block_st(x, y, stats_mc._ranked_rows(x))
    assert len(record) == 1
    for k in range(4):
        s = BivariateSample(x=x[k], y=y[k])
        assert values[0, k] == _spearman_oracle(s)
        assert values[1, k] == kendall_t_brute(s)


def test_a_shared_x_ranking_serves_every_rho_of_a_tied_block() -> None:
    # A row with an x tie re-sorts its x order by y, which differs per
    # rho; the shared ranking must come out of each call unchanged.
    x, z = stats_mc._normal_rows(12, DEFAULT_SEED, range(5))
    x[1, 5] = x[1, 2]
    x[3, :4] = x[3, 4]
    z[3, :5] = np.arange(5.0)  # the tied x values meet distinct y
    ranked_x = stats_mc._ranked_rows(x)
    saved = [v.copy() for v in ranked_x]
    for rho in (0.4, -0.8, 0.0, 0.95):
        y = stats_mc._correlated(x, z, rho)
        with pytest.warns(TiesPresent):
            values = stats_mc._block_st(x, y, ranked_x)
        for v, want in zip(ranked_x, saved):
            assert np.array_equal(v, want), rho
        for k in range(5):
            s = BivariateSample(x=x[k], y=y[k])
            assert values[0, k] == _spearman_oracle(s), (rho, k)
            assert values[1, k] == kendall_t_brute(s), (rho, k)


@pytest.mark.parametrize("rows, n", [(8, 1000), (163, 50)])
def test_block_values_at_mc_block_shapes_match_the_oracles(rows, n) -> None:
    # The block shapes of mc-large and mc-small.  Rows cycle through
    # tie-free, x tied, y tied and both tied; rounding to half units
    # makes many runs of equal values, and equal pairs in both.
    x, z = stats_mc._normal_rows(n, DEFAULT_SEED, range(rows))
    x[1::2] = np.round(2.0 * x[1::2])
    ranked_x = stats_mc._ranked_rows(x)
    saved = [v.copy() for v in ranked_x]
    assert np.array_equal(ranked_x[1], np.arange(rows) % 2 == 1)
    for rho in (0.6, -0.9):
        y = stats_mc._correlated(x, z, rho)
        y[2::4] = np.round(2.0 * y[2::4])
        y[3::4] = np.round(2.0 * y[3::4])
        assert np.array_equal(stats_mc._ranked_rows(y)[1], np.arange(rows) % 4 >= 2)
        with pytest.warns(TiesPresent) as record:
            values = stats_mc._block_st(x, y, ranked_x)
        assert len(record) == 1
        for v, want in zip(ranked_x, saved):
            assert np.array_equal(v, want), rho
        for k in range(rows):
            s = BivariateSample(x=x[k], y=y[k])
            assert values[0, k] == _spearman_oracle(s), (rho, k)
            assert values[1, k] == kendall_t_brute(s), (rho, k)


@pytest.mark.parametrize("side", ["float_division", "python_division"])
def test_block_values_on_both_sides_of_the_float_guard(side) -> None:
    # S's numerator reaches -3n(n - 1)**2 on a constant row; below
    # 3(n**3 - n) < 2**53 every numerator is exact in float64, at and
    # above it the values are divided as Python ints.
    n = next(m for m in range(144_000, 145_000) if 3 * (m**3 - m) >= 2**53)
    n -= side == "float_division"
    x = np.array([np.arange(n), np.arange(n) // 3, np.arange(n)], dtype=np.float64)
    y = np.array([np.arange(n), np.arange(n) % 7, np.zeros(n)], dtype=np.float64)
    y[0, 100:1100] = y[0, 100:1100][::-1].copy()  # 1000 * 999 / 2 inversions
    with pytest.warns(TiesPresent):
        values = stats_mc._block_st(x, y, stats_mc._ranked_rows(x))
    for k in range(3):
        assert values[0, k] == _spearman_oracle(BivariateSample(x=x[k], y=y[k])), k
    c2 = n * (n - 1) // 2
    assert values[1, 0] == (c2 - 1000 * 999) / c2
    assert values[1, 2] == -1.0


def test_spearman_past_int64_rank_products_is_exact() -> None:
    # A = sum_i Lx_i Ly_i = sum(i**2 for i < n) passes 2**63 at n = 3,024,618.
    x = np.arange(3_100_000.0)
    assert spearman_s(BivariateSample(x, x)) == 1.0


@pytest.mark.parametrize("n", [3_024_617, 3_024_618])
def test_rank_products_on_both_sides_of_int64_are_exact(n) -> None:
    ranks = np.arange(n)
    want = (n - 1) * n * (2 * n - 1) // 6
    assert (want < 2**63) == (n == 3_024_617)
    rows = stats_mc._rank_products(np.array([ranks, ranks[::-1]]), ranks)
    assert [int(v) for v in rows] == [want, want - (n - 1) * n * (n + 1) // 6]
    assert int(stats_mc._rank_products(ranks, ranks)) == want


def test_twenty_rhos_are_drawn_in_replicates_calls_of_8_8_and_4(monkeypatch) -> None:
    calls = []
    replicates = stats_mc._replicates

    def counted(rhos, *rest):
        calls.append(rhos)
        return replicates(rhos, *rest)

    monkeypatch.setattr(stats_mc, "_replicates", counted)
    rhos = [j / 25 for j in range(20)]
    reports = mc_reports(rhos, 10, 100, 5)
    assert calls == [tuple(rhos[:8]), tuple(rhos[8:16]), tuple(rhos[16:])]
    assert [(r.stat, r.rho) for r in reports] == [(stat, rho) for stat in "RST" for rho in rhos]


def test_every_report_equals_its_mc_moments_call_in_order() -> None:
    rhos = [0.9, -0.5, 0.9, -0.0, 0.0]
    reports = mc_reports(rhos, 10, 100, 4)
    assert len(reports) == 15
    for k, report in enumerate(reports):
        stat, rho = "RST"[k // 5], rhos[k % 5]
        assert report == mc_moments(stat, rho, 10, 100, seed=4)
        assert math.copysign(1.0, report.rho) == math.copysign(1.0, rho)
    # A repeated rho draws the same replicates again.
    assert reports[0] == reports[2]


def test_mc_reports_refuses_what_mc_moments_refuses(monkeypatch) -> None:
    # Every argument is checked before the first block is drawn.
    def no_draws(*args):
        raise AssertionError("drew before every argument was checked")

    monkeypatch.setattr(stats_mc, "_replicates", no_draws)
    cases = [
        ((0.5,), 9, 100, DEFAULT_SEED, "n must be >= 10"),
        ((0.5,), 10.0, 100, DEFAULT_SEED, "n must be an integer"),
        ((0.5,), 10, 99, DEFAULT_SEED, "reps must be >= 100"),
        ((0.5,), 10, 100.0, DEFAULT_SEED, "reps must be an integer"),
        ((0.5,), 10, 100, -1, "seed must lie in"),
        ((0.5,), 10, 100, SEED_LIMIT, "seed must lie in"),
        ((0.5,), 10, 100, 1.9, "seed must be an integer"),
        ((0.5,) * 8 + (1.0,), 10, 100, DEFAULT_SEED, r"\|rho\| must be < 1"),
        ((-1.0,), 10, 100, DEFAULT_SEED, r"\|rho\| must be < 1"),
    ]
    for rhos, n, reps, seed, message in cases:
        for call in (
            lambda: mc_reports(rhos, n, reps, seed),
            lambda: mc_moments("R", rhos[-1], n, reps, seed),
        ):
            with pytest.raises(DomainError, match=message):
                call()


def test_mc_reports_refuses_a_rho_where_sigma_s2_is_not_positive(monkeypatch) -> None:
    # sigma_s2 cancels to -8.9e-16 at 0.999999999; the refusal comes
    # before any draw, so it costs no sampling.
    def no_draws(*args):
        raise AssertionError("drew before every variance was checked")

    monkeypatch.setattr(stats_mc, "_normal_rows", no_draws)
    with pytest.raises(DomainError, match=r"variance of S at rho=0\.999999999 is -"):
        mc_reports([0.999999999], 10, 100)


def test_mc_reports_refuses_a_rho_where_sigma_s2_has_no_correct_digit(monkeypatch) -> None:
    # At 0.999999999999 sigma_s2 reads 2.7e-15 against a true 7.0e-24:
    # below its absolute tolerance, so S could not be standardized by it.
    def no_draws(*args):
        raise AssertionError("drew before every variance was checked")

    monkeypatch.setattr(stats_mc, "_normal_rows", no_draws)
    message = r"variance of S at rho=0\.999999999999 is .*, not > 1e-12"
    with pytest.raises(DomainError, match=message):
        mc_reports([0.999999999999], 10, 100)


# Each scenario runs in a fresh interpreter, since the loader runs once
# at import and depends on what sys.modules already holds.
_NDTRI_LOADS = {
    "cli_import_leaves_init_unrun": """
import sys
import arecorr.cli
assert "scipy.special" not in sys.modules
""",
    "later_import_shares_the_ufunc": """
from arecorr import stats_mc
import scipy.special, scipy.stats
assert scipy.special.ndtri is stats_mc.ndtri
assert abs(scipy.stats.norm.ppf(0.975) - stats_mc.ndtri(0.975)) < 1e-12
assert scipy.special.mathieu_a(1, 0.5) > 0
""",
    "imported_package_is_kept": """
import sys
import scipy.special
special = sys.modules["scipy.special"]
from arecorr import stats_mc
assert sys.modules["scipy.special"] is special
assert stats_mc.ndtri is special.ndtri
""",
    "failed_private_load_falls_back": """
import sys

class RefuseOnce:
    refused = False

    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not RefuseOnce.refused:
            RefuseOnce.refused = True
            raise ImportError(name)
        return None

sys.meta_path.insert(0, RefuseOnce())
from arecorr import stats_mc
import scipy.special
assert RefuseOnce.refused
assert stats_mc.ndtri is scipy.special.ndtri
""",
}


@pytest.mark.parametrize("code", list(_NDTRI_LOADS.values()), ids=list(_NDTRI_LOADS))
def test_ndtri_is_scipys_ufunc_however_it_is_loaded(code: str) -> None:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_mc_refuses_sizes_past_numpys_index_range() -> None:
    # Refused by the key check, before any array is made.
    with pytest.raises(DomainError, match=r"^n must be < 2\*\*55"):
        mc_reports([0.5], 10**20, 100)
    with pytest.raises(DomainError, match=r"^reps must be < 2\*\*55"):
        mc_reports([0.5], 10, 10**20)
    with pytest.raises(DomainError, match="reps must be < 2"):
        mc_moments("R", 0.5, 10, 10**20)


def test_mc_moments_refuses_seeds_that_would_alias() -> None:
    # Philox takes the seed as one 64-bit word: -1 would draw as 2**64 - 1.
    # A float seed would be truncated and report numbers of another seed.
    for seed in (-1, SEED_LIMIT, SEED_LIMIT + DEFAULT_SEED, 1.9):
        with pytest.raises(DomainError, match="seed"):
            mc_moments("T", 0.5, 10, 100, seed=seed)
    assert mc_moments("T", 0.5, 10, 100, seed=SEED_LIMIT - 1).seed == SEED_LIMIT - 1


def test_mc_moments_report_is_plausible() -> None:
    rep = mc_moments("R", 0.0, 50, 400, seed=DEFAULT_SEED)
    assert rep.stat == "R" and rep.n == 50 and rep.reps == 400
    assert rep.seed == DEFAULT_SEED
    assert 0.0 <= rep.cdf_sup_dist <= 1.0
    assert abs(rep.mean_hat) <= 4.0 * rep.se_mean
    assert abs(rep.var_hat_scaled - 1.0) <= 4.0 * rep.se_var


def test_mc_mean_for_s_is_centered_at_the_finite_n_mean() -> None:
    # At n = 10 the finite-n mean differs from the limit by ~0.04, far
    # beyond the Monte Carlo error, so the centering choice is testable.
    rep = mc_moments("S", 0.5, 10, 2000, seed=DEFAULT_SEED)
    err_finite = abs(rep.mean_hat - mu_s_finite_n(0.5, 10))
    err_limit = abs(rep.mean_hat - moments_s(0.5).mu)
    assert err_finite < err_limit
    assert err_finite <= 4.0 * rep.se_mean


def _kendall_n_var(rho: float, n: int) -> float:
    """Exact n * Var(T_n) = 2/(n-1) * ((n-2) sigma_T^2 / 2 + 1 - tau^2).

    T is a degree-2 U-statistic whose kernel takes only the values -1
    and 1, so zeta_2 = 1 - tau^2, and 4 zeta_1 = sigma_T^2 (Hoeffding
    1948).
    """
    ms = moments_t(rho)
    return 2.0 / (n - 1) * ((n - 2) * ms.sigma2 / 2.0 + 1.0 - ms.mu * ms.mu)


@pytest.mark.parametrize("n, reps", [(10, 100_000), (50, 20_000)])
def test_mc_variance_of_t_is_its_exact_finite_n_variance(n, reps) -> None:
    # At n = 10 and rho = 0 the exact value is 0.617 and the limit
    # 0.444, so this checks T's variance where the asymptotic one fails.
    assert math.isclose(_kendall_n_var(0.0, n), 2 * (2 * n + 5) / (9 * (n - 1)))
    rhos = (0.0, 0.5, 0.9)
    # One draw for every rho; T's reports are the last three.
    for rep in mc_reports(rhos, n, reps, 7)[6:]:
        assert rep.stat == "T"
        z = (rep.var_hat_scaled - _kendall_n_var(rep.rho, n)) / rep.se_var
        assert abs(z) <= 4.0, (rep.rho, z)
