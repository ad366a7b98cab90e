"""Tests for finite-sample estimators, sampling, and Monte Carlo checks."""

from __future__ import annotations

import math
import sys
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from arecorr import stats_mc
from arecorr.corrmath import moments_s, mu_s_finite_n
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
    xs, ys = stats_mc._normal_rows(n, rho, seed, range(3, 40))
    assert xs.flags.c_contiguous and ys.flags.c_contiguous
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
    # Constant columns at the ends of the float range are degenerate too.
    for const in (1e300, 1e-310):
        with pytest.raises(DegenerateSample):
            pearson_r(BivariateSample(x=np.full(3, const), y=np.array([0.0, 1.0, 2.0])))


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
    base = stats_mc._normal_rows(50, 0.6, DEFAULT_SEED, range(4))
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


@pytest.mark.parametrize("n, const", [(10, 0.5), (3, 1e300), (3, 1e-310)])
def test_block_r_refuses_a_constant_row(n: int, const: float) -> None:
    x, y = stats_mc._normal_rows(n, 0.3, DEFAULT_SEED, range(3))
    for v in (x, y):
        saved = v[1].copy()
        v[1] = const
        with pytest.raises(DegenerateSample):
            stats_mc._pearson_rows(x, y)
        with pytest.raises(DegenerateSample):
            pearson_r(BivariateSample(x=x[1], y=y[1]))
        v[1] = saved


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
    for rho in (0.7, 0.0, -0.9):
        values = stats_mc._replicates(rho, n, reps, seed)
        assert values.shape == (3, reps)
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


def test_block_values_on_tied_rows_match_the_oracles() -> None:
    x, y = stats_mc._normal_rows(12, 0.4, DEFAULT_SEED, range(4))
    x[1, 5] = x[1, 2]
    y[2, 0] = y[2, 7]
    with pytest.warns(TiesPresent) as record:
        values = stats_mc._block_st(x, y)
    assert len(record) == 1
    for k in range(4):
        s = BivariateSample(x=x[k], y=y[k])
        assert values[0, k] == _spearman_oracle(s)
        assert values[1, k] == kendall_t_brute(s)


def test_cached_replicates_are_read_only() -> None:
    values = stats_mc._replicates(0.2, 10, 100, 3)
    assert stats_mc._replicates(0.2, 10, 100, 3) is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 0.0


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
