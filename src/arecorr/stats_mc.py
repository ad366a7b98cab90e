"""Finite-sample correlation estimators and Monte Carlo moment checks.

Estimators: product-moment R, rank correlation S and pair concordance
T.  S is the triple-kernel U-statistic, computed from the counts of
strictly smaller values in each coordinate; T counts the pairs not
strictly concordant by merge sort.  Both equal their kernel averages
exactly, with or without ties, in O(n log n) time and O(n) memory, and
ties draw a TiesPresent warning.  On tied samples S can fall below -1:
its range is [-3(n-1)/(n+1), 1], the low end taken when a column is
constant.  `spearman_ustat_identity` evaluates S both ways for comparison.

Sampling uses counter-based Philox streams keyed by (seed, replicate
index), so replicate i is the same sample whatever else is computed.
Normal variates come from the inverse-CDF map applied to 53-bit
uniforms; X and Z draws interleave within one stream, so a smaller n
yields a prefix of a larger n's sample at the same key.

Monte Carlo works on blocks of replicates held as two (rows, n) arrays
of x and y: one generator re-keyed per row fills the block's words,
one inverse-CDF call maps them, R comes from batched row dot products
and S and T from exact integer rank counts.  The per-sample sampler
and estimators are the same code on a one-row block, so each
replicate's values are theirs bit for bit.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import ndtri

from .corrmath import _rho_value, moments_r, moments_s, moments_t, mu_s_finite_n
from .errors import DegenerateSample, DomainError, TiesPresent

__all__ = [
    "DEFAULT_SEED",
    "SEED_LIMIT",
    "BivariateSample",
    "McReport",
    "sample_bivariate_normal",
    "pearson_r",
    "spearman_s",
    "kendall_t",
    "kendall_t_brute",
    "kernel_h_t",
    "kernel_h_s",
    "kernel_h_s_n",
    "spearman_ustat_identity",
    "mc_moments",
    "phi",
]

DEFAULT_SEED = 20260814

# Seeds are one 64-bit Philox key word; one outside [0, 2**64) would alias.
SEED_LIMIT = 2**64

_STAT_NAMES = ("R", "S", "T")

# Replicates per block are this many sample cells over n, so a block's
# working arrays stay a few hundred KiB whatever n is.
_BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class BivariateSample:
    """Paired observations; arrays are defensively copied and frozen."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64, copy=True)
        y = np.array(self.y, dtype=np.float64, copy=True)
        if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
            raise DomainError("x and y must be 1-D arrays of equal length")
        if x.size < 1:
            raise DomainError("sample must contain at least one pair")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("sample values must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.x, self.y)]


@dataclass(frozen=True)
class McReport:
    stat: str
    rho: float
    n: int
    reps: int
    mean_hat: float
    var_hat_scaled: float
    se_mean: float
    se_var: float
    cdf_sup_dist: float
    seed: int


def _key_word(name: str, v) -> int:
    """v as an int, refusing a float that int() would silently truncate."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None


# The largest uniform.  The centre of the top 53-bit cell, 1 - 2**-54,
# rounds to 1.0, where the inverse normal CDF is +inf; every other
# cell's centre is below this.
_U_MAX = 1.0 - 2.0**-53


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1): the top 53 bits of each 64-bit word, offset to
    the cell centre and clamped at _U_MAX.  Shifts `raw` in place."""
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return np.minimum(u, _U_MAX, out=u)


def _normal_rows(n: int, rho: float, seed: int, streams: range) -> tuple[np.ndarray, np.ndarray]:
    """(x, y), each (len(streams), n): row k is the sample of stream streams[k].

    One Philox generator is re-keyed to (seed, stream) for each row by
    its state setter, with counter 0 and an empty buffer, so it draws
    what a new generator with that key would.  The 2n words of a row
    interleave the uniforms of X and Z, which one `ndtri` call maps to
    normal variates for the whole block.
    """
    try:
        key = np.array([seed, streams[-1]], dtype=np.uint64)
    except OverflowError:
        raise DomainError(f"seed {seed!r} or stream {streams[-1]!r} not in [0, 2**64)") from None
    bitgen = np.random.Philox(key=key)
    state = bitgen.state
    raw = np.empty((len(streams), 2 * n), dtype=np.uint64)
    for row, stream in zip(raw, streams):
        state["state"]["key"][1] = stream
        bitgen.state = state
        row[:] = bitgen.random_raw(2 * n)
    u = _uniforms(raw)
    del raw
    ndtri(u, out=u)
    if not np.isfinite(u).all():
        raise DomainError("sample values must be finite")
    z = u[:, 1::2]
    z *= math.sqrt(1.0 - rho * rho)
    y = np.multiply(u[:, 0::2], rho)
    y += z
    return np.ascontiguousarray(u[:, 0::2]), y


def sample_bivariate_normal(
    n: int, rho: float, seed: int, stream: int = 0
) -> BivariateSample:
    """n iid pairs with Y = rho*X + sqrt(1-rho^2)*Z, X, Z standard normal.

    The generator is Philox keyed by (seed, stream); `stream` is the
    replicate index when called from mc_moments.  Uniforms take the top
    53 bits of each 64-bit word, offset to the cell center so 0 and 1
    never occur; the inverse normal CDF then maps them to variates.
    """
    n, seed, stream = _key_word("n", n), _key_word("seed", seed), _key_word("stream", stream)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n!r}")
    if stream < 0:
        raise DomainError(f"need stream >= 0, got {stream!r}")
    x, y = _normal_rows(n, _rho_value(rho), seed, range(stream, stream + 1))
    return BivariateSample(x=x[0], y=y[0])


def _centred_sums(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sxx, syy and sxy of each row of two (rows, n) arrays.

    A (1, n) @ (n, 1) matmul is numpy's vector dot, the kernel of a 1-D
    `@`, so each row's sums are those of the row alone.
    """
    xc = (x - x.mean(axis=1, keepdims=True))[:, None, :]
    yc = (y - y.mean(axis=1, keepdims=True))[:, None, :]
    xt, yt = xc.transpose(0, 2, 1), yc.transpose(0, 2, 1)
    return (xc @ xt).ravel(), (yc @ yt).ravel(), (xc @ yt).ravel()


def _pow2_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that takes its largest magnitude into [0.5, 1)."""
    return np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R of each row of two (rows, n) arrays, n >= 2."""
    # Overflow here is caught by the range test below, not reported.
    with np.errstate(over="ignore", invalid="ignore"):
        sxx, syy, sxy = _centred_sums(x, y)
        prod = sxx * syy
    for k in np.flatnonzero(~((sys.float_info.min <= prod) & (prod < math.inf))):
        # The sums overflowed or underflowed (or a coordinate is constant).
        # Scaling by powers of two is exact, so r is the scaled row's.
        sums = _centred_sums(_pow2_scaled(x[k, None]), _pow2_scaled(y[k, None]))
        sxx[k], syy[k], sxy[k] = (v[0] for v in sums)
    if not (sxx.all() and syy.all()):
        raise DegenerateSample("a coordinate is constant; R undefined")
    r = sxy / np.sqrt(sxx * syy)
    return np.clip(r, -1.0, 1.0, out=r)


def pearson_r(s: BivariateSample) -> float:
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    return float(_pearson_rows(s.x[None], s.y[None])[0])


def _spearman_value(n: int, a: int) -> float:
    """The triple-kernel U-statistic (n-2)(2A - 3C(n,3) - C(n,2))/((n+1)C(n,3))
    with (n-2)/6 cancelled, so n = 2 works; A = sum_i Lx_i Ly_i.

    One integer over one integer is exactly rounded, so the value equals
    the rank formula's on tie-free samples and y -> -y negates it there.
    """
    return (12 * a - 18 * math.comb(n, 3) - 6 * math.comb(n, 2)) / (n**3 - n)


def _kendall_value(n: int, inversions: int) -> float:
    c2 = n * (n - 1) // 2
    return (c2 - 2 * inversions) / c2


def _ranked_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(argsort, "<" counts, tie flag) of each row of a (rows, n) array.

    In sorted order the count L_i = #{j : v_j < v_i} is the position of
    the start of the run of values equal to v_i; on a tie-free row the
    counts are the inverse permutation.  At most four block-sized arrays
    are live at once: v, the order, the run starts and the counts.
    """
    order = np.argsort(v, axis=1)
    ordered = np.take_along_axis(v, order, axis=1)
    run_start = np.ones(v.shape, dtype=bool)
    run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    del ordered
    starts = np.where(run_start, np.arange(v.shape[1]), 0)
    np.maximum.accumulate(starts, axis=1, out=starts)
    counts = np.empty_like(order)
    np.put_along_axis(counts, order, starts, 1)
    return order, counts, ~run_start.all(axis=1)


def _inversions(seq: np.ndarray) -> np.ndarray:
    """#{p < q : seq_p >= seq_q} for each row of a (rows, n) array of
    integers in 0..n, by bottom-up merge sort over all rows at once.

    At each level a value v becomes the key 2v + 1 in the left half of
    its block and 2v in the right half, and sorting a block merges its
    halves.  A left key at merged position p with i left keys before it
    has p - i right values <= its own, so the block's count is the sum
    of the left positions minus size * (size - 1) / 2.  Rows are padded
    to a power of two with the increasing sentinels n + 1, n + 2, ...,
    which add no pairs; blocks never straddle rows.
    """
    rows, n = seq.shape
    total = np.zeros(rows, dtype=np.int64)
    if n < 2:
        return total
    m = 1 << (n - 1).bit_length()
    work = np.empty((rows, m), dtype=np.int64)
    work[:, :n] = seq
    work[:, n:] = np.arange(n + 1, m + 1)
    size = 1
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


def _block_st(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(2, rows) array of S and T of each row of two (rows, n) arrays, n >= 2.

    S comes from the row sums A of products of "<" counts.  T counts the
    pairs that are not strictly concordant as the pairs p < q whose y
    counts in x order have L_p >= L_q, which needs each run of equal x
    in descending y: rows with an x tie are sorted again that way.  Both
    counts are exact integers.  A block with a tie warns once.
    """
    rows, n = x.shape
    ox, rx, tied_x = _ranked_rows(x)
    ry, tied_y = _ranked_rows(y)[1:]
    if tied_x.any() or tied_y.any():
        warnings.warn("tied coordinates present; S counts smaller values", TiesPresent)
        for k in np.flatnonzero(tied_x):
            ox[k] = np.lexsort((-ry[k], x[k]))
    totals = np.einsum("ij,ij->i", rx, ry)
    del rx
    inversions = _inversions(np.take_along_axis(ry, ox, axis=1))
    out = np.empty((2, rows))
    for k, (total, count) in enumerate(zip(totals.tolist(), inversions.tolist())):
        out[:, k] = _spearman_value(n, total), _kendall_value(n, count)
    return out


def spearman_s(s: BivariateSample) -> float:
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    return float(_block_st(s.x[None], s.y[None])[0, 0])


def kendall_t(s: BivariateSample) -> float:
    """(concordant - other pairs) / C(n,2), concordant meaning strictly
    ordered alike in both coordinates: the kernel average, ties or not,
    from exact counts in O(n log n) time and O(n) memory."""
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    return float(_block_st(s.x[None], s.y[None])[1, 0])


def kendall_t_brute(s: BivariateSample) -> float:
    """Quadratic kernel average: mean over pairs of 2*(J_ij + J_ji) - 1."""
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    n = s.n
    dominates = (s.x[None, :] < s.x[:, None]) & (s.y[None, :] < s.y[:, None])
    c2 = n * (n - 1) // 2
    return (2 * int(dominates.sum()) - c2) / c2


def kernel_h_t(vi: tuple[float, float], vj: tuple[float, float]) -> float:
    """2*(J_ij + J_ji) - 1 where J_ij = 1{x_j < x_i} 1{y_j < y_i}."""
    jij = (vj[0] < vi[0]) and (vj[1] < vi[1])
    jji = (vi[0] < vj[0]) and (vi[1] < vj[1])
    return 2.0 * (jij + jji) - 1.0


def _k3(va, vb, vc) -> bool:
    # 1{x_b < x_a} 1{y_c < y_a}
    return (vb[0] < va[0]) and (vc[1] < va[1])


def kernel_h_s(vi, vj, vk) -> float:
    """2 * (sum of the six index permutations of K) - 3."""
    total = (
        _k3(vi, vj, vk)
        + _k3(vi, vk, vj)
        + _k3(vj, vi, vk)
        + _k3(vj, vk, vi)
        + _k3(vk, vi, vj)
        + _k3(vk, vj, vi)
    )
    return 2.0 * total - 3.0


def kernel_h_s_n(n: int, vi, vj, vk) -> float:
    """Degree-3 kernel whose U-statistic average is exactly S."""
    pair_part = kernel_h_t(vi, vj) + kernel_h_t(vi, vk) + kernel_h_t(vj, vk)
    return ((n - 2) * kernel_h_s(vi, vj, vk) + pair_part) / (n + 1)


def spearman_ustat_identity(s: BivariateSample) -> tuple[float, float]:
    """(rank-formula S, triple-kernel U-statistic average): equal values.

    The cubic triple sum restricts n to a modest range.
    """
    n = s.n
    if not 3 <= n <= 40:
        raise DomainError(f"triple sum needs 3 <= n <= 40, got {n}")
    s_direct = spearman_s(s)
    pts = s.pairs
    total = 0.0
    for i, j, k in combinations(range(n), 3):
        total += kernel_h_s_n(n, pts[i], pts[j], pts[k])
    s_ustat = total / math.comb(n, 3)
    return s_direct, s_ustat


def phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_ESTIMATORS = {"R": pearson_r, "S": spearman_s, "T": kendall_t}


def _asymptotics(stat: str, rho: float, n: int) -> tuple[float, float]:
    """(centering mean, asymptotic variance) for sqrt(n)-standardization."""
    if stat == "R":
        ms = moments_r(rho)
        return ms.mu, ms.sigma2
    if stat == "T":
        ms = moments_t(rho)
        return ms.mu, ms.sigma2
    ms = moments_s(rho)
    return mu_s_finite_n(rho, n), ms.sigma2


@lru_cache(maxsize=8)
def _replicates(rho: float, n: int, reps: int, seed: int) -> np.ndarray:
    """Read-only (3, reps) array of R, S and T on replicates 0..reps-1.

    Replicate i is drawn once, from stream i of `seed`.  Blocks of
    _BLOCK_CELLS // n replicates are drawn as two (rows, n) arrays, and
    R, S and T are evaluated on each block at once, by the code that the
    per-sample estimators run on a one-row block; so column i equals
    their values on sample_bivariate_normal(n, rho, seed, stream=i).
    The cache holds a few (rho, n, reps, seed) keys, so the three
    statistics of one key share their draws.
    """
    out = np.empty((3, reps))
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        x, y = _normal_rows(n, rho, seed, range(lo, hi))
        out[0, lo:hi] = _pearson_rows(x, y)
        out[1:, lo:hi] = _block_st(x, y)
    out.flags.writeable = False
    return out


def mc_moments(
    stat: str,
    rho: float,
    n: int,
    reps: int,
    seed: int = DEFAULT_SEED,
) -> McReport:
    """Monte Carlo check of the asymptotic mean/variance and normality.

    Replicate i draws its sample from stream i of `seed`, so the result
    is a pure function of (stat, rho, n, reps, seed); the values of R, S
    and T come from the same draws and are computed once per key.
    `cdf_sup_dist` is the sup distance between the empirical CDF of
    sqrt(n)*(stat - mu)/sigma and the standard normal CDF, where mu is
    the exact finite-n mean for S and the asymptotic mean otherwise.
    """
    stat_u = str(stat).upper()
    if stat_u not in _STAT_NAMES:
        raise DomainError(f"stat must be one of {_STAT_NAMES}, got {stat!r}")
    n, reps, seed = _key_word("n", n), _key_word("reps", reps), _key_word("seed", seed)
    if n < 10:
        raise DomainError(f"need n >= 10, got {n!r}")
    if reps < 100:
        raise DomainError(f"need reps >= 100, got {reps!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed!r}")
    value = _rho_value(rho)
    vals = _replicates(value, n, reps, seed)[_STAT_NAMES.index(stat_u)]

    mean_hat = float(vals.mean())
    var_hat = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se_var = n * math.sqrt(max(m4 - m2 * m2, 0.0) / reps)

    mu, sigma2 = _asymptotics(stat_u, value, n)
    z = np.sort(math.sqrt(n) * (vals - mu) / math.sqrt(sigma2))
    cdf = np.array([phi(v) for v in z.tolist()])
    steps = np.arange(1, reps + 1, dtype=np.float64) / reps
    sup_dist = float(max((steps - cdf).max(), (cdf - (steps - 1.0 / reps)).max()))

    return McReport(
        stat=stat_u,
        rho=value,
        n=n,
        reps=reps,
        mean_hat=mean_hat,
        var_hat_scaled=n * var_hat,
        se_mean=math.sqrt(var_hat / reps),
        se_var=se_var,
        cdf_sup_dist=sup_dist,
        seed=seed,
    )
