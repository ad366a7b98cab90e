"""Finite-sample correlation estimators and Monte Carlo moment checks.

Estimators: product-moment R, rank correlation S (ranks are "count of
coordinates <=", so ties shift ranks rather than crash), and pair
concordance T (merge-sort inversion counting, exactly equal to the
quadratic kernel sum on tie-free data).  The triple kernel identity
writes S as a U-statistic average; `spearman_ustat_identity` evaluates
both sides for comparison.

Sampling uses counter-based Philox streams keyed by (seed, replicate
index), so replicate i is the same sample whatever else is computed.
Normal variates come from the inverse-CDF map applied to 53-bit
uniforms; X and Z draws interleave within one stream, so a smaller n
yields a prefix of a larger n's sample at the same key.

Monte Carlo draws each replicate once and evaluates R, S and T on that
one sample.  S and T are computed over blocks of stacked replicates
from exact integer rank counts, so each value is bitwise the one the
per-sample estimator returns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import ndtri

from .corrmath import moments_r, moments_s, moments_t, mu_s_finite_n
from .errors import DegenerateSample, DomainError, TiesPresent

__all__ = [
    "DEFAULT_SEED",
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

    @classmethod
    def from_pairs(cls, pairs) -> "BivariateSample":
        arr = np.asarray(list(pairs), dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DomainError("pairs must be a sequence of (x, y)")
        return cls(x=arr[:, 0], y=arr[:, 1])


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


def _rho_strict(rho: float) -> float:
    value = float(rho)
    if not abs(value) < 1.0:
        raise DomainError(f"sampling needs |rho| < 1, got {value!r}")
    return value


def sample_bivariate_normal(
    n: int, rho: float, seed: int, stream: int = 0
) -> BivariateSample:
    """n iid pairs with Y = rho*X + sqrt(1-rho^2)*Z, X, Z standard normal.

    The generator is Philox keyed by (seed, stream); `stream` is the
    replicate index when called from mc_moments.  Uniforms take the top
    53 bits of each 64-bit word, offset to the cell center so 0 and 1
    never occur; the inverse normal CDF then maps them to variates.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n!r}")
    if stream < 0:
        raise DomainError(f"need stream >= 0, got {stream!r}")
    value = _rho_strict(rho)
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(2 * n)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    xs = ndtri(u[0::2])
    zs = ndtri(u[1::2])
    ys = value * xs + math.sqrt(1.0 - value * value) * zs
    return BivariateSample(x=xs, y=ys)


def _warn_on_ties(s: BivariateSample) -> None:
    if np.unique(s.x).size < s.n or np.unique(s.y).size < s.n:
        warnings.warn("tied coordinates present; ranks use <= counts", TiesPresent)


def _ranks(v: np.ndarray) -> np.ndarray:
    """rank(v_i) = #{j : v_j <= v_i}, values in 1..n for tie-free input."""
    return np.searchsorted(np.sort(v), v, side="right").astype(np.int64)


def pearson_r(s: BivariateSample) -> float:
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    xc = s.x - s.x.mean()
    yc = s.y - s.y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSample("a coordinate is constant; R undefined")
    r = float(xc @ yc) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _spearman_value(n: int, total: int) -> float:
    # One integer numerator and one division keep the value an exactly
    # rounded rational, so y -> -y negates it exactly.
    return (12 * total - 3 * n * (n + 1) ** 2) / (n**3 - n)


def _kendall_value(n: int, inversions: int) -> float:
    c2 = n * (n - 1) // 2
    return (c2 - 2 * inversions) / c2


def spearman_s(s: BivariateSample) -> float:
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    _warn_on_ties(s)
    return _spearman_value(s.n, int(_ranks(s.x) @ _ranks(s.y)))


def _inverse_permutations(order: np.ndarray) -> np.ndarray:
    """Row-wise inverses of (rows, n) permutations of 0..n-1; applied to
    argsort output, the 0-based ranks of tie-free rows."""
    inverse = np.empty_like(order)
    np.put_along_axis(inverse, order, np.arange(order.shape[1]), axis=1)
    return inverse


def _inversions(perms: np.ndarray) -> np.ndarray:
    """Inversions of each row of a (rows, n) array of permutations of
    0..n-1, by bottom-up merge sort over all rows at once.

    At each level a value v becomes the key 2v in the left half of its
    block and 2v + 1 in the right half; keys are distinct, and sorting a
    block merges its two sorted halves.  A right-half key at merged
    position p with j right keys before it has p - j left values below
    it, so the block's inversions are size * (3 * size - 1) / 2 minus
    the sum of the right-half positions.

    Each row is padded to a power of two with the sentinel n.  Within
    every block the real values always precede the sentinels, and only
    one block per row at each level mixes the two, so sentinels never
    sit in a left half while real values sit in the matching right
    half: padding adds no spurious inversions.  Blocks never straddle
    rows, because a row's padded length is a multiple of every block.
    """
    rows, n = perms.shape
    total = np.zeros(rows, dtype=np.int64)
    if n < 2:
        return total
    m = 1 << (n - 1).bit_length()
    work = np.full((rows, m), n, dtype=np.int64)
    work[:, :n] = perms
    size = 1
    while size < m:
        keys = 2 * work.reshape(-1, 2 * size)
        keys[:, size:] += 1
        keys.sort(axis=1)
        positions = (keys & 1) @ np.arange(2 * size, dtype=np.int64)
        total += (size * (3 * size - 1) // 2 - positions).reshape(rows, -1).sum(axis=1)
        work = keys >> 1
        size *= 2
    return total


def kendall_t(s: BivariateSample) -> float:
    """(concordant - discordant) / C(n,2) with exact integer counts.

    Tie-free samples go through O(n log n) inversion counting; ties
    trigger a TiesPresent warning and the quadratic kernel sum, whose
    value is the kernel average by definition.
    """
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    if np.unique(s.x).size < s.n or np.unique(s.y).size < s.n:
        warnings.warn("tied coordinates present; using kernel sum", TiesPresent)
        return kendall_t_brute(s)
    # y ranks listed in x order: a permutation with one inversion per
    # discordant pair.
    ry = _inverse_permutations(np.argsort(s.y)[None, :])
    return _kendall_value(s.n, int(_inversions(ry[:, np.argsort(s.x)])[0]))


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


def _tied_rows(v: np.ndarray, order: np.ndarray) -> np.ndarray:
    ordered = np.take_along_axis(v, order, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def _block_st(samples: list[BivariateSample]) -> np.ndarray:
    """(2, rows) array of S and T for samples of one size n >= 2.

    The samples are stacked into (rows, n) arrays and ranked by one
    argsort per coordinate.  S comes from the row sums of rank products
    and T from the row-wise inversion count of the y ranks in x order;
    both are exact integers, so each value is bitwise the per-sample
    one.  A row with a tie goes to the per-sample estimators, which use
    "<=" ranks and warn.
    """
    x = np.stack([s.x for s in samples])
    y = np.stack([s.y for s in samples])
    n = x.shape[1]
    ox = np.argsort(x, axis=1)
    oy = np.argsort(y, axis=1)
    tied = _tied_rows(x, ox) | _tied_rows(y, oy)
    ry = _inverse_permutations(oy)
    totals = ((_inverse_permutations(ox) + 1) * (ry + 1)).sum(axis=1)
    inversions = _inversions(np.take_along_axis(ry, ox, axis=1))
    out = np.empty((2, len(samples)))
    for k, s in enumerate(samples):
        if tied[k]:
            out[:, k] = _ESTIMATORS["S"](s), _ESTIMATORS["T"](s)
        else:
            out[0, k] = _spearman_value(n, int(totals[k]))
            out[1, k] = _kendall_value(n, int(inversions[k]))
    return out


@lru_cache(maxsize=8)
def _replicates(rho: float, n: int, reps: int, seed: int) -> np.ndarray:
    """Read-only (3, reps) array of R, S and T on replicates 0..reps-1.

    Replicate i is drawn once, from stream i of `seed`.  R is evaluated
    per replicate, S and T over blocks of _BLOCK_CELLS // n replicates.
    The cache holds a few (rho, n, reps, seed) keys, so the three
    statistics of one key share their draws.
    """
    out = np.empty((3, reps))
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        block = [sample_bivariate_normal(n, rho, seed, stream=i) for i in range(lo, hi)]
        out[0, lo:hi] = [_ESTIMATORS["R"](s) for s in block]
        out[1:, lo:hi] = _block_st(block)
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
    if n < 10:
        raise DomainError(f"need n >= 10, got {n!r}")
    if reps < 100:
        raise DomainError(f"need reps >= 100, got {reps!r}")
    value = _rho_strict(rho)
    vals = _replicates(value, n, reps, seed)[_STAT_NAMES.index(stat_u)]

    mean_hat = float(vals.mean())
    var_hat = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se_var = n * math.sqrt(max(m4 - m2 * m2, 0.0) / reps)

    mu, sigma2 = _asymptotics(stat_u, value, n)
    z = np.sort(math.sqrt(n) * (vals - mu) / math.sqrt(sigma2))
    cdf = np.array([phi(v) for v in z])
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
