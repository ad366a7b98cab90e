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

Monte Carlo (`mc_reports`, which caches nothing) works on blocks of
replicates held as (rows, n) arrays: one generator re-keyed per row
fills the block's words, one inverse-CDF call maps them to x and z, and
x is ranked once.  Each rho forms its y from x and z; R comes from
batched row dot products, S and T from one argsort of y and exact
integer counts.  The per-sample code is this code on a one-row block,
so replicates match it bit for bit.

The inverse CDF is scipy's `ndtri` ufunc, loaded at import from the
scipy.special extension module that holds it without running the
package's __init__ (`_load_ndtri`).  So importing this module costs
numpy, scipy's base package and a few extension modules, not the rest
of scipy and numpy that scipy.special's __init__ imports.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import numpy.random  # noqa: F401  at import, so the first draw does not pay for it

from .corrmath import SIGMA_S2_TOL, _rho_value, moments_r, moments_s, moments_t, mu_s_finite_n
from .errors import BadArgument, DegenerateSample, DomainError, TiesPresent, check_size
from .taylor import each

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
    "mc_reports",
    "phi",
]


def _load_ndtri():
    """scipy's inverse normal CDF ufunc, without running scipy.special's
    __init__, which imports most of scipy and numpy for one function.

    An unexecuted scipy.special module stands in as the parent package
    while its _ufuncs extension (and the siblings it imports) load, then
    leaves sys.modules, so a later `import scipy.special` runs __init__
    and reuses those extensions: its ndtri is this object.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.ndtri
    try:
        spec = importlib.util.find_spec("scipy.special")
        sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
        try:
            from scipy.special._ufuncs import ndtri
        finally:
            del sys.modules["scipy.special"]
    except ImportError:
        from scipy.special import ndtri
    return ndtri


# A module global, called through its name; bench/layertrace.py patches it.
ndtri = _load_ndtri()

DEFAULT_SEED = 20260814

# Seeds are one 64-bit Philox key word; one outside [0, 2**64) would alias.
SEED_LIMIT = 2**64

_STAT_NAMES = ("R", "S", "T")

# Replicates per block are this many sample cells over n, so a block's
# working arrays stay a few hundred KiB whatever n is.  At n = 1000 a
# block of 16 rows took 4.0 ms for three rhos against 2 x 2.6 ms for two
# blocks of 8 (2**13; 2-core x86-64, one BLAS thread), for about 0.7 MiB
# more peak RSS on `mc` (+1.6%); 2**15 cost 2.0 MiB more, no faster.
_BLOCK_CELLS = 2**14

# Rhos per `_replicates` call in `mc_reports`: they share its draws, and
# its (rhos, 3, reps) result is the one array that grows with reps.
_RHO_BLOCK = 8


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
    """One statistic's Monte Carlo report at one rho, over the values v_i
    of the statistic on replicates i = 0..reps-1 drawn from `seed`.

    - mean_hat: the mean of the v_i.
    - var_hat_scaled: n times their ddof-1 variance, an estimate of sigma^2.
    - se_mean: the standard error of mean_hat, sqrt(ddof-1 variance / reps).
    - se_var: the standard error of var_hat_scaled, n*sqrt((m4 - m2^2)/reps),
      where m2 and m4 are the v_i's central moments (ddof 0).
    - cdf_sup_dist: the sup distance between the standard normal CDF and
      the empirical CDF of sqrt(n)*(v_i - mu)/sigma, where sigma^2 is the
      asymptotic variance and mu the asymptotic mean for R and T; S is
      centred at its exact finite-n mean, `mu_s_finite_n(rho, n)`.
    """

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
        raise BadArgument(f"{name} must be an integer, got {v!r}") from None


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


def _normal_rows(n: int, seed: int, streams: range) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal (x, z), each (len(streams), n): row k is drawn
    from stream streams[k].

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
    return np.ascontiguousarray(u[:, 0::2]), np.ascontiguousarray(u[:, 1::2])


def _correlated(x: np.ndarray, z: np.ndarray, rho: float) -> np.ndarray:
    """y = rho*x + sqrt(1-rho^2)*z, elementwise."""
    y = np.multiply(x, rho)
    y += z * math.sqrt(1.0 - rho * rho)
    return y


def sample_bivariate_normal(
    n: int, rho: float, seed: int, stream: int = 0
) -> BivariateSample:
    """n iid pairs with Y = rho*X + sqrt(1-rho^2)*Z, X, Z standard normal.

    The generator is Philox keyed by (seed, stream); replicate i of
    `mc_reports` is the sample of stream i.  Uniforms take the top
    53 bits of each 64-bit word, offset to the cell center so 0 and 1
    never occur; the inverse normal CDF then maps them to variates.
    """
    n, seed, stream = _key_word("n", n), _key_word("seed", seed), _key_word("stream", stream)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n!r}")
    if stream < 0:
        raise DomainError(f"need stream >= 0, got {stream!r}")
    rho = _rho_value(rho)
    x, z = _normal_rows(n, seed, range(stream, stream + 1))
    return BivariateSample(x=x[0], y=_correlated(x, z, rho)[0])


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


def _refuse_constant(v: np.ndarray) -> None:
    """Raise DegenerateSample if a row of the (rows, n) array v is constant."""
    # A row's max equals its min exactly when it is constant; its centred
    # sums need not be 0, since the mean can differ from the value.
    if (v.max(axis=1) == v.min(axis=1)).any():
        raise DegenerateSample("a coordinate is constant; R undefined")


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R of each row of two (rows, n) arrays, n >= 2, whose rows the caller
    has passed through `_refuse_constant`."""
    # Overflow here is caught by the range test below, not reported.
    with np.errstate(over="ignore", invalid="ignore"):
        sxx, syy, sxy = _centred_sums(x, y)
        prod = sxx * syy
    for k in np.flatnonzero(~((sys.float_info.min <= prod) & (prod < math.inf))):
        # The sums overflowed or underflowed.  Scaling by powers of two
        # is exact, so r is the scaled row's.
        sums = _centred_sums(_pow2_scaled(x[k, None]), _pow2_scaled(y[k, None]))
        sxx[k], syy[k], sxy[k] = (v[0] for v in sums)
    r = sxy / np.sqrt(sxx * syy)
    return np.clip(r, -1.0, 1.0, out=r)


def pearson_r(s: BivariateSample) -> float:
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    x, y = s.x[None], s.y[None]
    _refuse_constant(x)
    _refuse_constant(y)
    return float(_pearson_rows(x, y)[0])


def _ranked_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """("<" counts, tie flag) of each row of a (rows, n) array.

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
    return counts, ~run_start.all(axis=1)


def _inversions(seq: np.ndarray) -> np.ndarray:
    """#{p < q : seq_p >= seq_q} for each row of a (rows, n) array of
    integers in 0..n, n <= 2**31, by bottom-up merge sort over all rows.

    Rows are padded to a power of two m >= 8 with the sentinels n + 1, ...,
    m.  Value v at position p is the distinct key v*m + m - 1 - p, int32
    while m*m + m <= 2**31 (n <= 32,768), else int64: a key is above a later
    one exactly when its value is >= the later value.  Blocks of 8 compare
    their pairs directly.  Each later level sorts a block, merging its
    halves; bit `size` marks the left keys, and one at merged position q
    after i left keys has q - i right keys below it, so the count is the
    left positions' sum less size*(size - 1)/2.  Counts are at most n*n/2
    <= 2**61, and below 2**29 with int32 keys, where float64 sums are exact.
    """
    rows, n = seq.shape
    m = max(8, 1 << (n - 1).bit_length())
    if m > 2**31:
        raise DomainError(f"need n <= 2**31 to count inversions, got {n}")
    key_type, sum_type = (np.int32, np.float64) if m * m + m <= 2**31 else (np.int64, np.int64)
    keys = np.empty((rows, m), dtype=key_type)
    keys[:, :n] = seq
    keys[:, n:] = np.arange(n + 1, m + 1)
    keys *= m
    keys += np.arange(m - 1, -1, -1, dtype=key_type)
    cube = keys.reshape(rows, -1, 8)
    columns = cube.reshape(-1, 8).T.copy()
    pairs = np.concatenate([columns[i] >= columns[i + 1 :] for i in range(7)])
    total = pairs.sum(axis=0).reshape(rows, -1).sum(axis=1, dtype=sum_type)
    del columns, pairs
    cube.sort(axis=2)
    for size in (2**k for k in range(3, m.bit_length() - 1)):
        block = keys.reshape(-1, 2 * size)
        block.sort(axis=1)
        positions = (block & size).astype(bool) @ np.arange(2 * size, dtype=sum_type)
        total += (positions - size * (size - 1) // 2).reshape(rows, -1).sum(axis=1)
    return total.astype(np.int64)


def _rank_products(u: np.ndarray, v: np.ndarray):
    """u @ v of "<" counts of n values, exact: when n (n - 1)**2 can pass
    int64, the int64 products of column chunks too short to pass it are
    summed in Python ints."""
    n = v.shape[-1]
    step = (2**63 - 1) // (n - 1) ** 2
    if step >= n:
        return u @ v
    return sum((u[..., i : i + step] @ v[i : i + step]).astype(object) for i in range(0, n, step))


def _block_st(x: np.ndarray, y: np.ndarray, ranked_x: tuple) -> np.ndarray:
    """(2, rows) array of S and T of each row of two (rows, n) arrays, n >= 2,
    given ranked_x = _ranked_rows(x), which is left unchanged.

    y is sorted, not ranked: w lists the x counts in ascending y.  On a
    tie-free row A = sum_i Lx_i Ly_i is w @ (0..n-1), and the pairs that
    are not strictly concordant are w's inversions.  A row with a tie in
    either coordinate takes its y counts from its sorted y instead, and
    w lists them in x order, each run of equal x in descending y.  Both
    counts are exact integers, and S and T are their exactly rounded
    quotients.  A block with a tie warns once.
    """
    n = x.shape[1]
    x_counts, tied_x = ranked_x
    y_order = np.argsort(y, axis=1)
    y_sorted = np.take_along_axis(y, y_order, axis=1)
    tied = tied_x | ~(y_sorted[:, 1:] != y_sorted[:, :-1]).all(axis=1)
    w = np.take_along_axis(x_counts, y_order, axis=1)
    del y_order, y_sorted
    totals = _rank_products(w, np.arange(n))
    if tied.any():
        warnings.warn("tied coordinates present; S counts smaller values", TiesPresent)
        for k in np.flatnonzero(tied):
            y_counts = np.searchsorted(np.sort(y[k]), y[k])
            totals[k] = _rank_products(x_counts[k], y_counts)
            w[k] = y_counts[np.lexsort((-y[k], x[k]))]
    inversions = _inversions(w)
    if 3 * (n**3 - n) >= 2**53:
        # Past 2**53 the counts are Python ints, so each quotient is int /
        # int.  Below it every numerator and denominator is an integer
        # that float64 holds exactly (|S's numerator| < 3(n**3 - n), ties
        # included), so one float64 division rounds as int / int does.
        totals, inversions = totals.astype(object), inversions.astype(object)
    # S is the triple-kernel U-statistic (n-2)(2A - 3C(n,3) - C(n,2)) /
    # ((n+1)C(n,3)) with (n-2)/6 cancelled, so n = 2 works.
    c2 = n * (n - 1) // 2
    spearman = (12 * totals - (18 * math.comb(n, 3) + 6 * math.comb(n, 2))) / (n**3 - n)
    return np.array([spearman, (c2 - 2 * inversions) / c2], dtype=np.float64)


def _sample_st(s: BivariateSample) -> np.ndarray:
    """(S, T) of one sample, n >= 2."""
    if s.n < 2:
        raise DomainError(f"need n >= 2, got {s.n}")
    x = s.x[None]
    return _block_st(x, s.y[None], _ranked_rows(x))[:, 0]


def spearman_s(s: BivariateSample) -> float:
    return float(_sample_st(s)[0])


def kendall_t(s: BivariateSample) -> float:
    """(concordant - other pairs) / C(n,2), concordant meaning strictly
    ordered alike in both coordinates: the kernel average, ties or not,
    from exact counts in O(n log n) time and O(n) memory."""
    return float(_sample_st(s)[1])


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


def phi(z):
    """Standard normal CDF of a float, or of each element of a 1-D float64
    array, bitwise the float value: only erfc is called per element."""
    if isinstance(z, np.ndarray):
        return 0.5 * each(math.erfc, -z / math.sqrt(2.0))
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_ESTIMATORS = {"R": pearson_r, "S": spearman_s, "T": kendall_t}


def _asymptotics(stat: str, rho: float, n: int) -> tuple[float, float]:
    """(centering mean, asymptotic variance) for sqrt(n)-standardization.
    A variance not above its floor raises DomainError: 0 for R and T, and
    for S SIGMA_S2_TOL, below which sigma_s2 has no correct digit."""
    ms = (moments_r, moments_s, moments_t)[_STAT_NAMES.index(stat)](rho)
    floor = SIGMA_S2_TOL if stat == "S" else 0.0
    if not ms.sigma2 > floor:
        raise DomainError(
            f"asymptotic variance of {stat} at rho={rho!r} is {ms.sigma2!r}, not > {floor:g}"
        )
    return (mu_s_finite_n(rho, n) if stat == "S" else ms.mu), ms.sigma2


def _replicates(rhos: tuple[float, ...], n: int, reps: int, seed: int) -> np.ndarray:
    """(len(rhos), 3, reps) array: R, S and T of each rho on replicates
    0..reps-1.

    Replicate i is drawn once for all of rhos, from stream i of `seed`.
    Blocks of _BLOCK_CELLS // n replicates are drawn as (rows, n) arrays
    x and z, and x is ranked once; each rho forms its y and evaluates R,
    S and T on the block at once, by the code that the per-sample
    estimators run on a one-row block.  So entry [j, :, i] equals their
    values on sample_bivariate_normal(n, rhos[j], seed, stream=i).
    """
    out = np.empty((len(rhos), 3, reps))
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        x, z = _normal_rows(n, seed, range(lo, hi))
        _refuse_constant(x)
        ranked_x = _ranked_rows(x)
        for rho, values in zip(rhos, out):
            y = _correlated(x, z, rho)
            _refuse_constant(y)
            values[0, lo:hi] = _pearson_rows(x, y)
            values[1:, lo:hi] = _block_st(x, y, ranked_x)
    return out


def _mc_key(n, reps, seed) -> tuple[int, int, int]:
    """(n, reps, seed) as ints, checked for a Monte Carlo run; a bad one
    raises BadArgument."""
    n, reps, seed = _key_word("n", n), _key_word("reps", reps), _key_word("seed", seed)
    if reps < 100:
        raise BadArgument(f"reps must be >= 100, got {reps!r}")
    if n < 10:
        raise BadArgument(f"n must be >= 10, got {n!r}")
    check_size("n", n)
    check_size("reps", reps)
    if not 0 <= seed < SEED_LIMIT:
        raise BadArgument(f"seed must lie in [0, 2**64), got {seed!r}")
    return n, reps, seed


def _report(
    stat: str, rho: float, n: int, reps: int, seed: int, vals: np.ndarray, mu: float, sigma2: float
) -> McReport:
    """The McReport of `stat` at `rho` from its values on the replicates,
    standardized by its asymptotic mean mu and variance sigma2 > 0."""
    mean_hat = float(vals.mean())
    var_hat = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se_var = n * math.sqrt(max(m4 - m2 * m2, 0.0) / reps)

    z = np.sort(math.sqrt(n) * (vals - mu) / math.sqrt(sigma2))
    cdf = phi(z)
    steps = np.arange(1, reps + 1, dtype=np.float64) / reps
    sup_dist = float(max((steps - cdf).max(), (cdf - (steps - 1.0 / reps)).max()))

    return McReport(
        stat=stat,
        rho=rho,
        n=n,
        reps=reps,
        mean_hat=mean_hat,
        var_hat_scaled=n * var_hat,
        se_mean=math.sqrt(var_hat / reps),
        se_var=se_var,
        cdf_sup_dist=sup_dist,
        seed=seed,
    )


def mc_reports(rhos, n: int, reps: int, seed: int = DEFAULT_SEED) -> list[McReport]:
    """Monte Carlo check of the asymptotic mean, variance and normality of
    R, S and T at each of `rhos`: the reports of R at every rho in order,
    then those of S, then those of T.  McReport says what each field is.

    n, reps, seed, every rho and every asymptotic variance are checked
    before any draw; a variance not above its floor raises DomainError.
    Replicate i is drawn from stream i of `seed`, once for each block of
    up to _RHO_BLOCK rhos, so a report is a pure function of (stat, rho, n,
    reps, seed), and R, S and T at one rho describe the same samples.
    """
    n, reps, seed = _mc_key(n, reps, seed)
    values = [_rho_value(rho) for rho in rhos]
    limits = [[_asymptotics(stat, rho, n) for stat in _STAT_NAMES] for rho in values]
    by_stat = ([], [], [])
    for i in range(0, len(values), _RHO_BLOCK):
        block = values[i : i + _RHO_BLOCK]
        for rho, stats, row in zip(block, _replicates(tuple(block), n, reps, seed), limits[i:]):
            for reports, stat, vals, limit in zip(by_stat, _STAT_NAMES, stats, row):
                reports.append(_report(stat, rho, n, reps, seed, vals, *limit))
    return [report for reports in by_stat for report in reports]


def mc_moments(stat: str, rho: float, n: int, reps: int, seed: int = DEFAULT_SEED) -> McReport:
    """The report of one statistic ("R", "S" or "T") at one rho: its row
    of mc_reports([rho], n, reps, seed)."""
    stat_u = str(stat).upper()
    if stat_u not in _STAT_NAMES:
        raise DomainError(f"stat must be one of {_STAT_NAMES}, got {stat!r}")
    return mc_reports([rho], n, reps, seed)[_STAT_NAMES.index(stat_u)]
