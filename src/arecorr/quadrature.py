"""Adaptive Gauss-Kronrod quadrature on finite intervals.

Globally adaptive 7/15-point Gauss-Kronrod rule: the interval with the
largest error estimate is bisected until the summed estimate meets the
absolute tolerance.  Node/weight constants and the error estimator are
the classic QUADPACK dqk15 values.

`_integrate_arrays` runs that loop for many integrals in lockstep: one
per row [lo, hi] and integrand of a K-valued f (a "pair"; a one-valued
f is K = 1).  Each pair keeps its running sums, interval cap and only
its unpopped intervals, in push order, exactly as if it ran alone; each
round bisects the worst interval of every pair still above tolerance,
evaluates each distinct popped interval once (the K integrands of a row
often pop the same one) and calls the integrand once, on the nodes of
all the new intervals as a 1-D float64 array, with a mask of the
integrands that each interval's pairs need.  The rule runs on all K
integrands' columns at once, its sums added left to right as dqk15
adds them; the error estimate's power 1.5 is taken by libm's pow per
element (as Python's float `**` takes it), and the worst interval is
the first of largest error in push order, as a heap by (-err, push
order) pops it.  So each pair's result is reproducible bit for bit and
does not depend on which pairs share its call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonFinite
from .taylor import each

__all__ = [
    "Integral",
    "integrate",
    "MAX_INTERVALS",
]

MAX_INTERVALS = 10_000

# 7-point Gauss weights (center last), 15-point Kronrod abscissae and weights.
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)

# Node offsets over the intervals, in units of the half-length: the
# centre (-0.0, so that the centre node is the centre exactly), then
# -_XGK[j], then +_XGK[j].
_NODES = np.array((-0.0,) + tuple(-v for v in _XGK[:7]) + _XGK[:7])[:, None]

_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308


@dataclass(frozen=True)
class Integral:
    value: float
    err_estimate: float
    evaluations: int


def _kronrod(y: np.ndarray) -> np.ndarray:
    """The Kronrod sum over node rows y, (15, K, m), added left to right as
    dqk15 adds it: the centre, then each pair of nodes."""
    total = _WGK[7] * y[0]
    for j in range(7):
        total += _WGK[j] * (y[1 + j] + y[8 + j])
    return total


def _gk15(f: Callable[..., np.ndarray], lo: np.ndarray, hi: np.ndarray, need=None):
    """One 15-point Kronrod pass on each interval [lo[i], hi[i]].

    f gives a (K, N) array of K integrands' values, or one value per
    node for K = 1; a need mask, if given, is passed on as f's second
    argument.  Returns a (2, K, m) array of the integrals and the error
    estimates.
    """
    m = len(lo)
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    # Node rows: the centre, then centr - absc[j], then centr + absc[j].
    x = (centr + _NODES * hlgth).ravel()
    ys = np.asarray(f(x) if need is None else f(x, need), dtype=np.float64)
    if not np.isfinite(ys).all():
        at = int(np.argmin(np.isfinite(ys).ravel()))
        y, x0 = float(ys.flat[at]), float(x[at % x.size])
        raise NonFinite(f"integrand returned {y!r} at x={x0!r}")
    K = ys.size // x.size
    # The rule on all K integrands and m intervals at once.
    y = ys.reshape(K, 15, m).transpose(1, 0, 2)
    ahl = np.abs(hlgth)
    resk = _kronrod(y)
    # The Gauss sum skips the even pairs' zero weights.  Adding a zero term
    # could change only the sign of an exact zero partial sum, which resg's
    # only use |resk - resg| does not see.
    resg = _WG[3] * y[0]
    for j in range(3):
        resg += _WG[j] * (y[2 + 2 * j] + y[9 + 2 * j])
    resabs = _kronrod(np.abs(y)) * ahl
    dev = y - resk * 0.5
    resasc = _kronrod(np.abs(dev, out=dev)) * ahl
    err = np.abs((resk - resg) * hlgth)
    # QUADPACK's rescaling, in Python's min/max semantics; the power is
    # libm's pow, as Python's float `**` computes it.
    scale = (resasc != 0.0) & (err != 0.0)
    scaled = resasc[scale]
    power = each(math.pow, 200.0 * err[scale] / scaled, 1.5)
    err[scale] = scaled * np.where(power < 1.0, power, 1.0)
    floor = (_EPMACH * 50.0) * resabs
    floored = np.where(resabs > _UFLOW / (50.0 * _EPMACH), floor, err)
    return np.array((resk * hlgth, np.where(err > floor, err, floored)))


def _distinct(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct intervals among [a[i], b[i]], as bounds, and each
    interval's index among them."""
    # Equal bounds of opposite zero signs give equal nodes and weights.
    index: dict[tuple[float, float], int] = {}
    which = [index.setdefault(ab, len(index)) for ab in zip(a.tolist(), b.tolist())]
    lo, hi = zip(*index)
    return np.array(lo), np.array(hi), np.array(which)


def _integrate_arrays(
    f: Callable[[np.ndarray], np.ndarray],
    los: Sequence[float],
    his: Sequence[float],
    abs_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate f over each [los[i], his[i]] to an absolute tolerance.

    f maps a 1-D float64 array of N abscissae to a (K, N) array, the
    values of K integrands, or to its N values for K = 1.  After the
    first pass a K-valued f is called as f(x, need), with a (K, N) bool
    mask: entry [k, j] is True where integrand k at x[j] is read, and f
    may leave the other entries at any finite value.  Returns three
    (rows, K) arrays: the values, the error estimates and the evaluation
    counts, where pair [i, k] is what integrand k alone gives on row i
    (no rows: f is not called, and K is 0).  Raises NonFinite if f
    produces NaN/inf at an abscissa, NoConvergence if an integral reaches
    the interval cap before its error estimate drops below abs_tol.
    """
    if not (abs_tol > 0.0):
        raise ValueError("abs_tol must be > 0")
    los = [float(v) for v in los]
    his = [float(v) for v in his]
    if len(los) != len(his):
        raise ValueError("need one upper bound per lower bound")
    for lo, hi in zip(los, his):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("integration bounds must be finite")
        if lo > hi:
            raise ValueError("require lo <= hi")
    if not los:
        return np.empty((0, 0)), np.empty((0, 0)), np.empty((0, 0), dtype=np.int64)

    # Pair p = K*i + k is integrand k on row i; totals[:, p] is its value
    # and error estimate, the one-pass result until it stops subdividing.
    lo, hi = np.array(los), np.array(his)
    first_pass = _gk15(f, lo, hi)
    K = first_pass.shape[1]
    totals = first_pass.transpose(0, 2, 1).reshape(2, -1)
    evaluations = np.full(totals.shape[1], 15)
    k_of = np.tile(np.arange(K), len(los))
    active = np.flatnonzero(np.repeat(lo != hi, K) & (totals[1] > abs_tol))
    # run holds the running sums of the active pairs.  store holds their
    # unpopped intervals: rows lo, hi, value, err, and one column per
    # interval in push order.  Each round pops one interval of every
    # active pair and pushes its two halves, so all hold one column more
    # than the rounds run, and the first column of largest err is the
    # pick of a heap by (-err, push order).
    run = totals[:, active]
    store = np.array((np.repeat(lo, K)[active], np.repeat(hi, K)[active], *run))[..., None]
    # Per active pair: its row in store and its integrand.
    rows, k = np.arange(len(active)), k_of[active]
    while len(active):
        if store.shape[2] >= MAX_INTERVALS:
            raise NoConvergence(
                f"error estimate {run[1, 0]:.3e} above tolerance {abs_tol:.3e} "
                f"after {store.shape[2]} intervals"
            )
        # Each pair's first column of largest err.  An err >= 0 orders as
        # its bits do as an int64.  int64 max and min and float64 == are
        # numpy loops that a run has already loaded; argmax's first call
        # would make 64 KiB more of numpy's code resident.
        errs, cols = store[3], np.arange(store.shape[2])
        top = np.maximum.reduce(errs.view(np.int64), axis=1).view(np.float64)[:, None]
        worst = np.where(errs == top, cols, len(cols)).min(axis=1)
        popped = store[:, rows, worst]
        a, b = popped[0], popped[1]
        # Pairs that pop the same interval share its evaluation: the left
        # halves of the distinct intervals, then their right halves.
        ua, ub, which = _distinct(a, b)
        mid = 0.5 * (ua + ub)
        need = None
        if K > 1:
            # Integrand k is needed on a distinct interval only if a pair
            # of k popped it; need[k] runs over the nodes as x does, 15
            # node rows of the left halves and then the right halves.
            need = np.zeros((K, len(ua)), dtype=bool)
            need[k, which] = True
            need = np.tile(need, 30)
        halves = _gk15(f, np.concatenate((ua, mid)), np.concatenate((mid, ub)), need)
        # Pair i takes integrand k[i] on distinct interval which[i]:
        # halves[:, i] is the value and err of its left and right halves.
        halves = halves.reshape(2, K, 2, -1)[:, k, :, which].transpose(1, 0, 2)
        run += halves[..., 0] + halves[..., 1] - popped[2:]
        # The next store: the kept columns, then the two halves.  The
        # mask is set by index: an int64 compare's first call would make
        # 128 KiB more of numpy's code resident.
        kept = np.ones(errs.shape, dtype=bool)
        kept[rows, worst] = False
        mid = mid[which]
        pushed = np.concatenate((np.array(((a, mid), (mid, b))).transpose(0, 2, 1), halves))
        store = np.concatenate((store[:, kept].reshape(4, len(rows), -1), pushed), axis=2)
        keep = run[1] > abs_tol
        if not keep.all():
            done = active[~keep]
            totals[:, done] = run[:, ~keep]
            evaluations[done] = 15 + 30 * (store.shape[2] - 1)
            active, run, k = active[keep], run[:, keep], k[keep]
            store, rows = store[:, keep], rows[: len(active)]
    return totals[0].reshape(-1, K), totals[1].reshape(-1, K), evaluations.reshape(-1, K)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
) -> Integral:
    """Integrate f over [lo, hi] to an absolute tolerance.

    f maps a 1-D float64 array of abscissae to their values; this is
    the one-row, one-valued case of `_integrate_arrays`, with its errors.
    """
    values, errs, evaluations = _integrate_arrays(f, (lo,), (hi,), abs_tol)
    if values.shape[1] != 1:
        raise ValueError(f"integrate takes a one-valued f, got {values.shape[1]} values per node")
    return Integral(values.item(), errs.item(), evaluations.item())
