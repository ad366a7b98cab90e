"""Adaptive Gauss-Kronrod quadrature on finite intervals.

Globally adaptive 7/15-point Gauss-Kronrod rule: the interval with the
largest error estimate is bisected until the summed estimate meets the
absolute tolerance.  Node/weight constants and the error estimator are
the classic QUADPACK dqk15 values.

`integrate_many` runs that loop for many integrals ("rows") in
lockstep.  Each row keeps its own heap of intervals, running sums and
interval cap, exactly as if it ran alone; each round bisects the worst
interval of every row still above tolerance and evaluates the 15 nodes
of all the new intervals in one call of the integrand on a 1-D float64
array.  `integrate` is its one-row case.  The rule's sums run in the
same order on every row, the error estimate's power 1.5 is taken by
libm's pow per element (as Python's float `**` takes it), and ordering
is worst-first with a deterministic tiebreak, so each row's result is
reproducible bit for bit and does not depend on which rows share its
call.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonFinite

__all__ = ["Integral", "integrate", "integrate_many", "DEFAULT_ABS_TOL", "MAX_INTERVALS"]

DEFAULT_ABS_TOL = 1e-12
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

# Columns over the intervals: the Kronrod abscissae off the centre and
# their weights, and the Gauss weights of the odd ones.
_XGK7 = np.array(_XGK[:7])[:, None]
_WGK7 = np.array(_WGK[:7])[:, None]
_WG3 = np.array(_WG[:3])[:, None]

_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308


@dataclass(frozen=True)
class Integral:
    value: float
    err_estimate: float
    evaluations: int


def _ordered_sum(first: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """first + terms[0] + terms[1] + ..., added left to right per column."""
    return np.add.accumulate(np.concatenate((first[None], terms)))[-1]


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """One 15-point Kronrod pass on each interval [lo[i], hi[i]].

    Returns the lists of integrals and of error estimates.
    """
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    absc = _XGK7 * hlgth
    # Node rows: the centre, then centr - absc[j], then centr + absc[j].
    x = np.concatenate((centr[None], centr - absc, centr + absc)).ravel()
    y = np.asarray(f(x), dtype=np.float64)
    finite = np.isfinite(y)
    if not finite.all():
        at = int(np.argmin(finite))
        raise NonFinite(f"integrand returned {float(y[at])!r} at x={float(x[at])!r}")
    y = y.reshape(15, -1)
    fc, f1, f2 = y[0], y[1:8], y[8:]
    fsum = f1 + f2

    resk = _ordered_sum(fc * _WGK[7], _WGK7 * fsum)
    resabs = _ordered_sum(np.abs(fc * _WGK[7]), _WGK7 * (np.abs(f1) + np.abs(f2)))
    resg = _ordered_sum(fc * _WG[3], _WG3 * fsum[1::2])
    reskh = resk * 0.5
    resasc = _ordered_sum(
        _WGK[7] * np.abs(fc - reskh), _WGK7 * (np.abs(f1 - reskh) + np.abs(f2 - reskh))
    )

    result = resk * hlgth
    resabs = resabs * np.abs(hlgth)
    resasc = resasc * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    # QUADPACK's rescaling, in Python's min/max semantics; the power is
    # libm's pow, as Python's float `**` computes it.
    scale = (resasc != 0.0) & (abserr != 0.0)
    ratio = (200.0 * abserr[scale] / resasc[scale]).tolist()
    power = np.fromiter(map(math.pow, ratio, repeat(1.5)), np.float64, len(ratio))
    abserr[scale] = resasc[scale] * np.where(power < 1.0, power, 1.0)
    floor = (_EPMACH * 50.0) * resabs
    abserr = np.where((resabs > _UFLOW / (50.0 * _EPMACH)) & ~(abserr > floor), floor, abserr)
    return result.tolist(), abserr.tolist()


def integrate_many(
    f: Callable[[np.ndarray], np.ndarray],
    los: Sequence[float],
    his: Sequence[float],
    abs_tol: float = DEFAULT_ABS_TOL,
) -> list[Integral]:
    """Integrate f over each [los[i], his[i]] to an absolute tolerance.

    f maps a 1-D float64 array of abscissae to their values.  Row i is
    the Integral that `integrate(f, los[i], his[i], abs_tol)` returns.
    Raises NonFinite if f produces NaN/inf at an abscissa, NoConvergence
    if a row reaches the interval cap before its error estimate drops
    below abs_tol.
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
        return []

    # values and errs start as each row's one-pass result and become its
    # running totals.
    values, errs = _gk15(f, np.array(los), np.array(his))
    evaluations = [15] * len(los)
    active = [i for i in range(len(los)) if los[i] != his[i] and errs[i] > abs_tol]
    # Per row that subdivides, a heap of (-err, tiebreak, lo, hi, value,
    # err); the tiebreak keeps ordering deterministic when two intervals
    # carry equal error.
    heaps = {i: [(-errs[i], 0, los[i], his[i], values[i], errs[i])] for i in active}
    seq = 0
    while active:
        worst = []
        for i in active:
            if len(heaps[i]) >= MAX_INTERVALS:
                raise NoConvergence(
                    f"error estimate {errs[i]:.3e} above tolerance {abs_tol:.3e} "
                    f"after {len(heaps[i])} intervals"
                )
            worst.append(heapq.heappop(heaps[i]))
        a = np.array([w[2] for w in worst])
        b = np.array([w[3] for w in worst])
        mid = 0.5 * (a + b)
        # The left halves of all active rows, then their right halves.
        vs, es = _gk15(f, np.concatenate((a, mid)), np.concatenate((mid, b)))
        m = len(active)
        for n, (i, mid) in enumerate(zip(active, mid.tolist())):
            _, _, a, b, v, e = worst[n]
            v1, e1, v2, e2 = vs[n], es[n], vs[m + n], es[m + n]
            evaluations[i] += 30
            values[i] += v1 + v2 - v
            errs[i] += e1 + e2 - e
            seq += 1
            heapq.heappush(heaps[i], (-e1, seq, a, mid, v1, e1))
            seq += 1
            heapq.heappush(heaps[i], (-e2, seq, mid, b, v2, e2))
        active = [i for i in active if errs[i] > abs_tol]
    return [
        Integral(value=v, err_estimate=e, evaluations=n)
        for v, e, n in zip(values, errs, evaluations)
    ]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> Integral:
    """Integrate f over [lo, hi] to an absolute tolerance.

    The one-row case of `integrate_many`, with its f and its errors.
    """
    return integrate_many(f, (lo,), (hi,), abs_tol)[0]
