"""Truncated Taylor (jet) arithmetic for exact high-order derivatives.

A jet stores the Taylor coefficients c[0..K] of a scalar function at a
fixed center, so c[k] = f^(k)(center) / k!.  Arithmetic propagates the
coefficients through the exact truncated product/quotient/chain rules;
the only rounding is ordinary float rounding, so nested derivatives of
elementary expressions come out accurate to ~1 ulp per operation with no
symbolic algebra and no finite-difference step-size error.

A jet may also hold float64 arrays: a 1-D array of centers, and per
coefficient an array over them (or a broadcast float).  Each element is
then bitwise the jet at its own center, and a domain guard that fails on
any element raises the float path's exception.

The module also holds the elementwise kernels that every float, array
and jet path of the package shares.  `sqrt`, `asin` and `power` take a
float, a 1-D float64 array or a jet and return the same kind, and a
jet's coefficient 0 comes from them too.  On an array, libm functions
run per element through `each`, so every element has the bits of the
float call: numpy's own loops (np.arcsin, np.power, ...) may differ from
libm in the last bit.  Square roots are correctly rounded, so np.sqrt
serves arrays.  Arcsines past 1 raise math.asin's ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = ["Jet", "asin", "each", "power", "powers", "sqrt"]


def _any(test) -> bool:
    """A comparison of coefficients: a bool for floats, any element for arrays."""
    return test if test.__class__ is bool else bool(test.any())


def each(fn, v: np.ndarray | list, *args) -> np.ndarray:
    """fn(element, *args) for each element of a 1-D array or a list of
    floats, as float64."""
    items = v if isinstance(v, list) else memoryview(v)
    return np.fromiter(map(fn, items, *map(repeat, args)), np.float64, len(v))


def sqrt(v):
    if isinstance(v, Jet):
        return v.sqrt()
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def asin(v):
    if isinstance(v, Jet):
        return v.asin()
    return each(math.asin, v) if isinstance(v, np.ndarray) else math.asin(v)


def power(v, n: int):
    """v**n; on an array, libm's pow per element, as float `**` takes it."""
    return each(math.pow, v, float(n)) if isinstance(v, np.ndarray) else v**n


def powers(v, *ns: int) -> tuple:
    """power(v, n) for each n in ns; an array's elements are converted to
    floats once for all of them."""
    if not isinstance(v, np.ndarray):
        return tuple(power(v, n) for n in ns)
    items = v.tolist()
    return tuple(each(math.pow, items, float(n)) for n in ns)


@dataclass(frozen=True)
class Jet:
    center: float | np.ndarray
    coeffs: tuple

    @classmethod
    def variable(cls, center: float | np.ndarray, order: int) -> Jet:
        """The identity function x, truncated at the given order."""
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if order == 0:
            return cls(center, (center,))
        return cls(center, (center, 1.0) + (0.0,) * (order - 1))

    @classmethod
    def constant(cls, value: float, center: float, order: int) -> Jet:
        if order < 0:
            raise ValueError("jet order must be >= 0")
        return cls(center, (value,) + (0.0,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def _promote(self, other: Jet | float | int) -> Jet:
        if isinstance(other, Jet):
            if other.center is not self.center and _any(other.center != self.center):
                raise ValueError("jet centers differ")
            return other
        return Jet.constant(float(other), self.center, self.order)

    def __add__(self, other: Jet | float | int) -> Jet:
        o = self._promote(other)
        n = min(len(self.coeffs), len(o.coeffs))
        return Jet(self.center, tuple(self.coeffs[k] + o.coeffs[k] for k in range(n)))

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet(self.center, tuple(-c for c in self.coeffs))

    def __sub__(self, other: Jet | float | int) -> Jet:
        return self + (-self._promote(other))

    def __rsub__(self, other: float | int) -> Jet:
        return (-self) + other

    def __mul__(self, other: Jet | float | int) -> Jet:
        if not isinstance(other, Jet):
            f = float(other)
            return Jet(self.center, tuple(c * f for c in self.coeffs))
        o = self._promote(other)
        n = min(len(self.coeffs), len(o.coeffs))
        out = [0.0] * n
        for k in range(n):
            acc = 0.0
            for j in range(k + 1):
                acc += self.coeffs[j] * o.coeffs[k - j]
            out[k] = acc
        return Jet(self.center, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: Jet | float | int) -> Jet:
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        o = self._promote(other)
        if _any(o.coeffs[0] == 0.0):
            raise ZeroDivisionError("jet division by a jet with zero value")
        n = min(len(self.coeffs), len(o.coeffs))
        out = [0.0] * n
        for k in range(n):
            acc = self.coeffs[k]
            for j in range(k):
                acc -= out[j] * o.coeffs[k - j]
            out[k] = acc / o.coeffs[0]
        return Jet(self.center, tuple(out))

    def __rtruediv__(self, other: float | int) -> Jet:
        return Jet.constant(float(other), self.center, self.order) / self

    def __pow__(self, exponent: int) -> Jet:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer jet powers")
        result = Jet.constant(1.0, self.center, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def sqrt(self) -> Jet:
        c0 = self.coeffs[0]
        if _any(c0 <= 0.0):
            raise ValueError("jet sqrt needs a strictly positive value")
        out = [0.0] * len(self.coeffs)
        out[0] = sqrt(c0)
        for k in range(1, len(self.coeffs)):
            acc = self.coeffs[k]
            for j in range(1, k):
                acc -= out[j] * out[k - j]
            out[k] = acc / (2.0 * out[0])
        return Jet(self.center, tuple(out))

    def asin(self) -> Jet:
        # v' = u'/sqrt(1 - u^2), integrated coefficient-wise.
        c0 = self.coeffs[0]
        if _any(abs(c0) >= 1.0):
            raise ValueError("jet asin needs |value| < 1")
        out = [0.0] * len(self.coeffs)
        out[0] = asin(c0)
        if len(self.coeffs) > 1:
            w = (1.0 - self * self).sqrt()
            q = self.deriv() / Jet(self.center, w.coeffs[:-1])
            for k in range(1, len(self.coeffs)):
                out[k] = q.coeffs[k - 1] / k
        return Jet(self.center, tuple(out))

    def deriv(self) -> Jet:
        if len(self.coeffs) < 2:
            raise ValueError("jet order too low to differentiate")
        return Jet(
            self.center,
            tuple((k + 1) * self.coeffs[k + 1] for k in range(len(self.coeffs) - 1)),
        )

    def __call__(self, t: float) -> float:
        """Evaluate the truncated polynomial at offset t from the center."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc
