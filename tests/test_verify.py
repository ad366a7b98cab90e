"""Argument checks of the verify suite, called as a library."""

from __future__ import annotations

import math

import pytest

from arecorr.verify import MIN_GRID, run_checks


@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan], ids=["zero", "inf", "nan"])
def test_run_checks_refuses_a_tolerance_that_is_not_finite_and_positive(tol: float) -> None:
    # An infinite tolerance would pass every tolerance check with an
    # infinite margin, which JSON cannot carry.
    with pytest.raises(ValueError, match="tol"):
        run_checks(MIN_GRID, tol)

