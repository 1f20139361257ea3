"""Polynomial helpers: shift, integration, extremes on intervals."""

import math

import numpy as np
import pytest

from renewal_bounds import from_segments
from renewal_bounds.poly import (
    is_zero_poly,
    pderiv,
    pinteg,
    pmax_on,
    pmin_on,
    pshift,
    prows,
    pvalue,
)


def test_pvalue_and_rows():
    c = [1.0, -2.0, 0.5]
    xs = np.array([0.0, 1.0, 3.0])
    assert np.allclose(pvalue(c, xs), 1 - 2 * xs + 0.5 * xs**2)
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(prows(rows, np.array([5.0, 5.0])), [1.0, 10.0])


def test_shift_is_exact():
    c = np.array([1.0, 2.0, -1.0, 0.5])
    shifted = pshift(c, 1.5)
    xs = np.linspace(-2, 2, 11)
    assert np.allclose(pvalue(shifted, xs), pvalue(c, xs + 1.5), atol=1e-12)


def test_integral_derivative_inverse():
    c = np.array([2.0, -3.0, 1.0])
    assert np.allclose(pderiv(pinteg(c)), c)
    assert pvalue(pinteg(c), 0.0) == 0.0


def test_extreme_on_interval():
    # p(t) = (t-1)^2 has min 0 at t=1, max 1 at the endpoints of [0, 2]
    c = np.array([1.0, -2.0, 1.0])
    mn, at = pmin_on(c, 0.0, 2.0)
    assert mn == pytest.approx(0.0, abs=1e-12)
    assert at == pytest.approx(1.0, abs=1e-9)
    mx, _ = pmax_on(c, 0.0, 2.0)
    assert mx == pytest.approx(1.0, abs=1e-12)


def test_extreme_unbounded_domain():
    up, loc = pmax_on(np.array([0.0, 1.0]), 0.0, math.inf)
    assert math.isinf(up) and math.isinf(loc)
    down, _ = pmin_on(np.array([0.0, 1.0]), 0.0, math.inf)
    assert down == 0.0
    const, loc0 = pmax_on(np.array([3.0]), 0.0, math.inf)
    assert const == 3.0 and loc0 == 0.0


def test_zero_poly():
    assert is_zero_poly([0.0, 0.0])
    assert not is_zero_poly([0.0, 1e-300])


def test_subnormal_leading_coefficient():
    # the companion matrix of 1 + t^2 + 2.2e-309 t^3 overflows; the cubic
    # term only adds roots beyond the float range
    c = np.array([1.0, 0.0, 1.0, 2.225073858507203e-309])
    mn, at = pmin_on(c, 0.0, 1.0)
    assert mn == 1.0 and at == 0.0
    phi = from_segments([(0.0, c), (1.0, [1.0])])  # raised LinAlgError before
    assert phi.coeffs[0, 3] == c[3]
