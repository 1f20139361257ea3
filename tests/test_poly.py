"""Polynomial helpers: shift, integration, extremes on intervals."""

import math

import numpy as np
import pytest

from renewal_bounds import from_segments
from renewal_bounds.poly import (
    is_zero_poly,
    pderiv,
    pinteg,
    pmax_rows,
    pmin_rows,
    pshift,
    prows,
    pvalue,
)

from helpers import extreme_by_roots


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


def _one_row(extreme, c, lo, hi):
    value, where = extreme(np.asarray(c, dtype=float)[None], lo, hi)
    return float(value[0]), float(where[0])


def test_extreme_on_interval():
    # p(t) = (t-1)^2 has min 0 at t=1, max 1 at the endpoints of [0, 2]
    c = np.array([1.0, -2.0, 1.0])
    mn, at = _one_row(pmin_rows, c, 0.0, 2.0)
    assert mn == pytest.approx(0.0, abs=1e-12)
    assert at == pytest.approx(1.0, abs=1e-9)
    mx, _ = _one_row(pmax_rows, c, 0.0, 2.0)
    assert mx == pytest.approx(1.0, abs=1e-12)


def test_extreme_unbounded_domain():
    up, loc = _one_row(pmax_rows, [0.0, 1.0], 0.0, math.inf)
    assert math.isinf(up) and math.isinf(loc)
    down, _ = _one_row(pmin_rows, [0.0, 1.0], 0.0, math.inf)
    assert down == 0.0
    const, loc0 = _one_row(pmax_rows, [3.0], 0.0, math.inf)
    assert const == 3.0 and loc0 == 0.0


def test_zero_poly():
    assert is_zero_poly([0.0, 0.0])
    assert not is_zero_poly([0.0, 1e-300])


def test_subnormal_leading_coefficient():
    # the companion matrix of 1 + t^2 + 2.2e-309 t^3 overflows; the cubic
    # term only adds roots beyond the float range
    c = np.array([1.0, 0.0, 1.0, 2.225073858507203e-309])
    mn, at = _one_row(pmin_rows, c, 0.0, 1.0)
    assert mn == 1.0 and at == 0.0
    phi = from_segments([(0.0, c), (1.0, [1.0])])  # raised LinAlgError before
    assert phi.coeffs[0, 3] == c[3]


# ---------------------------------------------------------------------------
# closed-form extrema against the np.roots oracle
# ---------------------------------------------------------------------------

_EPS = 2.0**-52


def _check_against_oracle(c, lo, hi):
    for sign, batched in ((1.0, pmax_rows), (-1.0, pmin_rows)):
        expect_v, expect_at = extreme_by_roots(c, lo, hi, sign)
        expect_v *= sign
        got_v, got_at = _one_row(batched, c, lo, hi)
        if expect_at in (lo, hi):  # no root involved: the same bits
            assert (got_v, got_at) == (expect_v, expect_at), (c, lo, hi, sign)
        else:
            # LAPACK's eigenvalue roots and the quadratic formula may differ
            # in the last bits, and so may the Horner value at them
            scale = float(pvalue(np.abs(c), abs(expect_at)))  # sum |c_k| |x|^k
            assert abs(got_v - expect_v) <= 4 * _EPS * scale, (c, lo, hi, sign)
            assert abs(got_at - expect_at) <= 1e-7 * (1.0 + abs(expect_at)), (c, lo, hi, sign)


def test_extrema_match_the_roots_oracle_on_random_cubics():
    rng = np.random.default_rng(20261018)
    n = 3000
    coeffs = rng.normal(size=(n, 4)) * np.exp(3.0 * rng.normal(size=(n, 4)))
    his = np.exp(rng.normal(size=n))
    his[::7] = math.inf
    interior = 0
    for c, hi in zip(coeffs, his):
        _check_against_oracle(c, 0.0, float(hi))
        interior += extreme_by_roots(c, 0.0, hi, -1.0)[1] not in (0.0, hi)
    assert interior > n // 10  # the roots are exercised, not only the endpoints


def test_batched_extrema_equal_one_row_calls():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=(200, 4))
    his = np.exp(rng.normal(size=200))
    his[::5] = math.inf
    for batched in (pmax_rows, pmin_rows):
        values, places = batched(coeffs, 0.0, his)
        for c, hi, v, at in zip(coeffs, his, values, places):
            assert (float(v), float(at)) == _one_row(batched, c, 0.0, hi)


@pytest.mark.parametrize("c, lo, hi", [
    # near-double root of p': the discriminant rounds negative, and the
    # complex pair counts as one real root
    ([0.0, 3.0 * 0.3**2, -3.0 * 0.3, 1.0], 0.0, 1.0),
    ([5.0, 3.0 * 0.7**2, -3.0 * 0.7, 1.0], 0.0, 2.0),
    ([0.0, 1.0, 0.0, 1.0 / 3.0], 0.0, 1.0),  # p' = 1 + t^2: no real root
    ([1.0, -2.0, 1.0, 0.0], 0.0, 2.0),  # zero leading coefficient
    ([1.0, -2.0, 1.0], 0.0, 2.0),
    ([1.0, 0.0, 1.0, 2.225073858507203e-309], 0.0, 1.0),  # subnormal leading
    ([1.0, -2.0, 1.0, 5e-324], 0.0, math.inf),
    ([3.0], 0.0, 1.0),  # constants
    ([3.0], 0.0, math.inf),
    ([0.0, 0.0, 0.0, 0.0], 0.0, math.inf),
    ([0.0, 1.0], 0.0, math.inf),  # unbounded domain: the limit of the leading term
    ([1.0, -3.0, 0.0, 1.0], 0.0, math.inf),
    ([0.0, 0.0, 0.0, -1.0], 0.0, math.inf),
    ([2.0, 0.0, -1.0, 0.0], 0.0, math.inf),
    ([0.0, 0.0, 1e-300, 0.0], 0.0, math.inf),
    # P^2 of the monic derivative overflows: roots near 5e44 and 6.7e154
    ([0.0, 1.0, -1e-45, 1e-200], 0.0, math.inf),
    ([0.0, 1.0, -1e-45, 1e-200], 0.0, 1e155),
])
def test_extrema_edge_cases_match_the_oracle(c, lo, hi):
    _check_against_oracle(c, lo, hi)


@pytest.mark.parametrize("r", [0.3, 0.7])
def test_near_double_root_discriminant_rounds_negative(r):
    # p = t^3 - 3r t^2 + 3r^2 t: p' = 3 (t - r)^2, whose monic discriminant
    # rounds below zero.  The pair's imaginary part is about sqrt(ulp), so
    # whether it passes the 1e-9 test can differ from LAPACK's; p has no
    # extremum there, and the result is the oracle's either way.
    c = [0.0, 3.0 * r**2, -3.0 * r, 1.0]
    d0, d1, d2 = pderiv(c)
    P, C = -0.5 * (d1 / d2), d0 / d2
    assert P * P - C < 0.0
    for hi in (r, 2.0 * r, math.inf):
        _check_against_oracle(c, 0.0, hi)


def test_extrema_reject_degree_four():
    with pytest.raises(ValueError):
        _one_row(pmin_rows, [1.0, 0.0, 0.0, 0.0, 1.0], 0.0, 1.0)
