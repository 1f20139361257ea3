"""Closed-form helpers for low-degree polynomials in local segment coordinates.

Coefficients are ascending (``c[0] + c[1]*t + c[2]*t**2 + ...``) and kept in
small float64 arrays.  Hazard segments are degree <= 3, their antiderivatives
degree <= 4; everything here is exact arithmetic on that class.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pvalue",
    "prows",
    "pderiv",
    "pinteg",
    "pshift",
    "pmin_rows",
    "pmax_rows",
    "is_zero_poly",
]


def pvalue(coeffs, t):
    """Evaluate the polynomial at ``t`` (scalar or array) by Horner's rule."""
    c = np.asarray(coeffs, dtype=float)
    acc = np.zeros_like(np.asarray(t, dtype=float))
    for ck in c[::-1]:
        acc = acc * t + ck
    return acc


def prows(coeff_rows, t):
    """Row-wise Horner: ``coeff_rows`` is (n, k), ``t`` is (n,) or (n, m);
    row i's polynomial is evaluated at ``t[i]``."""
    rows = np.asarray(coeff_rows, dtype=float)
    t = np.asarray(t, dtype=float)
    rows = rows.reshape(rows.shape + (1,) * (t.ndim - 1))
    acc = np.zeros(t.shape)
    for col in range(rows.shape[1] - 1, -1, -1):
        acc = acc * t + rows[:, col]
    return acc


def pderiv(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if c.size <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, c.size)


def pinteg(coeffs):
    """Antiderivative with zero constant term."""
    c = np.asarray(coeffs, dtype=float)
    return np.concatenate(([0.0], c / np.arange(1, c.size + 1)))


def pshift(coeffs, dt):
    """Re-express ``p(dt + s)`` as a polynomial in ``s`` (exact binomial shift)."""
    c = np.asarray(coeffs, dtype=float)
    n = c.size
    out = np.zeros(n)
    for k in range(n):
        ck = c[k]
        if ck == 0.0:
            continue
        for j in range(k + 1):
            out[j] += ck * math.comb(k, j) * dt ** (k - j)
    return out


def _extreme_rows(coeffs, lo, hi, sign):
    """Extreme values of ``sign * p_i`` over ``[lo[i], hi[i]]`` for many
    polynomials of degree <= 3 at once; returns (values, locations).

    The candidates of each row are, in order, ``lo``, ``hi`` (when finite)
    and the real critical points strictly inside the interval; the first
    largest value wins.  Critical points are the roots of the derivative
    ``d0 + d1 t + d2 t^2``.  A leading coefficient that is zero, or so small
    (subnormal) that dividing by it overflows, is trimmed: its extra root
    lies beyond the float range.  A quadratic is solved in monic form by
    the stable formula (the larger root ``P + sign(P) sqrt(P^2 - C)``, then
    ``C`` over it); a complex pair counts as one real double root when its
    imaginary part is at most ``1e-9 * (1 + |re|)``.  Where ``hi`` is
    infinite and the leading term drives ``sign * p`` to ``+inf``, the
    result is ``(inf, inf)``.
    """
    given = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n, m = given.shape
    if m > 4:
        raise ValueError("extrema are limited to degree 3")
    c = np.zeros((n, 4))  # zero leading coefficients change no Horner bit
    c[:, :m] = given
    x = np.empty((n, 4))  # candidates: lo, hi, then the critical points
    x.T[:] = lo
    x[:, 1] = hi
    ok = np.zeros((n, 4), dtype=bool)
    ok[:, 0] = True
    ok[:, 1] = np.isfinite(x[:, 1])
    d0, d1, d2 = c[:, 1], 2.0 * c[:, 2], 3.0 * c[:, 3]
    if d1.any() or d2.any():  # else every row is constant
        with np.errstate(all="ignore"):
            quad = (d2 != 0.0) & np.isfinite(d0 / d2) & np.isfinite(d1 / d2)
            lin = ~quad & (d1 != 0.0) & np.isfinite(d0 / d1)
            x[lin, 2] = -(d0[lin] / d1[lin])
            ok[lin, 2] = True
            P, C = -0.5 * (d1[quad] / d2[quad]), d0[quad] / d2[quad]
            disc = P * P - C
            big = np.isinf(disc)  # P * P overflowed: scale by |P|
            disc[big] = 1.0 - C[big] / P[big] / P[big]
            sq = np.sqrt(np.abs(disc))
            sq[big] *= np.abs(P[big])
            pair = disc < 0.0
            first = P + np.copysign(sq, P)
            x[quad, 2] = np.where(pair, P, first)
            x[quad, 3] = np.where(pair, P, C / np.where(first == 0.0, 1.0, first))
            ok[quad, 2:] = (~pair | (sq <= 1e-9 * (1.0 + np.abs(P))))[:, None]
        ok[:, 2:] &= (x[:, :1] < x[:, 2:]) & (x[:, 2:] < x[:, 1:2])
    x = np.where(ok, x, x[:, :1])
    acc = np.zeros((n, 4))
    for k in range(3, -1, -1):
        acc = acc * x + c[:, k, None]
    vals = np.where(ok, sign * acc, -np.inf)
    rows = np.arange(n)
    best = np.argmax(vals, axis=1)
    value, where = vals[rows, best], x[rows, best]
    # the limit of the leading term when the interval is unbounded
    lead = c[rows, 3 - np.argmax(c[:, :0:-1] != 0.0, axis=1)]
    up = ~ok[:, 1] & (sign * lead > 0.0)
    value[up] = where[up] = math.inf
    return value, where


def pmax_rows(coeffs, lo, hi):
    """(max, argmax) of each row's polynomial over [lo, hi] (``hi`` may be inf)."""
    return _extreme_rows(coeffs, lo, hi, 1.0)


def pmin_rows(coeffs, lo, hi):
    """(min, argmin) of each row's polynomial over [lo, hi] (``hi`` may be inf)."""
    value, where = _extreme_rows(coeffs, lo, hi, -1.0)
    return -value, where


def is_zero_poly(coeffs) -> bool:
    return bool(np.all(np.asarray(coeffs) == 0.0))
