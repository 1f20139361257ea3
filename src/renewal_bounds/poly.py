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
    "pmin_on",
    "pmax_on",
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
    """Row-wise Horner: ``coeff_rows`` is (n, k), ``t`` is (n,)."""
    rows = np.asarray(coeff_rows, dtype=float)
    acc = np.zeros(rows.shape[0])
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


def _real_roots(coeffs):
    """Real roots of the polynomial (may be empty)."""
    c = np.asarray(coeffs, dtype=float)
    # trim leading coefficients that are zero, or so small (subnormal) that
    # the companion matrix would overflow: their extra roots lie beyond the
    # float range
    deg = c.size - 1
    with np.errstate(over="ignore"):
        while deg > 0 and (c[deg] == 0.0 or not np.all(np.isfinite(c[:deg] / c[deg]))):
            deg -= 1
    if deg == 0:
        return np.empty(0)
    roots = np.roots(c[: deg + 1][::-1])
    scale = 1.0 + np.max(np.abs(roots.real)) if roots.size else 1.0
    real = roots[np.abs(roots.imag) <= 1e-9 * scale].real
    return real


def _extreme_on(coeffs, lo, hi, sign):
    """Extreme value of ``sign * p`` over [lo, hi]; returns (value, location).

    ``hi`` may be ``inf``; the limit behaviour of the leading term is then a
    candidate with location ``inf``.
    """
    c = np.asarray(coeffs, dtype=float)
    cand = [lo]
    if math.isfinite(hi):
        cand.append(hi)
    crit = _real_roots(pderiv(c))
    for r in crit:
        if lo < r < hi:
            cand.append(float(r))
    cand = np.asarray(cand)
    vals = sign * pvalue(c, cand)
    best = int(np.argmax(vals))
    value, where = float(vals[best]), float(cand[best])
    if not math.isfinite(hi):
        deg = c.size - 1
        while deg > 0 and c[deg] == 0.0:
            deg -= 1
        if deg > 0 and sign * c[deg] > 0:
            return math.inf, math.inf
    return value, where


def pmax_on(coeffs, lo, hi):
    """(max, argmax) of the polynomial over [lo, hi] (``hi`` may be inf)."""
    v, where = _extreme_on(coeffs, lo, hi, +1.0)
    return v, where


def pmin_on(coeffs, lo, hi):
    """(min, argmin) of the polynomial over [lo, hi] (``hi`` may be inf)."""
    v, where = _extreme_on(coeffs, lo, hi, -1.0)
    return -v, where


def is_zero_poly(coeffs) -> bool:
    return bool(np.all(np.asarray(coeffs) == 0.0))
