"""Shared test oracles, independent of the implementation under test.

Reference CDFs are exact closed forms wrapped in CallableCdf; ``brute_ppf``
inverts a CDF by plain bisection on its evaluator; ``ks_distance`` compares
the ECDF's left and right limits at each distinct sample value with the
CDF's, so ties on an atom are handled; ``renewal_by_powers`` sums lattice
convolution powers, the definition the renewal-equation solve must match.
"""

from __future__ import annotations

import math

import numpy as np

from renewal_bounds import CallableCdf, convolve


def exp_cdf(rate: float = 1.0) -> CallableCdf:
    return CallableCdf(
        lambda x: np.where(np.asarray(x) < 0, 0.0, -np.expm1(-rate * np.asarray(x))),
        sf=lambda x: np.where(np.asarray(x) < 0, 1.0, np.exp(-rate * np.asarray(x))),
    )


def uniform_cdf(a: float = 0.0, b: float = 1.0) -> CallableCdf:
    return CallableCdf(
        lambda x: np.clip((np.asarray(x, float) - a) / (b - a), 0.0, 1.0),
        sf=lambda x: 1.0 - np.clip((np.asarray(x, float) - a) / (b - a), 0.0, 1.0),
    )


def weibull_cdf(shape: float, scale: float = 1.0) -> CallableCdf:
    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x < 0, 0.0, -np.expm1(-((np.maximum(x, 0) / scale) ** shape)))

    def sf(x):
        x = np.asarray(x, float)
        return np.where(x < 0, 1.0, np.exp(-((np.maximum(x, 0) / scale) ** shape)))

    return CallableCdf(cdf, sf=sf)


def deterministic_cdf(c: float) -> CallableCdf:
    return CallableCdf(
        lambda x: np.where(np.asarray(x, float) >= c, 1.0, 0.0),
        jumps=[(c, 1.0)],
        sf=lambda x: np.where(np.asarray(x, float) >= c, 0.0, 1.0),
    )


def exp_with_atom_cdf() -> CallableCdf:
    """Exp(1) hazard plus a cumulative-hazard jump of ln 2 at x = 1."""

    def sf(x):
        x = np.asarray(x, float)
        return np.where(
            x < 0, 1.0, np.where(x < 1.0, np.exp(-np.maximum(x, 0.0)), np.exp(-x) / 2.0)
        )

    mass = math.exp(-1.0) / 2.0
    return CallableCdf(lambda x: 1.0 - sf(x), jumps=[(1.0, mass)], sf=sf)


def erlang_cdf(n: int, rate: float = 1.0):
    """Closed-form Erlang CDF evaluator (sum of n i.i.d. exponentials)."""

    def cdf(x):
        x = np.asarray(x, float)
        z = rate * np.maximum(x, 0.0)
        s = np.zeros_like(z)
        term = np.ones_like(z)
        for k in range(n):
            if k:
                term = term * z / k
            s += term
        return np.where(x < 0, 0.0, 1.0 - np.exp(-z) * s)

    return cdf


def brute_ppf(F, u: float) -> float:
    """Generalized inverse by bisection on the CDF evaluator alone."""
    hi = 1.0
    for _ in range(200):
        if float(F.cdf(hi)) >= u:
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    for _ in range(160):
        mid = 0.5 * (lo + hi)
        if float(F.cdf(mid)) >= u:
            hi = mid
        else:
            lo = mid
    return hi


def ks_distance(samples, F) -> float:
    """Kolmogorov-Smirnov distance of a sample against a mixed CDF.

    At each distinct sample value v the ECDF's right limit F_n(v) is
    compared with F(v) and its left limit F_n(v-) with F(v-).  Between
    distinct values both CDFs are monotone and F_n is flat, so these limits
    carry the supremum; tied draws on an atom count once, with their
    combined mass, instead of once per order statistic.
    """
    v, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
    n = counts.sum()
    ecdf_right = np.cumsum(counts) / n
    ecdf_left = ecdf_right - counts / n
    right = np.asarray(F.cdf(v), dtype=float)
    left = np.asarray(F.cdf_left(v), dtype=float)
    return float(max(np.max(np.abs(ecdf_right - right)), np.max(np.abs(ecdf_left - left))))


def empirical_cdf_at(sorted_samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_samples, points, side="right") / sorted_samples.size


def renewal_by_powers(G, tol: float) -> np.ndarray:
    """Renewal function ``sum_{n>=1} G^{*n}`` at the nodes, power by power.

    Convolves until the newest power's total mass falls below ``tol``.
    """
    total = G.values.copy()
    power = G
    while power.values[-1] >= tol:
        power = convolve(power, G)
        total += power.values
    return total
