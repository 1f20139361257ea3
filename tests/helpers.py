"""Shared test oracles, independent of the implementation under test.

Reference CDFs are exact closed forms wrapped in ``CallableCdf``, the
package's mixed-CDF duck type (``cdf``, ``sf``, ``cdf_left``, ``jumps``),
which lives here because only tests build one; ``brute_ppf``
inverts a CDF by plain bisection on its evaluator; ``ks_distance`` compares
the ECDF's left and right limits at each distinct sample value with the
CDF's, so ties on an atom are handled; ``renewal_by_powers`` sums lattice
convolution powers, the definition the renewal-equation solve must match;
``ordering_check`` tests the stochastic ordering of three grid laws;
``moment_by_recursion`` is the scalar, depth-first adaptive Gauss-Legendre
moment quadrature, one interval per call, that the batched ``moment`` must
reproduce bit for bit; ``extreme_by_roots`` finds a polynomial's extrema
through the roots of its derivative by ``np.roots``, and
``fit_by_recursion`` is the panel-by-panel, depth-first hazard fit that
the level-batched compile must reproduce bit for bit; ``ppf_by_masks`` is
the inversion that compresses every draw through the ``beyond``, ``inside``,
``at_atom`` and ``solve`` masks and gathers each draw's row coefficients,
which ``IntensityCdf.ppf`` must reproduce bit for bit, and
``newton_quartic_by_masks`` is its quartic solver, which
``hazard._newton_quartic`` must reproduce bit for bit.  ``KERNEL_LAWS``
are the laws whose rows take that solver.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from renewal_bounds import (
    IntensityCdf,
    convolve,
    from_cumulative_hazard,
    uniform,
    weibull,
)
from renewal_bounds.errors import DivergentMomentError, GridError
from renewal_bounds import hazard
from renewal_bounds.hazard import _poly_exp_int, _quartic
from renewal_bounds.poly import pderiv, pinteg, prows, pvalue

# laws with quartic rows, which the quartic ppf solver inverts
KERNEL_LAWS = {
    "uniform": uniform(0.0, 1.0),
    "uniform2-5": uniform(2.0, 5.0),
    "weibull1.5": weibull(1.5),
    "weibull2.5x3": weibull(2.5, 3.0),
    "weibull3.5x2": weibull(3.5, 2.0),
    "cumhaz": from_cumulative_hazard(lambda x: np.asarray(x) ** 2.5 + 0.3 * np.asarray(x)),
}


class CallableCdf:
    """Mixed CDF given by evaluation callables plus an explicit jump list of
    ``(location, mass)`` pairs.  ``sf`` may be supplied for precision deep in
    the tail; the default is ``1 - F``."""

    def __init__(self, cdf, jumps=(), sf=None):
        self._cdf = cdf
        self._sf = sf
        self.jumps = tuple((float(a), float(p)) for a, p in jumps)

    def cdf(self, x):
        return np.asarray(self._cdf(np.asarray(x, dtype=float)), dtype=float)

    def sf(self, x):
        if self._sf is not None:
            return np.asarray(self._sf(np.asarray(x, dtype=float)), dtype=float)
        return 1.0 - self.cdf(x)

    def cdf_left(self, x):
        """Left limit F(x-0)."""
        x = np.asarray(x, dtype=float)
        out = self.cdf(x)
        for loc, mass in self.jumps:
            out = np.where(x == loc, out - mass, out)
        return out


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


class OrderingResult(NamedTuple):
    max_violation: float
    passed: bool


def ordering_check(G, F, Phi) -> OrderingResult:
    """The stochastic ordering ``G >= F >= Phi`` of three grid distributions,
    pointwise on their common grid: the largest violation ``max(F - G, Phi
    - F)`` over all nodes, which passes when it does not exceed 1e-9."""
    if not (G.step == F.step == Phi.step) or not (
        G.values.size == F.values.size == Phi.values.size
    ):
        raise GridError("ordering check requires a common grid")
    v = max(float(np.max(F.values - G.values)), float(np.max(Phi.values - F.values)))
    return OrderingResult(v, v <= 1e-9)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    xs = a + half * (_GL_NODES + 1.0)
    return half * float(np.sum(_GL_WEIGHTS * f(xs)))


def gl_recursive(f, a, b, tol=None, depth=0, max_depth=30):
    """Adaptive Gauss-Legendre on one interval, one call per panel pair;
    ``tol`` defaults to ``1e-12 + 1e-11 * |first panel|``."""
    whole = _gl_panel(f, a, b)
    if tol is None:
        tol = 1e-12 + 1e-11 * abs(whole)
    mid = 0.5 * (a + b)
    left = _gl_panel(f, a, mid)
    right = _gl_panel(f, mid, b)
    if abs(whole - (left + right)) <= tol or depth >= max_depth:
        return left + right
    return gl_recursive(f, a, mid, 0.5 * tol, depth + 1, max_depth) + gl_recursive(
        f, mid, b, 0.5 * tol, depth + 1, max_depth
    )



def moment_by_recursion(F: IntensityCdf, k: int) -> float:
    """``E X^k`` row by row, integrating each polynomial stretch with
    ``gl_recursive``."""
    total = 0.0
    for r in range(F._row_lo.size):
        s0 = math.exp(-F._row_lam_lo[r])
        if s0 == 0.0:
            continue
        lo, width, R = F._row_lo[r], F._row_width[r], F._row_R[r]
        f = lambda tau: k * (lo + tau) ** (k - 1) * s0 * np.exp(-prows(
            np.broadcast_to(R, (tau.size, 5)), tau))
        if F._row_deg[r] <= 1:
            if not math.isfinite(width) and R[1] <= 0.0:
                raise DivergentMomentError("improper distribution")
            total += k * s0 * _poly_exp_int(lo, width, k - 1, R[1])
        elif math.isfinite(width):
            total += gl_recursive(f, 0.0, width)
        else:
            x, win, acc, hazard = 0.0, max(1.0, lo), 0.0, pderiv(R)
            for _ in range(200):
                acc += gl_recursive(f, x, x + win)
                x += win
                win *= 2.0
                s_here = s0 * math.exp(-float(pvalue(R, x)))
                rate = float(pvalue(hazard, x))
                rem = k * s_here * _poly_exp_int(lo + x, math.inf, k - 1, max(rate, 1e-300))
                if rem <= 1e-13 * max(abs(acc), 1e-12):
                    break
            else:
                raise DivergentMomentError("tail remainder did not contract")
            total += acc
    return total


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
    return roots[np.abs(roots.imag) <= 1e-9 * scale].real


def extreme_by_roots(coeffs, lo, hi, sign):
    """Extreme value of ``sign * p`` over [lo, hi], any degree; (value, location).

    ``hi`` may be ``inf``; the limit behaviour of the leading term is then a
    candidate with location ``inf``.
    """
    c = np.asarray(coeffs, dtype=float)
    cand = [lo]
    if math.isfinite(hi):
        cand.append(hi)
    for r in _real_roots(pderiv(c)):
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


def fit_by_recursion(lam, lo, hi, ftol, out, depth=0):
    """Append hazard segments approximating ``lam`` on [lo, hi) to ``out``,
    one panel per call, halving depth-first."""
    h = hi - lo
    lam_lo = float(lam(lo))
    ys = np.asarray(lam(lo + h * hazard._FIT_NODES), dtype=float) - lam_lo
    ys = np.maximum.accumulate(np.maximum(ys, 0.0))
    if ys[-1] == 0.0:
        out.append((lo, np.zeros(4)))
        return
    d = hazard._FIT_SOLVE @ ys
    phi_c = np.array([d[0] / h, 2 * d[1] / h**2, 3 * d[2] / h**3, 4 * d[3] / h**4])
    neg, _ = extreme_by_roots(phi_c, 0.0, h, -1.0)
    low = -neg
    ok = low >= -hazard._NONNEG_SLACK * max(1.0, float(np.max(np.abs(phi_c))))
    if ok:
        zs = lo + h * hazard._ERR_NODES
        s_true = np.exp(-np.asarray(lam(zs), dtype=float))
        q = pvalue(pinteg(phi_c), h * hazard._ERR_NODES)
        s_fit = np.exp(-(lam_lo + q))
        ok = float(np.max(np.abs(s_fit - s_true))) <= ftol
    if ok:
        if low < 0.0:
            phi_c[0] -= low
        out.append((lo, phi_c))
        return
    if depth >= hazard._FIT_MAX_DEPTH:
        out.append((lo, np.array([max(ys[-1], 0.0) / h, 0.0, 0.0, 0.0])))
        return
    mid = 0.5 * (lo + hi)
    fit_by_recursion(lam, lo, mid, ftol, out, depth + 1)
    fit_by_recursion(lam, mid, hi, ftol, out, depth + 1)


def fit_panels_by_recursion(lam, edges, ftol):
    """``fit_by_recursion`` on each panel between consecutive ``edges`` in
    turn: a stand-in for ``hazard._fit_cumhaz``."""
    out = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        fit_by_recursion(lam, lo, hi, ftol, out)
    return out


def ppf_by_masks(F, u):
    """``F.ppf(u)`` for an IntensityCdf and a 1-D array ``u`` in [0, 1), by
    masks: search every draw's row, compress the draws inside a row, split
    them into atom hits and solves, gather each solve's row coefficients and
    expand the results back."""
    T = np.minimum(-np.log1p(-u), F._total_lam)
    x = np.empty_like(T)
    idx = np.searchsorted(F._row_lam_hi, T, side="left")
    beyond = (idx >= F._row_lo.size) | (u > F.total_mass())
    if np.any(beyond):
        x[beyond] = F._full_loc if F._full_loc is not None else math.inf
    inside = ~beyond
    ii = idx[inside]
    t_in = T[inside]
    lam_lo = F._row_lam_lo[ii]
    at_atom = t_in <= lam_lo
    xin = np.empty_like(t_in)
    xin[at_atom] = F._row_lo[ii[at_atom]]
    solve = ~at_atom
    if np.any(solve):
        rows = ii[solve]
        xin[solve] = F._row_lo[rows] + _solve_rows_by_masks(F, rows, t_in[solve] - lam_lo[solve])
    x[inside] = xin

    finite = np.isfinite(x)
    G = np.ones_like(x)
    G[inside] = _cdf_on_rows_by_gathers(F, xin, ii)
    rest = beyond & finite
    G[rest] = F.cdf(x[rest])
    sub = np.nonzero(finite & (G < u))[0]
    for _ in range(4):
        if sub.size == 0:
            break
        x[sub] = np.nextafter(x[sub], math.inf)
        sub = sub[np.asarray(F.cdf(x[sub]), dtype=float) < u[sub]]
    return x


def _cdf_on_rows_by_gathers(F, x, rows):
    tau = np.minimum(x - F._row_lo[rows], F._row_width[rows])
    c1, c2, c3, c4 = (F._row_RT[k][rows] for k in (1, 2, 3, 4))
    G = -np.expm1(-(F._row_lam_lo[rows] + _quartic(c1, c2, c3, c4, tau)))
    past = x >= F._row_hi[rows]
    if np.any(past):
        G[past] = F.cdf(x[past])
    return G


def _solve_rows_by_masks(F, rows, tprime):
    out = np.empty_like(tprime)
    deg = F._row_deg[rows]
    lin = deg <= 1
    if np.any(lin):
        c1 = F._row_R[rows[lin], 1]
        out[lin] = np.where(c1 > 0, tprime[lin] / np.where(c1 > 0, c1, 1.0), 0.0)
    quad = deg == 2
    if np.any(quad):
        c1 = F._row_R[rows[quad], 1]
        c2 = F._row_R[rows[quad], 2]
        tp = tprime[quad]
        disc = np.sqrt(np.maximum(c1 * c1 + 4.0 * c2 * tp, 0.0))
        out[quad] = 2.0 * tp / (c1 + disc)
    gen = deg > 2
    if np.any(gen):
        ridx = rows[gen]
        tp = tprime[gen]
        c1, c2, c3, c4 = (F._row_RT[k][ridx] for k in (1, 2, 3, 4))
        hi = F._row_width[ridx]
        q = F._row_q[ridx]
        unb = ~np.isfinite(hi)
        if np.any(unb):
            guess = np.maximum(1.0, tp[unb])
            for _ in range(200):
                need = _quartic(c1[unb], c2[unb], c3[unb], c4[unb], guess) < tp[unb]
                if not np.any(need):
                    break
                guess = np.where(need, guess * 2.0, guess)
            hi[unb] = guess
            q[unb] = (c4[unb] * guess + c3[unb]) * guess + c2[unb]
        out[gen] = newton_quartic_by_masks(c1, c2, c3, c4, q, hi, tp)
    return out


def newton_quartic_by_masks(c1, c2, c3, c4, q, width, tp, stop=hazard._NEWTON_STOP, walks=None):
    """The safeguarded Newton solve of a quartic row with a ulp-walk finish,
    written with masks: ``np.where`` for the bracket, the divide and the
    midpoint in every step, a fresh array per operation, and gathers for
    every ulp of the walk, up while ``R < tp`` and then down while the
    previous double still qualifies.  ``hazard._newton_quartic`` must
    reproduce it bit for bit.

    It starts from the root of the quadratic ``c1 tau + q tau^2``, at most
    ``width``.  A draw stops after a Newton step inside the bracket of at
    most ``stop`` times the next iterate, after any step of at most an ulp,
    or once its bracket is an ulp wide; ``stop = hazard._ULP`` is the rule
    that stops only on an ulp.  ``walks``, a list, receives a tuple: the
    number of draws that walked up and the longest walk up, then the same
    for the walks down.
    """
    n = tp.size
    tau_end = np.empty(n)
    ids = np.arange(n)
    k1, k2, k3, k4, t = c1, c2, c3, c4, tp  # the unconverged draws' rows
    lo = np.zeros(n)
    hi = width.copy()
    tau = np.fmin(2.0 * tp / (np.sqrt(np.maximum(c1 * c1 + 4.0 * q * tp, 0.0)) + c1), hi)
    for _ in range(hazard._NEWTON_ITERS):
        # R and R' by one Horner pass
        p = k4 * tau + k3
        dp = k4 * tau + p
        p = p * tau + k2
        dp = dp * tau + p
        p = p * tau + k1
        f = p * tau - t
        df = dp * tau + p
        ge = f >= 0.0
        hi = np.where(ge, tau, hi)
        lo = np.where(ge, lo, tau)
        pos = df > 0.0
        new = tau - f / np.where(pos, df, 1.0)
        inside = pos & (new > lo) & (new <= hi)
        new = np.where(inside, new, 0.5 * (lo + hi))
        step = np.abs(new - tau)
        done = ((inside & (step <= stop * new)) | (step <= hazard._ULP * new)
                | (hi - lo <= hazard._ULP * hi))
        tau = new
        if np.all(done):
            break
        if np.any(done):
            tau_end[ids[done]] = tau[done]
            keep = ~done
            ids, tau, lo, hi, t = ids[keep], tau[keep], lo[keep], hi[keep], t[keep]
            k1, k2, k3, k4 = k1[keep], k2[keep], k3[keep], k4[keep]
    tau_end[ids] = tau

    # walk up to the first qualifying double, the row end at the latest ...
    walk = np.nonzero(_quartic(c1, c2, c3, c4, tau_end) < tp)[0]
    qualified = np.ones(n, dtype=bool)
    qualified[walk] = False
    counts = [walk.size, 0]
    for _ in range(hazard._FINISH_STEPS):
        if walk.size == 0:
            break
        counts[1] += 1
        up = np.minimum(np.nextafter(tau_end[walk], math.inf), width[walk])
        tau_end[walk] = up
        walk = walk[(up < width[walk])
                    & (_quartic(c1[walk], c2[walk], c3[walk], c4[walk], up) < tp[walk])]
    tau_end[walk] = width[walk]
    # ... and, from a qualifying start, down while the previous double
    # still qualifies
    walk = np.nonzero(qualified)[0]
    counts += [0, 0]
    for _ in range(hazard._FINISH_STEPS):
        if walk.size == 0:
            break
        down = np.nextafter(tau_end[walk], -math.inf)
        ok = _quartic(c1[walk], c2[walk], c3[walk], c4[walk], down) >= tp[walk]
        walk = walk[ok]
        tau_end[walk] = down[ok]
        if walk.size:
            counts[2] = counts[2] or walk.size
            counts[3] += 1
    if walks is not None:
        walks.append(tuple(counts))
    return tau_end
