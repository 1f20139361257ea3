"""Hazard calculus for mixed nonnegative distributions.

A *generalized intensity* is an absolutely continuous hazard (piecewise
polynomial, degree <= 3, last segment extending to infinity) plus a list of
atoms: locations where the cumulative hazard jumps by a weight ``delta``,
so the survival function drops by the factor ``exp(-delta)``.  A full atom
(``delta = inf``) pins all remaining mass at its location and makes
deterministic distributions exactly representable.

The module provides construction of named families compiled into that
representation, conversion between intensities and mixed CDFs in both
directions, intensity addition (the hazard of a minimum of independent
variables is the sum of hazards), moments, and exact generalized-inverse
sampling.

Atom weight convention: ``delta = -log(S(a+0)/S(a-0))``, the survival-ratio
form, which makes ``F = 1 - exp(-cumhaz)`` an exact reconstruction identity
for any mixed distribution in the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammainc

from .errors import DistributionError, DivergentMomentError, IntensityError
from .poly import (
    is_zero_poly,
    pderiv,
    pinteg,
    pmin_on,
    prows,
    pshift,
    pvalue,
)

__all__ = [
    "ATOM_INF",
    "GeneralizedIntensity",
    "MixedCdf",
    "IntensityCdf",
    "CallableCdf",
    "cdf_from_intensity",
    "intensity_from_cdf",
    "add_intensities",
    "moment",
    "sample",
    "exponential",
    "uniform",
    "weibull",
    "deterministic",
    "zero",
    "from_segments",
    "from_cumulative_hazard",
]

ATOM_INF = math.inf  # sentinel weight for a full atom

_NONNEG_SLACK = 1e-12  # tolerated numerical undershoot of fitted hazards


# ---------------------------------------------------------------------------
# Generalized intensity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedIntensity:
    """Piecewise-cubic hazard plus cumulative-hazard atoms.

    ``breaks[i]`` is the start of segment ``i`` (breaks[0] == 0); ``coeffs[i]``
    are ascending polynomial coefficients in the local coordinate
    ``s - breaks[i]``.  The last segment extends to infinity and must be
    nonnegative and nondecreasing there.  Atoms are strictly increasing
    ``(location, weight)`` pairs with positive weights; only the last atom may
    carry the infinite sentinel.
    """

    breaks: np.ndarray
    coeffs: np.ndarray
    atom_locs: np.ndarray
    atom_weights: np.ndarray

    def __post_init__(self):
        breaks = np.atleast_1d(np.asarray(self.breaks, dtype=float))
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        locs = np.atleast_1d(np.asarray(self.atom_locs, dtype=float))
        weights = np.atleast_1d(np.asarray(self.atom_weights, dtype=float))
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "atom_locs", locs)
        object.__setattr__(self, "atom_weights", weights)

        if breaks.ndim != 1 or breaks.size == 0 or breaks[0] != 0.0:
            raise IntensityError("segment breakpoints must start at 0")
        if np.any(np.diff(breaks) <= 0):
            raise IntensityError("segment breakpoints must be strictly increasing")
        if coeffs.shape != (breaks.size, 4):
            raise IntensityError(
                f"expected coefficient array of shape ({breaks.size}, 4), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise IntensityError("hazard coefficients must be finite")

        for i in range(breaks.size):
            hi = breaks[i + 1] - breaks[i] if i + 1 < breaks.size else math.inf
            low, where = pmin_on(coeffs[i], 0.0, hi)
            if low < -_NONNEG_SLACK:
                raise IntensityError(
                    f"hazard negative ({low:.3e}) at s = {breaks[i] + where:.6g}"
                )
        tail = coeffs[-1]
        dmin, _ = pmin_on(pderiv(tail), 0.0, math.inf)
        if dmin < -_NONNEG_SLACK:
            raise IntensityError("last segment must be constant or growing")

        if locs.shape != weights.shape or locs.ndim != 1:
            raise IntensityError("atom locations/weights must be matching 1-D lists")
        if locs.size:
            if np.any(locs < 0):
                raise IntensityError("atom locations must be nonnegative")
            if np.any(np.diff(locs) <= 0):
                raise IntensityError("atom locations must be strictly increasing")
            if np.any(weights <= 0):
                raise IntensityError("atom weights must be positive")
            if np.any(np.isinf(weights[:-1])):
                raise IntensityError("only the last atom may be a full atom")

    # -- structural properties ------------------------------------------------

    @property
    def has_full_atom(self) -> bool:
        return self.atom_weights.size > 0 and math.isinf(self.atom_weights[-1])

    @property
    def full_atom_location(self) -> float | None:
        return float(self.atom_locs[-1]) if self.has_full_atom else None

    @property
    def proper(self) -> bool:
        """True when the total hazard diverges, i.e. F(inf) = 1."""
        return self.has_full_atom or not is_zero_poly(self.coeffs[-1])

    @cached_property
    def _cum_ac_at_breaks(self) -> np.ndarray:
        """Integral of the ac hazard from 0 to each breakpoint."""
        out = np.zeros(self.breaks.size)
        for i in range(self.breaks.size - 1):
            width = self.breaks[i + 1] - self.breaks[i]
            out[i + 1] = out[i] + pvalue(pinteg(self.coeffs[i]), width)
        return out

    def hazard(self, s):
        """Absolutely continuous hazard value(s) at ``s`` (right-continuous)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        idx = np.clip(np.searchsorted(self.breaks, s, side="right") - 1, 0, None)
        out = prows(self.coeffs[idx], s - self.breaks[idx])
        out = np.where(s < 0, 0.0, out)
        return float(out[0]) if scalar else out

    def cumulative_ac(self, x):
        """Integral of the ac hazard over [0, x]."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, None)
        part = prows(
            np.stack([pinteg(c) for c in self.coeffs])[idx], x - self.breaks[idx]
        )
        out = np.where(x <= 0, 0.0, self._cum_ac_at_breaks[idx] + part)
        return float(out[0]) if scalar else out


def from_segments(
    segments: Sequence[tuple[float, Sequence[float]]],
    atoms: Sequence[tuple[float, float]] = (),
    *,
    require_proper: bool = True,
) -> GeneralizedIntensity:
    """Build an intensity from ``(start, coefficients)`` segments plus atoms.

    Coefficients are ascending in the local coordinate and padded to degree 3.
    With ``require_proper`` (the default), zero-mass intensities -- total
    hazard finite and no full atom -- are rejected at construction.
    """
    if not segments:
        raise IntensityError("at least one segment is required")
    segs = sorted(segments, key=lambda sc: sc[0])
    breaks = np.array([float(s) for s, _ in segs])
    coeffs = np.zeros((len(segs), 4))
    for i, (_, c) in enumerate(segs):
        c = np.asarray(c, dtype=float)
        if c.size > 4:
            raise IntensityError("hazard polynomials are limited to degree 3")
        coeffs[i, : c.size] = c
    locs = np.array([float(a) for a, _ in atoms])
    weights = np.array([float(d) for _, d in atoms])
    phi = GeneralizedIntensity(breaks, coeffs, locs, weights)
    if require_proper and not phi.proper:
        raise IntensityError(
            "zero-mass intensity: total hazard is finite and no full atom is present"
        )
    return phi


# -- named families ----------------------------------------------------------


def exponential(rate: float) -> GeneralizedIntensity:
    """Constant hazard ``rate`` (exponential distribution)."""
    if rate <= 0:
        raise IntensityError("exponential rate must be positive")
    return from_segments([(0.0, [rate])])


def zero() -> GeneralizedIntensity:
    """The identically-zero intensity (a variable that is +inf a.s.).

    Deliberately improper; used as the trivial min-coupling companion.
    """
    return from_segments([(0.0, [0.0])], require_proper=False)


def deterministic(c: float) -> GeneralizedIntensity:
    """Point mass at ``c``: zero hazard plus a full atom."""
    if c < 0:
        raise IntensityError("deterministic value must be nonnegative")
    if c == 0:
        return from_segments([(0.0, [0.0])], atoms=[(0.0, ATOM_INF)])
    return from_segments([(0.0, [0.0])], atoms=[(c, ATOM_INF)])


def weibull(shape: float, scale: float = 1.0) -> GeneralizedIntensity:
    """Weibull hazard ``(shape/scale) * (s/scale)**(shape-1)``.

    Integer shapes 1..4 are exact polynomials; fractional shapes in [1, 4]
    are compiled adaptively.  Shapes below 1 have a hazard unbounded at the
    origin and are not representable in the polynomial class.
    """
    if scale <= 0:
        raise IntensityError("weibull scale must be positive")
    if shape < 1 or shape > 4:
        raise IntensityError("weibull shape must lie in [1, 4]")
    if float(shape).is_integer():
        k = int(shape)
        c = np.zeros(4)
        c[k - 1] = k / scale**k
        return from_segments([(0.0, c)])
    return from_cumulative_hazard(lambda x: (np.asarray(x) / scale) ** shape)


def uniform(a: float, b: float) -> GeneralizedIntensity:
    """Uniform(a, b) compiled into the polynomial hazard class.

    The hazard ``1/(b - s)`` is fitted adaptively up to survival 1e-12 and
    closed with a huge constant tail, so CDF, moments and samples agree with
    the exact uniform to well below 1e-8.
    """
    if not 0 <= a < b:
        raise IntensityError("uniform requires 0 <= a < b")
    span = b - a

    def cumhaz(x):
        x = np.asarray(x, dtype=float)
        frac = np.clip((b - np.minimum(x, b)) / span, 1e-300, 1.0)
        out = -np.log(frac)
        return np.where(x < a, 0.0, out)

    return from_cumulative_hazard(cumhaz)


# -- adaptive compilation of an arbitrary cumulative hazard -------------------

# quartic through the origin, interpolating at z = 1/4, 1/2, 3/4, 1
_FIT_NODES = np.array([0.25, 0.5, 0.75, 1.0])
_FIT_SOLVE = np.linalg.inv(np.vander(_FIT_NODES, 4, increasing=True) * _FIT_NODES[:, None])
_ERR_NODES = np.array([0.0625, 0.125, 0.375, 0.625, 0.875, 0.9375])


def _fit_cumhaz_region(lam, lo, hi, ftol, out, depth=0, max_depth=52):
    """Append hazard segments approximating ``lam`` on [lo, hi) to ``out``.

    ``lam`` is the absolute cumulative hazard (atoms before the region
    included), so the survival error check is performed on the actual scale.
    Knot values interpolate exactly, hence errors do not accumulate across
    segments.
    """
    h = hi - lo
    lam_lo = float(lam(lo))
    ys = np.asarray(lam(lo + h * _FIT_NODES), dtype=float) - lam_lo
    ys = np.maximum.accumulate(np.maximum(ys, 0.0))  # clip eval noise
    if ys[-1] == 0.0:
        out.append((lo, np.zeros(4)))
        return
    d = _FIT_SOLVE @ ys  # q(z) = sum d[k] z^(k+1)
    phi_c = np.array([d[0] / h, 2 * d[1] / h**2, 3 * d[2] / h**3, 4 * d[3] / h**4])

    low, _ = pmin_on(phi_c, 0.0, h)
    ok = low >= -_NONNEG_SLACK * max(1.0, float(np.max(np.abs(phi_c))))
    if ok:
        zs = lo + h * _ERR_NODES
        s_true = np.exp(-np.asarray(lam(zs), dtype=float))
        q = pvalue(pinteg(phi_c), h * _ERR_NODES)
        s_fit = np.exp(-(lam_lo + q))
        ok = float(np.max(np.abs(s_fit - s_true))) <= ftol
    if ok:
        if low < 0.0:  # shave sub-slack undershoot so the constructor accepts
            phi_c[0] -= low
        out.append((lo, phi_c))
        return
    if depth >= max_depth:
        c = max(ys[-1], 0.0) / h
        out.append((lo, np.array([c, 0.0, 0.0, 0.0])))
        return
    mid = 0.5 * (lo + hi)
    _fit_cumhaz_region(lam, lo, mid, ftol, out, depth + 1, max_depth)
    _fit_cumhaz_region(lam, mid, hi, ftol, out, depth + 1, max_depth)


def _tail_edge(survival, start, tail_eps):
    """Largest x with S(x) > tail_eps, found by doubling plus bisection."""
    hi = max(start, 1.0)
    tries = 0
    while survival(hi) > tail_eps:
        hi *= 2.0
        tries += 1
        if tries > 200:
            raise DistributionError(
                "survival does not decay; cumulative hazard appears bounded"
            )
    lo = 0.0 if tries == 0 else hi / 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if survival(mid) > tail_eps:
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else hi * 0.5


def from_cumulative_hazard(
    cumhaz: Callable,
    *,
    ftol: float = 1e-10,
    tail_eps: float = 1e-12,
    initial_panels: int = 8,
) -> GeneralizedIntensity:
    """Compile a continuous cumulative hazard into the piecewise-cubic class.

    The fit is carried to the point where survival drops to ``tail_eps`` and
    closed with a constant tail, so the compiled CDF differs from the exact
    one by at most ``max(ftol, tail_eps)`` everywhere.
    """
    survival = lambda x: math.exp(-float(cumhaz(x)))
    x_end = _tail_edge(survival, 1.0, tail_eps)
    segs: list[tuple[float, np.ndarray]] = []
    edges = np.linspace(0.0, x_end, initial_panels + 1)
    for i in range(initial_panels):
        _fit_cumhaz_region(cumhaz, edges[i], edges[i + 1], ftol, segs)

    phi_end = pvalue(segs[-1][1], x_end - segs[-1][0])
    fd = (float(cumhaz(x_end)) - float(cumhaz(x_end * (1 - 1 / 64)))) / (x_end / 64)
    c_tail = max(float(phi_end), fd, 1e-9)
    segs.append((x_end, np.array([c_tail, 0.0, 0.0, 0.0])))
    return from_segments(segs)


# ---------------------------------------------------------------------------
# Mixed CDFs
# ---------------------------------------------------------------------------


class MixedCdf:
    """Right-continuous CDF on [0, inf) with an explicit jump list.

    Subclasses implement ``cdf``; ``sf``/``cdf_left`` have generic fallbacks.
    ``ppf`` inverts ``F``: its result ``x`` satisfies ``F(x) >= u`` exactly, in
    floating point, and atoms receive exactly their mass.  It stands in for
    the generalized inverse ``inf{x : F(x) >= u}`` up to F's floating-point
    plateau: where F is flat to the last bit, a smaller double may also
    satisfy ``F >= u``.  The gap grows to about ``ulp(u) / f(x)``.
    """

    jumps: tuple[tuple[float, float], ...] = ()

    def cdf(self, x):
        raise NotImplementedError

    def sf(self, x):
        return 1.0 - self.cdf(x)

    def cdf_left(self, x):
        """Left limit F(x-0)."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.cdf(x), dtype=float).copy()
        for loc, mass in self.jumps:
            out = np.where(x == loc, out - mass, out)
        return out

    def total_mass(self) -> float:
        return 1.0

    def ppf(self, u):
        raise NotImplementedError

    def __call__(self, x):
        return self.cdf(x)


def _check_u(u):
    # ppf tolerates u == 0 (maps to the left end of the support) so that raw
    # generator output, which includes 0.0 with tiny probability, is safe.
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    return u


_PPF_CHUNK = 1 << 15  # draws per ppf pass: keeps the solver's temporaries in cache
_NEWTON_ITERS = 60  # safeguarded-Newton cap, the step count of a full bisection
_FINISH_STEPS = 64  # cap on the ulp walk that ends a quartic solve
_ULP = 2.0**-52


def _quartic(c1, c2, c3, c4, tau):
    """Row increment ``R(tau)`` by Horner: the one evaluation order that ``cdf``
    and the quartic solver share."""
    return (((c4 * tau + c3) * tau + c2) * tau + c1) * tau


def _newton_quartic(c1, c2, c3, c4, width, tp):
    """Smallest double ``tau`` in (0, width] whose Horner value ``R(tau)`` is >= ``tp``.

    ``R(tau) = c1 tau + c2 tau^2 + c3 tau^3 + c4 tau^4`` is a row's
    cumulative-hazard increment; its derivative is the row's hazard.
    Safeguarded Newton ("rtsafe", Press et al., Numerical Recipes 9.4) keeps
    a bracket ``[lo, hi]`` with ``R(lo) < tp`` and takes the midpoint when a
    step leaves it or the hazard is not positive.  Only unconverged draws
    iterate; a draw stops once its step or its bracket is down to an ulp.
    The answer is then walked ulp by ulp: up until ``R >= tp``, then down
    while the previous double still qualifies.  ``width`` is returned when
    no double below it qualifies: at a row end, ``R(width)`` can fall a
    rounding short of the target.
    """
    n = tp.size
    tau_end = np.empty(n)
    ids = np.arange(n)
    k1, k2, k3, k4, t = c1, c2, c3, c4, tp  # the unconverged draws' rows
    lo = np.zeros(n)
    hi = width.copy()
    # chord through the origin: exact on a linear row, left of the root on
    # a convex one
    tau = hi * (tp / np.maximum(_quartic(c1, c2, c3, c4, hi), tp))
    for _ in range(_NEWTON_ITERS):
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
        new = np.where(pos & (new > lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = (np.abs(new - tau) <= _ULP * new) | (hi - lo <= _ULP * hi)
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
    for _ in range(_FINISH_STEPS):
        if walk.size == 0:
            break
        up = np.minimum(np.nextafter(tau_end[walk], math.inf), width[walk])
        tau_end[walk] = up
        walk = walk[(up < width[walk])
                    & (_quartic(c1[walk], c2[walk], c3[walk], c4[walk], up) < tp[walk])]
    tau_end[walk] = width[walk]
    # ... and, from a qualifying start, down while the previous double
    # still qualifies
    walk = np.nonzero(qualified)[0]
    for _ in range(_FINISH_STEPS):
        if walk.size == 0:
            break
        down = np.nextafter(tau_end[walk], -math.inf)
        ok = _quartic(c1[walk], c2[walk], c3[walk], c4[walk], down) >= tp[walk]
        walk = walk[ok]
        tau_end[walk] = down[ok]
    return tau_end


class IntensityCdf(MixedCdf):
    """Mixed CDF backed by a :class:`GeneralizedIntensity`.

    Construction precomputes a row table: one row per maximal interval free
    of breakpoints and atoms, carrying the cumulative hazard at the row start
    (atoms included) and the exact quartic cumulative-hazard increment within
    the row.  Everything downstream -- evaluation, moments, vectorized
    inversion -- reads this table.
    """

    def __init__(self, intensity: GeneralizedIntensity):
        self.intensity = intensity
        phi = intensity
        full_loc = phi.full_atom_location

        events = {0.0}
        events.update(float(b) for b in phi.breaks)
        events.update(float(a) for a in phi.atom_locs)
        if full_loc is not None:
            events = {e for e in events if e < full_loc} | {full_loc}
        starts = np.array(sorted(events))
        if full_loc is not None:
            starts = starts[starts < full_loc]

        n_rows = starts.size
        row_lo = starts
        row_hi = np.empty(n_rows)
        if n_rows:
            row_hi[:-1] = starts[1:]
            row_hi[-1] = full_loc if full_loc is not None else math.inf

        atom_map = {float(a): float(d) for a, d in zip(phi.atom_locs, phi.atom_weights)}

        row_R = np.zeros((n_rows, 5))
        row_lam_lo = np.empty(n_rows)
        row_lam_hi = np.empty(n_rows)
        a_locs, a_deltas, a_lam_before = [], [], []

        integrals = [pinteg(c) for c in phi.coeffs]
        cur = 0.0
        for r in range(n_rows):
            lo = row_lo[r]
            if lo in atom_map and not math.isinf(atom_map[lo]):
                a_locs.append(lo)
                a_deltas.append(atom_map[lo])
                a_lam_before.append(cur)
                cur += atom_map[lo]
            seg = int(np.searchsorted(phi.breaks, lo, side="right") - 1)
            tau0 = lo - phi.breaks[seg]
            shifted = pshift(integrals[seg], tau0)
            shifted[0] = 0.0  # increment from the row start
            row_R[r] = shifted
            row_lam_lo[r] = cur
            width = row_hi[r] - lo
            if math.isinf(width):
                row_lam_hi[r] = math.inf if not is_zero_poly(phi.coeffs[-1]) else cur
            else:
                row_lam_hi[r] = cur + float(pvalue(shifted, width))
            cur = row_lam_hi[r]

        if full_loc is not None:
            a_locs.append(full_loc)
            a_deltas.append(math.inf)
            a_lam_before.append(cur)
            cur = math.inf

        self._row_lo = row_lo
        self._row_width = row_hi - row_lo
        self._row_lam_lo = row_lam_lo
        self._row_lam_hi = row_lam_hi
        self._row_R = row_R
        self._row_RT = np.ascontiguousarray(row_R.T)  # fast per-coefficient gathers
        # highest nonzero power of the increment polynomial, per row
        deg = np.zeros(n_rows, dtype=np.int64)
        for p in range(1, 5):
            deg[row_R[:, p] != 0.0] = p
        self._row_deg = deg
        self._full_loc = full_loc
        self._total_lam = cur
        self._atom_locs = np.asarray(a_locs)
        self._atom_deltas = np.asarray(a_deltas)
        self._atom_lam_before = np.asarray(a_lam_before)

        s_before = np.exp(-self._atom_lam_before)
        with np.errstate(invalid="ignore"):
            s_after = np.exp(-(self._atom_lam_before + self._atom_deltas))
        s_after = np.where(np.isinf(self._atom_deltas), 0.0, s_after)
        masses = s_before - s_after
        self.jumps = tuple(
            (float(a), float(m))
            for a, m in zip(self._atom_locs, masses)
            if m > 0.0
        )

    # -- evaluation -----------------------------------------------------------

    def _lam(self, x, left: bool) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        side = "left" if left else "right"
        idx = np.searchsorted(self._row_lo, x, side=side) - 1
        neg = idx < 0
        idx = np.clip(idx, 0, None)
        if self._row_lo.size:
            tau = np.minimum(x - self._row_lo[idx], self._row_width[idx])
            inf_x = np.isinf(x)
            tau = np.where(inf_x, 0.0, tau)
            c1, c2, c3, c4 = (self._row_RT[k][idx] for k in (1, 2, 3, 4))
            lam = self._row_lam_lo[idx] + _quartic(c1, c2, c3, c4, tau)
            if np.any(inf_x):
                lam[inf_x] = self._row_lam_hi[idx[inf_x]]
        else:
            lam = np.zeros_like(x)
        lam = np.where(neg, 0.0, lam)
        if self._full_loc is not None:
            beyond = x > self._full_loc if left else x >= self._full_loc
            lam = np.where(beyond, math.inf, lam)
        return lam[0] if scalar else lam

    def cdf(self, x):
        return -np.expm1(-self._lam(x, left=False))

    def sf(self, x):
        return np.exp(-self._lam(x, left=False))

    def cdf_left(self, x):
        return -np.expm1(-self._lam(x, left=True))

    def total_mass(self) -> float:
        return float(-math.expm1(-self._total_lam)) if math.isfinite(self._total_lam) else 1.0

    # -- generalized inverse ---------------------------------------------------

    def ppf(self, u):
        """Invert F elementwise; scalar in, float out, any array shape kept.

        With ``T = -log1p(-u)``, the row whose cumulative-hazard range holds
        ``T`` is found by search.  A draw that falls in an atom's jump gets the
        atom's location, so atoms receive exactly their mass.  Otherwise the
        row is solved for ``tau``, and ``x`` is the row start plus ``tau``.
        Linear and quadratic increments are solved in closed form; on a row
        of higher degree ``tau`` is the smallest double whose increment (by
        Horner) reaches ``T`` minus the row's starting hazard.  A final guard
        steps ``x`` up by ulps until ``F(x) >= u`` holds exactly.

        ``x`` need not be the smallest double with ``F(x) >= u``: the
        previous double also qualifies for about 9 % of uniform(0, 1) draws,
        23 % of Weibull(1.5) and 38 % of Exp(1) draws.  Near ``u -> 1`` the
        gap is about ``ulp(u) / f(x)``: for Exp(1), a median of about 100 ulps
        at ``u > 0.999`` and of tens of thousands at ``u > 1 - 1e-6``.  Draws
        are processed in chunks of ``_PPF_CHUNK``.
        """
        scalar = np.isscalar(u) or np.ndim(u) == 0
        u = _check_u(u)
        flat = u.ravel()
        x = np.empty(flat.size)
        # elementwise, so the chunk size cannot change a result
        for s in range(0, flat.size, _PPF_CHUNK):
            x[s : s + _PPF_CHUNK] = self._ppf_chunk(flat[s : s + _PPF_CHUNK])
        return float(x[0]) if scalar else x.reshape(u.shape)

    def _ppf_chunk(self, u):
        T = -np.log1p(-u)
        x = np.empty_like(T)

        idx = np.searchsorted(self._row_lam_hi, T, side="left")
        beyond = idx >= self._row_lo.size
        if np.any(beyond):
            if self._full_loc is not None:
                x[beyond] = self._full_loc
            else:
                x[beyond] = math.inf  # improper: mass at infinity
        inside = ~beyond
        ii = idx[inside]
        t_in = T[inside]
        lam_lo = self._row_lam_lo[ii]

        at_atom = t_in <= lam_lo
        xin = np.empty_like(t_in)
        xin[at_atom] = self._row_lo[ii[at_atom]]

        solve = ~at_atom
        if np.any(solve):
            rows = ii[solve]
            tprime = t_in[solve] - lam_lo[solve]
            xin[solve] = self._row_lo[rows] + self._solve_rows(rows, tprime)
        x[inside] = xin

        # enforce F(x) >= u exactly (guard against terminal rounding); after
        # the first full pass only the offending entries are re-checked
        sub = np.nonzero(np.isfinite(x) & (self.cdf(x) < u))[0]
        for _ in range(4):
            if sub.size == 0:
                break
            x[sub] = np.nextafter(x[sub], math.inf)
            sub = sub[np.asarray(self.cdf(x[sub]), dtype=float) < u[sub]]
        return x

    def _solve_rows(self, rows, tprime):
        """Solve R_row(tau) = tprime for tau within each row (vectorized)."""
        out = np.empty_like(tprime)
        deg = self._row_deg[rows]

        lin = deg <= 1
        if np.any(lin):
            c1 = self._row_R[rows[lin], 1]
            out[lin] = np.where(c1 > 0, tprime[lin] / np.where(c1 > 0, c1, 1.0), 0.0)

        quad = deg == 2
        if np.any(quad):
            c1 = self._row_R[rows[quad], 1]
            c2 = self._row_R[rows[quad], 2]
            tp = tprime[quad]
            disc = np.sqrt(np.maximum(c1 * c1 + 4.0 * c2 * tp, 0.0))
            out[quad] = 2.0 * tp / (c1 + disc)

        gen = deg > 2
        if np.any(gen):
            ridx = rows[gen]
            tp = tprime[gen]
            c1, c2, c3, c4 = (self._row_RT[k][ridx] for k in (1, 2, 3, 4))
            hi = self._row_width[ridx]
            unb = ~np.isfinite(hi)
            if np.any(unb):
                guess = np.maximum(1.0, tp[unb])
                for _ in range(200):
                    need = _quartic(c1[unb], c2[unb], c3[unb], c4[unb], guess) < tp[unb]
                    if not np.any(need):
                        break
                    guess = np.where(need, guess * 2.0, guess)
                hi[unb] = guess
            out[gen] = _newton_quartic(c1, c2, c3, c4, hi, tp)
        return out


class CallableCdf(MixedCdf):
    """Mixed CDF given by evaluation callables plus an explicit jump list.

    Used to wrap exact closed-form CDFs (tests, conversion inputs).  ``sf``
    may be supplied for precision deep in the tail; the default is ``1 - F``.
    """

    def __init__(
        self,
        cdf: Callable,
        jumps: Sequence[tuple[float, float]] = (),
        sf: Callable | None = None,
    ):
        self._cdf = cdf
        self._sf = sf
        self.jumps = tuple((float(a), float(p)) for a, p in jumps)
        locs = [a for a, _ in self.jumps]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise DistributionError("jump locations must be strictly increasing")

    def cdf(self, x):
        return np.asarray(self._cdf(np.asarray(x, dtype=float)), dtype=float)

    def sf(self, x):
        if self._sf is not None:
            return np.asarray(self._sf(np.asarray(x, dtype=float)), dtype=float)
        return 1.0 - self.cdf(x)

    def ppf(self, u):
        scalar = np.isscalar(u) or np.ndim(u) == 0
        u = np.atleast_1d(_check_u(u))
        out = np.array([self._ppf_scalar(float(v)) for v in u])
        return float(out[0]) if scalar else out

    def _ppf_scalar(self, u: float) -> float:
        for loc, mass in self.jumps:
            fl = float(self.cdf(loc))
            if fl - mass < u <= fl:
                return loc
        if float(self.cdf(0.0)) >= u:
            return 0.0
        hi = 1.0
        for _ in range(200):
            if float(self.cdf(hi)) >= u:
                break
            hi *= 2.0
        else:
            return math.inf
        lo = 0.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if float(self.cdf(mid)) >= u:
                hi = mid
            else:
                lo = mid
        return hi


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def cdf_from_intensity(phi: GeneralizedIntensity) -> IntensityCdf:
    """The mixed CDF ``F(x) = 1 - exp(-cumhaz(x))`` of a generalized intensity."""
    return IntensityCdf(phi)


def intensity_from_cdf(
    F: MixedCdf,
    *,
    ftol: float = 1e-9,
    tail_eps: float = 1e-12,
) -> GeneralizedIntensity:
    """Recover a generalized intensity from an evaluable mixed CDF.

    Atom weights come from survival ratios across each listed jump; the
    continuous part is fitted adaptively between jumps so that the round trip
    ``cdf_from_intensity(intensity_from_cdf(F))`` reproduces ``F`` to within
    ``max(ftol, 10 * tail_eps)`` everywhere.
    """
    if isinstance(F, IntensityCdf):
        return F.intensity

    jumps = [(a, p) for a, p in F.jumps if p > 0.0]
    for k in range(1, len(jumps)):
        if jumps[k][0] <= jumps[k - 1][0]:
            raise DistributionError("jump locations must be strictly increasing")

    def lam(x, right_jump: tuple[float, float] | None = None):
        # absolute cumulative hazard from survival; when fitting a region that
        # ends at a jump, the jump mass is added back at the right endpoint so
        # the region sees the left limit of the survival there
        s = np.clip(np.asarray(F.sf(x), dtype=float), 0.0, 1.0)
        if right_jump is not None:
            loc, mass = right_jump
            s = s + np.where(np.asarray(x, dtype=float) >= loc, mass, 0.0)
        return -np.log(np.maximum(s, 1e-300))

    atoms: list[tuple[float, float]] = []
    segs: list[tuple[float, np.ndarray]] = []
    terminal = None  # full-atom location, if any
    region_lo = 0.0

    for j, (a, p) in enumerate(jumps):
        s_after = float(F.sf(a))
        s_before = s_after + p
        if s_before <= 10.0 * tail_eps:
            if p > 10.0 * tail_eps:
                raise DistributionError(
                    f"further mass after F reaches 1 (jump at {a:g} with no survival left)"
                )
            continue  # numerically irrelevant jump deep in the tail
        if a > region_lo:
            region_lam = lambda x, _j=(a, p): lam(x, _j)
            for lo, hi in _panels(region_lo, a):
                _fit_cumhaz_region(region_lam, lo, hi, ftol, segs)
        if s_after <= 0.0:
            if j != len(jumps) - 1:
                raise DistributionError(
                    f"full atom at {a:g} followed by further jumps: hazard undefined"
                )
            atoms.append((a, ATOM_INF))
            terminal = a
        else:
            atoms.append((a, math.log(s_before / s_after)))
        region_lo = a

    if terminal is not None:
        if not segs:
            segs.append((0.0, np.zeros(4)))
        segs.append((terminal, np.zeros(4)))
        return from_segments(segs, atoms)

    x_end = _tail_edge(lambda x: float(F.sf(x)), max(1.0, 2.0 * region_lo), tail_eps)
    x_end = max(x_end, region_lo)
    if x_end > region_lo:
        for lo, hi in _panels(region_lo, x_end):
            _fit_cumhaz_region(lam, lo, hi, ftol, segs)
    if not segs:
        segs.append((0.0, np.zeros(4)))

    phi_end = pvalue(segs[-1][1], x_end - segs[-1][0])
    fd = (float(lam(x_end)) - float(lam(x_end * (1 - 1 / 64)))) / (x_end / 64)
    c_tail = max(float(phi_end), fd, 1e-9)
    while segs and x_end <= segs[-1][0]:
        x_end = float(np.nextafter(segs[-1][0], math.inf))
    segs.append((x_end, np.array([c_tail, 0.0, 0.0, 0.0])))
    return from_segments(segs, atoms)


def _panels(lo: float, hi: float, n: int = 4):
    edges = np.linspace(lo, hi, n + 1)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(n)]


# ---------------------------------------------------------------------------
# Intensity addition (hazard of a minimum)
# ---------------------------------------------------------------------------


def add_intensities(
    a: GeneralizedIntensity, b: GeneralizedIntensity
) -> GeneralizedIntensity:
    """Pointwise sum of two generalized intensities.

    For independent variables this is the intensity of their minimum: ac
    parts add, atom weights add at coinciding locations (survival ratios
    multiply).  A full atom truncates everything beyond it.
    """
    breaks = np.union1d(a.breaks, b.breaks)
    coeffs = np.zeros((breaks.size, 4))
    for i, s in enumerate(breaks):
        ia = int(np.searchsorted(a.breaks, s, side="right") - 1)
        ib = int(np.searchsorted(b.breaks, s, side="right") - 1)
        coeffs[i] = pshift(a.coeffs[ia], s - a.breaks[ia]) + pshift(
            b.coeffs[ib], s - b.breaks[ib]
        )

    merged: dict[float, float] = {}
    for phi in (a, b):
        for loc, d in zip(phi.atom_locs, phi.atom_weights):
            merged[float(loc)] = merged.get(float(loc), 0.0) + float(d)
    locs = sorted(merged)
    atoms: list[tuple[float, float]] = []
    for loc in locs:
        atoms.append((loc, merged[loc]))
        if math.isinf(merged[loc]):
            break  # nothing beyond a full atom matters for the minimum
    return from_segments(
        [(float(s), coeffs[i]) for i, s in enumerate(breaks)],
        atoms,
        require_proper=a.proper or b.proper,
    )


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    xs = a + half * (_GL_NODES + 1.0)
    return half * float(np.sum(_GL_WEIGHTS * f(xs)))


def _gl_adaptive(f, a, b, tol, depth=0):
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_panel(f, a, mid)
    right = _gl_panel(f, mid, b)
    if abs(whole - (left + right)) <= tol or depth >= 30:
        return left + right
    return _gl_adaptive(f, a, mid, 0.5 * tol, depth + 1) + _gl_adaptive(
        f, mid, b, 0.5 * tol, depth + 1
    )


def _poly_exp_int(x0: float, L: float, m: int, c: float) -> float:
    """integral_0^L (x0 + tau)^m exp(-c tau) dtau, closed form, stable for huge c."""
    if c == 0.0:
        if not math.isfinite(L):
            raise DivergentMomentError("flat survival tail: moment diverges")
        return ((x0 + L) ** (m + 1) - x0 ** (m + 1)) / (m + 1)
    total = 0.0
    for j in range(m + 1):
        frac = 1.0 if not math.isfinite(L) else float(gammainc(j + 1, c * L))
        total += math.comb(m, j) * x0 ** (m - j) * math.factorial(j) / c ** (j + 1) * frac
    return total


def _moment_intensity(F: IntensityCdf, k: int) -> float:
    total = 0.0
    n_rows = F._row_lo.size
    for r in range(n_rows):
        s0 = math.exp(-F._row_lam_lo[r])
        if s0 == 0.0:
            continue
        lo = F._row_lo[r]
        width = F._row_width[r]
        R = F._row_R[r]
        deg = F._row_deg[r]
        if deg <= 1:
            c = R[1]
            if not math.isfinite(width) and c <= 0.0:
                raise DivergentMomentError(
                    "improper distribution: survival does not reach zero"
                )
            total += k * s0 * _poly_exp_int(lo, width, k - 1, c)
        elif math.isfinite(width):
            f = lambda tau: k * (lo + tau) ** (k - 1) * s0 * np.exp(-prows(
                np.broadcast_to(R, (tau.size, 5)), tau))
            est = abs(_gl_panel(f, 0.0, width))
            total += _gl_adaptive(f, 0.0, width, 1e-12 + 1e-11 * est)
        else:
            # growing polynomial tail: integrate on doubling windows with a
            # certified constant-hazard remainder bound
            f = lambda tau: k * (lo + tau) ** (k - 1) * s0 * np.exp(-prows(
                np.broadcast_to(R, (tau.size, 5)), tau))
            x = 0.0
            win = max(1.0, lo)
            acc = 0.0
            hazard = pderiv(R)
            for _ in range(200):
                est = abs(_gl_panel(f, x, x + win))
                acc += _gl_adaptive(f, x, x + win, 1e-12 + 1e-11 * est)
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


def _moment_generic(F: MixedCdf, k: int) -> float:
    integrand = lambda x: k * x ** (k - 1) * np.clip(np.asarray(F.sf(x), float), 0.0, 1.0)
    pts = [0.0] + [a for a, _ in F.jumps]
    x0 = max(1.0, 2.0 * pts[-1])
    total = 0.0
    edges = sorted(set(pts + [x0]))
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            est = abs(_gl_panel(integrand, a, b))
            total += _gl_adaptive(integrand, a, b, 1e-12 + 1e-11 * est)
    # doubling tail windows; the integrand may still be growing toward its
    # peak at first, so divergence is signalled only after several
    # consecutive windows without contraction
    prev = math.inf
    stalled = 0
    x = x0
    for _ in range(64):
        piece = _gl_adaptive(integrand, x, 2.0 * x, 1e-13 * max(total, 1.0))
        total += piece
        if piece <= max(1e-13 * total, 1e-300):
            return total
        stalled = stalled + 1 if piece >= 0.9 * prev else 0
        if stalled >= 8:
            raise DivergentMomentError("tail remainder did not contract")
        prev = piece
        x *= 2.0
    raise DivergentMomentError("tail remainder did not contract")


def moment(F: MixedCdf, k: int) -> float:
    """k-th raw moment ``E X^k = integral k x^(k-1) (1 - F(x)) dx``.

    Constant-hazard stretches integrate in closed form (regularized
    incomplete gamma); polynomial-hazard stretches use 32-node
    Gauss-Legendre with interval halving.  Raises
    :class:`DivergentMomentError` when the tail does not contract.
    """
    if k < 1 or int(k) != k:
        raise ValueError("moment order k must be a positive integer")
    k = int(k)
    if isinstance(F, IntensityCdf):
        return _moment_intensity(F, k)
    return _moment_generic(F, k)


def sample(F: MixedCdf, u):
    """``F.ppf(u)`` for u in (0, 1): ``F(x) >= u`` exactly (see :class:`MixedCdf`).

    Monotone in ``u``; atoms receive exactly their probability mass.
    Accepts scalars or arrays.
    """
    if np.any(np.asarray(u) <= 0.0) or np.any(np.asarray(u) >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return F.ppf(u)
