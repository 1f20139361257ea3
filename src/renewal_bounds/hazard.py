"""Hazard calculus for mixed nonnegative distributions.

A *generalized intensity* is an absolutely continuous hazard (piecewise
polynomial, degree <= 3, last segment extending to infinity) plus a list of
atoms: locations where the cumulative hazard jumps by a weight ``delta``,
so the survival function drops by the factor ``exp(-delta)``.  A full atom
(``delta = inf``) pins all remaining mass at its location and makes
deterministic distributions exactly representable.

The module provides construction of named families compiled into that
representation, its one CDF class (``IntensityCdf``, made by
``cdf_from_intensity``), conversion from any mixed CDF -- an object with
``cdf`` and ``sf`` evaluators and a ``jumps`` list -- by
``intensity_from_cdf``, intensity addition (the hazard of a minimum of
independent variables is the sum of hazards), moments, and exact
generalized-inverse sampling.

Atom weight convention: ``delta = -log(S(a+0)/S(a-0))``, the survival-ratio
form, which makes ``F = 1 - exp(-cumhaz)`` an exact reconstruction identity
for any mixed distribution in the class.

A law given by its cumulative hazard (``uniform``, fractional ``weibull``,
``from_cumulative_hazard``, ``intensity_from_cdf``) is compiled by
``_fit_cumhaz``: each panel between jumps gets a quartic cumulative hazard,
and a panel whose fit fails is halved.  The fit runs one refinement level at
a time: a level evaluates the cumulative hazard of every pending panel in
one call on a flat array, fits and tests all panels with array operations
(their minima by closed-form cubic extrema, ``poly.pmin_rows``), and the
segments come out in the order of a depth-first halving, with the same bits.
``uniform`` and ``weibull`` cache their read-only results, so a law that a
scenario names twice is compiled once.

The module uses numpy only: the one special function it needs, the
regularized incomplete gamma of an integer shape, has a closed form
(``_gammainc_int``).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DistributionError, DivergentMomentError, IntensityError
from .poly import (
    is_zero_poly,
    pderiv,
    pinteg,
    pmin_rows,
    prows,
    pshift,
    pvalue,
)

__all__ = [
    "ATOM_INF",
    "GeneralizedIntensity",
    "IntensityCdf",
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
        # private read-only copies: a compiled law may be shared (see uniform)
        breaks = np.atleast_1d(np.array(self.breaks, dtype=float))
        coeffs = np.atleast_2d(np.array(self.coeffs, dtype=float))
        locs = np.atleast_1d(np.array(self.atom_locs, dtype=float))
        weights = np.atleast_1d(np.array(self.atom_weights, dtype=float))
        for name, arr in (("breaks", breaks), ("coeffs", coeffs),
                          ("atom_locs", locs), ("atom_weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

        if breaks.ndim != 1 or breaks.size == 0 or breaks[0] != 0.0:
            raise IntensityError("segment breakpoints must start at 0")
        if not np.all(np.isfinite(breaks)):
            raise IntensityError("segment breakpoints must be finite")
        if np.any(np.diff(breaks) <= 0):
            raise IntensityError("segment breakpoints must be strictly increasing")
        if coeffs.shape != (breaks.size, 4):
            raise IntensityError(
                f"expected coefficient array of shape ({breaks.size}, 4), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise IntensityError("hazard coefficients must be finite")

        # every segment over its width, and the tail's slope over [0, inf)
        rows = np.vstack((coeffs, np.append(pderiv(coeffs[-1]), 0.0)))
        widths = np.append(np.diff(breaks), [math.inf, math.inf])
        low, where = pmin_rows(rows, 0.0, widths)
        bad = np.nonzero(low[:-1] < -_NONNEG_SLACK)[0]
        if bad.size:
            i = bad[0]
            raise IntensityError(
                f"hazard negative ({low[i]:.3e}) at s = {breaks[i] + where[i]:.6g}"
            )
        # a constant tail inside the slack would still make F decrease
        if low[-1] < -_NONNEG_SLACK or (coeffs[-1, 0] < 0.0 and not coeffs[-1, 1:].any()):
            raise IntensityError("last segment must be nonnegative and constant or growing")

        if locs.shape != weights.shape or locs.ndim != 1:
            raise IntensityError("atom locations/weights must be matching 1-D lists")
        if locs.size:
            if not np.all(np.isfinite(locs)):
                raise IntensityError("atom locations must be finite")
            if np.any(locs < 0):
                raise IntensityError("atom locations must be nonnegative")
            if np.any(np.diff(locs) <= 0):
                raise IntensityError("atom locations must be strictly increasing")
            if not np.all(weights > 0):  # NaN too
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

    def hazard(self, s):
        """Absolutely continuous hazard value(s) at ``s`` (right-continuous)."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        idx = np.clip(np.searchsorted(self.breaks, s, side="right") - 1, 0, None)
        out = prows(self.coeffs[idx], s - self.breaks[idx])
        out = np.where(s < 0, 0.0, out)
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
    return from_segments([(0.0, [0.0])], atoms=[(c, ATOM_INF)])


@functools.lru_cache(maxsize=64)
def weibull(shape: float, scale: float = 1.0) -> GeneralizedIntensity:
    """Weibull hazard ``(shape/scale) * (s/scale)**(shape-1)``.

    Integer shapes 1..4 are exact polynomials; fractional shapes in [1, 4]
    are compiled adaptively.  Shapes below 1 have a hazard unbounded at the
    origin and are not representable in the polynomial class.  Laws are
    read-only and cached by parameters, so a scenario that names the same
    law twice compiles it once.
    """
    if not 0 < scale < math.inf:  # NaN fails too
        raise IntensityError("weibull scale must be positive and finite")
    if not 1 <= shape <= 4:
        raise IntensityError("weibull shape must lie in [1, 4]")
    if float(shape).is_integer():
        k = int(shape)
        c = np.zeros(4)
        c[k - 1] = k / scale**k
        return from_segments([(0.0, c)])
    return from_cumulative_hazard(lambda x: (np.asarray(x) / scale) ** shape)


@functools.lru_cache(maxsize=64)
def uniform(a: float, b: float) -> GeneralizedIntensity:
    """Uniform(a, b) compiled into the polynomial hazard class.

    The hazard ``1/(b - s)`` is fitted adaptively up to survival 1e-12 and
    closed with a huge constant tail, so CDF, moments and samples agree with
    the exact uniform to well below 1e-8.  Laws are read-only and cached by
    parameters, so a scenario that names the same law twice compiles it
    once.
    """
    if not 0 <= a < b < math.inf:  # NaN fails too
        raise IntensityError("uniform requires 0 <= a < b < inf")
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
_FIT_POWER = np.array([1.0, 2.0, 3.0, 4.0])  # phi_c[k] = (k + 1) d[k] / h^(k+1)
_ERR_NODES = np.array([0.0625, 0.125, 0.375, 0.625, 0.875, 0.9375])
_FIT_MAX_DEPTH = 52  # halvings of a panel before a constant-hazard fallback
_TAIL_EPS = 1e-12  # survival at which a fit ends and the constant tail starts
_HAZARD_FTOL, _HAZARD_PANELS = 1e-10, 8  # from_cumulative_hazard's survival error, panels
_CDF_FTOL, _CDF_PANELS = 1e-9, 4  # intensity_from_cdf's survival error, panels per region


def _fit_cumhaz(lam, edges, ftol):
    """Hazard segments ``(start, coefficients)`` approximating ``lam`` on the
    panels between consecutive ``edges``.

    ``lam`` is the absolute cumulative hazard (atoms before the panels
    included), so the survival error check is performed on the actual scale.
    Each panel gets the quartic cumulative hazard through the origin that
    interpolates ``lam`` at its fit nodes; the fit is kept where its hazard
    is nonnegative (up to ``_NONNEG_SLACK``, shaved off) and its survival is
    within ``ftol`` at the error nodes, and the panel is halved otherwise,
    down to ``_FIT_MAX_DEPTH`` halvings and a constant-hazard fallback.
    Knot values interpolate exactly, hence errors do not accumulate across
    segments.  A non-finite ``lam`` at a fit node raises
    :class:`DistributionError`.

    One pass handles one refinement level: ``lam`` is called once on the
    flat array of every pending panel's fit nodes and once on the error
    nodes of those that pass, and the minima come from one
    ``pmin_rows`` call.  A panel's ``lam(lo)`` (a left half reuses its
    parent's), its powers ``h**k`` and its ``_FIT_SOLVE @ y`` stay per
    panel: numpy's array ``power`` and batched matrix products round
    differently from the scalar forms in the last bit.
    The segments come out sorted by their start: leaf panels are disjoint,
    so that is the depth-first order of halving each panel in turn.
    """
    lo, hi = edges[:-1], edges[1:]
    lam_lo = np.array([float(lam(a)) for a in lo.tolist()])
    segs = []
    for depth in range(_FIT_MAX_DEPTH + 1):
        n = lo.size
        h = hi - lo
        ys = np.asarray(lam((lo[:, None] + h[:, None] * _FIT_NODES).ravel()), dtype=float)
        ys = ys.reshape(n, 4) - lam_lo[:, None]
        if not np.all(np.isfinite(ys)):  # else every panel would halve to the last level
            raise DistributionError("cumulative hazard is not finite")
        ys = np.maximum.accumulate(np.maximum(ys, 0.0), axis=1)  # clip eval noise
        flat = ys[:, -1] == 0.0
        d = np.zeros((n, 4))
        powers = np.ones((n, 4))
        for i in np.nonzero(~flat)[0].tolist():
            hh = float(h[i])
            d[i] = _FIT_SOLVE @ ys[i]  # q(z) = sum d[k] z^(k+1)
            powers[i] = hh, hh**2, hh**3, hh**4
        phi_c = d * _FIT_POWER / powers
        low, _ = pmin_rows(phi_c, 0.0, h)
        ok = ~flat & (low >= -_NONNEG_SLACK * np.maximum(1.0, np.max(np.abs(phi_c), axis=1)))
        test = np.nonzero(ok)[0]
        if test.size:
            th = h[test, None] * _ERR_NODES
            s_true = np.exp(-np.asarray(lam((lo[test, None] + th).ravel()), dtype=float))
            integ = np.zeros((test.size, 5))  # pinteg(phi_c)
            integ[:, 1:] = phi_c[test] / _FIT_POWER
            q = prows(integ, th)
            s_fit = np.exp(-(lam_lo[test, None] + q))
            ok[test] = np.max(np.abs(s_fit - s_true.reshape(q.shape)), axis=1) <= ftol
        shave = ok & (low < 0.0)  # sub-slack undershoot, so the constructor accepts
        phi_c[shave, 0] -= low[shave]
        done = flat | ok
        if depth == _FIT_MAX_DEPTH:  # constant-hazard fallback
            rest = ~done
            phi_c[rest] = 0.0
            phi_c[rest, 0] = ys[rest, -1] / h[rest]
            done[:] = True
        segs += zip(lo[done].tolist(), phi_c[done])
        split = np.nonzero(~done)[0]
        if split.size == 0:
            break
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate((lo[split], mid))
        hi = np.concatenate((mid, hi[split]))
        lam_lo = np.concatenate((lam_lo[split], [float(lam(m)) for m in mid.tolist()]))
    return sorted(segs, key=lambda seg: seg[0])


def _tail_edge(survival, start):
    """Largest x with S(x) > _TAIL_EPS, found by doubling plus bisection.

    A NaN survival raises :class:`DistributionError`: read as one below
    ``_TAIL_EPS``, it would end the fit, and the law, where it appears.
    """
    def above(x):
        s = survival(x)
        if math.isnan(s):
            raise DistributionError(
                f"cumulative hazard is not finite: survival is NaN at x = {x:g}"
            )
        return s > _TAIL_EPS

    hi = max(start, 1.0)
    tries = 0
    while above(hi):
        hi *= 2.0
        tries += 1
        if tries > 200:
            raise DistributionError(
                "survival does not decay; cumulative hazard appears bounded"
            )
    lo = 0.0 if tries == 0 else hi / 2.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else hi * 0.5


def _compile(lam, survival, jumps, *, ftol, panels) -> GeneralizedIntensity:
    """Fit a cumulative hazard between its jumps, then close it with a constant tail.

    ``lam(x)`` is the absolute cumulative hazard and ``survival(x)`` the
    survival ``exp(-lam(x))``.  Each region between jumps, and the stretch
    from the last jump to where survival drops to ``_TAIL_EPS``, is fitted in
    ``panels`` equal panels; a region that ends at a jump ``(loc, mass)`` is
    fitted against ``lam(x, (loc, mass))``, which adds the mass back at
    ``loc`` so the region sees the survival's left limit there.  Jump weights
    come from survival ratios.  With no jumps, ``lam`` is called with ``x``
    alone.
    """
    atoms: list[tuple[float, float]] = []
    segs: list[tuple[float, np.ndarray]] = []
    region_lo = 0.0

    for j, (a, p) in enumerate(jumps):
        s_after = survival(a)
        s_before = s_after + p
        if s_before <= 10.0 * _TAIL_EPS:
            if p > 10.0 * _TAIL_EPS:
                raise DistributionError(
                    f"further mass after F reaches 1 (jump at {a:g} with no survival left)"
                )
            continue  # numerically irrelevant jump deep in the tail
        if a > region_lo:
            region_lam = lambda x, _j=(a, p): lam(x, _j)
            segs += _fit_cumhaz(region_lam, np.linspace(region_lo, a, panels + 1), ftol)
        if s_after <= 0.0:
            if j != len(jumps) - 1:
                raise DistributionError(
                    f"full atom at {a:g} followed by further jumps: hazard undefined"
                )
            atoms.append((a, ATOM_INF))
            if not segs:
                segs.append((0.0, np.zeros(4)))
            segs.append((a, np.zeros(4)))
            return from_segments(segs, atoms)
        atoms.append((a, math.log(s_before / s_after)))
        region_lo = a

    x_end = max(_tail_edge(survival, max(1.0, 2.0 * region_lo)), region_lo)
    if x_end > region_lo:
        segs += _fit_cumhaz(lam, np.linspace(region_lo, x_end, panels + 1), ftol)
    if not segs:
        segs.append((0.0, np.zeros(4)))

    phi_end = pvalue(segs[-1][1], x_end - segs[-1][0])
    fd = (float(lam(x_end)) - float(lam(x_end * (1 - 1 / 64)))) / (x_end / 64)
    c_tail = max(float(phi_end), fd, 1e-9)
    while x_end <= segs[-1][0]:
        x_end = float(np.nextafter(segs[-1][0], math.inf))
    segs.append((x_end, np.array([c_tail, 0.0, 0.0, 0.0])))
    return from_segments(segs, atoms)


def from_cumulative_hazard(cumhaz: Callable) -> GeneralizedIntensity:
    """Compile a continuous cumulative hazard into the piecewise-cubic class.

    The fit is carried to the point where survival drops to 1e-12 and
    closed with a constant tail, so the compiled CDF differs from the exact
    one by at most 1e-10 everywhere.
    """
    survival = lambda x: math.exp(-float(cumhaz(x)))
    return _compile(cumhaz, survival, (), ftol=_HAZARD_FTOL, panels=_HAZARD_PANELS)


# ---------------------------------------------------------------------------
# Mixed CDFs
# ---------------------------------------------------------------------------


def _check_u(u):
    # ppf tolerates u == 0 (maps to the left end of the support) so that raw
    # generator output, which includes 0.0 with tiny probability, is safe.
    # min and max make no array of u's size; NaN fails both tests
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("u must lie in [0, 1)")
    return u


# draws per ppf chunk, the unit ppf's scratch is sized by: a half of one of
# ``simulate``'s strips (``simulate._STRIP`` draws) is mapped in two chunks,
# and uniform(0, 1)'s workspace peaks at 2.52 MiB (5.04 MiB at 2**15 draws)
_PPF_CHUNK = 1 << 14
_NEWTON_ITERS = 60  # safeguarded-Newton cap, the step count of a full bisection
_FINISH_STEPS = 64  # cap on the ulp walk that ends a quartic solve
_ULP = 2.0**-52
# a Newton step of at most this times tau leaves the next iterate within
# about (R'' tau / 2 R') ulps of the root, by quadratic convergence: the
# quartic solve stops there and walks the rest
_NEWTON_STOP = math.sqrt(_ULP)
_GUIDE_BUCKETS = 1024  # equal-probability buckets of u in a row search's guide table


class _Scratch(threading.local):
    """The scratch memory of ``ppf``: one byte buffer used as a stack, kept
    across chunks, calls and laws until ``release`` frees it.  A strip of
    ``simulate`` takes its ladder arrays from it before ``ppf`` maps the
    strip, and ``simulate.estimate`` releases it when it ends, so a run does
    not keep a slab's workspace once its replications are drawn.  Each thread has its
    own, so ``ppf`` may run in several threads at once, as it could before
    it had one.

    ``with _SCRATCH as take:`` opens a frame, and ``take(n, dtype)`` hands
    out the next ``n`` elements of the buffer; leaving the frame gives back
    everything taken in it.  A frame opened inside another takes from above
    it, so a nested ``_ppf_chunk`` (the placed-draw path solves its other
    draws that way) never writes over its caller's arrays.  A function
    returns nothing taken in its own frame: results go into arrays its
    caller passes.  A take past the end of the buffer gets a new array, and
    when the outermost frame closes, the buffer grows to an eighth more than
    the most that was taken at once.  ``_ppf_into`` opens that frame around
    its chunks, so the buffer grows when no chunk holds a temporary any
    more.  After its first call of the largest chunk, ``ppf`` makes no array
    of a chunk's size but its output and the index lists of the draws that
    move on, and the buffer holds its temporaries packed end to end.
    """

    def __init__(self):
        self._buf = np.empty(0, dtype=np.uint8)
        self._views: dict = {}  # the buffer as each dtype taken, with its item size
        self._marks: list[int] = []  # the top of the stack when each open frame began
        self._top = 0  # bytes taken
        self._need = 0  # the most bytes taken at once

    def __enter__(self):
        self._marks.append(self._top)
        return self.take

    def __exit__(self, *exc) -> None:
        self._top = self._marks.pop()
        if not self._marks and self._need > self._buf.size:
            self._views = {}
            self._buf = np.empty(0, dtype=np.uint8)  # freed before its successor is made
            # an eighth more, in whole cache lines: what Newton gathers varies
            # a little from chunk to chunk
            self._buf = np.empty((self._need + self._need // 8) // 64 * 64, dtype=np.uint8)

    def release(self) -> None:
        """Free the buffer, and forget the most taken at once, so the next
        outermost frame grows it from nothing.  Inside an open frame, whose
        arrays may be views of the buffer, this does nothing."""
        if not self._marks:
            self._views = {}
            self._buf = np.empty(0, dtype=np.uint8)
            self._need = 0

    def take(self, n: int, dtype=np.float64) -> np.ndarray:
        view = self._views.get(dtype)
        if view is None:
            view = self._views[dtype] = self._buf.view(dtype), np.dtype(dtype).itemsize
        buf, size = view
        start = self._top
        self._top = end = start + -(-n * size // 64) * 64  # whole cache lines
        if end > self._need:
            self._need = end
        if end > self._buf.size:
            return np.empty(n, dtype=dtype)
        start //= size
        return buf[start : start + n]


_SCRATCH = _Scratch()


def _gather(table, idx, out):
    """``table[idx]`` into ``out``.  ``mode="clip"`` (the indices are in
    range): under the default ``"raise"``, numpy fills a copy of ``out``
    first."""
    return table.take(idx, out=out, mode="clip")


def _quartic(c1, c2, c3, c4, tau, out=None):
    """Row increment ``R(tau)`` by Horner, ``(((c4 tau + c3) tau + c2) tau +
    c1) tau``: the one evaluation order that ``cdf`` and the quartic solver
    share.  ``out`` receives it, in place of a new array."""
    r = np.multiply(c4, tau, out=out)
    r += c3
    r *= tau
    r += c2
    r *= tau
    r += c1
    r *= tau
    return r


def _row_lam(lam_lo, c1, c2, c3, c4, tau, out=None):
    """Cumulative hazard ``lam_lo + R(tau)`` at offset ``tau`` into a row:
    the one formula that ``cdf`` and the ``ppf`` guard share.

    ``c2`` is ``None`` for rows of degree <= 1, and this is then ``lam_lo +
    c1 * tau``: for finite ``tau``, Horner's ``((0 tau + 0) tau + 0) tau +
    c1`` is exactly ``c1``, so the bits are Horner's.
    """
    if c2 is None:
        r = np.multiply(c1, tau, out=out)
    else:
        r = _quartic(c1, c2, c3, c4, tau, out)
    r += lam_lo
    return r


def _secant_q(c2, c3, c4, w):
    """``(R(w) - c1 w) / w^2 = c2 + c3 w + c4 w^2``, by Horner: the
    coefficient of the quadratic ``c1 tau + q tau^2`` that has the row's
    slope at 0 and meets ``R`` at ``w``, the quartic solve's start."""
    return (c4 * w + c3) * w + c2


def _quadratic_root(c1, q, tp, d, out):
    """The root ``tau >= 0`` of ``c1 tau + q tau^2 = tp`` by the stable formula
    ``2 tp / (c1 + sqrt(max(c1 c1 + 4 q tp, 0)))``, operation by operation,
    into ``out``; ``d`` is scratch of ``out``'s size, and ``q`` is read
    before ``out`` is written."""
    np.multiply(c1, c1, out=d)
    e = np.multiply(4.0, q, out=out)
    e *= tp
    d += e
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    d += c1
    np.multiply(2.0, tp, out=out)
    out /= d
    return out


def _ulps(x, k):
    """``x`` moved ``k`` ulps, for doubles ``x >= 0`` and ``x + k`` ulps
    ``>= 0``: their bits order as their values.  ``np.nextafter`` gives the
    same doubles, in about fifteen times the time."""
    return (x.view(np.int64) + k).view(np.float64)


def _newton_quartic(c1, c2, c3, c4, q, width, tp, out):
    """A double ``tau`` in (0, width] where the Horner value ``R(tau)`` reaches
    ``tp``, for each draw, written to ``out``.

    ``R(tau) = c1 tau + c2 tau^2 + c3 tau^3 + c4 tau^4`` is a row's
    cumulative-hazard increment; its derivative is the row's hazard.
    Safeguarded Newton ("rtsafe", Press et al., Numerical Recipes 9.4) keeps
    a bracket ``[lo, hi]`` with ``R(lo) < tp`` and takes the midpoint when a
    step leaves it or the hazard is not positive.  It starts from the root
    of ``c1 tau + q tau^2``, at most ``width``: the quadratic with the row's
    slope at 0 that meets ``R`` at ``width`` (``q`` per draw, ``_secant_q``;
    it may be ``out``, which is written only after the start is computed).

    A draw stops after a Newton step, one inside the bracket with ``R' >
    0``, of ``|d| <= _NEWTON_STOP tau = 2^-26 tau``, ``tau`` the iterate it
    reaches.  Newton converges quadratically, so that iterate lies within
    about ``(R'' / 2 R') d^2 <= (R'' tau / 2 R') 2^-52 tau`` of the root:
    a few ulps, which the finish walks.  One more pass would only confirm a
    step of about an ulp.  A midpoint step stops once it or the bracket is
    down to an ulp.  From the quadratic start nearly every draw stops on its
    second pass: 2.00 passes per draw on uniform(0, 1), where the chord
    start and a stop on an ulp step took 4.04.

    The steps run in ``_SCRATCH`` arrays reused from step to step.  Stopped
    draws ride along, their steps unused, until at most half of the arrays'
    draws go on; those are then gathered into one of two sets of arrays,
    used in turn, so a gather never reads the array it writes.  Each set is
    at most half the size of the arrays before it, so the sets take at
    most 6 doubles per draw; gathering at every step where a draw stops
    takes up to 16, as most draws go on after the first stops.  The masked
    divide, the midpoint and the midpoint's stop tests are computed only in
    a step where some draw needs them.

    The finish evaluates ``R`` at Newton's end point and at the double
    before it, once for the whole array.  Where the end point qualifies
    (``R >= tp``) and its predecessor does not, that is the answer; the
    other draws walk ulp by ulp: up until ``R >= tp``, or down while the
    previous double still qualifies.  So the result qualifies, the double
    before it does not, and it is the first such double on that walk from
    Newton's end point.  It need not be the smallest qualifying double: the
    Horner value is not monotone at the ulp scale, so a lower double, past
    one that fails, can qualify again.  ``width`` is returned when no double
    below it qualifies: at a row end, ``R(width)`` can fall a rounding
    short of the target.  A walk takes at most ``_FINISH_STEPS`` ulps, and
    a walk up that finds no qualifying double in them also returns
    ``width``; the stop above leaves walks of a few ulps.
    """
    n = tp.size
    with _SCRATCH as take:
        ids = None  # the positions of the draws in the arrays, once gathered
        k1, k2, k3, k4, t = c1, c2, c3, c4, tp  # the arrays' rows
        lo = take(n)
        lo.fill(0.0)
        hi = take(n)
        np.copyto(hi, width)
        bufs = take(7 * n).reshape(7, n)
        res = bufs[6]  # each draw's answer, in the arrays' order, once it stops
        flags = take(4 * n, bool).reshape(4, n)
        flags[3].fill(True)  # live: the draws in the arrays that go on
        sets = [None, None]  # the arrays the unconverged draws are gathered into
        # the root of the row's quadratic c1 tau + q tau^2, at most hi
        tau = _quadratic_root(c1, q, tp, bufs[0], bufs[5])
        np.fmin(tau, hi, out=tau)
        for it in range(_NEWTON_ITERS):
            m = tau.size
            p, dp, f, a = bufs[:4, :m]
            new = bufs[4 + it % 2, :m]  # never the buffer that holds tau
            ge, done, tmp, live = flags[:, :m]
            # R and R' by one Horner pass
            np.multiply(k4, tau, out=a)
            np.add(a, k3, out=p)
            np.add(a, p, out=dp)
            p *= tau
            p += k2
            dp *= tau
            dp += p
            p *= tau
            p += k1
            np.multiply(p, tau, out=f)
            f -= t
            dp *= tau
            dp += p  # R'
            np.greater_equal(f, 0.0, out=ge)
            np.copyto(hi, tau, where=ge)
            np.logical_not(ge, out=ge)
            np.copyto(lo, tau, where=ge)
            pos = np.greater(dp, 0.0, out=done)
            if pos.all():
                np.divide(f, dp, out=f)
            else:
                np.divide(f, np.where(pos, dp, 1.0), out=f)
            np.subtract(tau, f, out=new)
            inside = np.greater(new, lo, out=ge)
            inside &= np.less_equal(new, hi, out=tmp)
            inside &= pos
            newton = inside.all()
            if not newton:
                mid = np.add(lo, hi, out=f)
                mid *= 0.5
                np.copyto(new, mid, where=np.logical_not(inside, out=tmp))
            np.subtract(new, tau, out=a)
            np.abs(a, out=a)
            np.multiply(new, _NEWTON_STOP, out=f)
            np.less_equal(a, f, out=done)  # a short step: the next iterate is ulps off
            if not newton:
                # a midpoint stops on a step or a bracket of an ulp; on a
                # Newton step, either implies the short-step test
                done &= inside
                np.multiply(new, _ULP, out=f)
                done |= np.less_equal(a, f, out=tmp)
                np.subtract(hi, lo, out=a)
                np.multiply(hi, _ULP, out=f)
                done |= np.less_equal(a, f, out=tmp)
            tau = new
            done &= live  # the draws that stop now
            if not done.any():
                continue
            np.copyto(res[:m], tau, where=done)
            live ^= done
            left = np.count_nonzero(live)
            if left == 0:
                break
            if 2 * left > m:
                continue  # most draws go on: the stopped ones ride along
            # every draw's answer so far, final for those that stopped
            if ids is None:
                out[:] = res
            else:
                out[ids] = res[:m]
            # index gathers: a boolean index branches on every element
            keep = np.flatnonzero(live)
            ids = keep if ids is None else ids[keep]
            if sets[0] is None:  # the counts only fall: the first size fits
                sets[0] = take(8 * left).reshape(8, left)
            dst = sets[0][:, :left]
            tau, lo, hi, t, k1, k2, k3, k4 = (
                _gather(v, keep, d) for v, d in zip((tau, lo, hi, t, k1, k2, k3, k4), dst)
            )
            flags[3, :left].fill(True)
            sets.reverse()  # the next gather goes into the other set
        # the last step of the draws that did not stop
        m = tau.size
        np.copyto(res[:m], tau, where=flags[3, :m])
        if ids is None:
            out[:] = res
        else:
            out[ids] = res[:m]

        # a qualifying tau is > 0 (R(0) = 0 < tp), so its bits less one are the
        # double below it; elsewhere ``below`` is not used
        below = bufs[0]
        np.subtract(out.view(np.int64), 1, out=below.view(np.int64))
        qualified, prev_ok, tmp = flags[:3]
        np.greater_equal(_quartic(c1, c2, c3, c4, out, bufs[1]), tp, out=qualified)
        np.greater_equal(_quartic(c1, c2, c3, c4, below, bufs[1]), tp, out=prev_ok)
        # walk up to the first qualifying double, the row end at the latest ...
        walk = np.flatnonzero(np.logical_not(qualified, out=tmp))
        for _ in range(_FINISH_STEPS):
            if walk.size == 0:
                break
            w = width[walk]
            up = np.minimum(_ulps(out[walk], 1), w)
            out[walk] = up
            walk = walk[(up < w)
                        & (_quartic(c1[walk], c2[walk], c3[walk], c4[walk], up) < tp[walk])]
        out[walk] = width[walk]
        # ... and, from a qualifying start, down while the previous double
        # still qualifies: the first step is the one evaluated above
        walk = np.flatnonzero(np.logical_and(qualified, prev_ok, out=tmp))
        out[walk] = below[walk]
        for _ in range(_FINISH_STEPS - 1):
            if walk.size == 0:
                break
            down = _ulps(out[walk], -1)
            ok = _quartic(c1[walk], c2[walk], c3[walk], c4[walk], down) >= tp[walk]
            walk = walk[ok]
            out[walk] = down[ok]
    return out


class _Rows(NamedTuple):
    """The row operands of a chunk's draws, gathered once for the solve and
    the guard: per draw, or one row's scalars for every draw."""

    idx: np.ndarray | int  # the row
    lo: np.ndarray | float  # its start
    width: np.ndarray | float
    lam_lo: np.ndarray | float  # the cumulative hazard at its start
    c1: np.ndarray | float  # the coefficients of its increment R
    c2: np.ndarray | None  # c2 to c4 are None when every row has degree <= 1
    c3: np.ndarray | None
    c4: np.ndarray | None
    cls: np.ndarray | int  # the degree class (<= 1, 2, higher) all share, else each one's

    def at(self, i, take) -> _Rows:
        """The operands of draws ``i``, gathered into arrays from ``take``."""
        return _Rows(*(
            v if v is None or np.ndim(v) == 0 else _gather(v, i, take(i.size, v.dtype))
            for v in self
        ))


class IntensityCdf:
    """Right-continuous mixed CDF on [0, inf) backed by a
    :class:`GeneralizedIntensity`, with its atoms listed in ``jumps`` as
    ``(location, mass)`` pairs.

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
        self._row_hi = row_hi
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
        self._row_cls = np.clip(deg - 1, 0, 2).astype(np.int8)  # _solve_rows' degree class
        # the quartic solve's start, per row; an unbounded row's comes from
        # the bracket its solve finds
        self._row_q = _secant_q(row_R[:, 2], row_R[:, 3], row_R[:, 4],
                                np.where(np.isfinite(self._row_width), self._row_width, 0.0))
        self._full_loc = full_loc
        self._total_lam = cur
        self._atom_locs = np.asarray(a_locs)
        self._atom_deltas = np.asarray(a_deltas)
        self._atom_lam_before = np.asarray(a_lam_before)
        if full_loc is not None or n_rows > 1:  # else ppf needs no row search
            self._guide_row, self._guide_lo, self._guide_hi = self._guide()

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

    def _cdf_on_rows(self, x, rows: _Rows, out) -> np.ndarray:
        """``cdf(x)`` into ``out``, for finite ``x`` known to lie at or after
        the start of each draw's row, on the operands ``rows`` gathered for
        the solve: no search for the row, and no second gather.

        Row starts are strictly increasing, so on ``[row_lo, next row
        start)`` the search in ``cdf`` lands on that row and this is the same
        formula on the same operands: equal bit for bit.  An ``x`` that
        reached the next row's start (or the full atom) gets ``cdf(x)``.
        """
        n = x.size
        with _SCRATCH as take:
            tau = np.subtract(x, rows.lo, out=take(n))
            np.minimum(tau, rows.width, out=tau)
            F = _row_lam(rows.lam_lo, rows.c1, rows.c2, rows.c3, rows.c4, tau, out)
            np.negative(F, out=F)
            np.expm1(F, out=F)
            np.negative(F, out=F)
            if np.ndim(rows.idx) == 0:
                hi = self._row_hi[rows.idx]
            else:
                hi = _gather(self._row_hi, rows.idx, take(n))
            past = np.greater_equal(x, hi, out=take(n, bool))
            if past.any():
                F[past] = self.cdf(x[past])
        return F

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
            RT = self._row_RT
            c1, c2, c3, c4 = (RT[k][idx] for k in (1, 2, 3, 4))
            lam = _row_lam(self._row_lam_lo[idx], c1, c2, c3, c4, tau)
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
        return float(-np.expm1(-self._total_lam))  # as ``cdf`` computes it

    # -- generalized inverse ---------------------------------------------------

    def ppf(self, u):
        """Invert F elementwise; scalar in, float out, any array shape kept.
        A ``u`` outside [0, 1), NaN included, raises ``ValueError``.

        The result ``x`` satisfies ``F(x) >= u`` exactly, in floating point,
        and atoms receive exactly their mass.  It stands in for the
        generalized inverse ``inf{x : F(x) >= u}`` up to F's floating-point
        plateau: where F is flat to the last bit, a smaller double may also
        satisfy ``F >= u``.  The gap grows to about ``ulp(u) / f(x)``.

        With ``T = -log1p(-u)``, capped at the total hazard, the row whose
        cumulative-hazard range holds ``T`` is found by a guide table
        (``_search``): ``u``'s bucket among ``_GUIDE_BUCKETS``
        equal-probability buckets names a row, two comparisons confirm it,
        and only the draws they reject go to a binary search.  Some draws
        are placed: one above the total mass of an improper F gets ``+inf``
        (no ``x`` reaches it, even where ``T`` rounds down into the last
        row's range), one past the last row gets the full atom's location,
        and one in an atom's jump gets the atom's location, so atoms receive
        exactly their mass.  Every other draw is solved for ``tau`` on
        whole arrays, split by masks only where a chunk mixes rows of
        degree <= 1, 2 and higher, and ``x`` is the row start plus ``tau``.
        Each draw's row operands (start, width, starting hazard and the
        increment's coefficients) are gathered once (``_operands``); a chunk
        whose rows all have degree <= 1 gathers only ``c1``.  Linear and
        quadratic increments are solved in closed form.  On a row of higher
        degree, safeguarded Newton runs in reused buffers from the root of
        the row's secant quadratic, and a draw stops after a Newton step of
        at most ``2^-26 tau``: by quadratic convergence the next iterate is
        then within a few ulps of the root, so a draw takes two passes (2.00
        per draw on uniform(0, 1)).  A one-pass finish evaluates the
        increment (by Horner) at Newton's end point and at the double before
        it for the whole chunk: ``tau`` is a double whose increment reaches
        ``T`` minus the row's starting hazard where the double before it
        does not, and only the draws those two values do not settle walk by
        ulps (``_newton_quartic``).  A draw equal to the total mass gets a
        finite ``x``, even where ``T`` rounds above the total hazard: the
        cap keeps it in the last row.

        A final guard steps ``x`` up until ``F(x) >= u`` holds exactly.  For
        a solved draw it evaluates ``F(x)`` on the operands the solve
        gathered, with ``cdf``'s formula and so ``cdf``'s bits
        (``_cdf_on_rows``), with no second search or gather, and so does
        each ulp re-check of a solved draw; on rows of degree <= 1 the
        formula is ``lam_lo + c1 tau``, Horner's value without its zero
        terms.  A placed draw, its re-checks and a solved ``x`` that reached
        the next row's start go through ``cdf``.  A chunk with every draw
        above the total mass (a zero intensity's draws, but for ``u = 0``)
        is ``+inf`` at once.  A law of one row and no full atom skips the
        search, since every ``T`` lies in that row, and, on a row of degree
        <= 1, uses the row's scalars: the solve is ``T' / c1``.

        ``x`` need not be the smallest double with ``F(x) >= u``: the
        previous double also qualifies for about 9 % of uniform(0, 1) draws,
        23 % of Weibull(1.5) and 38 % of Exp(1) draws.  Near ``u -> 1`` the
        gap is about ``ulp(u) / f(x)``: for Exp(1), a median of about 100 ulps
        at ``u > 0.999`` and of tens of thousands at ``u > 1 - 1e-6``.

        Draws are processed in chunks of ``_PPF_CHUNK``, and every temporary
        of a chunk (row operands, Newton's buffers, the guard: about 160 B a
        draw on uniform(0, 1)) lives in ``_SCRATCH``, one workspace reused
        across chunks, calls and laws; once it has grown, a call allocates
        its output and small index lists only.
        """
        scalar = np.isscalar(u) or np.ndim(u) == 0
        u = np.asarray(u, dtype=float)
        x = np.empty(u.shape)
        self._ppf_into(u, x)
        return float(x) if scalar else x

    def _ppf_into(self, u, x) -> None:
        """Write ``ppf(u)`` into ``x``, a C-contiguous float array of ``u``'s
        shape that may be ``u`` itself, in chunks of ``_PPF_CHUNK`` draws:
        two to the half of a full strip of ``simulate``.  ``ppf`` is
        elementwise, so the chunk size cannot change a result.
        An ``x`` that is not C-contiguous raises ``ValueError``: its flat
        view would be a copy, and the values would not reach ``x``."""
        if not x.flags.c_contiguous:
            raise ValueError("ppf output must be C-contiguous")
        _check_u(u)
        u, x = u.reshape(-1), x.reshape(-1)  # x: a view, as it is contiguous
        with _SCRATCH:  # the outermost frame: the buffer grows between chunks' frames
            for s in range(0, u.size, _PPF_CHUNK):
                self._ppf_chunk(u[s : s + _PPF_CHUNK], x[s : s + _PPF_CHUNK])

    def _ppf_chunk(self, u, x) -> None:
        """``ppf`` of one chunk of draws ``u``, written to ``x`` (which may
        share ``u``'s memory); every temporary comes from ``_SCRATCH``."""
        n = u.size
        with _SCRATCH as take:
            if np.may_share_memory(u, x):
                u = _copy(u, take(n))
            # above the total mass, which F never reaches
            beyond = np.greater(u, self.total_mass(), out=take(n, bool))
            if beyond.all():  # e.g. a zero intensity's draws: all but u = 0
                x.fill(math.inf)
                return
            # an improper F's total mass can round to a T above its total hazard
            T = np.negative(u, out=take(n))
            np.log1p(T, out=T)
            np.negative(T, out=T)
            np.minimum(T, self._total_lam, out=T)
            if self._full_loc is None and self._row_lo.size == 1:
                # T is capped at the one row's end hazard, so the search would
                # give every draw row 0
                idx = 0
            else:
                idx = self._search(u, T, take(n, np.intp))
                # past the last row
                beyond |= np.greater_equal(idx, self._row_lo.size, out=take(n, bool))
            in_jump = take(n, bool)
            if not beyond.any():
                rows = self._operands(idx, n, take)
                if not np.less_equal(T, rows.lam_lo, out=in_jump).any():
                    # no draw beyond F or in an atom's jump: solve all in place
                    tp = np.subtract(T, rows.lam_lo, out=T)
                    self._solve_rows(rows, tp, x)
                    x += rows.lo
                    self._step_up(x, u, self._cdf_on_rows(x, rows, take(n)), rows)
                    return

            # place a draw beyond F at the full atom (improper: at +inf) and one
            # in an atom's jump at its row start; solve the others as above
            idx = np.broadcast_to(idx, T.shape)
            x.fill(math.inf if self._full_loc is None else self._full_loc)
            inside = np.logical_not(beyond, out=take(n, bool))
            in_jump.fill(False)
            in_jump[inside] = T[inside] <= self._row_lam_lo[idx[inside]]
            x[in_jump] = self._row_lo[idx[in_jump]]
            solve = np.logical_not(np.logical_or(beyond, in_jump, out=inside), out=inside)
            xs = take(np.count_nonzero(solve))
            self._ppf_chunk(u[solve], xs)  # a frame above this one
            x[solve] = xs
            F = take(n)
            F.fill(1.0)  # a solved draw has been stepped up already
            placed = np.logical_not(solve, out=beyond)
            F[placed] = self.cdf(x[placed])
            self._step_up(x, u, F)

    def _guide(self):
        """Guide table of the row search (Chen & Asau 1974; Devroye 1986,
        III.2.4): per bucket ``[k, k + 1) / _GUIDE_BUCKETS`` of ``u``, the row
        that ``ppf``'s search gives the bucket's lowest ``u``, the first row a
        draw in the bucket can land in, and the hazard range ``(lo, hi]``
        that confirms it (``-inf`` and ``inf`` beyond the table)."""
        u0 = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
        T0 = np.minimum(-np.log1p(-u0), self._total_lam)
        rows = np.searchsorted(self._row_lam_hi, T0, side="left")
        edges = np.concatenate(([-math.inf], self._row_lam_hi, [math.inf]))
        return rows, edges[rows], edges[rows + 1]

    def _search(self, u, T, out):
        """``np.searchsorted(self._row_lam_hi, T, side="left")`` for draws
        ``u`` in [0, 1) with hazards ``T``, by guide table, into ``out``.

        A draw keeps its bucket's row ``g`` where ``lam_hi[g - 1] < T <=
        lam_hi[g]``; since ``lam_hi`` is nondecreasing, that is the left
        search's answer.  Only a draw past its bucket's first row, in a
        bucket that spans a row end, is searched.
        """
        n = u.size
        with _SCRATCH as take:
            k = take(n, np.intp)
            # exact: a power-of-two scale; the cast truncates, as astype does
            np.copyto(k, np.multiply(u, _GUIDE_BUCKETS, out=take(n)), casting="unsafe")
            _gather(self._guide_row, k, out)
            bound = _gather(self._guide_lo, k, take(n))
            miss = np.greater_equal(bound, T, out=take(n, bool))
            miss |= np.greater(T, _gather(self._guide_hi, k, bound), out=take(n, bool))
            miss = np.flatnonzero(miss)
        if miss.size:
            out[miss] = np.searchsorted(self._row_lam_hi, T[miss], side="left")
        return out

    def _operands(self, idx, n: int, take) -> _Rows:
        """The row operands of ``n`` draws in rows ``idx``, gathered once into
        arrays from ``take`` for the solve and the guard.  For one row of
        degree <= 1 for all (``idx`` a scalar), they are that row's scalars;
        a chunk whose rows all have degree <= 1 gets no ``c2`` to ``c4``."""
        if np.ndim(idx) == 0:
            if self._row_cls[idx] == 0:
                return _Rows(idx, self._row_lo[idx], self._row_width[idx],
                             self._row_lam_lo[idx], self._row_R[idx, 1], None, None, None, 0)
            one, idx = idx, take(n, np.intp)
            idx.fill(one)
        cls = _gather(self._row_cls, idx, take(n, np.int8))
        first = int(cls[0])
        if not np.not_equal(cls, first, out=take(n, bool)).any():
            cls = first
        RT = self._row_RT
        lo, width, lam_lo, c1 = (
            _gather(v, idx, take(n))
            for v in (self._row_lo, self._row_width, self._row_lam_lo, RT[1])
        )
        c2 = c3 = c4 = None
        if not (np.ndim(cls) == 0 and cls == 0):
            c2, c3, c4 = (_gather(RT[k], idx, take(n)) for k in (2, 3, 4))
        return _Rows(idx, lo, width, lam_lo, c1, c2, c3, c4, cls)

    def _step_up(self, x, u, F, rows: _Rows | None = None):
        """Enforce ``F(x) >= u`` exactly (a guard against terminal rounding).

        ``F`` is the first pass, evaluated on the rows just solved or, for
        a placed draw, by ``cdf``; only the finite offending entries move
        up, re-checked on the operands ``rows`` where those are given, by
        ``_cdf_on_rows``, and through ``cdf`` otherwise: one ulp at a time
        for four steps, then by steps that double.  Where ``f(x) ulp(x)`` is
        far below ``ulp(F)``, F is flat over many ulps of ``x``: just after
        an atom at the origin, up to thousands.  A draw that passes after a
        step of ``w > 1`` ulps is bisected back over those ``w`` ulps, so
        every moved ``x`` is the smallest double at or above the solved one
        with ``F(x) >= u``, as a walk of single ulps would give, and ``ppf``
        stays monotone in ``u``.
        """
        with _SCRATCH as take:
            sub = np.flatnonzero(np.less(F, u, out=take(u.size, bool)))
        sub = sub[np.isfinite(x[sub])]

        def reaches(i):  # F(x[i]) >= u[i]
            if rows is None:
                return np.asarray(self.cdf(x[i]), dtype=float) >= u[i]
            # x only moves up, so it stays at or after its row's start
            with _SCRATCH as take:
                return self._cdf_on_rows(x[i], rows.at(i, take), take(i.size)) >= u[i]

        # x >= 0, so its bits order as its values and bits + k is k ulps up
        bits = x.view(np.int64)
        steps = 0
        while sub.size:
            w = 1 if steps < 4 else 2 ** (steps - 4)
            steps += 1
            bits[sub] += w
            ok = reaches(sub)
            done = sub[ok]
            while w > 1:  # x[done] passes and x[done] - w ulps fails
                w //= 2
                bits[done] -= w
                back = ~reaches(done)
                bits[done[back]] += w
            sub = sub[~ok]
        return x

    def _solve_rows(self, rows: _Rows, tprime, out):
        """Solve ``R_row(tau) = tprime`` for ``tau`` within each draw's row,
        into ``out``.

        Every ``tprime`` is positive, so no row has zero hazard: its
        cumulative hazard would end where it starts.  Rows fall in three
        classes by degree (<= 1, 2, higher); a chunk whose rows share one
        class is solved on whole arrays, and only a mixed chunk is split,
        each class's draws gathered into scratch arrays.
        """
        if np.ndim(rows.cls) == 0:
            return self._solve_class(rows.cls, rows, tprime, out)
        with _SCRATCH as take:
            in_class = take(tprime.size, bool)
            for c in range(3):
                i = np.flatnonzero(np.equal(rows.cls, c, out=in_class))
                if i.size:
                    with _SCRATCH as take_c:
                        tp = _gather(tprime, i, take_c(i.size))
                        out[i] = self._solve_class(c, rows.at(i, take_c), tp, take_c(i.size))
        return out

    def _solve_class(self, cls, rows: _Rows, tp, out):
        """``_solve_rows`` on rows of one degree class: ``tp / c1`` for degree
        <= 1, the stable quadratic formula for degree 2, and safeguarded
        Newton (``_newton_quartic``) above."""
        if cls == 0:
            return np.divide(tp, rows.c1, out=out)
        with _SCRATCH as take:
            if cls == 1:
                return _quadratic_root(rows.c1, rows.c2, tp, take(tp.size), out)
            c1, c2, c3, c4, hi = rows.c1, rows.c2, rows.c3, rows.c4, rows.width
            q = _gather(self._row_q, rows.idx, out)  # the kernel reads q before it writes out
            unb = np.flatnonzero(~np.isfinite(hi))
            if unb.size:  # bracket an unbounded row's root by doubling
                hi = _copy(hi, take(hi.size))
                guess = np.maximum(1.0, tp[unb])
                for _ in range(200):
                    need = _quartic(c1[unb], c2[unb], c3[unb], c4[unb], guess) < tp[unb]
                    if not np.any(need):
                        break
                    guess = np.where(need, guess * 2.0, guess)
                hi[unb] = guess
                q[unb] = _secant_q(c2[unb], c3[unb], c4[unb], guess)
            return _newton_quartic(c1, c2, c3, c4, q, hi, tp, out)


def _copy(a, out):
    np.copyto(out, a)
    return out


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def cdf_from_intensity(phi: GeneralizedIntensity) -> IntensityCdf:
    """The mixed CDF ``F(x) = 1 - exp(-cumhaz(x))`` of a generalized intensity."""
    return IntensityCdf(phi)


def intensity_from_cdf(F) -> GeneralizedIntensity:
    """Recover a generalized intensity from an evaluable mixed CDF: any object
    with ``cdf`` and ``sf`` evaluators and a ``jumps`` list of ``(location,
    mass)`` pairs.

    Atom weights come from survival ratios across each listed jump; the
    continuous part is fitted adaptively between jumps so that the round trip
    ``cdf_from_intensity(intensity_from_cdf(F))`` reproduces ``F`` to within
    1e-9 everywhere.
    """
    if isinstance(F, IntensityCdf):
        return F.intensity

    jumps = [(a, p) for a, p in F.jumps if p > 0.0]
    for k in range(1, len(jumps)):
        if jumps[k][0] <= jumps[k - 1][0]:
            raise DistributionError("jump locations must be strictly increasing")

    def lam(x, right_jump: tuple[float, float] | None = None):
        s = np.clip(np.asarray(F.sf(x), dtype=float), 0.0, 1.0)
        if right_jump is not None:
            loc, mass = right_jump
            s = s + np.where(np.asarray(x, dtype=float) >= loc, mass, 0.0)
        return -np.log(np.maximum(s, 1e-300))

    survival = lambda x: float(F.sf(x))
    return _compile(lam, survival, jumps, ftol=_CDF_FTOL, panels=_CDF_PANELS)


# ---------------------------------------------------------------------------
# Intensity addition (hazard of a minimum)
# ---------------------------------------------------------------------------


def _aligned(a: GeneralizedIntensity, b: GeneralizedIntensity):
    """Walk the union of the breaks of ``a`` and ``b``.

    Yields ``(s, width, ca, cb)`` per piece: its start, its width (``inf`` for
    the last) and both ac hazards re-expanded in the local coordinate
    ``x - s``.
    """
    def local(phi, s):
        i = int(np.searchsorted(phi.breaks, s, side="right") - 1)
        return pshift(phi.coeffs[i], s - phi.breaks[i])

    # np.union1d's sort and dedupe, without the numpy.ma import it triggers
    breaks = np.sort(np.concatenate((a.breaks, b.breaks)))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    for i, s in enumerate(breaks):
        width = breaks[i + 1] - s if i + 1 < breaks.size else math.inf
        yield s, width, local(a, s), local(b, s)


def add_intensities(
    a: GeneralizedIntensity, b: GeneralizedIntensity
) -> GeneralizedIntensity:
    """Pointwise sum of two generalized intensities.

    For independent variables this is the intensity of their minimum: ac
    parts add, atom weights add at coinciding locations (survival ratios
    multiply).  A full atom truncates everything beyond it.
    """
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
        [(float(s), ca + cb) for s, _, ca, cb in _aligned(a, b)],
        atoms,
        require_proper=a.proper or b.proper,
    )


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

_GL_BATCH = 1 << 11  # intervals refined per integrand call: 2 * 2048 panels of 32 nodes
_GL_MAX_DEPTH = 30  # halvings before an interval is accepted unconverged


# the positive half of numpy's ``leggauss(32)``, nodes ascending: numpy
# symmetrizes its rule, so mirroring this half gives its 32 values bit for bit
_GL_HALF_NODES = (
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
)
_GL_HALF_WEIGHTS = (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
)


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 32-node Gauss-Legendre nodes and weights, read-only: numpy's
    ``leggauss(32)``, mirrored from its stored positive half, so no run
    imports ``numpy.polynomial`` (1.75 MB and about 3 ms) for it."""
    nodes, weights = np.array(_GL_HALF_NODES), np.array(_GL_HALF_WEIGHTS)
    nodes = np.concatenate((-nodes[::-1], nodes))
    weights = np.concatenate((weights[::-1], weights))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gl_panels(f, rows, a, b):
    """32-node Gauss-Legendre panels on ``[a, b]``, one per interval;
    ``f(rows, xs)`` evaluates interval ``rows[i]``'s integrand at ``xs[i]``."""
    nodes, weights = _gl_rule()
    half = 0.5 * (b - a)
    xs = a[:, None] + half[:, None] * (nodes + 1.0)
    return half * np.sum(weights * f(rows, xs), axis=1)


def _gl_adaptive(f, rows, a, b, tol=None, whole=None, depth=0):
    """Adaptive Gauss-Legendre integrals over the intervals ``[a[i], b[i]]``.

    An interval's panel is compared with the sum of its two half panels;
    where they differ by more than its ``tol`` (``1e-12 + 1e-11 * |panel|``
    by default) both halves are refined with half the tolerance, to depth
    ``_GL_MAX_DEPTH``.  One call handles one refinement level: the halves
    of every pending interval are evaluated as one ``(2P, 32)`` array and
    the pending intervals of the next level go to one further call.  An
    interval's value is rebuilt bottom-up as ``left + right``, the sum
    order of a depth-first recursion over a single interval, so batching
    changes no bit.

    Memory is bounded whatever the depth: a call refines at most
    ``_GL_BATCH`` intervals at once, so one integrand call sees at most
    ``2 * _GL_BATCH`` panels (131,072 nodes, 1 MiB per float array), and a
    larger level is taken in slices, each refined to the bottom before the
    next.  At most ``_GL_MAX_DEPTH + 1`` calls are live, each holding
    O(``_GL_BATCH``) values, so an interval that needs every halving costs
    time, not memory of order ``2^depth``.
    """
    out = np.empty(a.size)
    for s in range(0, a.size, _GL_BATCH):
        c = slice(s, s + _GL_BATCH)
        r, lo, hi = rows[c], a[c], b[c]
        w = _gl_panels(f, r, lo, hi) if whole is None else whole[c]
        t = 1e-12 + 1e-11 * np.abs(w) if tol is None else tol[c]
        mid = 0.5 * (lo + hi)
        n = lo.size
        halves = _gl_panels(f, np.concatenate((r, r)), np.concatenate((lo, mid)),
                            np.concatenate((mid, hi)))
        left, right = halves[:n], halves[n:]
        val = left + right
        go = np.nonzero(~(np.abs(w - val) <= t))[0]
        if go.size and depth < _GL_MAX_DEPTH:
            kids = _gl_adaptive(
                f, np.tile(r[go], 2), np.concatenate((lo[go], mid[go])),
                np.concatenate((mid[go], hi[go])), np.tile(0.5 * t[go], 2),
                np.concatenate((left[go], right[go])), depth + 1)
            val[go] = kids[: go.size] + kids[go.size:]
        out[c] = val
    return out


def _gl_one(f, row, a, b) -> float:
    """``_gl_adaptive`` on the single interval ``[a, b]`` of ``row``."""
    return float(_gl_adaptive(f, np.array([row]), np.array([a]), np.array([b]))[0])


def _gammainc_int(a: int, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x)`` for an integer shape ``a >= 1``.

    Closed form (Abramowitz & Stegun 6.5.29 and 6.5.13): for ``x < a + 1``
    the series ``x^a e^-x / a! * sum_n x^n / ((a+1)...(a+n))``, summed until
    a term falls below 2^-54 of the sum; otherwise
    ``-expm1(-x) - e^-x * sum_{1<=i<a} x^i / i!``.  Against mpmath at 40
    digits, for ``a = 1..4`` over ``x`` in ``[1e-300, 1e3]`` and at
    ``a + 1 +- 1 ulp``, the measured error is at most 4.2 * 2^-52 relative
    (9.3e-16) and one ulp where the result is subnormal.
    """
    if x < a + 1:
        term = total = 1.0
        n = a
        while term > 2.0**-54 * total:
            n += 1
            term *= x / n
            total += term
        return math.exp(-x) * total / math.factorial(a) * x**a
    term = math.exp(-x)
    tail = 0.0
    for i in range(1, a):
        term *= x / i
        tail += term
    return -math.expm1(-x) - tail


def _poly_exp_int(x0: float, L: float, m: int, c: float) -> float:
    """integral_0^L (x0 + tau)^m exp(-c tau) dtau, closed form, stable for huge c.

    Expanded in ``(x0 + tau)^m`` by the binomial theorem, each term is
    ``j! / c^(j+1) * P(j + 1, c L)`` with the integer-shape incomplete gamma
    ``_gammainc_int`` (exactly 1 for an infinite ``c L``), whose measured
    error is at most 9.3e-16 relative per term.
    """
    if c == 0.0:
        if not math.isfinite(L):
            raise DivergentMomentError("flat survival tail: moment diverges")
        return ((x0 + L) ** (m + 1) - x0 ** (m + 1)) / (m + 1)
    x = float(c * L)
    total = 0.0
    for j in range(m + 1):
        frac = 1.0 if math.isinf(x) else _gammainc_int(j + 1, x)
        total += math.comb(m, j) * x0 ** (m - j) * math.factorial(j) / c ** (j + 1) * frac
    return total


def _moment_intensity(F: IntensityCdf, k: int) -> float:
    lo, width, R, deg = F._row_lo, F._row_width, F._row_R, F._row_deg
    # math.exp, not np.exp over the array: the two can differ by an ulp
    s0 = np.array([math.exp(-v) for v in F._row_lam_lo.tolist()])

    def f(rows, tau):
        x = lo[rows, None] + tau
        return k * x ** (k - 1) * s0[rows, None] * np.exp(-prows(R[rows], tau))

    # every finite polynomial row in one batched quadrature
    quad = np.nonzero((s0 > 0.0) & (deg > 1) & np.isfinite(width))[0]
    gl = dict(zip(quad.tolist(), _gl_adaptive(f, quad, np.zeros(quad.size), width[quad]).tolist()))

    total = 0.0
    for r in range(lo.size):
        if s0[r] == 0.0:
            continue
        if deg[r] <= 1:
            c = R[r, 1]
            if not math.isfinite(width[r]) and c <= 0.0:
                raise DivergentMomentError(
                    "improper distribution: survival does not reach zero"
                )
            total += k * float(s0[r]) * _poly_exp_int(lo[r], width[r], k - 1, c)
        elif r in gl:
            total += gl[r]
        else:
            # growing polynomial tail: integrate on doubling windows with a
            # certified constant-hazard remainder bound
            x = 0.0
            win = max(1.0, lo[r])
            acc = 0.0
            hazard = pderiv(R[r])
            for _ in range(200):
                acc += _gl_one(f, r, x, x + win)
                x += win
                win *= 2.0
                s_here = float(s0[r]) * math.exp(-float(pvalue(R[r], x)))
                rate = float(pvalue(hazard, x))
                rem = k * s_here * _poly_exp_int(lo[r] + x, math.inf, k - 1, max(rate, 1e-300))
                if rem <= 1e-13 * max(abs(acc), 1e-12):
                    break
            else:
                raise DivergentMomentError("tail remainder did not contract")
            total += acc
    return total


def _require_intensity_cdf(F, name: str) -> None:
    if not isinstance(F, IntensityCdf):
        raise TypeError(
            f"{name} takes an IntensityCdf, not {type(F).__name__}; convert other "
            "CDFs with cdf_from_intensity(intensity_from_cdf(F)) first"
        )


def moment(F: IntensityCdf, k: int) -> float:
    """k-th raw moment ``E X^k = integral k x^(k-1) (1 - F(x)) dx`` of an
    :class:`IntensityCdf`.  Any other ``F`` raises ``TypeError``: convert it
    with ``cdf_from_intensity(intensity_from_cdf(F))`` first.

    Constant-hazard stretches integrate in closed form through the
    regularized incomplete gamma of integer shape, a truncated series or a
    finite sum (``_gammainc_int``), measured within 9.3e-16 relative of
    mpmath.  The moments (k = 1..4) of ``from_segments([(0, [1]), (1, [2])],
    atoms=[(0.5, 0.3)])`` agree with an mpmath quadrature of its survival to
    1.5e-16 relative.  Polynomial-hazard stretches use 32-node
    Gauss-Legendre with interval halving (``_gl_adaptive``): all finite
    rows are refined together, one integrand call per halving level, and
    each row's sum is rebuilt in the order of a row-by-row recursion, so
    batching moves no bit.  Raises
    :class:`DivergentMomentError` when the tail does not contract.
    """
    _require_intensity_cdf(F, "moment")
    if k < 1 or int(k) != k:
        raise ValueError("moment order k must be a positive integer")
    k = int(k)
    return float(_moment_intensity(F, k))


def sample(F: IntensityCdf, u):
    """``F.ppf(u)`` for u in (0, 1): ``F(x) >= u`` exactly (see
    :meth:`IntensityCdf.ppf`).

    Monotone in ``u``; atoms receive exactly their probability mass.
    Accepts scalars or arrays.  ``F`` is an :class:`IntensityCdf`; any other
    ``F`` raises ``TypeError``: convert it with
    ``cdf_from_intensity(intensity_from_cdf(F))`` first.
    """
    _require_intensity_cdf(F, "sample")
    u = np.asarray(u, dtype=float)
    if not (np.all(u > 0.0) and np.all(u < 1.0)):  # NaN fails both
        raise ValueError("u must lie strictly inside (0, 1)")
    return F.ppf(u)
