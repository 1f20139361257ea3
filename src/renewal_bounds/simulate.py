"""Exact Monte Carlo simulation of generalized renewal processes.

Stream contract
---------------
Replication ``r`` owns the generator ``PCG64(SeedSequence([seed, r]))`` --
a pure function of ``(seed, r)``.  Each interval ``j = 1, 2, ...`` consumes
exactly two uniforms from that stream, in order: first the draw for
``zeta_j`` (hazard phi), then the draw for ``theta_j`` (hazard mu_j).  The
theta uniform is consumed even when ``mu_j`` is the zero intensity (theta
is then +inf and the interval equals zeta), so traces stay aligned across
mu rules.  The interval is ``xi_j = min(zeta_j, theta_j)``; both draws go
through the generalized inverse CDF, so atoms are hit with exactly their
mass and the interval law equals the summed-hazard law.

Because interval values depend only on the stream position, batch drawing
(vectorized waves of whole replication slabs) reproduces scalar drawing
bit for bit, and estimates are identical for any degree of parallelism:
per-replication results are written into index-addressed arrays, and the
reduction is a single deterministic pass over the assembled array.

Wave loop
---------
One generator, ``_waves``, draws every interval.  It advances a set of
streams in waves: each still-active stream draws ``2 * block`` uniforms
(``block`` intervals), the block doubles from wave to wave, and a stream
leaves the set once its last jump lies beyond the largest query time.  Once
per wave it yields the rows that were active and their jump times.
``estimate`` reduces a slab of replications to backward/forward times as the
waves pass; ``simulate_path`` is the one-stream case, which keeps the jumps.
A wave adds its cumulative sum to the previous wave's last jump, so the wave
sizes fix the last bits of the jump times; how replications are split into
slabs does not.

``verify_bound``, and the CLI's ``simulate``, ``verify`` and ``tail``, pass
through one assumption gate, ``_assumption_gate``; the moments and bounds of
a scenario come from one place, ``_bounds``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .assumptions import AssumptionReport, check_assumptions
from .errors import AssumptionFailure, EventCapExceeded
from .gridcalc import BoundReport, DominanceVerdict, generalized_bound, lorden_classical_bound
from .hazard import moment
from .scenario import ScenarioConfig

__all__ = [
    "EVENT_CAP",
    "RenewalPath",
    "EstimateTable",
    "path_stream",
    "generate_interval",
    "simulate_path",
    "estimate",
    "verify_bound",
]

EVENT_CAP = 100_000_000  # diagnostic guard against zero-length interval loops
_SLAB = 16_384  # replications processed per vectorized wave


def path_stream(seed: int, replication: int) -> np.random.Generator:
    """The random stream owned by one replication: PCG64(SeedSequence([seed, r]))."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(seed), int(replication)]))
    )


def generate_interval(
    j: int, scenario: ScenarioConfig, stream: np.random.Generator
) -> float:
    """Draw interval ``xi_j = min(zeta_j, theta_j)``, consuming two uniforms.

    The stream must be positioned at the start of interval ``j``'s pair
    (positions ``2(j-1)`` and ``2(j-1)+1`` of the replication stream).
    """
    u_zeta = stream.random()
    u_theta = stream.random()
    zeta = float(scenario.eta_cdf.ppf(u_zeta))
    mu_cdf = scenario.mu_cdfs[int(scenario.mu_rule.index_for(j))]
    theta = float(mu_cdf.ppf(u_theta))  # +inf when u_theta exceeds mu's total mass
    return min(zeta, theta)


@dataclass(frozen=True)
class RenewalPath:
    """One simulated trajectory with per-query backward/forward times."""

    jump_times: np.ndarray  # all jumps up to and including the first beyond max(t)
    t_queries: tuple[float, ...]
    n_t: np.ndarray
    b_t: np.ndarray
    w_t: np.ndarray

    @property
    def events(self) -> int:
        return int(self.jump_times.size)


def _initial_block(scenario: ScenarioConfig, t_max: float) -> int:
    """Wave size: enough intervals for almost every path to clear t_max.

    Upper-bounds the event count by the fast envelope: needed events have
    mean about t/E zeta and variance about t Var(zeta)/E zeta^3; stragglers
    simply trigger another (doubled) wave.
    """
    mean_fast = max(scenario.zeta_mean, 1e-12)
    expect = t_max / mean_fast
    spread = math.sqrt(max(expect * scenario.zeta_var / mean_fast**2, expect) + 1.0)
    return int(min(max(16, math.ceil(1.02 * expect + 6.0 * spread + 8)), 1 << 20))


def _theta_from_uniforms(scenario: ScenarioConfig, u: np.ndarray, j0: int) -> np.ndarray:
    """Map theta uniforms (waves x block) through the per-index mu inverses."""
    block = u.shape[1]
    out = np.empty_like(u)
    midx = np.asarray(scenario.mu_rule.index_for(j0 + np.arange(block)))
    for d, cdf in enumerate(scenario.mu_cdfs):
        cols = midx == d
        if not np.any(cols):
            continue
        total = cdf.total_mass()
        uu = u[:, cols]
        if total <= 0.0:
            out[:, cols] = math.inf
            continue
        vals = np.full(uu.shape, math.inf)
        ok = uu <= total
        if np.any(ok):
            vals[ok] = cdf.ppf(uu[ok])
        out[:, cols] = vals
    return out


def _waves(scenario: ScenarioConfig, gens: list[np.random.Generator], t_max: float):
    """Draw intervals from ``gens`` in waves until every path passes ``t_max``.

    Yields ``(active, times)`` once per wave: the indices into ``gens`` of
    the rows still short of ``t_max``, and their jump times in this wave
    (``active.size x block``).  Rows whose last jump lies beyond ``t_max``
    leave before the next wave, whose block is twice as long.
    """
    active = np.arange(len(gens))
    base = np.zeros(len(gens))
    j0 = 1
    block = _initial_block(scenario, t_max)
    while active.size:
        if j0 > EVENT_CAP:
            raise EventCapExceeded(
                f"some path exceeded {EVENT_CAP} events before clearing t = {t_max:g}"
            )
        n_act = active.size
        u = np.empty((n_act, 2 * block))
        for i, row in enumerate(active):
            u[i] = gens[row].random(2 * block)
        zeta = np.asarray(scenario.eta_cdf.ppf(u[:, 0::2].ravel())).reshape(n_act, block)
        theta = _theta_from_uniforms(scenario, u[:, 1::2], j0)
        times = base[active, None] + np.cumsum(np.minimum(zeta, theta), axis=1)
        yield active, times
        base[active] = times[:, -1]
        active = active[~(times[:, -1] > t_max)]
        j0 += block
        block = min(block * 2, 1 << 20)


def simulate_path(scenario: ScenarioConfig, replication: int) -> RenewalPath:
    """Simulate one trajectory until the first jump beyond max(t_queries)."""
    queries = np.asarray(scenario.t_queries)
    t_max = float(queries[-1])
    gens = [path_stream(scenario.seed, replication)]
    jumps = np.concatenate([times[0] for _, times in _waves(scenario, gens, t_max)])
    jumps = jumps[: int(np.argmax(jumps > t_max)) + 1]

    n_t = np.searchsorted(jumps, queries, side="right")
    last = np.where(n_t > 0, jumps[np.maximum(n_t - 1, 0)], 0.0)
    b_t = queries - last
    w_t = jumps[n_t] - queries
    return RenewalPath(jumps, scenario.t_queries, n_t, b_t, w_t)


def _slab_stats(scenario: ScenarioConfig, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Backward/forward times for replications [r0, r1), vectorized in waves."""
    queries = np.asarray(scenario.t_queries)
    count = r1 - r0
    last_le = np.zeros((count, queries.size))
    next_gt = np.full((count, queries.size), np.nan)

    gens = [path_stream(scenario.seed, r) for r in range(r0, r1)]
    for active, times in _waves(scenario, gens, float(queries[-1])):
        block = times.shape[1]
        for qi, t in enumerate(queries):
            cnt = np.sum(times <= t, axis=1)
            has = cnt > 0
            if np.any(has):
                rows = np.nonzero(has)[0]
                last_le[active[rows], qi] = times[rows, cnt[rows] - 1]
            open_q = np.isnan(next_gt[active, qi]) & (cnt < block)
            if np.any(open_q):
                rows = np.nonzero(open_q)[0]
                next_gt[active[rows], qi] = times[rows, cnt[rows]]
    return queries - last_le, next_gt - queries


def _slab_worker(args) -> tuple[int, np.ndarray, np.ndarray]:
    scenario, r0, r1 = args
    b, w = _slab_stats(scenario, r0, r1)
    return r0, b, w


@dataclass(frozen=True)
class EstimateTable:
    """Per-query Monte Carlo estimates with 95% half-widths."""

    t_queries: tuple[float, ...]
    reps: int
    mean_backward: np.ndarray
    mean_forward: np.ndarray
    var_backward: np.ndarray
    var_forward: np.ndarray
    half_backward: np.ndarray
    half_forward: np.ndarray
    samples_backward: np.ndarray | None = None
    samples_forward: np.ndarray | None = None

    def se_backward(self) -> np.ndarray:
        return np.sqrt(self.var_backward / self.reps)

    def se_forward(self) -> np.ndarray:
        return np.sqrt(self.var_forward / self.reps)


def estimate(
    scenario: ScenarioConfig,
    *,
    workers: int = 1,
    keep_samples: bool = False,
) -> EstimateTable:
    """Run all replications and reduce to per-query means and intervals.

    Output is bitwise identical for a fixed (seed, reps, scenario)
    regardless of ``workers``: every replication computes the same values
    from its own stream, results are assembled by replication index, and
    the reduction is a single pass over the full array.
    """
    reps = scenario.reps
    nq = len(scenario.t_queries)
    B = np.empty((reps, nq))
    W = np.empty((reps, nq))
    jobs = [(scenario, r0, min(r0 + _SLAB, reps)) for r0 in range(0, reps, _SLAB)]
    parallel = workers > 1 and len(jobs) > 1
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        for r0, b, w in (pool.map if parallel else map)(_slab_worker, jobs):
            B[r0 : r0 + b.shape[0]] = b
            W[r0 : r0 + w.shape[0]] = w

    mean_b = B.mean(axis=0)
    mean_w = W.mean(axis=0)
    if reps > 1:
        # an infinite time (only under an assumption override) gives a nan variance
        with np.errstate(invalid="ignore"):
            var_b = B.var(axis=0, ddof=1)
            var_w = W.var(axis=0, ddof=1)
    else:
        var_b = np.zeros(nq)
        var_w = np.zeros(nq)
    half_b = 1.96 * np.sqrt(var_b / reps)
    half_w = 1.96 * np.sqrt(var_w / reps)
    return EstimateTable(
        scenario.t_queries,
        reps,
        mean_b,
        mean_w,
        var_b,
        var_w,
        half_b,
        half_w,
        B if keep_samples else None,
        W if keep_samples else None,
    )


def _assumption_gate(scenario: ScenarioConfig, override: bool) -> AssumptionReport:
    """The scenario's assumption report; a failed check raises unless overridden."""
    report = check_assumptions(scenario)
    if not report.all_pass and not override:
        failed = [c.number for c in report.conditions if not c.passed]
        raise AssumptionFailure(
            f"scenario fails assumption condition(s) {failed}; override to proceed "
            "anyway (override_assumptions=True, or --force on the command line)"
        )
    return report


def _bounds(scenario: ScenarioConfig) -> BoundReport:
    """Moments and bounds of a scenario, without estimates or verdicts.

    The classical bound is computed only when the scenario is i.i.d.
    """
    return BoundReport(
        scenario.eta_mean,
        moment(scenario.eta_cdf, 2),
        scenario.zeta_mean,
        generalized_bound(scenario.eta_cdf, scenario.zeta_cdf),
        lorden_classical_bound(scenario.interval_cdfs[0]) if scenario.iid else None,
        table=None,
        verdicts=(),
    )


def verify_bound(
    scenario: ScenarioConfig,
    *,
    override_assumptions: bool = False,
    workers: int = 1,
) -> BoundReport:
    """Compute the envelope bound and verify it dominates the MC estimates.

    Requires the assumption checks to pass unless ``override_assumptions``
    is set (the override is recorded in the report).  Per query, the bound
    must cover both estimated means minus three standard errors; the
    classical bound is included (and checked) when the scenario is i.i.d.
    """
    report = _assumption_gate(scenario, override_assumptions)
    bounds = _bounds(scenario)
    table = estimate(scenario, workers=workers)
    se_b = table.se_backward()
    se_w = table.se_forward()
    lower = np.maximum(table.mean_backward - 3.0 * se_b, table.mean_forward - 3.0 * se_w)

    def covers(bound, qi):
        return None if bound is None else bool(bound >= lower[qi])

    verdicts = tuple(
        DominanceVerdict(
            t,
            bounds.generalized,
            float(table.mean_backward[qi]),
            float(se_b[qi]),
            float(table.mean_forward[qi]),
            float(se_w[qi]),
            covers(bounds.generalized, qi),
            covers(bounds.classical, qi),
        )
        for qi, t in enumerate(scenario.t_queries)
    )
    return replace(
        bounds,
        table=table,
        verdicts=verdicts,
        assumptions=report,
        assumption_override=override_assumptions and not report.all_pass,
    )
