"""Numerical verification of the five structural conditions of a scenario.

The conditions, in the order reported:

1. every interval is the minimum of an i.i.d. draw (hazard phi) and an
   independent index-dependent draw (hazard mu_j) -- structural;
2. the combined hazard phi + mu_j never exceeds the envelope Q, atoms
   included, short of Q's full atom (where Q's law ends), if it has one;
3. the total hazard of phi diverges and the slow envelope has a finite
   k-th moment for some k >= 2 (largest verified k <= 4 is reported);
4. Q is locally bounded near zero (an atom at the origin is the only way
   to fail inside the polynomial class; the supremum near zero is reported);
5. the ac hazard of phi is positive a.e. beyond some finite delay T (the
   minimal such T is reported; T > 0 marks a delayed process).

Failures are verdicts, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentMomentError
from .hazard import GeneralizedIntensity, _aligned, moment
from .poly import is_zero_poly, pmax_rows
from .scenario import ScenarioConfig

__all__ = ["ConditionVerdict", "AssumptionReport", "check_assumptions"]

_VIOLATION_TOL = 1e-12
_ZERO_WINDOW = 0.1  # neighbourhood of zero inspected for condition 4


@dataclass(frozen=True)
class ConditionVerdict:
    number: int
    title: str
    status: str  # "pass" | "fail" | "undecidable"
    detail: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionVerdict, ...]

    def __post_init__(self):
        numbers = [c.number for c in self.conditions]
        if numbers != [1, 2, 3, 4, 5]:
            raise ValueError("report must contain conditions 1..5 exactly once")

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, number: int) -> ConditionVerdict:
        return self.conditions[number - 1]

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "conditions": [
                {
                    "number": c.number,
                    "title": c.title,
                    "status": c.status,
                    "detail": c.detail,
                    "diagnostics": {k: _jsonable(v) for k, v in c.diagnostics.items()},
                }
                for c in self.conditions
            ],
        }

    def __str__(self) -> str:
        lines = []
        for c in self.conditions:
            lines.append(f"condition {c.number} [{c.status:4s}] {c.title}: {c.detail}")
        return "\n".join(lines)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _envelope_violation(
    combined: GeneralizedIntensity, q: GeneralizedIntensity
) -> tuple[float, float]:
    """Max of (combined - Q) over the ac parts and atoms; (violation, where).

    Only ``[0, c)`` is compared when Q has a full atom at ``c``: Q's law ends
    there, so no draw under Q passes ``c``, and what Q's encoding says beyond
    it is not part of the law.  Two encodings of one Q get one verdict.
    """
    cap = q.full_atom_location if q.has_full_atom else math.inf
    worst, where = -math.inf, 0.0
    pieces = [(s, min(width, cap - s), cc, cq)
              for s, width, cc, cq in _aligned(combined, q) if s < cap]
    if pieces:  # none when Q's full atom sits at 0
        vals, locs = pmax_rows([cc - cq for _, _, cc, cq in pieces], 0.0,
                               [width for _, width, _, _ in pieces])
        for (s, _, _, _), v, loc in zip(pieces, vals.tolist(), locs.tolist()):
            if v > worst:
                worst, where = v, s + loc if math.isfinite(loc) else math.inf

    q_atoms = {float(a): float(d) for a, d in zip(q.atom_locs, q.atom_weights)}
    for loc, d in zip(combined.atom_locs, combined.atom_weights):
        if loc >= cap:
            break
        dq = q_atoms.get(float(loc), 0.0)
        gap = 0.0 if math.isinf(d) and math.isinf(dq) else float(d) - dq
        if gap > worst:
            worst, where = gap, float(loc)
    return worst, where


def _zero_hazard_runs(phi: GeneralizedIntensity) -> tuple[list[tuple[float, float]], bool]:
    """Maximal intervals where the ac hazard is identically zero.

    Returns (finite runs, has_unbounded_zero_tail); the domain is capped at a
    full atom since nothing beyond it is ever reached.
    """
    cap = phi.full_atom_location if phi.has_full_atom else math.inf
    runs: list[tuple[float, float]] = []
    open_start = None
    last_end = 0.0
    for i, s in enumerate(phi.breaks):
        if s >= cap:
            break
        end = min(phi.breaks[i + 1] if i + 1 < phi.breaks.size else math.inf, cap)
        if is_zero_poly(phi.coeffs[i]):
            if open_start is None:
                open_start = float(s)
            if not math.isfinite(end):
                return runs, True
            last_end = float(end)
        else:
            if open_start is not None:
                runs.append((open_start, float(s)))
                open_start = None
    if open_start is not None:
        runs.append((open_start, last_end))
    return runs, False


def check_assumptions(
    scenario: ScenarioConfig,
    *,
    delay_T: float | None = None,
) -> AssumptionReport:
    """Check the five conditions of a scenario; failures are verdicts.

    ``delay_T`` fixes the delay threshold of condition 5 (when omitted the
    minimal feasible T is inferred and reported).
    """
    phi, q, rule = scenario.phi, scenario.q, scenario.mu_rule

    c1 = ConditionVerdict(
        1,
        "intervals are min-couplings",
        "pass",
        "each interval is min(zeta_j, theta_j) with zeta i.i.d. from phi and "
        f"theta_j from the declared mu rule ({type(rule).__name__})",
        {"distinct_mu": len(rule.distinct_intensities)},
    )

    worst, where, worst_mu = -math.inf, 0.0, 0
    for m, combined in enumerate(scenario.interval_intensities):
        v, loc = _envelope_violation(combined, q)
        if v > worst:
            worst, where, worst_mu = v, loc, m
    ok2 = worst <= _VIOLATION_TOL
    c2 = ConditionVerdict(
        2,
        "phi + mu_j bounded by the envelope Q",
        "pass" if ok2 else "fail",
        "no violation found"
        if ok2
        else f"violation {worst:.6g} at s = {where:.6g} (mu index {worst_mu})",
        {"max_violation": max(worst, 0.0), "location": where, "mu_index": worst_mu},
    )

    diverges = phi.proper
    k_ok = 0
    eta_moments = {}
    if diverges:
        eta = scenario.eta_cdf
        for k in (2, 3, 4):
            try:
                eta_moments[k] = moment(eta, k)
                k_ok = k
            except DivergentMomentError:
                break
    ok3 = diverges and k_ok >= 2
    c3 = ConditionVerdict(
        3,
        "total hazard diverges and a k-th moment (k >= 2) is finite",
        "pass" if ok3 else "fail",
        f"largest verified k = {k_ok}"
        if ok3
        else ("total hazard of phi is finite" if not diverges else "no finite moment of order >= 2"),
        {"k": k_ok, "hazard_diverges": diverges, **{f"E_eta^{k}": v for k, v in eta_moments.items()}},
    )

    atom_at_zero = q.atom_locs.size > 0 and q.atom_locs[0] == 0.0
    near = q.breaks < _ZERO_WINDOW
    ends = np.minimum(np.append(q.breaks[1:], math.inf), _ZERO_WINDOW)
    vals, _ = pmax_rows(q.coeffs[near], 0.0, (ends - q.breaks)[near])
    sup_q = max([-math.inf, *vals.tolist()])
    ok4 = not atom_at_zero
    c4 = ConditionVerdict(
        4,
        "envelope Q locally bounded near zero",
        "pass" if ok4 else "fail",
        f"sup Q on [0, {_ZERO_WINDOW:g}] = {sup_q:.6g}"
        if ok4
        else "Q carries an atom at the origin",
        {"sup_q_near_zero": sup_q, "window": _ZERO_WINDOW, "atom_at_zero": atom_at_zero},
    )

    runs, unbounded = _zero_hazard_runs(phi)
    if unbounded:
        c5 = ConditionVerdict(
            5,
            "ac hazard of phi positive a.e. beyond a finite delay",
            "fail",
            "the ac hazard vanishes on an unbounded tail",
            {"zero_measure_beyond_T": math.inf},
        )
    else:
        t_min = max((end for _, end in runs), default=0.0)
        t_used = delay_T if delay_T is not None else t_min
        measure = sum(
            max(0.0, end - max(start, t_used)) for start, end in runs
        )
        ok5 = measure <= 0.0
        c5 = ConditionVerdict(
            5,
            "ac hazard of phi positive a.e. beyond a finite delay",
            "pass" if ok5 else "fail",
            f"delay T = {t_used:g}" + (" (delayed process)" if t_used > 0 else ""),
            {
                "T": t_used,
                "minimal_T": t_min,
                "zero_measure_beyond_T": measure,
                "delayed": t_used > 0,
            },
        )

    return AssumptionReport((c1, c2, c3, c4, c5))
