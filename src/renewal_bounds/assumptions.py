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
5. the ac hazard of phi is positive a.e. beyond some finite delay T.  The
   least such T decides it: the end of the last stretch where that hazard
   is identically zero, cut off at a full atom of phi (nothing beyond it is
   reached).  T is reported; T > 0 marks a delayed process, and T = inf,
   the one failure, happens exactly when phi is improper.

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
    status: str  # "pass" | "fail"
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


def _delay(phi: GeneralizedIntensity) -> float:
    """End of the last stretch where phi's ac hazard is identically zero.

    The domain ends at a full atom of phi.  0 when there is no such stretch,
    ``inf`` when it never ends.
    """
    cap = phi.full_atom_location if phi.has_full_atom else math.inf
    ends = np.minimum(np.append(phi.breaks[1:], math.inf), cap)
    zero = [i for i, s in enumerate(phi.breaks) if s < cap and is_zero_poly(phi.coeffs[i])]
    return float(ends[zero[-1]]) if zero else 0.0


def check_assumptions(scenario: ScenarioConfig) -> AssumptionReport:
    """Check the five conditions of a scenario; failures are verdicts."""
    phi, q, rule = scenario.phi, scenario.q, scenario.mu_rule

    c1 = ConditionVerdict(
        1,
        "intervals are min-couplings",
        "pass",
        "each interval is min(eta_j, theta_j) with eta i.i.d. from phi and "
        "theta_j from the declared mu rule",
        # the rule's shape: a list of distinct_mu laws whose last period repeat
        {"distinct_mu": len(rule.items), "period": rule.period},
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

    T = _delay(phi)
    ok5 = math.isfinite(T)
    c5 = ConditionVerdict(
        5,
        "ac hazard of phi positive a.e. beyond a finite delay",
        "pass" if ok5 else "fail",
        (f"delay T = {T:g}" + (" (delayed process)" if T > 0 else ""))
        if ok5
        else "the ac hazard vanishes on an unbounded tail",
        {"T": T, "delayed": 0 < T < math.inf},
    )

    return AssumptionReport((c1, c2, c3, c4, c5))
