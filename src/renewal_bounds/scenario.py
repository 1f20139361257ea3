"""Scenario descriptions for generalized renewal experiments.

A scenario fixes the common lower-envelope hazard ``phi``, the envelope
hazard ``Q``, a rule producing the extra hazard ``mu_j`` of each interval,
the query times, and the replication plan (reps, seed, grid step, horizon).
The ``mu`` rule grammar is deliberately small -- cycled list, explicit list
with terminal repetition, constant rate, linearly growing capped rate -- so
that the envelope condition is decidable by inspecting finitely many
distinct intensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntensityError
from .hazard import (
    GeneralizedIntensity,
    IntensityCdf,
    add_intensities,
    cdf_from_intensity,
    exponential,
    moment,
    zero,
)

__all__ = [
    "MuRule",
    "CycledIntensities",
    "RepeatLastIntensities",
    "ConstantRate",
    "LinearCappedRate",
    "ScenarioConfig",
]


class MuRule:
    """Rule assigning the extra hazard ``mu_j`` to interval index j >= 1."""

    @property
    def distinct_intensities(self) -> tuple[GeneralizedIntensity, ...]:
        raise NotImplementedError

    def index_for(self, j):
        """Map 1-based interval indices to positions in ``distinct_intensities``."""
        raise NotImplementedError

    def intensity_for(self, j: int) -> GeneralizedIntensity:
        return self.distinct_intensities[int(self.index_for(j))]

    @property
    def is_iid(self) -> bool:
        return len(self.distinct_intensities) == 1


def _rate_intensity(rate: float) -> GeneralizedIntensity:
    return exponential(rate) if rate > 0 else zero()


@dataclass(frozen=True)
class CycledIntensities(MuRule):
    """mu_j cycles through a fixed list of intensities."""

    items: tuple[GeneralizedIntensity, ...]

    def __post_init__(self):
        if not self.items:
            raise IntensityError("cycled mu rule needs at least one intensity")
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def distinct_intensities(self):
        return self.items

    def index_for(self, j):
        return (np.asarray(j, dtype=np.int64) - 1) % len(self.items)


@dataclass(frozen=True)
class RepeatLastIntensities(MuRule):
    """Explicit list; the final entry repeats forever (delayed processes)."""

    items: tuple[GeneralizedIntensity, ...]

    def __post_init__(self):
        if not self.items:
            raise IntensityError("list mu rule needs at least one intensity")
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def distinct_intensities(self):
        return self.items

    def index_for(self, j):
        return np.minimum(np.asarray(j, dtype=np.int64) - 1, len(self.items) - 1)


def ConstantRate(rate: float) -> RepeatLastIntensities:
    """mu_j is the constant hazard ``rate`` for every j (0 means no extra hazard)."""
    if rate < 0:
        raise IntensityError("constant mu rate must be nonnegative")
    return RepeatLastIntensities((_rate_intensity(rate),))


def LinearCappedRate(base: float, slope: float, cap: float) -> RepeatLastIntensities:
    """mu_j has constant hazard ``min(base + slope*(j-1), cap)``.

    With ``slope == 0`` the cap is never reached and mu_j is ``base``.
    """
    if not all(math.isfinite(v) for v in (base, slope, cap)):
        raise IntensityError("linear-capped base, slope and cap must be finite")
    if base < 0 or slope < 0:
        raise IntensityError("linear-capped rates must be nonnegative")
    if cap < base:
        raise IntensityError("cap must not be below the base rate")
    steps = int(math.ceil((cap - base) / slope)) if slope > 0 else 0
    rates = [min(base + slope * i, cap) for i in range(steps)]
    rates.append(cap if slope > 0 else base)
    return RepeatLastIntensities(tuple(_rate_intensity(r) for r in rates))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a generalized renewal experiment.

    ``step`` and ``horizon`` may be omitted; the resolved defaults are
    ``E zeta / 200`` and ``max(40 * E eta, 1.1 * max t)`` -- the horizon is
    widened beyond the plain 40-mean rule whenever the queries demand it so
    that queries always sit inside the grid horizon.
    """

    phi: GeneralizedIntensity
    q: GeneralizedIntensity
    mu_rule: MuRule
    t_queries: tuple[float, ...]
    reps: int
    seed: int
    step: float | None = None
    horizon: float | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "t_queries", tuple(float(t) for t in self.t_queries))
        if not self.t_queries:
            raise ValueError("at least one query time is required")
        if any(t < 0 for t in self.t_queries):
            raise ValueError("query times must be nonnegative")
        if any(b < a for a, b in zip(self.t_queries, self.t_queries[1:])):
            raise ValueError("query times must be ordered")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if int(self.seed) != self.seed or self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.step is not None and self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.horizon is not None and self.horizon < max(self.t_queries):
            raise ValueError("horizon must cover every query time")

    # -- derived distributions (cached; all immutable) -------------------------

    @cached_property
    def eta_cdf(self) -> IntensityCdf:
        """CDF of the slow envelope eta (hazard phi)."""
        return cdf_from_intensity(self.phi)

    @cached_property
    def zeta_cdf(self) -> IntensityCdf:
        """CDF of the fast envelope zeta (hazard Q)."""
        return cdf_from_intensity(self.q)

    @cached_property
    def mu_cdfs(self) -> tuple[IntensityCdf, ...]:
        return tuple(cdf_from_intensity(m) for m in self.mu_rule.distinct_intensities)

    @cached_property
    def interval_cdfs(self) -> tuple[IntensityCdf, ...]:
        """CDFs of the actual intervals, one per distinct mu (hazard phi + mu)."""
        return tuple(
            cdf_from_intensity(add_intensities(self.phi, m))
            for m in self.mu_rule.distinct_intensities
        )

    @cached_property
    def eta_mean(self) -> float:
        return moment(self.eta_cdf, 1)

    @cached_property
    def zeta_mean(self) -> float:
        return moment(self.zeta_cdf, 1)

    @cached_property
    def zeta_var(self) -> float:
        return max(moment(self.zeta_cdf, 2) - self.zeta_mean**2, 0.0)

    @property
    def iid(self) -> bool:
        return self.mu_rule.is_iid

    def resolved_step(self) -> float:
        return self.step if self.step is not None else self.zeta_mean / 200.0

    def resolved_horizon(self) -> float:
        if self.horizon is not None:
            return self.horizon
        return max(40.0 * self.eta_mean, 1.1 * max(self.t_queries))
