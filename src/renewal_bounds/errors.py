"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "RenewalBoundsError",
    "IntensityError",
    "DistributionError",
    "DivergentMomentError",
    "GridError",
    "AssumptionFailure",
    "EventCapExceeded",
    "ScenarioFormatError",
    "UsageError",
]


class RenewalBoundsError(Exception):
    """Base class for all package errors."""


class IntensityError(RenewalBoundsError, ValueError):
    """Invalid generalized intensity (negative hazard, bad atoms, zero mass)."""


class DistributionError(RenewalBoundsError, ValueError):
    """Invalid mixed CDF (non-monotone, undefined hazard, bad jumps)."""


class DivergentMomentError(RenewalBoundsError, ArithmeticError):
    """Tail remainder of a moment integral does not contract."""


class GridError(RenewalBoundsError, ValueError):
    """Grid-distribution misuse: step mismatch, horizon exceeded, truncation."""


class AssumptionFailure(RenewalBoundsError, RuntimeError):
    """A scenario failed its assumption checks and no override was requested."""


class EventCapExceeded(RenewalBoundsError, RuntimeError):
    """A simulated path produced more events than the diagnostic cap allows."""


class ScenarioFormatError(RenewalBoundsError, ValueError):
    """Malformed scenario file, with line/column attribution."""

    def __init__(self, message: str, path: str = "", line: int = 0, col: int = 0):
        self.path = path
        self.line = line
        self.col = col
        where = path
        if line:
            where += f":{line}"
            if col:
                where += f":{col}"
        super().__init__(f"{where}: {message}" if where else message)


class UsageError(RenewalBoundsError, ValueError):
    """A command-line flag value the scenario or the runner cannot take."""
