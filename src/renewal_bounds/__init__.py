"""Generalized renewal processes: hazard calculus with atoms, grid
distribution arithmetic, Lorden-type overshoot bounds, and reproducible
Monte Carlo verification.

A public name loads its submodule on first use (PEP 562), so importing the
package loads no numpy.  ``renewal_bounds.cli`` relies on that: it pins
numpy's BLAS to one thread before its own first numpy import.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; the package re-exports exactly these
_EXPORTS = {
    "assumptions": ("AssumptionReport", "ConditionVerdict", "check_assumptions"),
    "errors": (
        "AssumptionFailure",
        "DistributionError",
        "DivergentMomentError",
        "EventCapExceeded",
        "GridError",
        "IntensityError",
        "RenewalBoundsError",
        "ScenarioFormatError",
        "UsageError",
    ),
    "gridcalc": (
        "GridDistribution",
        "RenewalFunction",
        "backward_tail_bound",
        "convolution_power",
        "convolve",
        "discretize",
        "generalized_bound",
        "lorden_classical_bound",
        "renewal_function",
    ),
    "hazard": (
        "ATOM_INF",
        "GeneralizedIntensity",
        "IntensityCdf",
        "add_intensities",
        "cdf_from_intensity",
        "deterministic",
        "exponential",
        "from_cumulative_hazard",
        "from_segments",
        "intensity_from_cdf",
        "moment",
        "sample",
        "uniform",
        "weibull",
        "zero",
    ),
    "scenario": (
        "ConstantRate",
        "LinearCappedRate",
        "MuRule",
        "ScenarioConfig",
    ),
    "simulate": (
        "BoundReport",
        "DominanceVerdict",
        "EstimateTable",
        "RenewalPath",
        "estimate",
        "generate_interval",
        "path_stream",
        "simulate_path",
        "verify_bound",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name in _SUBMODULE:
        value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
