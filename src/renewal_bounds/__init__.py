"""Generalized renewal processes: hazard calculus with atoms, grid
distribution arithmetic, Lorden-type overshoot bounds, and reproducible
Monte Carlo verification.

The package re-exports the ``__all__`` of six submodules, listed once in
``_MODULES`` in import order; ``cli`` and ``poly`` are not re-exported.
A name is looked up on first use (PEP 562) in each of those ``__all__`` in
turn, and then cached here.  Importing the package therefore loads no numpy,
but a lookup imports every module up to the one that owns the name: a
``gridcalc`` name imports ``scenario`` as well, and only names from
``errors`` load no numpy.  ``__all__`` and ``dir()`` import all six, and
so does a name that none of them exports.  A name that is a left-out
submodule is not looked up, so ``from renewal_bounds import cli`` loads no
numpy before ``cli`` pins numpy's BLAS to one thread.
"""

import importlib
from importlib.machinery import PathFinder

__version__ = "0.1.0"

_MODULES = ("errors", "hazard", "scenario", "gridcalc", "assumptions", "simulate")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = sorted({n for module in _MODULES for n in __getattr__(module).__all__})
    else:
        left_out = PathFinder.find_spec(name, __path__)  # cli, poly
        owners = () if left_out else map(__getattr__, _MODULES)
        owner = next((module for module in owners if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES})
