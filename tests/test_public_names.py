"""The public surface: every ``__all__`` entry resolves, and the package
re-exports its submodules' objects, not copies or stale names."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import renewal_bounds as rb

SUBMODULES = sorted(f"renewal_bounds.{m.name}" for m in pkgutil.iter_modules(rb.__path__))
# the submodules whose ``__all__`` the package re-exports; cli and poly are not
EXPORTING = ["errors", "hazard", "scenario", "gridcalc", "assumptions", "simulate"]


@pytest.mark.parametrize("module", ["renewal_bounds", *SUBMODULES])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_the_package_all_is_the_union_of_its_submodules_all():
    # one list per name: a submodule lists only what the package exports, so
    # a name it keeps for itself (simulate.EVENT_CAP) stays out of both
    union = {name for module in EXPORTING
             for name in importlib.import_module(f"renewal_bounds.{module}").__all__}
    assert rb.__all__ == sorted(union)
    assert "EVENT_CAP" not in rb.__all__
    assert hasattr(importlib.import_module("renewal_bounds.simulate"), "EVENT_CAP")


def test_package_names_are_their_submodules_objects():
    owners = {}
    for module in SUBMODULES:
        mod = importlib.import_module(module)
        for name in mod.__all__:
            owners.setdefault(name, []).append(getattr(mod, name))
    unowned = [name for name in rb.__all__ if name not in owners]
    assert unowned == []
    copies = [name for name in rb.__all__
              if any(getattr(rb, name) is not obj for obj in owners[name])]
    assert copies == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from renewal_bounds import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == rb.__all__


@pytest.mark.parametrize("statement", [
    "import renewal_bounds",
    "from renewal_bounds import UsageError",
    "import renewal_bounds; renewal_bounds.UsageError",
    "import renewal_bounds; assert not hasattr(renewal_bounds, 'cli')",
    "import renewal_bounds; assert not hasattr(renewal_bounds, 'poly')",
])
def test_errors_and_left_out_submodules_load_no_numpy(statement):
    # ``from renewal_bounds import cli`` probes the package for ``cli`` before
    # importing it, and cli must start numpy itself, after pinning its BLAS
    src = str(Path(rb.__file__).resolve().parents[1])
    script = f"import sys\n{statement}\nassert 'numpy' not in sys.modules\n"
    done = subprocess.run([sys.executable, "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
