"""The public surface: every ``__all__`` entry resolves, and the package
re-exports its submodules' objects, not copies or stale names."""

import importlib
import pkgutil

import pytest

import renewal_bounds as rb

SUBMODULES = sorted(f"renewal_bounds.{m.name}" for m in pkgutil.iter_modules(rb.__path__))


@pytest.mark.parametrize("module", ["renewal_bounds", *SUBMODULES])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_names_are_their_submodules_objects():
    # a submodule may keep names the package does not re-export
    # (simulate.EVENT_CAP), so the sets need not be equal
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
