"""The benchmark's tracer wraps package names; every one it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_layer_calls_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.LAYER_CALLS
    missing = [
        f"{module}.{name}"
        for module, name, _ in child.LAYER_CALLS
        if not callable(getattr(importlib.import_module(f"renewal_bounds.{module}"), name, None))
    ]
    assert missing == []
