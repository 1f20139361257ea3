"""The benchmark's children run on this package: every name they use must exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
RUN = CHILD.with_name("run.py")


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


@pytest.mark.parametrize(
    "kind, extra, key",
    [("setup", [], "setup_s"), ("slab", ["1"], "simulate.slab_peak_mb"),
     ("probe", ["1"], "hazard.ppf_ns_per_draw")],
    ids=["setup", "slab", "probe"],
)
def test_child_runs_on_a_scenario(kind, extra, key):
    # the children read names of the package that no command may use (slab
    # compiles ScenarioConfig.zeta_var and mu_cdfs); deleting one must fail
    # here.  probe drives ppf through its chunk loop on a million draws
    root = CHILD.parents[1]
    scenario = root / "perfbench" / "scenarios" / "tail-exp-cycle.ini"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, str(CHILD), kind, str(scenario), *extra]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert key in json.loads(done.stdout.splitlines()[-1])


def test_workload_oracles_pass_on_their_scenarios(tmp_path, monkeypatch):
    # each workload's command at its scenario file's own reps and seed: a
    # report key that an oracle reads cannot move without failing here
    from renewal_bounds.cli import main

    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its @dataclass looks the module up
    spec.loader.exec_module(bench)
    assert bench.WORKLOADS
    for name, workload in bench.WORKLOADS.items():
        scenario = RUN.parent / "scenarios" / f"{name}.ini"
        out = tmp_path / name
        assert main([workload.command, str(scenario), "--out", str(out)]) == 0, name
        assert workload.oracle(json.loads((out / "report.json").read_text())) == [], name
