"""Benchmark of the renewal-bounds command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs the package from ``src/``
there and installs nothing. Each operation is one ``renewal-bounds`` command
(``python -m renewal_bounds.cli``) on a committed scenario file from
``perfbench/scenarios/``, with ``--seed N`` and ``--workers 1``. Commands
repeat until ``S`` seconds, set-up timing included, have passed; every one
is checked against the workload's analytic oracle and against the
``report.json`` of the others.

With ``--trace 0`` the run reports, as medians over its operations:
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of the command's process, and
``setup_s`` (median of twelve fresh set-up processes, six before the
commands and six after them). With ``--trace 1`` it alternates plain and
traced commands and adds the layer probes, and reports the per-layer metrics
listed in ``perfbench/README.md``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines above it print every
metric by name with its unit, ``error_rate``, and the environment; the same
record, with every sample, is written to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"

DEADLINE_S = 170.0  # every run ends within the 180 s the harness allows
SETUP_BLOCK = 6  # set-up processes timed before the commands, and again after them
MIN_ROUNDS = 3


def _check_exp_cycle(report: dict) -> list[str]:
    problems = []
    gen = report["bounds"]["generalized"]
    if abs(gen - 4.0) > 1e-12:
        problems.append(f"generalized bound {gen!r} != 4")
    if not report["verdicts"]["all_pass"]:
        problems.append("a per-t verdict failed")
    return problems


def _check_uniform(report: dict) -> list[str]:
    problems = []
    cls = report["bounds"]["classical"]
    if cls is None or abs(cls - 2.0 / 3.0) > 1e-8 * (2.0 / 3.0):
        problems.append(f"classical bound {cls!r} != 2/3")
    for row in report["estimates"]:
        se = row["half_width_backward"] / 1.96
        # 4 se, not 3: a two-sided 3 se test fails on 0.27 % of seeds by chance
        if abs(row["mean_backward"] - 1.0 / 3.0) > 4.0 * se:
            problems.append(f"meanB {row['mean_backward']!r} is not 1/3 within 4 se")
    if not report["verdicts"]["all_pass"]:
        problems.append("a per-t verdict failed")
    return problems


def _check_tail(report: dict) -> list[str]:
    problems = []
    if not report["assumptions"]["all_pass"]:
        problems.append("assumptions failed")
    for row in report["tail"]:
        if not row["dominates"]:
            problems.append(f"tail bound does not dominate at t={row['t']}")
    return problems


@dataclass(frozen=True)
class Workload:
    command: str
    oracle: Callable[[dict], list[str]]  # problems found in report.json; empty when correct
    renewal_rate: float = 0.0  # exact slope of H when Q is exponential; 0 when unused


WORKLOADS = {
    "verify-exp-cycle": Workload("verify", _check_exp_cycle),
    "verify-uniform-t50": Workload("verify", _check_uniform),
    "tail-exp-cycle": Workload("tail", _check_tail, renewal_rate=3.0),
}

# Spans whose summed duration is reported as the per-layer metric "<span>_s".
TIMED_SPANS = (
    "cli.load_scenario",
    "hazard.compile",
    "hazard.moment",
    "assumptions.check",
    "gridcalc.bounds",
    "gridcalc.discretize",
    "gridcalc.renewal",
    "gridcalc.tail_bound",
    "simulate.estimate",
)
# Counters child.py records on the gridcalc.renewal span.
RENEWAL_METRICS = (
    "gridcalc.renewal_n_max",
    "gridcalc.renewal_nodes",
    "gridcalc.renewal_equation_residual",
    "gridcalc.renewal_linear_err",
)


def environment() -> dict:
    """What a result depends on besides the code: cores, versions, thread settings."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads_env": {
            k: v
            for k, v in sorted(os.environ.items())
            if "THREAD" in k or k.startswith(("OMP_", "MKL_"))
        },
    }


@dataclass
class Finished:
    """One child process: exit code, wall time, rusage, and its output."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts children one at a time and counts them as operations."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str]) -> Finished:
        """Run ``python argv`` to its end; the process is killed at the deadline."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Finished(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # KiB on Linux; covers waited-for descendants
            out_path.read_text(),
            err_path.read_text(),
        )

    def fail(self, what: str, detail: str) -> None:
        self.failures.append(f"{what}: {detail}")

    def child_json(self, what: str, argv: list[str]) -> dict | None:
        """A helper child (set-up, probe, slab): one operation, JSON on the last line."""
        self.attempted += 1
        done = self.spawn([str(CHILD), *argv])
        if done.code != 0:
            self.fail(what, f"exit {done.code}: {done.stderr.strip()[-300:]}")
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])

    def command(
        self, workload: Workload, scenario: str, seed: int, spans: Path | None
    ) -> dict | None:
        """One renewal-bounds command; returns its sample, or None if it failed."""
        self.attempted += 1
        out_dir = self.work / f"op{self.attempted}"
        argv = [workload.command, scenario, "--seed", str(seed), "--workers", "1"]
        argv += ["--out", str(out_dir)]
        if spans is None:
            argv = ["-m", "renewal_bounds.cli", *argv]
        else:
            argv = [str(CHILD), "trace", str(spans), repr(workload.renewal_rate), "--", *argv]
        done = self.spawn(argv)
        what = f"operation {self.attempted} ({'traced' if spans else 'plain'})"
        if done.code != 0:
            self.fail(what, f"exit {done.code}: {done.stderr.strip()[-300:]}")
            return None
        try:
            raw = (out_dir / "report.json").read_bytes()
            problems = workload.oracle(json.loads(raw))
        except (OSError, ValueError, KeyError, TypeError) as err:
            problems = [f"unreadable report.json: {err!r}"]
            raw = b""
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.fail(what, "; ".join(problems))
            return None
        return {
            "wall_s": done.wall_s,
            "cpu_s": done.cpu_s,
            "peak_rss_mb": done.peak_rss_mb,
            "sha256": hashlib.sha256(raw).hexdigest(),
        }


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def layer_sample(spans: list[dict]) -> dict:
    """Per-layer figures of one traced command, from its spans.

    Timed spans sum their durations; a layer that was never entered reads 0.
    ``cli.self_s`` is the ``cli.run`` span minus its child spans.
    """
    sample = dict.fromkeys([f"{name}_s" for name in TIMED_SPANS] + list(RENEWAL_METRICS), 0.0)
    child_time: dict[int, float] = {}
    reps = 0
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] in TIMED_SPANS:
            sample[f"{span['name']}_s"] += duration
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration
        counters = dict(span.get("counters", {}))
        reps += counters.pop("reps", 0)
        sample.update(counters)
    runs = [i for i, s in enumerate(spans) if s["name"] == "cli.run"]
    sample["cli.self_s"] = sum(
        spans[i]["end"] - spans[i]["start"] - child_time.get(i, 0.0) for i in runs
    )
    sample["simulate.reps_per_s"] = reps / sample["simulate.estimate_s"]
    return sample


def modal_report(runner: Runner, samples: list[dict]) -> str | None:
    """The most common report.json hash; every operation that differs fails."""
    hashes = [s["sha256"] for s in samples]
    modal = max(set(hashes), key=hashes.count) if hashes else None
    for h in hashes:
        if h != modal:
            runner.fail("report.json", f"sha256 {h[:12]} differs from {modal[:12]} of the others")
    return modal


def measure(
    name: str, seed: int, seconds: float, traced: bool, runner: Runner
) -> tuple[dict, dict]:
    """Run one workload; returns (metrics, raw samples)."""
    workload = WORKLOADS[name]
    scenario = f"perfbench/scenarios/{name}.ini"

    # The first set-up also writes the checkout's bytecode cache; it is not timed.
    first = runner.child_json("set-up (warm-up)", ["setup", scenario])
    # Set-ups run in two blocks of the same size, one on each side of the
    # commands: every workload times them the same way, after a set-up process
    # rather than after a command, and the two blocks span the whole run. The
    # commands get what is left of --seconds once both blocks are counted.
    setup_block = 0 if traced else SETUP_BLOCK
    start = time.monotonic()
    setups = [runner.child_json("set-up", ["setup", scenario]) for _ in range(setup_block)]
    block_s = time.monotonic() - start  # the block after the commands takes as long
    plain, traced_ops = [], []
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - start + block_s < seconds:
        rounds += 1
        if time.monotonic() > runner.deadline - 5.0:
            runner.fail("run", "stopped early at the deadline")
            break
        sample = runner.command(workload, scenario, seed, None)
        if sample is not None:
            plain.append(sample)
        if traced:
            spans_path = runner.work / "spans.json"
            sample = runner.command(workload, scenario, seed, spans_path)
            if sample is not None:
                sample["layers"] = layer_sample(json.loads(spans_path.read_text()))
                traced_ops.append(sample)
    measured_s = time.monotonic() - start
    setups += [runner.child_json("set-up", ["setup", scenario]) for _ in range(setup_block)]
    setups = [s for s in setups if s is not None]
    modal = modal_report(runner, plain + traced_ops)
    plain = [s for s in plain if s["sha256"] == modal]
    traced_ops = [s for s in traced_ops if s["sha256"] == modal]

    raw = {"setup": setups, "plain": plain, "traced": traced_ops, "measured_s": measured_s}
    if first is not None:
        raw["versions"] = {"numpy": first["numpy"], "scipy": first["scipy"]}
    if not traced:
        if not setups or not plain:
            return {}, raw
        return {
            "wall_s": _median([s["wall_s"] for s in plain]),
            "setup_s": _median([s["setup_s"] for s in setups]),
            "cpu_s": _median([s["cpu_s"] for s in plain]),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
        }, raw

    probe = runner.child_json("probe", ["probe", scenario, str(seed)])
    slab = runner.child_json("slab", ["slab", scenario, str(seed)])
    if not plain or not traced_ops or probe is None or slab is None:
        return {}, raw
    raw.update(probe=probe, slab=slab)
    violations = probe["hazard.ppf_contract_violations"]
    if violations:
        runner.fail("probe", f"{violations} ppf draws with F(x) < u")
    layers = [s["layers"] for s in traced_ops]
    metrics = {metric: _median([s[metric] for s in layers]) for metric in layers[0]}
    metrics.update(probe)
    metrics.update(slab)
    traced_wall = _median([s["wall_s"] for s in traced_ops])
    metrics["trace.overhead_s"] = traced_wall - _median([s["wall_s"] for s in plain])
    return metrics, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "renewal_bounds" / "cli.py").is_file():
        print(f"no package source at {SRC}: run from the root of a full checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("--seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2

    run_id = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = WORK / f"{run_id}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        metrics, raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        for failure in runner.failures[:5]:
            print(failure, file=sys.stderr)
        print("no result: too many operations failed", file=sys.stderr)
        return 1

    env = {**environment(), **raw.get("versions", {})}
    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "failures": runner.failures,
        "metrics": metrics,
        "samples": raw,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(raw['plain'])} plain and "
        f"{len(raw['traced'])} traced commands in {raw['measured_s']:.1f} s, "
        f"{len(raw['setup'])} set-ups"
    )
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}")
    for metric in units:
        print(f"{metric:38s} {metrics[metric]:.6g} {units[metric]}")
    print(
        f"{'error_rate':38s} {failed / runner.attempted:.6g} "
        f"(failed {failed} of {runner.attempted} operations)"
    )
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": units[metric]} for metric in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
