"""Steadiness mode: run workloads repeatedly and report the spread of each metric.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--out FILE] [--against FILE]

Runs ``run.py --trace 0`` once per seed (``first-seed``, ``first-seed + 1``,
...) for each workload, one run at a time. The workloads take turns: every
workload runs seed ``first-seed``, then every workload runs the next seed,
and so on, so slow changes of the machine's speed fall on all of them alike.

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the bound from ``BENCHMARK.json``. The target is a spread below a third
of the bound; a spread above that is flagged but does not fail. The run fails
(exit 1) if a run fails or if any spread, ``setup_s`` included, exceeds its
bound. With ``--against`` it also fails if a median is worse than the median
of the same metric in that earlier summary by more than the bound. The
summary is written to ``--out`` (default ``perfbench/_work/steady.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict | None:
    """One ``run.py --trace 0`` run; its metrics, or None if it failed."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed}: run failed", file=sys.stderr)
        print(done.stdout + done.stderr, file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=BENCH / "_work" / "steady.json")
    parser.add_argument("--against", type=Path, help="summary of an earlier set to compare with")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    earlier = json.loads(args.against.read_text()) if args.against else {}

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            metrics = run_once(workload, seed, args.seconds)
            if metrics is None:
                ok = False
                continue
            for name, vals in values[workload].items():
                vals.append(metrics[name])
            shown = " ".join(f"{k}={metrics[k]:.4f}" for k in values[workload])
            print(f"{workload} seed {seed}: {shown}", flush=True)

    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            if len(vals) < 2:
                ok = False
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            notes = []
            if spread > bound:
                notes.append("SPREAD ABOVE BOUND")
                ok = False
            elif spread >= bound / 3:
                notes.append("above bound/3")
            before = earlier.get(workload, {}).get(name)
            change = None
            if before is not None:
                change = (median - before["median"]) / before["median"]
                if metric["better"] == "higher":
                    change = -change
                notes.append(f"{change:+.1%} vs earlier")
                if change > bound:
                    notes.append("WORSE THAN BOUND")
                    ok = False
            summary[workload][name] = {
                "values": vals,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "worse_than_earlier": change,
            }
            print(
                f"  {workload:20s} {name:12s} median {median:10.4f} {metric['unit']:3s} "
                f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:7.2%} bound {bound:.0%}"
                + "".join(f"  ({note})" for note in notes),
                flush=True,
            )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
