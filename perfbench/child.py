"""Child processes of the benchmark: set-up timing, the traced command, layer probes.

``run.py`` starts every one of these in a fresh interpreter with ``PYTHONPATH``
set to the checkout's ``src/``; each prints one JSON object on its last
stdout line (``trace`` writes its spans to a file instead).

    child.py setup SCENARIO               set-up time of a fresh process
    child.py trace SPANS RATE -- ARGV...  the CLI, with a span around each layer call
    child.py probe SCENARIO SEED          ppf and path_stream probes
    child.py slab SCENARIO SEED           peak memory of one full replication slab

Everything here goes through the package's public functions. The traced
command wraps public names where the calling module looks them up, so the
package itself is not modified.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PPF_DRAWS = 1_000_000
PROBE_REPEATS = 3
STREAM_PROBE_REPS = 20_000
SLAB_REPS = 16_384  # one full slab of simulate.estimate

# (module, public name, span name): every call into a layer that the CLI makes.
LAYER_CALLS = (
    ("cli", "run", "cli.run"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "check_assumptions", "assumptions.check"),
    ("simulate", "check_assumptions", "assumptions.check"),
    ("scenario", "cdf_from_intensity", "hazard.compile"),
    ("scenario", "moment", "hazard.moment"),
    ("assumptions", "moment", "hazard.moment"),
    ("simulate", "moment", "hazard.moment"),
    ("gridcalc", "moment", "hazard.moment"),
    ("cli", "moment", "hazard.moment"),
    ("cli", "generalized_bound", "gridcalc.bounds"),
    ("cli", "lorden_classical_bound", "gridcalc.bounds"),
    ("simulate", "generalized_bound", "gridcalc.bounds"),
    ("simulate", "lorden_classical_bound", "gridcalc.bounds"),
    ("cli", "discretize", "gridcalc.discretize"),
    ("cli", "renewal_function", "gridcalc.renewal"),
    ("cli", "backward_tail_bound", "gridcalc.tail_bound"),
    ("cli", "verify_bound", "simulate.verify_bound"),
    ("cli", "estimate", "simulate.estimate"),
    ("simulate", "estimate", "simulate.estimate"),
)


def _import_package():
    """Import renewal_bounds and refuse any copy that is not the checkout's own."""
    import renewal_bounds

    where = Path(renewal_bounds.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"renewal_bounds imported from {where}, not from {SRC}")
    return renewal_bounds


def setup(scenario_path: str) -> dict:
    """Import, parse, and compile every scenario CDF with its first two moments."""
    t0 = time.perf_counter()
    _import_package()
    import numpy
    import scipy
    from renewal_bounds import moment
    from renewal_bounds.cli import load_scenario

    sc, _ = load_scenario(scenario_path)
    sc.mu_cdfs  # compiled too, although zero intensities have no moments
    for F in (sc.eta_cdf, sc.zeta_cdf, *sc.interval_cdfs):
        moment(F, 1)
        moment(F, 2)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "numpy": numpy.__version__, "scipy": scipy.__version__}


class Tracer:
    """In-memory spans: name, start, end, parent index, and optional counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span["counters"] = counters(result)
            return result

        return traced


def _counters(rate: float) -> dict:
    """Counters recorded on a span from the call's result, by span name."""
    import numpy as np

    def renewal(H) -> dict:
        return {
            "gridcalc.renewal_n_max": int(H.n_max),
            "gridcalc.renewal_nodes": int(H.values.size),
            "gridcalc.renewal_equation_residual": float(H.equation_residual),
            "gridcalc.renewal_linear_err": float(np.max(np.abs(H.values - rate * H.grid()))),
        }

    def estimate(table) -> dict:
        return {"reps": int(table.reps)}

    return {"gridcalc.renewal": renewal, "simulate.estimate": estimate}


def trace(spans_path: str, rate: float, argv: list[str]) -> int:
    """Run the CLI with spans around each layer call; write the spans once at exit."""
    _import_package()
    import importlib

    tracer = Tracer()
    counters = _counters(rate)
    for module_name, attr, span_name in LAYER_CALLS:
        module = importlib.import_module(f"renewal_bounds.{module_name}")
        wrapped = tracer.wrap(getattr(module, attr), span_name, counters.get(span_name))
        setattr(module, attr, wrapped)
    from renewal_bounds.cli import main

    try:
        return main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


def _quartic_rows(phi) -> int:
    """Rows of the compiled CDF whose cumulative hazard has degree 3 or 4.

    Rows start at 0, at every segment break and at every atom (up to a full
    atom); a row's cumulative-hazard increment has one degree more than the
    hazard of its segment, and degrees above 2 take the iterative solver.
    """
    import numpy as np

    starts = {0.0, *map(float, phi.breaks), *map(float, phi.atom_locs)}
    if phi.full_atom_location is not None:
        starts = {s for s in starts if s < phi.full_atom_location}
    count = 0
    for s in starts:
        seg = int(np.searchsorted(phi.breaks, s, side="right") - 1)
        nonzero = np.nonzero(phi.coeffs[seg])[0]
        if nonzero.size and nonzero[-1] + 1 > 2:
            count += 1
    return count


def probe(scenario_path: str, seed: int) -> dict:
    """Time ppf on a fixed batch of draws, check its contract, time path_stream."""
    _import_package()
    import numpy as np
    from renewal_bounds import path_stream
    from renewal_bounds.cli import load_scenario

    sc, _ = load_scenario(scenario_path)
    F = sc.eta_cdf
    u = np.random.Generator(np.random.PCG64(seed)).random(PPF_DRAWS)
    F.ppf(u[:1000])  # warm up
    ppf_s = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        x = F.ppf(u)
        ppf_s.append(time.perf_counter() - t0)
    finite = np.isfinite(x)
    violations = int(np.count_nonzero(np.asarray(F.cdf(x[finite])) < u[finite]))
    below = np.nextafter(x[finite], -math.inf)
    not_minimal = np.count_nonzero(np.asarray(F.cdf(below)) >= u[finite])

    stream_s = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for r in range(STREAM_PROBE_REPS):
            path_stream(seed, r)
        stream_s.append(time.perf_counter() - t0)
    return {
        "hazard.ppf_ns_per_draw": sorted(ppf_s)[PROBE_REPEATS // 2] / PPF_DRAWS * 1e9,
        "hazard.ppf_contract_violations": violations,
        "hazard.ppf_not_minimal_share": float(not_minimal) / PPF_DRAWS,
        "hazard.quartic_rows": _quartic_rows(sc.phi),
        "simulate.path_stream_us": sorted(stream_s)[PROBE_REPEATS // 2] / STREAM_PROBE_REPS * 1e6,
    }


def slab(scenario_path: str, seed: int) -> dict:
    """Growth of this process's peak RSS over one full-slab estimate."""
    _import_package()
    from dataclasses import replace

    from renewal_bounds import estimate
    from renewal_bounds.cli import load_scenario

    sc, _ = load_scenario(scenario_path)
    sc = replace(sc, seed=seed, reps=SLAB_REPS)
    sc.eta_cdf, sc.mu_cdfs, sc.zeta_var  # compile before the baseline is taken
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    estimate(sc)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"simulate.slab_peak_mb": (after - before) / 1024.0}


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "trace":
        sep = rest.index("--")
        return trace(rest[0], float(rest[1]), rest[sep + 1 :])
    if kind == "setup":
        result = setup(rest[0])
    elif kind == "probe":
        result = probe(rest[0], int(rest[1]))
    elif kind == "slab":
        result = slab(rest[0], int(rest[1]))
    else:
        raise SystemExit(f"unknown child kind {kind!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
