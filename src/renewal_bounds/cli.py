"""Batch command-line interface.

A scenario file is UTF-8 text, whatever the locale, and INI-like:
``[section]`` headers, each followed by ``key = value`` lines; ``#`` and
``;`` start a comment, and keys are read in lower case.  The sections are:

- ``[phi]`` and ``[Q]`` (``[q]`` names the same section): an intensity;
- ``[mu]``: the rule for the extra hazards mu_j, with member sections
  ``[mu.1]`` ... ``[mu.m]`` when the rule takes members;
- ``[simulation]``: ``t_queries`` (one or more times, strictly ascending),
  ``reps`` and ``seed`` (integers), and optional ``step`` and ``horizon`` of
  the renewal grid (defaults ``E zeta / 200`` and ``max(40 E eta, 1.1 max t)``);
- ``[output]``, optional: ``dir`` (default ``.``) and ``formats``
  (``csv``, ``json`` or both; default both).

An intensity section names a ``family`` and gives that family's keys (all
numbers; ``inf`` is one)::

    exp              rate
    uniform          a  b
    weibull          shape  scale (default 1)
    deterministic    c
    zero             (no key)
    piecewise        segment = start: c0 [c1 c2 c3]   (repeatable, at least one)
                     atom = location: hazard jump     (repeatable)

for example::

    [phi]
    family = piecewise
    segment = 0: 1.0
    segment = 2: 0.5 0.1
    atom = 1: 0.693147
    atom = 2.5: inf

``[mu]`` names a ``rule`` and gives its keys::

    constant-rate        rate               hazard rate for every j
    linear-capped-rate   base  slope  cap   hazard min(base + slope (j - 1), cap)
    cycle                (members)          [mu.k] with k - 1 = (j - 1) mod m
    repeat-last, list    (members)          [mu.j], and [mu.m] for every j > m

Member sections are intensity sections numbered 1 to m without a gap, read
in numeric order (``[mu.10]`` follows ``[mu.9]``); a rate rule takes none.
A key or a section that this grammar does not name is an error, and so is a
key or a section given twice; each is reported at its line.

Subcommands: ``check`` (assumption report), ``bound`` (moments and bounds,
no simulation), ``simulate`` (estimates only), ``verify`` (bounds +
simulation + one claim per bound, mean and query time), ``tail`` (the
backward-time tail formula, not a proved bound, against the empirical tail:
one claim per query time), ``renewal`` (renewal function of the envelope).
A claim is one row of the report (``verdicts.claims`` for ``verify``,
``tail`` for ``tail``): its ``quantity`` and bound ``name``, ``t``, the
``points`` checked, ``max_gap`` (the largest estimate minus bound) and
``dominates``, decided by one rule, ``simulate._judge``.
Exit status is 0 iff every requested verdict passes: ``check`` exits 1 on a
failed condition, and ``verify`` and ``tail`` exit 1 exactly when a claim
fails; errors exit 2 with a machine-readable JSON record on stderr, so a
crash never reads as a failed verdict.  A flag value the scenario cannot
take, such as ``--reps 0`` or ``--workers 0``, is a ``UsageError``, and so
is an output directory that cannot be made (``--out`` or ``[output] dir``
naming a file or a path below one) and an output file that cannot be
written (a directory in its place, say); the record names the path.  A
scenario file that cannot be read, or whose bytes are not UTF-8, is a
``ScenarioFormatError``.  ``simulate``, ``verify`` and ``tail`` refuse a
scenario that fails an assumption check (exit 2, ``AssumptionFailure``)
unless ``--force`` is given.

``report.json`` is strict JSON (RFC 8259): an estimate that diverges, which
only a forced run on a failing scenario can produce, is written as ``null``.
The ``tail`` and ``renewal`` reports carry a ``renewal`` block with the
lattice numerics: the renewal equation's residual, the node count, the atom
snap error and the mass truncated beyond the horizon.

Outputs are deterministic byte-for-byte for a fixed scenario and flags;
the only timestamp lives in ``manifest.json``.  That holds whatever
``OPENBLAS_NUM_THREADS`` the caller set: importing ``renewal_bounds.cli``
runs numpy's BLAS on one thread (set before numpy loads; a process that
loaded numpy first keeps its own BLAS threads), so the lattice solve's dot
products are summed in one order on every machine.  The manifest lists every
output file, itself included, sorted by name; each entry carries the
file's ``sha256`` and ``bytes`` except the manifest's own, which has only
its name.

The report's ``scenario`` block records the resolved grid ``step`` and
``horizon``; a default whose moment diverges (``E zeta`` for the step,
``E eta`` for the horizon) is recorded as ``null``, so ``check`` can still
give condition 3's verdict on an improper phi.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

# before numpy loads: one BLAS thread, so output bytes do not depend on the
# core count, and no thread pool is started for a short process
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .assumptions import check_assumptions
from .errors import (
    DivergentMomentError,
    IntensityError,
    RenewalBoundsError,
    ScenarioFormatError,
    UsageError,
)
from .gridcalc import backward_tail_bound, discretize, renewal_function
from .hazard import (
    GeneralizedIntensity,
    deterministic,
    exponential,
    from_segments,
    uniform,
    weibull,
    zero,
)
# not called here; kept so that perfbench/child.py can wrap cli.<name> when tracing
from .gridcalc import generalized_bound, lorden_classical_bound  # noqa: F401
from .hazard import moment  # noqa: F401
from .scenario import (
    ConstantRate,
    LinearCappedRate,
    MuRule,
    ScenarioConfig,
    _query_times,
)
from .simulate import _assumption_gate, _bounds, _judge, estimate, verify_bound

__all__ = ["parse_scenario", "load_scenario", "run", "main", "OutputOptions", "ReportBundle"]

COMMANDS = ("check", "bound", "simulate", "verify", "tail", "renewal")


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------


@dataclass
class _Entry:
    key: str
    value: str
    line: int
    col: int  # 1-based column where the value starts


@dataclass
class _Section:
    name: str
    line: int  # the header's line
    entries: list[_Entry] = field(default_factory=list)


def _parse_sections(text: str, path: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].split(";", 1)[0].rstrip()
        if not stripped.strip():
            continue
        s = stripped.strip()
        if s.startswith("["):
            col = raw.index("[") + 1
            if not s.endswith("]") or len(s) < 3:
                raise ScenarioFormatError("malformed section header", path, lineno, col)
            name = s[1:-1].strip()
            name = "Q" if name == "q" else name
            if name in sections:
                raise ScenarioFormatError(f"section [{name}] given twice", path, lineno, col)
            current = sections[name] = _Section(name, lineno)
            continue
        if "=" not in s:
            raise ScenarioFormatError(
                "expected 'key = value'", path, lineno, len(raw) - len(raw.lstrip()) + 1
            )
        if current is None:
            raise ScenarioFormatError("entry outside any section", path, lineno, 1)
        key, _, value = stripped.partition("=")
        col = raw.index("=") + 2
        while col <= len(raw) and raw[col - 1] in " \t":
            col += 1
        current.entries.append(_Entry(key.strip().lower(), value.strip(), lineno, col))
    return sections


def _floats(text: str) -> tuple[float, ...]:
    values = tuple(float(token) for token in text.replace(",", " ").split())
    if not values:
        raise ValueError("needs at least one number")
    return values


def _formats(text: str) -> tuple[str, ...]:
    formats = tuple(text.split())
    if not formats:
        raise ValueError("needs csv, json or both")
    for name in formats:
        if name not in ("csv", "json"):
            raise ValueError(f"unknown output format {name!r}")
    return formats


def _value(entry: _Entry, parse, path: str):
    try:
        return parse(entry.value)
    except ValueError as err:
        raise ScenarioFormatError(
            f"bad value for '{entry.key}': {err}", path, entry.line, entry.col
        ) from None


_REQUIRED = object()  # the default of a key that must be given

# each kind of section, as rows of (key, parser, default)
_FAMILIES = {  # family -> (constructor, keys); keys None: segment and atom, repeatable
    "exp": (exponential, [("rate", float, _REQUIRED)]),
    "uniform": (uniform, [("a", float, _REQUIRED), ("b", float, _REQUIRED)]),
    "weibull": (weibull, [("shape", float, _REQUIRED), ("scale", float, 1.0)]),
    "deterministic": (deterministic, [("c", float, _REQUIRED)]),
    "zero": (zero, []),
    "piecewise": (from_segments, None),
}
# every rule builds a MuRule, a list of laws whose last ``period`` repeat:
# a cycle repeats the whole list, every other rule the last law
_RULES = {  # rule -> (constructor, keys); keys None: the rule takes [mu.1] ... [mu.m]
    "constant-rate": (ConstantRate, [("rate", float, _REQUIRED)]),
    "linear-capped-rate": (
        LinearCappedRate,
        [("base", float, _REQUIRED), ("slope", float, _REQUIRED), ("cap", float, _REQUIRED)],
    ),
    "cycle": (lambda items: MuRule(items, period=len(items)), None),
    "repeat-last": (MuRule, None),
    "list": (MuRule, None),
}
_SIMULATION = [
    ("t_queries", lambda text: _query_times(_floats(text)), _REQUIRED),
    ("reps", int, _REQUIRED),
    ("seed", int, _REQUIRED),
    ("step", float, None),
    ("horizon", float, None),
]
_OUTPUT = [("dir", Path, Path(".")), ("formats", _formats, ("csv", "json"))]


def _read(section: _Section, keys, path: str, loose=()) -> dict:
    """The section's value for each (key, parser, default) row of ``keys``.

    A key given twice or named by no row is an error at its line; entries
    whose key is in ``loose`` are left to the caller.
    """
    rows = {key: (parse, default) for key, parse, default in keys}
    given: dict[str, _Entry] = {}
    for e in section.entries:
        if e.key in loose:
            continue
        if e.key not in rows:
            raise ScenarioFormatError(
                f"unknown key '{e.key}' in section [{section.name}]", path, e.line, e.col
            )
        if e.key in given:
            raise ScenarioFormatError(
                f"duplicate key '{e.key}' in section [{section.name}]", path, e.line, e.col
            )
        given[e.key] = e
    values = {}
    for key, (parse, default) in rows.items():
        if key in given:
            values[key] = _value(given[key], parse, path)
        elif default is _REQUIRED:
            raise ScenarioFormatError(
                f"section [{section.name}] is missing '{key}'", path, section.line
            )
        else:
            values[key] = default
    return values


def _kind(section: _Section, key: str, table: dict, what: str, path: str):
    """The entry of ``key`` (``family`` or ``rule``) and the row of ``table`` it names."""
    entry = next((e for e in section.entries if e.key == key), None)
    if entry is None:
        raise ScenarioFormatError(
            f"section [{section.name}] is missing '{key}'", path, section.line
        )
    name = entry.value.lower().replace("_", "-")
    if name not in table:
        raise ScenarioFormatError(
            f"unknown {what} {entry.value!r} (expected {', '.join(table)})",
            path,
            entry.line,
            entry.col,
        )
    return entry, table[name]


def _build_intensity(section: _Section, path: str) -> GeneralizedIntensity:
    entry, (build, keys) = _kind(section, "family", _FAMILIES, "intensity family", path)
    if keys is None:
        values = _read_piecewise(section, path)
    else:
        values = _read(section, [("family", str, None), *keys], path)
        del values["family"]
    try:
        return build(**values)
    except RenewalBoundsError as err:
        raise ScenarioFormatError(
            f"invalid intensity in [{section.name}]: {err}", path, entry.line, entry.col
        ) from err


def _read_piecewise(section: _Section, path: str) -> dict:
    """The repeatable ``segment`` and ``atom`` keys, as :func:`from_segments` arguments."""
    _read(section, [("family", str, None)], path, loose=("segment", "atom"))
    segments, atoms = [], []
    for e in section.entries:
        if e.key not in ("segment", "atom"):
            continue
        head, sep, rest = e.value.partition(":")
        if not sep:
            raise ScenarioFormatError(
                f"'{e.key}' must look like 'location: numbers'", path, e.line, e.col
            )
        loc = _value(_Entry(e.key, head.strip(), e.line, e.col), float, path)
        body = _Entry(e.key, rest.strip(), e.line, e.col + len(head) + 1)
        if e.key == "segment":
            segments.append((loc, _value(body, _floats, path)))
        else:
            atoms.append((loc, _value(body, float, path)))
    # properness is condition 3's verdict, not a parse error
    return {"segments": segments, "atoms": atoms, "require_proper": False}


def _build_mu_rule(sections: dict[str, _Section], path: str) -> MuRule:
    section = sections["mu"]
    entry, (build, keys) = _kind(section, "rule", _RULES, "mu rule", path)
    numbered = [s for name, s in sections.items() if name.startswith("mu.")]
    names = [f"mu.{i}" for i in range(1, len(numbered) + 1)] if keys is None else []
    for member in numbered:
        if member.name not in names:
            takes = f"[mu.1] ... [mu.{len(names)}]" if names else "no member sections"
            raise ScenarioFormatError(
                f"mu rule {entry.value!r} takes {takes}, got [{member.name}]", path, member.line
            )
    if keys is None and not names:
        raise ScenarioFormatError(
            f"mu rule {entry.value!r} needs member sections [mu.1], [mu.2], ...",
            path,
            entry.line,
            entry.col,
        )
    values = _read(section, [("rule", str, None), *(keys or [])], path)
    del values["rule"]
    if keys is None:
        return build(tuple(_build_intensity(sections[name], path) for name in names))
    try:
        return build(**values)
    except IntensityError as err:
        raise ScenarioFormatError(
            f"invalid mu rule in [mu]: {err}", path, entry.line, entry.col
        ) from err


@dataclass(frozen=True)
class OutputOptions:
    directory: Path = Path(".")
    formats: tuple[str, ...] = ("csv", "json")


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, OutputOptions]:
    """Parse a scenario file; returns the config and its output options."""
    p = Path(path)
    where = str(p)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ScenarioFormatError(f"not UTF-8: {err.reason} at byte {err.start}", where) from err
    except OSError as err:
        raise ScenarioFormatError(f"cannot be read: {err.strerror or err}", where) from err
    sections = _parse_sections(text, where)
    for required in ("phi", "Q", "mu", "simulation"):
        if required not in sections:
            raise ScenarioFormatError(f"missing required section [{required}]", where)
    for name, section in sections.items():
        if name not in ("phi", "Q", "mu", "simulation", "output") and not name.startswith("mu."):
            raise ScenarioFormatError(f"unknown section [{name}]", where, section.line)

    phi = _build_intensity(sections["phi"], where)
    q = _build_intensity(sections["Q"], where)
    mu_rule = _build_mu_rule(sections, where)
    sim = sections["simulation"]
    values = _read(sim, _SIMULATION, where)
    try:
        config = ScenarioConfig(phi=phi, q=q, mu_rule=mu_rule, label=p.stem, **values)
    except (ValueError, RenewalBoundsError) as err:
        raise ScenarioFormatError(
            f"invalid [simulation] values: {err}", where, sim.line
        ) from err
    out = _read(sections.get("output", _Section("output", 0)), _OUTPUT, where)
    return config, OutputOptions(out["dir"], out["formats"])


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file into a :class:`ScenarioConfig` (defaults applied lazily)."""
    return load_scenario(path)[0]


# ---------------------------------------------------------------------------
# Report bundle and writers
# ---------------------------------------------------------------------------


@dataclass
class ReportBundle:
    """The one writer of a run's files, and the report they carry.

    ``directory`` and ``formats`` are the run's output directory (``--out``
    or ``[output] dir``) and its ``[output] formats``.  Every file goes
    through :meth:`write`, which lists it in ``files`` for the manifest; a
    file that cannot be written is a ``UsageError`` that names its path
    (exit 2), never the exit 1 of a failed check or claim.  :meth:`csv`
    writes only when ``csv`` is among the formats, and :meth:`json` only
    when ``json`` is; the manifest is always written, last.
    """

    directory: Path = Path(".")
    formats: tuple[str, ...] = ("csv", "json")
    exit_code: int = 0
    report: dict = field(default_factory=dict)
    files: dict[str, Path] = field(default_factory=dict)

    def write(self, name: str, text: str) -> None:
        path = self.directory / name
        try:
            path.write_text(text)
        except OSError as err:
            reason = err.strerror or err
            raise UsageError(f"output file {str(path)!r} cannot be written: {reason}") from err
        self.files[name] = path

    def csv(self, name: str, header: list[str], rows) -> None:
        if "csv" in self.formats:
            # one %-template per row: the text of f"{float(v):.17g}" for every value
            template = ",".join(["%.17g"] * len(header))
            lines = [",".join(header)]
            lines.extend(template % tuple(row) for row in rows)
            self.write(name, "\n".join(lines) + "\n")

    def json(self, name: str, payload: dict) -> None:
        if "json" in self.formats:
            # strict RFC 8259: a non-finite float raises instead of writing NaN/Infinity
            self.write(name, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")

    def write_manifest(self, command: str) -> None:
        # CPython's own SHA-256: hashlib would load OpenSSL (about 3.5 MB) for
        # the manifest alone
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # CPython 3.11
            except ImportError:
                from hashlib import sha256

        entries = [{"name": "manifest.json"}]  # a file cannot hold its own hash
        for name, file in self.files.items():
            data = file.read_bytes()
            entries.append(
                {
                    "name": name,
                    "sha256": sha256(data).hexdigest(),
                    "bytes": len(data),
                }
            )
        entries.sort(key=lambda e: e["name"])
        manifest = {
            "command": command,
            "created": datetime.now(timezone.utc).isoformat(),
            "files": entries,
        }
        self.write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommand execution
# ---------------------------------------------------------------------------


def run(
    command: str,
    scenario_path: str | Path,
    *,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    reps: int | None = None,
    step: float | None = None,
    horizon: float | None = None,
    workers: int = 1,
    force: bool = False,
) -> ReportBundle:
    """Execute one subcommand; flag overrides beat file values beat defaults."""
    if command not in COMMANDS:
        raise RenewalBoundsError(f"unknown subcommand {command!r}")
    if workers < 1:
        raise UsageError(f"invalid --workers {workers}: at least 1 process is needed")
    scenario, out_opts = load_scenario(scenario_path)
    for name, value in (("seed", seed), ("reps", reps), ("step", step), ("horizon", horizon)):
        if value is not None:
            try:
                scenario = replace(scenario, **{name: value})
            except ValueError as err:
                raise UsageError(f"invalid --{name} {value}: {err}") from err

    directory = Path(out_dir) if out_dir is not None else out_opts.directory
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"output directory {str(directory)!r} cannot be used: {err}") from err
    bundle = ReportBundle(directory, out_opts.formats)
    bundle.report["scenario"] = {
        "label": scenario.label,
        "reps": scenario.reps,
        "seed": scenario.seed,
        "step": _default_or_null(scenario.resolved_step),
        "horizon": _default_or_null(scenario.resolved_horizon),
        "iid": scenario.iid,
        "t_queries": list(scenario.t_queries),
    }

    if command == "check":
        report = check_assumptions(scenario)
        bundle.report["assumptions"] = report.as_dict()
        bundle.exit_code = 0 if report.all_pass else 1

    elif command == "bound":
        bundle.report.update(_bound_blocks(_bounds(scenario)))

    elif command == "simulate":
        report = _assumption_gate(scenario, force)
        table = estimate(scenario, workers=workers)
        bundle.report["assumptions"] = report.as_dict()
        _estimates(bundle, table)

    elif command == "verify":
        report = verify_bound(scenario, override_assumptions=force, workers=workers)
        bundle.report.update(
            _bound_blocks(report),
            assumptions=report.assumptions.as_dict(),
            assumption_override=report.assumption_override,
            verdicts={"all_pass": report.all_pass, "claims": [asdict(c) for c in report.claims]},
        )
        _estimates(bundle, report.table)
        bundle.exit_code = 0 if report.all_pass else 1

    elif command == "tail":
        _tail_command(scenario, bundle, workers, force)

    elif command == "renewal":
        H, bundle.report["renewal"] = _renewal(scenario)
        bundle.csv("renewal.csv", ["s", "H"], zip(H.grid(), H.values))

    bundle.json("report.json", bundle.report)
    bundle.write_manifest(command)
    return bundle


def _default_or_null(resolve):
    """A grid default, or None when the moment it rests on diverges.

    Only the report's ``scenario`` block tolerates this; ``tail`` and
    ``renewal`` resolve the grid again and fail there with the error.
    """
    try:
        return resolve()
    except DivergentMomentError:
        return None


def _bound_blocks(report) -> dict:
    """The ``moments`` and ``bounds`` blocks of a :class:`BoundReport`."""
    return {
        "moments": {"e_eta": report.e_eta, "e_eta2": report.e_eta2, "e_zeta": report.e_zeta},
        "bounds": {"generalized": report.generalized, "classical": report.classical},
    }


def _finite_or_null(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _estimates(bundle: ReportBundle, table) -> None:
    """Per-t estimates, as the report's block and ``estimates.csv``.

    A non-finite estimate (only under ``--force``) is ``null`` in the report.
    """
    columns = {  # report key -> column, in the CSV's order after t
        "mean_backward": table.mean_backward,
        "half_width_backward": table.half_backward,
        "mean_forward": table.mean_forward,
        "half_width_forward": table.half_forward,
    }
    bundle.report["estimates"] = [
        {"t": t, "reps": table.reps, **{k: _finite_or_null(c[i]) for k, c in columns.items()}}
        for i, t in enumerate(table.t_queries)
    ]
    rows = zip(table.t_queries, *columns.values())
    bundle.csv("estimates.csv", ["t", "meanB", "ciB", "meanW", "ciW"], rows)


def _renewal(scenario: ScenarioConfig):
    """Renewal function of the zeta envelope on the scenario's grid.

    Returns H and the lattice numerics the report carries; all of them are
    deterministic, so they keep ``report.json`` byte-identical across runs.
    """
    grid = discretize(
        scenario.zeta_cdf,
        scenario.resolved_step(),
        scenario.resolved_horizon(),
        allow_truncation=True,
    )
    H = renewal_function(grid)
    diagnostics = {
        "equation_residual": H.equation_residual,
        "nodes": int(H.atoms.size),
        "snap_error": grid.snap_error,
        "truncation_residual": grid.truncation_residual,
    }
    return H, diagnostics


def _tail_command(scenario, bundle, workers, force) -> None:
    """Write the tail CSVs and the report's blocks; one claim per query time sets the exit code."""
    report = _assumption_gate(scenario, force)
    H, bundle.report["renewal"] = _renewal(scenario)
    h = H.step
    table = estimate(scenario, workers=workers, keep_samples=True)
    claims = []
    for qi, t in enumerate(scenario.t_queries):
        n_pts = int(math.floor(t / h + 1e-9)) + 1
        stride = max(1, (n_pts - 1) // 2000)
        xs = np.arange(0, n_pts, stride) * h
        if xs[-1] < t:
            xs = np.append(xs, t)
        ub = backward_tail_bound(scenario.eta_cdf, H, t, xs)
        srt = np.sort(table.samples_backward[:, qi])
        emp = (srt.size - np.searchsorted(srt, xs, side="right")) / srt.size
        se = np.sqrt(emp * (1.0 - emp) / scenario.reps)
        # :g keeps 6 digits; distinct query times need distinct files
        name = f"tail_t{t:g}.csv" if float(f"{t:g}") == t else f"tail_t{t!r}.csv"
        bundle.csv(name, ["x", "upper_bound", "empirical", "se"], zip(xs, ub, emp, se))
        claims.append(_judge("tail_B", "backward_tail", t, ub, emp, se))
    bundle.report["tail"] = [asdict(c) for c in claims]
    bundle.report["assumptions"] = report.as_dict()
    bundle.exit_code = 0 if all(claim.dominates for claim in claims) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewal-bounds",
        description="Generalized renewal processes: assumption checks, "
        "overshoot bounds, and reproducible Monte Carlo verification.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenario", help="scenario file (INI-like; see docs)")
    parser.add_argument("--out", dest="out_dir", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the file seed")
    parser.add_argument("--reps", type=int, default=None, help="override replications")
    parser.add_argument("--step", type=float, default=None, help="override grid step")
    parser.add_argument(
        "--horizon", type=float, default=None, help="override grid horizon"
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel processes")
    parser.add_argument(
        "--force",
        action="store_true",
        help="proceed despite failed assumption checks (recorded in the report)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        bundle = run(
            args.command,
            args.scenario,
            out_dir=args.out_dir,
            seed=args.seed,
            reps=args.reps,
            step=args.step,
            horizon=args.horizon,
            workers=args.workers,
            force=args.force,
        )
    except RenewalBoundsError as err:
        record = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, ScenarioFormatError):
            record["where"] = {"path": err.path, "line": err.line, "col": err.col}
        print(json.dumps(record), file=sys.stderr)
        return 2
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
