"""Batch command-line interface.

Scenario files are INI-like documents with sections ``[phi]``, ``[Q]``,
``[mu]`` (+ ``[mu.1]``, ``[mu.2]``, ... members), ``[simulation]`` and an
optional ``[output]``.  Intensities are given as a named family::

    [phi]
    family = exp          # exp | uniform | weibull | deterministic | zero | piecewise
    rate = 1.0

or as explicit piecewise segments and atoms (repeatable keys)::

    [phi]
    family = piecewise
    segment = 0: 1.0            # start: c0 [c1 c2 c3]
    segment = 2: 0.5 0.1
    atom = 1: 0.693147
    atom = 2.5: inf

Subcommands: ``check`` (assumption report), ``bound`` (moments and bounds,
no simulation), ``simulate`` (estimates only), ``verify`` (bounds +
simulation + dominance verdicts), ``tail`` (backward-time tail-bound
curves vs empirical), ``renewal`` (renewal function of the envelope).
Exit status is 0 iff every requested verdict passes; errors exit nonzero
with a machine-readable JSON record on stderr.  ``simulate``, ``verify``
and ``tail`` refuse a scenario that fails an assumption check (exit 2,
``AssumptionFailure``) unless ``--force`` is given.

``report.json`` is strict JSON (RFC 8259): an estimate that diverges, which
only a forced run on a failing scenario can produce, is written as ``null``.
The ``tail`` and ``renewal`` reports carry a ``renewal`` block with the
lattice numerics: the renewal equation's residual, the node count, the atom
snap error and the mass truncated beyond the horizon.

Outputs are deterministic byte-for-byte for a fixed scenario and flags;
the only timestamp lives in ``manifest.json``.  The manifest lists every
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
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .assumptions import check_assumptions
from .errors import (
    DivergentMomentError,
    RenewalBoundsError,
    ScenarioFormatError,
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
    CycledIntensities,
    LinearCappedRate,
    MuRule,
    RepeatLastIntensities,
    ScenarioConfig,
)
from .simulate import _assumption_gate, _bounds, estimate, verify_bound

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


def _parse_sections(text: str, path: str) -> dict[str, list[_Entry]]:
    sections: dict[str, list[_Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].split(";", 1)[0].rstrip()
        if not stripped.strip():
            continue
        s = stripped.strip()
        if s.startswith("["):
            if not s.endswith("]") or len(s) < 3:
                raise ScenarioFormatError(
                    "malformed section header", path, lineno, raw.index("[") + 1
                )
            current = s[1:-1].strip()
            sections.setdefault(current, [])
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
        sections[current].append(_Entry(key.strip().lower(), value.strip(), lineno, col))
    return sections


def _as_float(entry: _Entry, path: str) -> float:
    token = entry.value
    try:
        if token.lower() in ("inf", "+inf", "infinity"):
            return math.inf
        return float(token)
    except ValueError:
        raise ScenarioFormatError(
            f"expected a number for '{entry.key}', got {token!r}", path, entry.line, entry.col
        ) from None


def _as_int(entry: _Entry, path: str) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ScenarioFormatError(
            f"expected an integer for '{entry.key}', got {entry.value!r}",
            path,
            entry.line,
            entry.col,
        ) from None


def _float_list(entry: _Entry, path: str) -> list[float]:
    tokens = entry.value.replace(",", " ").split()
    out = []
    for tok in tokens:
        try:
            out.append(float(tok))
        except ValueError:
            raise ScenarioFormatError(
                f"expected numbers for '{entry.key}', got {tok!r}",
                path,
                entry.line,
                entry.col,
            ) from None
    if not out:
        raise ScenarioFormatError(
            f"'{entry.key}' needs at least one number", path, entry.line, entry.col
        )
    return out


def _single(entries: list[_Entry], key: str, path: str, section: str) -> _Entry | None:
    found = [e for e in entries if e.key == key]
    if not found:
        return None
    if len(found) > 1:
        e = found[1]
        raise ScenarioFormatError(
            f"duplicate key '{key}' in section [{section}]", path, e.line, e.col
        )
    return found[0]


def _require(entries: list[_Entry], key: str, path: str, section: str) -> _Entry:
    e = _single(entries, key, path, section)
    if e is None:
        raise ScenarioFormatError(f"section [{section}] is missing '{key}'", path)
    return e


def _build_intensity(entries: list[_Entry], path: str, section: str) -> GeneralizedIntensity:
    fam_entry = _require(entries, "family", path, section)
    family = fam_entry.value.lower()
    try:
        if family == "exp":
            return exponential(_as_float(_require(entries, "rate", path, section), path))
        if family == "uniform":
            a = _as_float(_require(entries, "a", path, section), path)
            b = _as_float(_require(entries, "b", path, section), path)
            return uniform(a, b)
        if family == "weibull":
            shape = _as_float(_require(entries, "shape", path, section), path)
            scale_e = _single(entries, "scale", path, section)
            scale = _as_float(scale_e, path) if scale_e else 1.0
            return weibull(shape, scale)
        if family == "deterministic":
            return deterministic(_as_float(_require(entries, "c", path, section), path))
        if family == "zero":
            return zero()
        if family == "piecewise":
            return _build_piecewise(entries, path, section)
    except RenewalBoundsError as err:
        if isinstance(err, ScenarioFormatError):
            raise
        raise ScenarioFormatError(
            f"invalid intensity in [{section}]: {err}", path, fam_entry.line, fam_entry.col
        ) from err
    raise ScenarioFormatError(
        f"unknown intensity family {fam_entry.value!r}", path, fam_entry.line, fam_entry.col
    )


def _build_piecewise(entries: list[_Entry], path: str, section: str) -> GeneralizedIntensity:
    segments, atoms = [], []
    for e in entries:
        if e.key not in ("segment", "atom"):
            continue
        head, sep, rest = e.value.partition(":")
        if not sep:
            raise ScenarioFormatError(
                f"'{e.key}' must look like 'location: numbers'", path, e.line, e.col
            )
        try:
            loc = float(head.strip())
        except ValueError:
            raise ScenarioFormatError(
                f"bad location {head.strip()!r}", path, e.line, e.col
            ) from None
        body = _Entry(e.key, rest.strip(), e.line, e.col + len(head) + 1)
        if e.key == "segment":
            segments.append((loc, _float_list(body, path)))
        else:
            atoms.append((loc, _as_float(body, path)))
    if not segments:
        raise ScenarioFormatError(
            f"piecewise intensity in [{section}] needs at least one 'segment'", path
        )
    # properness is condition 3's verdict, not a parse error
    return from_segments(segments, atoms, require_proper=False)


def _build_mu_rule(sections: dict[str, list[_Entry]], path: str) -> MuRule:
    entries = sections.get("mu")
    if entries is None:
        raise ScenarioFormatError("missing required section [mu]", path)
    rule_entry = _require(entries, "rule", path, "mu")
    rule = rule_entry.value.lower().replace("_", "-")

    members = []
    i = 1
    while f"mu.{i}" in sections:
        members.append(_build_intensity(sections[f"mu.{i}"], path, f"mu.{i}"))
        i += 1

    if rule in ("cycle", "repeat-last", "list"):
        if not members:
            raise ScenarioFormatError(
                f"mu rule {rule!r} needs member sections [mu.1], [mu.2], ...",
                path,
                rule_entry.line,
                rule_entry.col,
            )
        if rule == "cycle":
            return CycledIntensities(tuple(members))
        return RepeatLastIntensities(tuple(members))
    if rule == "constant-rate":
        return ConstantRate(_as_float(_require(entries, "rate", path, "mu"), path))
    if rule == "linear-capped-rate":
        base = _as_float(_require(entries, "base", path, "mu"), path)
        slope = _as_float(_require(entries, "slope", path, "mu"), path)
        cap = _as_float(_require(entries, "cap", path, "mu"), path)
        return LinearCappedRate(base, slope, cap)
    raise ScenarioFormatError(
        f"unknown mu rule {rule_entry.value!r} "
        "(expected cycle, repeat-last, constant-rate, linear-capped-rate)",
        path,
        rule_entry.line,
        rule_entry.col,
    )


@dataclass(frozen=True)
class OutputOptions:
    directory: Path = Path(".")
    formats: tuple[str, ...] = ("csv", "json")


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, OutputOptions]:
    """Parse a scenario file; returns the config and its output options."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioFormatError("scenario file not found", str(p))
    sections = _parse_sections(p.read_text(), str(p))

    for required in ("phi", "Q", "mu", "simulation"):
        if required not in sections and required.lower() not in sections:
            raise ScenarioFormatError(f"missing required section [{required}]", str(p))

    q_entries = sections.get("Q", sections.get("q"))
    phi = _build_intensity(sections["phi"], str(p), "phi")
    q = _build_intensity(q_entries, str(p), "Q")
    mu_rule = _build_mu_rule(sections, str(p))

    sim = sections["simulation"]
    t_entry = _require(sim, "t_queries", str(p), "simulation")
    t_queries = _float_list(t_entry, str(p))
    reps = _as_int(_require(sim, "reps", str(p), "simulation"), str(p))
    seed = _as_int(_require(sim, "seed", str(p), "simulation"), str(p))
    step_e = _single(sim, "step", str(p), "simulation")
    horizon_e = _single(sim, "horizon", str(p), "simulation")

    try:
        config = ScenarioConfig(
            phi=phi,
            q=q,
            mu_rule=mu_rule,
            t_queries=tuple(t_queries),
            reps=reps,
            seed=seed,
            step=_as_float(step_e, str(p)) if step_e else None,
            horizon=_as_float(horizon_e, str(p)) if horizon_e else None,
            label=p.stem,
        )
    except (ValueError, RenewalBoundsError) as err:
        raise ScenarioFormatError(
            f"invalid [simulation] values: {err}", str(p), t_entry.line
        ) from err

    out = sections.get("output", [])
    dir_e = _single(out, "dir", str(p), "output")
    fmt_e = _single(out, "formats", str(p), "output")
    formats = tuple(fmt_e.value.split()) if fmt_e else ("csv", "json")
    for f in formats:
        if f not in ("csv", "json"):
            raise ScenarioFormatError(
                f"unknown output format {f!r}", str(p), fmt_e.line, fmt_e.col
            )
    directory = Path(dir_e.value) if dir_e else Path(".")
    return config, OutputOptions(directory, formats)


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file into a :class:`ScenarioConfig` (defaults applied lazily)."""
    return load_scenario(path)[0]


# ---------------------------------------------------------------------------
# Report bundle and writers
# ---------------------------------------------------------------------------


@dataclass
class ReportBundle:
    exit_code: int = 0
    report: dict = field(default_factory=dict)
    files: dict[str, Path] = field(default_factory=dict)

    def write_manifest(self, directory: Path, command: str) -> Path:
        entries = [{"name": "manifest.json"}]  # a file cannot hold its own hash
        for name, file in self.files.items():
            data = file.read_bytes()
            entries.append(
                {
                    "name": name,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                }
            )
        entries.sort(key=lambda e: e["name"])
        manifest = {
            "command": command,
            "created": datetime.now(timezone.utc).isoformat(),
            "files": entries,
        }
        path = directory / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.files["manifest.json"] = path
        return path


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    # strict RFC 8259: a non-finite float raises instead of writing NaN/Infinity
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
    scenario, out_opts = load_scenario(scenario_path)
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if reps is not None:
        overrides["reps"] = reps
    if step is not None:
        overrides["step"] = step
    if horizon is not None:
        overrides["horizon"] = horizon
    if overrides:
        from dataclasses import replace

        scenario = replace(scenario, **overrides)

    directory = Path(out_dir) if out_dir is not None else out_opts.directory
    directory.mkdir(parents=True, exist_ok=True)
    bundle = ReportBundle()
    payload: dict = {
        "scenario": {
            "label": scenario.label,
            "reps": scenario.reps,
            "seed": scenario.seed,
            "step": _default_or_null(scenario.resolved_step),
            "horizon": _default_or_null(scenario.resolved_horizon),
            "iid": scenario.iid,
            "t_queries": list(scenario.t_queries),
        }
    }
    want_csv = "csv" in out_opts.formats
    want_json = "json" in out_opts.formats

    if command == "check":
        report = check_assumptions(scenario)
        payload["assumptions"] = report.as_dict()
        bundle.exit_code = 0 if report.all_pass else 1

    elif command == "bound":
        payload.update(_bound_blocks(_bounds(scenario)))

    elif command == "simulate":
        report = _assumption_gate(scenario, force)
        table = estimate(scenario, workers=workers)
        payload["assumptions"] = report.as_dict()
        payload["estimates"] = _estimates_payload(table)
        if want_csv:
            _emit_estimates_csv(bundle, directory, table)

    elif command == "verify":
        report = verify_bound(scenario, override_assumptions=force, workers=workers)
        payload["assumptions"] = report.assumptions.as_dict()
        payload["assumption_override"] = report.assumption_override
        payload.update(_bound_blocks(report))
        payload["estimates"] = _estimates_payload(report.table)
        payload["verdicts"] = {
            "all_pass": report.all_pass,
            "per_t": [
                {
                    "t": v.t,
                    "generalized_ok": v.generalized_ok,
                    "classical_ok": v.classical_ok,
                }
                for v in report.verdicts
            ],
        }
        if want_csv:
            _emit_estimates_csv(bundle, directory, report.table)
        bundle.exit_code = 0 if report.all_pass else 1

    elif command == "tail":
        bundle_payload = _tail_command(scenario, directory, bundle, workers, force, want_csv)
        payload.update(bundle_payload)

    elif command == "renewal":
        H, payload["renewal"] = _renewal(scenario)
        if want_csv:
            path = directory / "renewal.csv"
            _write_csv(path, ["s", "H"], zip(H.grid(), H.values))
            bundle.files["renewal.csv"] = path

    if want_json:
        path = directory / "report.json"
        _write_json(path, payload)
        bundle.files["report.json"] = path
    bundle.report = payload
    bundle.write_manifest(directory, command)
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


def _estimates_payload(table) -> list[dict]:
    """Per-t estimates; a non-finite one (only under ``--force``) is ``null``."""
    return [
        {
            "t": t,
            "mean_backward": _finite_or_null(table.mean_backward[i]),
            "half_width_backward": _finite_or_null(table.half_backward[i]),
            "mean_forward": _finite_or_null(table.mean_forward[i]),
            "half_width_forward": _finite_or_null(table.half_forward[i]),
            "reps": table.reps,
        }
        for i, t in enumerate(table.t_queries)
    ]


def _emit_estimates_csv(bundle: ReportBundle, directory: Path, table) -> None:
    path = directory / "estimates.csv"
    rows = zip(
        table.t_queries,
        table.mean_backward,
        table.half_backward,
        table.mean_forward,
        table.half_forward,
    )
    _write_csv(path, ["t", "meanB", "ciB", "meanW", "ciW"], rows)
    bundle.files["estimates.csv"] = path


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
        "nodes": int(H.values.size),
        "snap_error": grid.snap_error,
        "truncation_residual": grid.truncation_residual,
    }
    return H, diagnostics


def _tail_command(scenario, directory, bundle, workers, force, want_csv) -> dict:
    report = _assumption_gate(scenario, force)
    H, diagnostics = _renewal(scenario)
    h = H.step
    table = estimate(scenario, workers=workers, keep_samples=True)
    payload = {"tail": [], "renewal": diagnostics}
    for qi, t in enumerate(scenario.t_queries):
        n_pts = int(math.floor(t / h + 1e-9)) + 1
        stride = max(1, (n_pts - 1) // 2000) if n_pts > 1 else 1
        xs = np.arange(0, n_pts, stride) * h
        if xs[-1] < t:
            xs = np.append(xs, t)
        ub = backward_tail_bound(scenario.eta_cdf, H, t, xs)
        srt = np.sort(table.samples_backward[:, qi])
        emp = (srt.size - np.searchsorted(srt, xs, side="right")) / srt.size
        se = np.sqrt(emp * (1.0 - emp) / scenario.reps)
        name = f"tail_t{t:g}.csv"
        if want_csv:
            path = directory / name
            _write_csv(path, ["x", "upper_bound", "empirical", "se"], zip(xs, ub, emp, se))
            bundle.files[name] = path
        payload["tail"].append(
            {
                "t": t,
                "points": len(xs),
                "max_gap": float(np.max(emp - ub)),
                "dominates": bool(np.all(ub >= emp - 3.0 * se)),
            }
        )
    payload["assumptions"] = report.as_dict()
    return payload


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
