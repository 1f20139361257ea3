"""Scenario-file parsing, subcommand behaviour, output schema stability."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renewal_bounds as rb
from renewal_bounds.cli import load_scenario, main, parse_scenario, run
from renewal_bounds.errors import ScenarioFormatError

MINIMAL_IID = """\
[phi]
family = exp
rate = 1.0

[Q]
family = exp
rate = 1.0

[mu]
rule = constant-rate
rate = 0.0

[simulation]
t_queries = 1 5 10
reps = 400
seed = 42
"""

GENERALIZED = """\
# phi = 1, Q = 3, mu cycling {0, 1, 2}
[phi]
family = exp
rate = 1.0

[Q]
family = exp
rate = 3.0

[mu]
rule = cycle

[mu.1]
family = zero

[mu.2]
family = exp
rate = 1.0

[mu.3]
family = exp
rate = 2.0

[simulation]
t_queries = 0.5 1 2 5
reps = 1500
seed = 99
step = 0.01
horizon = 30

[output]
formats = csv json
"""


# ROADMAP item 1's two-point i.i.d. law, mass 0.99 at 1 and the rest at 100:
# it passes every check, and Monte Carlo exceeds its generalized bound (26.30)
TWO_POINT_LAW = """\
family = piecewise
segment = 0: 0.001
atom = 1: 4.605170185988091
atom = 100: inf
"""

TWO_POINT = f"""\
[phi]
{TWO_POINT_LAW}
[Q]
{TWO_POINT_LAW}
[mu]
rule = constant-rate
rate = 0

[simulation]
t_queries = 50 99.999
reps = 10000
seed = 1
"""

# the same law with its atoms replaced by steep finite hazards (a smoothed
# twin): check passes, and verify fails at t = 99.999 the same way
SMOOTH_TWO_POINT_LAW = """\
family = piecewise
segment = 0: 0.001
segment = 1: 460.5180185988091
segment = 1.01: 0.001
segment = 100: 1000
"""

SMOOTH_TWO_POINT = TWO_POINT.replace(TWO_POINT_LAW, SMOOTH_TWO_POINT_LAW)

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"

# total hazard of phi is 1: P(eta = inf) = e^-1, so E eta diverges
IMPROPER_PHI = MINIMAL_IID.replace(
    "[phi]\nfamily = exp\nrate = 1.0",
    "[phi]\nfamily = piecewise\nsegment = 0: 1.0\nsegment = 1: 0.0",
)


def write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_iid_with_defaults(tmp_path):
    sc = parse_scenario(write(tmp_path, MINIMAL_IID))
    assert sc.reps == 400
    assert sc.seed == 42
    assert sc.iid
    assert sc.step is None and sc.horizon is None
    # defaults: step = E zeta / 200, horizon = max(40 E eta, 1.1 max t)
    assert sc.resolved_step() == pytest.approx(1.0 / 200.0, rel=1e-12)
    assert sc.resolved_horizon() == pytest.approx(40.0, rel=1e-12)


def test_parse_envelope_violation_is_not_a_parse_error(tmp_path):
    text = MINIMAL_IID.replace("[Q]\nfamily = exp\nrate = 1.0", "[Q]\nfamily = exp\nrate = 0.5")
    sc = parse_scenario(write(tmp_path, text))
    report = rb.check_assumptions(sc)
    assert not report.condition(2).passed


def test_missing_section_names_the_section(tmp_path):
    text = MINIMAL_IID.replace("[simulation]", "[simula]")
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(write(tmp_path, text))
    assert "[simulation]" in str(exc.value)


def test_bad_number_reports_line_and_column(tmp_path):
    text = MINIMAL_IID.replace("rate = 1.0", "rate = fast", 1)
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(write(tmp_path, text))
    assert exc.value.line == 3
    assert exc.value.col == 8
    assert "fast" in str(exc.value)


def test_unknown_family_rejected(tmp_path):
    text = MINIMAL_IID.replace("family = exp", "family = cauchy", 1)
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(write(tmp_path, text))
    assert "cauchy" in str(exc.value)


def test_negative_hazard_rejected_at_parse(tmp_path):
    text = MINIMAL_IID.replace(
        "[phi]\nfamily = exp\nrate = 1.0",
        "[phi]\nfamily = piecewise\nsegment = 0: -1.0",
    )
    with pytest.raises(ScenarioFormatError):
        parse_scenario(write(tmp_path, text))


def test_piecewise_with_atoms_parses(tmp_path):
    text = MINIMAL_IID.replace(
        "[phi]\nfamily = exp\nrate = 1.0",
        "[phi]\nfamily = piecewise\nsegment = 0: 1.0\natom = 1: 0.6931\natom = 2.5: inf",
    )
    sc = parse_scenario(write(tmp_path, text))
    assert sc.phi.atom_locs.tolist() == [1.0, 2.5]
    assert math.isinf(sc.phi.atom_weights[-1])


def test_improper_phi_parses_and_fails_condition_3(tmp_path):
    path = write(tmp_path, IMPROPER_PHI)
    sc = parse_scenario(path)  # parse succeeds; properness is condition 3's job
    assert not rb.check_assumptions(sc).condition(3).passed
    # a verdict (exit 1), not an error (exit 2)
    assert run("check", path, out_dir=tmp_path / "out").exit_code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["assumptions"]["conditions"][2]["status"] == "fail"
    # the default horizon rests on E eta, which diverges
    assert report["scenario"]["horizon"] is None
    assert report["scenario"]["step"] == pytest.approx(1.0 / 200.0, rel=1e-12)


def test_duplicate_key_rejected(tmp_path):
    text = MINIMAL_IID.replace("rate = 1.0", "rate = 1.0\nrate = 2.0", 1)
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(write(tmp_path, text))
    assert "duplicate" in str(exc.value)


def test_output_options(tmp_path):
    text = MINIMAL_IID + "\n[output]\ndir = results\nformats = json\n"
    _, opts = load_scenario(write(tmp_path, text))
    assert opts.formats == ("json",)
    assert opts.directory.name == "results"
    _, defaults = load_scenario(write(tmp_path, MINIMAL_IID, "plain.ini"))
    assert defaults.formats == ("csv", "json")


# the family and rate of MINIMAL_IID's [phi], on lines 2 and 3
PHI = "family = exp\nrate = 1.0"

# the member sections of GENERALIZED, without [mu.2]: [mu.3] moves to line 16
NO_MU_2 = GENERALIZED.replace("[mu.2]\nfamily = exp\nrate = 1.0\n\n", "")


@pytest.mark.parametrize(
    "text, line, words",
    [
        (MINIMAL_IID.replace("rate = 1.0", "rate = 1.0\nscale = 2", 1), 4, "unknown key 'scale'"),
        (MINIMAL_IID.replace("rate = 0.0", "rate = 0.0\nslope = 1"), 12, "unknown key 'slope'"),
        (MINIMAL_IID + "horizn = 123\n", 17, "unknown key 'horizn'"),
        (MINIMAL_IID + "\n[output]\nformat = json\n", 19, "unknown key 'format'"),
        (MINIMAL_IID + "\n[simulaton]\nreps = 5\n", 18, "unknown section [simulaton]"),
        (MINIMAL_IID + "\n[phi]\n", 18, "section [phi] given twice"),
        (MINIMAL_IID + "\n[q]\n", 18, "section [Q] given twice"),
        (NO_MU_2, 16, "got [mu.3]"),
        (NO_MU_2.replace("[mu.3]", "[mu.x]"), 16, "got [mu.x]"),
        (MINIMAL_IID + "\n[mu.1]\nfamily = zero\n", 18, "takes no member sections"),
        # section-level errors sit at the header's line
        (MINIMAL_IID.replace("reps = 400\n", ""), 13, "is missing 'reps'"),
        (MINIMAL_IID.replace("reps = 400", "reps = 0"), 13, "reps must be at least 1"),
        (MINIMAL_IID.replace("seed = 42", "seed = 42\nhorizon = 3"), 13, "cover every query"),
        # a value its key's parser refuses sits at the key's line
        (MINIMAL_IID.replace("t_queries = 1 5 10", "t_queries = 5 5"), 14, "strictly ascending"),
        (MINIMAL_IID.replace("t_queries = 1 5 10", "t_queries = 1 5 1"), 14, "strictly ascending"),
        (MINIMAL_IID + "\n[output]\nformats =\n", 19, "needs csv, json or both"),
        (MINIMAL_IID + "\n[output]\nformats = xml\n", 19, "unknown output format 'xml'"),
        (MINIMAL_IID.replace("t_queries = 1 5 10", "t_queries ="), 14, "needs at least one number"),
        (MINIMAL_IID.replace(PHI, "family = piecewise\nsegment = 0 1.0", 1), 3,
         "'segment' must look like 'location: numbers'"),
        (MINIMAL_IID.replace(PHI, "family = piecewise\nsegment = 0:", 1), 3,
         "needs at least one number"),
        # a line that is neither a header nor an entry of a section
        (MINIMAL_IID.replace("[Q]", "[Q"), 5, "malformed section header"),
        (MINIMAL_IID.replace("rate = 1.0", "rate 1.0", 1), 3, "expected 'key = value'"),
        ("seed = 1\n" + MINIMAL_IID, 1, "entry outside any section"),
        # a missing family or rule sits at its section's header; a rule with no
        # members, at the rule's line
        (MINIMAL_IID.replace("family = exp\n", "", 1), 1, "section [phi] is missing 'family'"),
        (MINIMAL_IID.replace("rule = constant-rate\n", ""), 9, "section [mu] is missing 'rule'"),
        (MINIMAL_IID.replace("rule = constant-rate\nrate = 0.0", "rule = cycle"), 10,
         "needs member sections"),
    ],
    ids=[
        "key-in-phi", "key-in-mu", "key-in-simulation", "key-in-output", "section",
        "phi-twice", "Q-and-q", "member-gap", "member-not-a-number", "member-under-rate-rule",
        "missing-key", "reps-0", "short-horizon", "equal-times", "descending-times",
        "empty-formats", "unknown-format", "no-query-times", "segment-without-colon",
        "segment-without-numbers", "open-header", "entry-without-equals",
        "entry-before-a-section", "phi-without-family", "mu-without-rule",
        "cycle-without-members",
    ],
)
def test_scenario_outside_the_grammar_is_rejected_at_its_line(tmp_path, capsys, text, line, words):
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(write(tmp_path, text))
    assert words in str(exc.value)
    assert exc.value.line == line
    assert main(["check", str(tmp_path / "scenario.ini"), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err.strip())["where"]["line"] == line


def test_scenario_config_refuses_equal_query_times():
    # a time given twice would be reported twice, and tail would write its
    # CSV twice under one name
    phi = rb.exponential(1.0)
    with pytest.raises(ValueError, match="strictly ascending"):
        rb.ScenarioConfig(phi, phi, rb.ConstantRate(0.0), (1.0, 5.0, 5.0), 10, 1)


def test_members_are_read_in_numeric_order(tmp_path):
    # written [mu.10], [mu.9], ..., [mu.1]: a name sort would put [mu.10] second
    members = "".join(f"\n[mu.{k}]\nfamily = exp\nrate = {k}\n" for k in range(10, 0, -1))
    text = MINIMAL_IID.replace("rule = constant-rate\nrate = 0.0", "rule = cycle") + members
    rule = parse_scenario(write(tmp_path, text)).mu_rule
    assert rule.period == len(rule.items) == 10
    assert [float(mu.coeffs[0, 0]) for mu in rule.items] == [float(k) for k in range(1, 11)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_verify_generalized_scenario(tmp_path):
    path = write(tmp_path, GENERALIZED)
    bundle = run("verify", path, out_dir=tmp_path / "out")
    assert bundle.exit_code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["bounds"]["generalized"] == pytest.approx(4.0, abs=1e-12)
    assert report["verdicts"]["all_pass"] is True
    assert report["assumptions"]["all_pass"] is True
    # not i.i.d.: one generalized claim per (mean, t), and no classical one;
    # each margin is the reported mean minus the bound, bit for bit
    claims = report["verdicts"]["claims"]
    means = {"mean_B": "mean_backward", "mean_W": "mean_forward"}
    expected = [
        (quantity, "generalized", row["t"], 1, row[key] - report["bounds"]["generalized"])
        for quantity, key in means.items()
        for row in report["estimates"]
    ]
    assert [(c["quantity"], c["name"], c["t"], c["points"], c["max_gap"]) for c in claims] == expected
    assert len(claims) == 8
    assert report["verdicts"]["all_pass"] is all(c["dominates"] for c in claims)
    csv = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
    assert csv[0] == "t,meanB,ciB,meanW,ciW"
    assert len(csv) == 1 + 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == {
        "estimates.csv",
        "report.json",
        "manifest.json",
    }
    for f in manifest["files"]:
        if f["name"] != "manifest.json":
            assert len(f["sha256"]) == 64


def test_bound_command_iid(tmp_path):
    path = write(tmp_path, MINIMAL_IID)
    bundle = run("bound", path, out_dir=tmp_path / "out")
    assert bundle.exit_code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["bounds"]["classical"] == pytest.approx(2.0, rel=1e-12)
    assert report["bounds"]["generalized"] == pytest.approx(2.0, rel=1e-12)
    assert report["moments"]["e_eta"] == pytest.approx(1.0, rel=1e-12)
    # bound-only runs never simulate
    assert "estimates" not in report
    # verify reports the same moments and bounds, from the same helper
    run("verify", path, out_dir=tmp_path / "v")
    verified = json.loads((tmp_path / "v" / "report.json").read_text())
    assert verified["moments"] == report["moments"]
    assert verified["bounds"] == report["bounds"]


@pytest.mark.parametrize(
    "name",
    ["verify-exp-cycle", "verify-uniform-t50", "tail-exp-cycle", "generalized", "two-point"],
)
def test_generalized_bound_is_the_formula_on_the_reported_moments(tmp_path, name):
    # the formula is written once, in generalized_bound; the report's moments
    # reproduce its value bit for bit
    from renewal_bounds.simulate import _bounds

    texts = {"generalized": GENERALIZED, "two-point": TWO_POINT}
    path = write(tmp_path, texts[name]) if name in texts else BENCH_SCENARIOS / f"{name}.ini"
    sc = parse_scenario(path)
    report = _bounds(sc)
    assert report.generalized == report.e_eta + report.e_eta2 / (2 * report.e_zeta)
    assert report.generalized == rb.generalized_bound(sc.eta_cdf, sc.zeta_cdf)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: E W_50 and E B_99.999 exceed the "
                   "generalized bound on a law that passes every check")
def test_two_point_law_passes_check_and_verify(tmp_path):
    path = str(write(tmp_path, TWO_POINT))
    assert main(["check", path, "--out", str(tmp_path / "check")]) == 0
    assert main(["verify", path, "--out", str(tmp_path / "verify")]) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: E B_99.999 exceeds the generalized "
                   "bound on the smoothed two-point law, which passes every check")
def test_smoothed_two_point_law_passes_check_and_verify(tmp_path):
    path = str(write(tmp_path, SMOOTH_TWO_POINT))
    assert main(["check", path, "--out", str(tmp_path / "check")]) == 0
    assert main(["verify", path, "--out", str(tmp_path / "verify")]) == 0


# ROADMAP item 1's tail scenario: i.i.d. intervals near 1 or 1.9, phi below Q
# and no atoms.  It passes every check, and at x = 0.55 the empirical tail
# (0.869) exceeds the bound (0.4966): the bound integrates against zeta's
# renewal function where the process's own renewal measure belongs
BIMODAL_TAIL = """\
[phi]
family = piecewise
segment = 0: 0
segment = 0.99: 35
segment = 1.01: 0
segment = 1.9: 500

[Q]
family = piecewise
segment = 0: 0
segment = 0.99: 500

[mu]
rule = constant-rate
rate = 0

[simulation]
t_queries = 3.5
reps = 4000
seed = 1
step = 0.001
horizon = 6
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the empirical tail exceeds the tail "
                   "bound on a scenario with phi below Q that passes every check")
def test_bimodal_tail_passes_check_and_tail(tmp_path):
    path = str(write(tmp_path, BIMODAL_TAIL))
    assert main(["check", path, "--out", str(tmp_path / "check")]) == 0
    assert main(["tail", path, "--out", str(tmp_path / "tail")]) == 0


def test_check_exit_status(tmp_path):
    ok = run("check", write(tmp_path, GENERALIZED, "a.ini"), out_dir=tmp_path / "o1")
    assert ok.exit_code == 0
    bad_path = write(tmp_path, IMPROPER_PHI, "b.ini")
    bad = run("check", bad_path, out_dir=tmp_path / "o2")
    assert bad.exit_code == 1
    assert main(["check", str(bad_path), "--out", str(tmp_path / "o3")]) == 1


def test_grid_commands_need_a_finite_default(tmp_path, capsys):
    # check tolerates a divergent default horizon; renewal needs the value
    path = write(tmp_path, IMPROPER_PHI)
    assert main(["renewal", str(path), "--out", str(tmp_path / "o1")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "DivergentMomentError"
    code = main(["renewal", str(path), "--out", str(tmp_path / "o2"), "--horizon", "10"])
    assert code == 0
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["scenario"]["horizon"] == 10.0


def test_simulate_command(tmp_path):
    path = write(tmp_path, MINIMAL_IID)
    bundle = run("simulate", path, out_dir=tmp_path / "out", reps=250)
    assert bundle.exit_code == 0
    lines = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
    assert len(lines) == 4


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_gates_on_assumptions(tmp_path, capsys):
    path = write(tmp_path, IMPROPER_PHI)
    argv = ["simulate", str(path), "--reps", "200"]
    assert main([*argv, "--out", str(tmp_path / "o1")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "AssumptionFailure"
    assert not (tmp_path / "o1" / "report.json").exists()
    # forced: E eta diverges, so the forward estimate is null, in strict JSON
    assert main([*argv, "--out", str(tmp_path / "o2"), "--force"]) == 0
    text = (tmp_path / "o2" / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["assumptions"]["all_pass"] is False
    assert any(row["mean_forward"] is None for row in report["estimates"])


def test_renewal_command(tmp_path):
    path = write(tmp_path, MINIMAL_IID)
    bundle = run("renewal", path, out_dir=tmp_path / "out", step=0.01, horizon=10.0)
    assert bundle.exit_code == 0
    rows = (tmp_path / "out" / "renewal.csv").read_text().splitlines()
    assert rows[0] == "s,H"
    s, h = zip(*(map(float, r.split(",")) for r in rows[1:]))
    # Q = Exp(1): renewal function is H(s) = s
    assert max(abs(np.array(h) - np.array(s))) <= 2e-3
    numerics = bundle.report["renewal"]
    assert set(numerics) == {"equation_residual", "nodes", "snap_error", "truncation_residual"}
    assert numerics["nodes"] == 1001
    assert numerics["equation_residual"] <= 1e-10
    assert numerics["snap_error"] == 0.0
    assert numerics["truncation_residual"] == pytest.approx(math.exp(-10.0), rel=1e-12)


def test_tail_command(tmp_path):
    path = write(tmp_path, GENERALIZED)
    bundle = run("tail", path, out_dir=tmp_path / "out", reps=800)
    assert bundle.exit_code == 0
    f = tmp_path / "out" / "tail_t5.csv"
    assert f.exists()
    header = f.read_text().splitlines()[0]
    assert header == "x,upper_bound,empirical,se"
    assert all(entry["dominates"] for entry in bundle.report["tail"])
    assert {(entry["quantity"], entry["name"]) for entry in bundle.report["tail"]} == {
        ("tail_B", "backward_tail")
    }
    numerics = bundle.report["renewal"]
    assert set(numerics) == {"equation_residual", "nodes", "snap_error", "truncation_residual"}
    assert numerics["nodes"] == 3001  # step 0.01, horizon 30
    assert numerics["equation_residual"] <= 1e-10


def test_tail_grid_ends_at_t_off_the_stride(tmp_path):
    # t = 10.003 is not a multiple of the step: the x grid is the 2,001
    # lattice points up to 10.0, then t itself (the exit code is not asserted:
    # the plug-in se gives false alarms, ROADMAP item 3)
    text = MINIMAL_IID.replace("t_queries = 1 5 10", "t_queries = 10.003\nstep = 0.005\nhorizon = 12")
    bundle = run("tail", write(tmp_path, text), out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "tail_t10.003.csv").read_text().splitlines()[1:]
    assert len(rows) == 2002
    assert float(rows[-1].split(",")[0]) == 10.003
    assert [entry["points"] for entry in bundle.report["tail"]] == [2002]


def test_tail_csvs_of_close_query_times_do_not_share_a_file(tmp_path):
    # both times print as "1" with :g, which kept one CSV for the two
    text = GENERALIZED.replace("t_queries = 0.5 1 2 5", "t_queries = 1.0000001 1.0000002")
    bundle = run("tail", write(tmp_path, text), out_dir=tmp_path / "out", reps=200)
    names = {"tail_t1.0000001.csv", "tail_t1.0000002.csv"}
    assert names <= set(bundle.files) and len(bundle.report["tail"]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert names <= {entry["name"] for entry in manifest["files"]}


def test_tail_exits_1_when_a_curve_does_not_dominate(tmp_path, monkeypatch):
    # a zero bound lies below the empirical tail at every t with P(B_t > 0) > 0
    monkeypatch.setattr("renewal_bounds.cli.backward_tail_bound",
                        lambda Phi, H, t, xs: np.zeros(len(xs)))
    path = write(tmp_path, GENERALIZED)
    bundle = run("tail", path, out_dir=tmp_path / "out", reps=800)
    assert not all(entry["dominates"] for entry in bundle.report["tail"])
    assert bundle.exit_code == 1


@pytest.mark.parametrize(
    "text, patched, rows",
    [(GENERALIZED, "generalized_bound", {("generalized", False)}),
     (MINIMAL_IID, "lorden_classical_bound", {("generalized", True), ("classical", False)})],
    ids=["generalized", "classical"],
)
def test_verify_exits_1_when_a_bound_does_not_dominate(tmp_path, monkeypatch, text, patched, rows):
    # a zero bound lies below every mean, so each of its claims fails and
    # decides the exit code; a scenario that is not i.i.d. has no classical row
    monkeypatch.setattr(f"renewal_bounds.simulate.{patched}", lambda *cdfs: 0.0)
    bundle = run("verify", write(tmp_path, text), out_dir=tmp_path / "out")
    verdicts = bundle.report["verdicts"]
    assert {(c["name"], c["dominates"]) for c in verdicts["claims"]} == rows
    assert len(verdicts["claims"]) == 2 * len(rows) * len(bundle.report["estimates"])
    assert verdicts["all_pass"] is False
    assert bundle.exit_code == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the plug-in se is 0 where the "
                   "empirical tail is 1, so a right bound below 1 fails there")
@pytest.mark.parametrize("seed", [2, 3, 4, 9, 42])
def test_tail_dominates_on_the_minimal_iid_scenario(tmp_path, seed):
    path = str(write(tmp_path, MINIMAL_IID))
    assert main(["tail", path, "--out", str(tmp_path / "out"), "--seed", str(seed)]) == 0


def test_flag_precedence_over_file(tmp_path):
    path = write(tmp_path, MINIMAL_IID)
    bundle = run("simulate", path, out_dir=tmp_path / "out", seed=7, reps=123)
    assert bundle.report["scenario"]["seed"] == 7
    assert bundle.report["scenario"]["reps"] == 123


def test_main_error_record(tmp_path, capsys):
    bad = write(tmp_path, MINIMAL_IID.replace("rate = 1.0", "rate = oops", 1))
    code = main(["check", str(bad)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert record["where"]["line"] == 3


def test_main_rejects_infinite_linear_cap(tmp_path, capsys):
    text = MINIMAL_IID.replace(
        "rule = constant-rate\nrate = 0.0",
        "rule = linear-capped-rate\nbase = 0.5\nslope = 0.5\ncap = inf",
    )
    code = main(["check", str(write(tmp_path, text))])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert "finite" in record["message"]
    assert record["where"]["line"] == 10  # the rule's line


@pytest.mark.parametrize("rate", ["nan", "-1"])
def test_main_rejects_a_bad_constant_rate_at_the_rule_line(tmp_path, capsys, rate):
    # a NaN rate passed every condition as the zero intensity
    text = MINIMAL_IID.replace("rate = 0.0", f"rate = {rate}")
    assert main(["check", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert "invalid mu rule in [mu]" in record["message"]
    assert record["where"]["line"] == 10


@pytest.mark.parametrize(
    "law",
    [
        "family = weibull\nshape = nan",
        "family = weibull\nshape = 1.5\nscale = nan",
        "family = uniform\na = 0\nb = inf",
    ],
    ids=["weibull-shape-nan", "weibull-scale-nan", "uniform-b-inf"],
)
def test_main_rejects_non_finite_family_parameters_at_once(tmp_path, law):
    # such a law made every fitted panel fail and halve, toward 2^52 panels:
    # in a subprocess with a timeout, a runaway fails instead of hanging
    text = MINIMAL_IID.replace("[phi]\nfamily = exp\nrate = 1.0", f"[phi]\n{law}")
    src = str(Path(rb.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "renewal_bounds.cli", "check", str(write(tmp_path, text)),
         "--out", str(tmp_path / "out")],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 2, done.stderr
    record = json.loads(done.stderr.strip())
    assert record["error"] == "ScenarioFormatError"
    assert "invalid intensity in [phi]" in record["message"]
    assert record["where"]["line"] == 2


def test_main_rejects_a_negative_constant_tail(tmp_path, capsys):
    # inside the hazard's slack, but F < 0: --force made ppf die in its ulp walk
    text = MINIMAL_IID.replace(
        "[phi]\nfamily = exp\nrate = 1.0", "[phi]\nfamily = piecewise\nsegment = 0: -1e-13"
    )
    out = tmp_path / "out"
    assert main(["simulate", str(write(tmp_path, text)), "--force", "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert "last segment" in record["message"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--reps", "0"],
        ["--seed", "-1"],
        ["--seed", "18446744073709551616"],
        ["--step", "0"],
        ["--step", "nan"],
        ["--horizon", "5"],  # below the largest query time, 10
        ["--horizon", "inf"],
        ["--workers", "0"],
        ["--workers", "-2"],
    ],
)
def test_main_rejects_bad_flag_values(tmp_path, capsys, flags):
    # a bad flag is an error (exit 2, JSON on stderr), not a failed verdict
    out = tmp_path / "out"
    code = main(["verify", str(write(tmp_path, MINIMAL_IID)), "--out", str(out), *flags])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "UsageError"
    assert record["message"].startswith(f"invalid {flags[0]} ")
    assert not out.exists()


def test_main_rejects_a_non_finite_file_step(tmp_path, capsys):
    text = MINIMAL_IID.replace("seed = 42", "seed = 42\nstep = nan")
    assert main(["bound", str(write(tmp_path, text)), "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError" and "finite" in record["message"]


@pytest.mark.parametrize(
    "line", ["segment = nan: 2.0", "segment = inf: 2.0", "atom = nan: 0.5", "atom = 1: nan"]
)
def test_main_rejects_non_finite_breaks_and_atoms(tmp_path, capsys, line):
    text = MINIMAL_IID.replace(
        "[phi]\nfamily = exp\nrate = 1.0", f"[phi]\nfamily = piecewise\nsegment = 0: 1.0\n{line}"
    )
    # the law's IntensityError, reported at its line as a format error
    assert main(["check", str(write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert "invalid intensity in [phi]" in record["message"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_main_unknown_scenario_file(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.ini")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert record["where"]["path"] == str(tmp_path / "nope.ini")
    assert "cannot be read" in record["message"]


def _cli(*args, **env):
    """Run the CLI in a fresh interpreter with only ``env`` set."""
    src = str(Path(rb.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "renewal_bounds.cli", *map(str, args)],
        env={"PYTHONPATH": src, **env}, capture_output=True, text=True,
    )


# the C locale without UTF-8 mode decodes files as ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}


def test_scenario_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_bytes(("# μ = 0: i.i.d. intervals\n" + MINIMAL_IID).encode("utf-8"))
    done = _cli("check", path, "--out", tmp_path / "out", **C_LOCALE)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "report.json").is_file()


@pytest.mark.parametrize("env", [C_LOCALE, {"PYTHONUTF8": "1"}], ids=["c-locale", "utf8-mode"])
def test_a_scenario_file_that_is_not_utf8_is_a_format_error(tmp_path, env):
    path = tmp_path / "scenario.ini"
    path.write_bytes(b"\xff\xfe" + MINIMAL_IID.encode("utf-16-le"))
    done = _cli("check", path, "--out", tmp_path / "out", **env)
    assert done.returncode == 2
    record = json.loads(done.stderr)
    assert record["error"] == "ScenarioFormatError"
    assert record["where"]["path"] == str(path)
    assert "not UTF-8" in record["message"]
    assert not (tmp_path / "out").exists()


def _unreadable(self, *args, **kwargs):
    raise PermissionError(13, "Permission denied", str(self))


def test_a_scenario_file_that_cannot_be_read_is_a_format_error(tmp_path, monkeypatch, capsys):
    # a patched read: chmod 000 does not stop a process that runs as root
    path = write(tmp_path, MINIMAL_IID)
    monkeypatch.setattr(Path, "read_text", _unreadable)
    with pytest.raises(ScenarioFormatError) as exc:
        run("check", path, out_dir=tmp_path / "o1")
    assert exc.value.path == str(path)
    assert "cannot be read" in str(exc.value)
    assert main(["check", str(path), "--out", str(tmp_path / "o2")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert record["where"]["path"] == str(path)
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


@pytest.mark.parametrize("where", ["--out", "[output] dir"])
@pytest.mark.parametrize("out", ["taken", "taken/below"])
def test_an_unusable_output_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, where, out):
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("a file, not a directory\n")
    if where == "--out":
        argv = ["check", str(write(tmp_path, MINIMAL_IID)), "--out", out]
    else:
        argv = ["check", str(write(tmp_path, MINIMAL_IID + f"\n[output]\ndir = {out}\n"))]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "UsageError"
    assert repr(out) in record["message"]
    assert Path("taken").read_text() == "a file, not a directory\n"


@pytest.mark.parametrize(
    "command, text, name, flags",
    [
        ("check", MINIMAL_IID, "report.json", []),
        ("simulate", MINIMAL_IID, "estimates.csv", ["--reps", "200"]),
        ("renewal", MINIMAL_IID, "renewal.csv", ["--step", "0.01", "--horizon", "10"]),
        ("tail", GENERALIZED, "tail_t0.5.csv", ["--reps", "200"]),
        ("verify", MINIMAL_IID, "manifest.json", ["--reps", "200"]),
    ],
    ids=["check", "simulate", "renewal", "tail", "verify"],
)
def test_an_output_file_that_cannot_be_written_is_a_usage_error(
    tmp_path, capsys, command, text, name, flags
):
    # a directory where the file goes: the write fails with an OSError, which
    # must exit 2 with a record, not 1 (a failed verdict) with a traceback
    blocked = tmp_path / "out" / name
    blocked.mkdir(parents=True)
    argv = [command, str(write(tmp_path, text)), "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"] == "UsageError"
    assert repr(str(blocked)) in record["message"]


@pytest.mark.parametrize("command", ["tail", "renewal"])
@pytest.mark.parametrize("formats", ["csv", "json"])
def test_output_formats_choose_the_files_a_run_writes(tmp_path, command, formats):
    text = GENERALIZED.replace("formats = csv json", f"formats = {formats}")
    bundle = run(command, write(tmp_path, text), out_dir=tmp_path / "out", reps=200)
    written = {p.name for p in (tmp_path / "out").iterdir()}
    csvs = {name for name in written if name.endswith(".csv")}
    if formats == "csv":
        assert "report.json" not in written and csvs
    else:
        assert "report.json" in written and not csvs
    assert command in bundle.report  # the report is filled whether or not it is written
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {entry["name"] for entry in manifest["files"]} == written == set(bundle.files)


def test_byte_identical_reruns(tmp_path):
    path = write(tmp_path, GENERALIZED)
    run("verify", path, out_dir=tmp_path / "r1", reps=600)
    run("verify", path, out_dir=tmp_path / "r2", reps=600)
    assert (tmp_path / "r1" / "estimates.csv").read_bytes() == (
        tmp_path / "r2" / "estimates.csv"
    ).read_bytes()
    assert (tmp_path / "r1" / "report.json").read_bytes() == (
        tmp_path / "r2" / "report.json"
    ).read_bytes()


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: block scipy and run end to end
    path = write(tmp_path, GENERALIZED)
    script = """
import sys
sys.modules["scipy"] = None
import renewal_bounds as rb
from renewal_bounds.cli import main

assert main(["verify", sys.argv[1], "--out", sys.argv[2], "--reps", "200"]) == 0
phi = rb.from_segments([(0.0, [1.0]), (1.0, [2.0])], atoms=[(0.5, 0.3)])
assert rb.moment(rb.cdf_from_intensity(phi), 2) > 0.0
"""
    src = str(Path(rb.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "out")],
        env={"PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("times", ["1 nan 10", "1 5 inf", "-inf 1"])
def test_main_rejects_non_finite_query_times(tmp_path, capsys, times):
    text = MINIMAL_IID.replace("t_queries = 1 5 10", f"t_queries = {times}")
    assert main(["bound", str(write(tmp_path, text)), "--out", str(tmp_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ScenarioFormatError"
    assert "query times must be finite" in record["message"]
    assert not (tmp_path / "report.json").exists()


def test_cli_import_leaves_the_process_pool_out():
    # concurrent.futures (with multiprocessing and logging) is imported only
    # when --workers > 1 starts a pool
    script = "import sys, renewal_bounds.cli; print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'logging') if m in sys.modules))"
    src = str(Path(rb.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_check_and_verify_leave_numpy_ma_out(tmp_path):
    # np.unique and np.union1d import numpy.ma on their first call, which
    # costs a process about 10 ms; neither command needs it
    path = write(tmp_path, GENERALIZED)
    script = """
import sys
from renewal_bounds.cli import main

assert main(["check", sys.argv[1], "--out", sys.argv[2]]) == 0
assert main(["verify", sys.argv[1], "--out", sys.argv[2], "--reps", "200"]) == 0
print("numpy.ma" in sys.modules)
"""
    src = str(Path(rb.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "out")],
        env={"PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_imports_load_random_openssl_and_polynomial_on_first_use(tmp_path):
    # numpy.random (with secrets -> hashlib -> OpenSSL), hashlib and
    # numpy.polynomial cost a process about 9 MB; importing the CLI loads
    # none of them.  verify on the exponential scenario and on uniform(0, 1)
    # at t = 50, and then tail, load none of them either: every draw is
    # PCG64 in limbs, uniform's moments take their Gauss-Legendre rule from
    # hazard's own table, and the manifest hashes with CPython's own SHA-256.
    # Importing the package loads no numpy at all, so the CLI module pins
    # numpy's BLAS to one thread before numpy starts: no thread but the main
    # one runs.  The runs resolve no name through the package either
    script = """
import json, os, sys
LAZY = ("numpy.random", "hashlib", "_hashlib", "numpy.polynomial")
import renewal_bounds
assert "numpy" not in sys.modules
import renewal_bounds.cli
if os.path.isdir("/proc/self/task"):
    assert len(os.listdir("/proc/self/task")) == 1
print(json.dumps([m for m in LAZY if m in sys.modules]))
command, *args = sys.argv[1:]
for path, out in zip(args[::2], args[1::2]):
    assert renewal_bounds.cli.main([command, path, "--out", out, "--reps", "2000"]) == 0
print(json.dumps([m for m in LAZY if m in sys.modules]))
# the CLI imports from submodules and never resolves a package name
assert not set(vars(renewal_bounds)) & set(renewal_bounds.__all__)
"""
    src = str(Path(rb.__file__).resolve().parents[1])
    runs = {
        "verify": [BENCH_SCENARIOS / "verify-exp-cycle.ini", tmp_path / "verify",
                   BENCH_SCENARIOS / "verify-uniform-t50.ini", tmp_path / "verify-uniform"],
        "tail": [BENCH_SCENARIOS / "tail-exp-cycle.ini", tmp_path / "tail"],
    }
    for command, args in runs.items():
        done = subprocess.run(
            [sys.executable, "-c", script, command, *map(str, args)],
            env={"PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        at_import, after_run = (json.loads(line) for line in done.stdout.splitlines())
        assert at_import == []
        assert after_run == [], command
    import hashlib

    for out, names in [(tmp_path / "verify", {"report.json", "estimates.csv"}),
                       (tmp_path / "tail", {"report.json"} | {
                           f"tail_t{t:g}.csv" for t in (0.5, 1, 2, 5, 10, 20)})]:
        entries = json.loads((out / "manifest.json").read_text())["files"]
        hashed = {e["name"]: e["sha256"] for e in entries if "sha256" in e}
        assert set(hashed) == names
        for name, digest in hashed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_outputs_do_not_depend_on_the_callers_blas_threads(tmp_path):
    # beyond about 10,000 nodes OpenBLAS splits the lattice solve's dot
    # products by thread count, which moves H's last bits; the CLI pins one
    # thread whatever OPENBLAS_NUM_THREADS the caller set.  N = 30,001 here
    text = """\
[phi]
family = weibull
shape = 1.5

[Q]
family = weibull
shape = 1.5

[mu]
rule = constant-rate
rate = 0

[simulation]
t_queries = 50
reps = 300
seed = 1
step = 0.002
horizon = 60
"""
    path = write(tmp_path, text)
    src = str(Path(rb.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "renewal_bounds.cli", "tail", str(path), "--out", str(out)],
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True,
        )
        assert done.returncode in (0, 1), done.stderr
        outs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert set(outs[0]) == {"report.json", "tail_t50.csv"}
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "workload, command",
    [("verify-exp-cycle", "verify"), ("verify-uniform-t50", "verify"), ("tail-exp-cycle", "tail")],
)
def test_benchmark_scenarios_report_the_same_at_one_and_two_workers(
    tmp_path, monkeypatch, workload, command
):
    # the benchmark's scenario files, read as they are, at 400 reps in slabs
    # of 150: three slabs, so two workers split them
    import renewal_bounds.simulate as sim

    monkeypatch.setattr(sim, "_SLAB", 150)
    path = BENCH_SCENARIOS / f"{workload}.ini"
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        code = main([command, str(path), "--out", str(out), "--reps", "400",
                     "--workers", str(workers)])
        runs.append((code, (out / "report.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1)


def test_a_pool_starts_no_more_processes_than_there_are_slabs(tmp_path, monkeypatch):
    # a pool starts all its processes at once; a fake one runs the slabs here
    # and records the size asked for, so no pool of 64 is ever started
    import concurrent.futures

    import renewal_bounds.simulate as sim

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim, "_SLAB", 150)  # 400 reps: three slabs
    path = write(tmp_path, MINIMAL_IID)
    reports = []
    for workers in (1, 64):
        out = tmp_path / f"workers{workers}"
        run("simulate", path, out_dir=out, workers=workers)
        reports.append((out / "report.json").read_bytes())
    assert sizes == [3]
    assert reports[0] == reports[1]
