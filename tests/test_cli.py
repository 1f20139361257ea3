"""Scenario-file parsing, subcommand behaviour, output schema stability."""

import json
import math

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
    numerics = bundle.report["renewal"]
    assert set(numerics) == {"equation_residual", "nodes", "snap_error", "truncation_residual"}
    assert numerics["nodes"] == 3001  # step 0.01, horizon 30
    assert numerics["equation_residual"] <= 1e-10


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
    assert record["error"] == "IntensityError"
    assert "finite" in record["message"]


def test_main_unknown_scenario_file(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.ini")])
    assert code == 2


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
