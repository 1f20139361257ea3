"""Assumption checking: verdicts for the five structural conditions."""

import math

import pytest

import renewal_bounds as rb


def scenario(phi, q, mu_rule, **kw):
    defaults = dict(t_queries=(1.0,), reps=10, seed=1)
    defaults.update(kw)
    return rb.ScenarioConfig(phi=phi, q=q, mu_rule=mu_rule, **defaults)


def test_reference_scenario_all_pass():
    mu = rb.CycledIntensities((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)))
    sc = scenario(rb.exponential(1.0), rb.exponential(3.0), mu)
    rep = rb.check_assumptions(sc)
    assert rep.all_pass
    assert rep.condition(3).diagnostics["k"] == 4
    assert rep.condition(5).diagnostics["T"] == 0.0
    assert rep.condition(4).diagnostics["sup_q_near_zero"] == pytest.approx(3.0)


def test_envelope_violation_reported():
    # phi = 2 alone already exceeds Q = 1: violation 1 at s = 0
    sc = scenario(rb.exponential(2.0), rb.exponential(1.0), rb.ConstantRate(0.0))
    rep = rb.check_assumptions(sc)
    c2 = rep.condition(2)
    assert not c2.passed
    assert c2.diagnostics["max_violation"] == pytest.approx(1.0)
    assert c2.diagnostics["location"] == pytest.approx(0.0)
    assert not rep.all_pass


def test_envelope_atom_comparison():
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, 0.5)])
    q_no_atom = rb.exponential(3.0)
    rep = rb.check_assumptions(scenario(phi, q_no_atom, rb.ConstantRate(0.0)))
    assert not rep.condition(2).passed
    assert rep.condition(2).diagnostics["max_violation"] == pytest.approx(0.5)

    q_atom = rb.from_segments([(0.0, [3.0])], atoms=[(1.0, 0.5)])
    rep2 = rb.check_assumptions(scenario(phi, q_atom, rb.ConstantRate(0.0)))
    assert rep2.condition(2).passed


def test_compact_support_fails_condition_3():
    phi = rb.from_segments([(0.0, [1.0]), (1.0, [0.0])], require_proper=False)
    sc = scenario(phi, rb.exponential(3.0), rb.ConstantRate(0.0))
    rep = rb.check_assumptions(sc)
    assert not rep.condition(3).passed
    assert not rep.all_pass


def test_atom_at_origin_fails_condition_4():
    q = rb.from_segments([(0.0, [3.0])], atoms=[(0.0, 0.3)])
    sc = scenario(rb.exponential(1.0), q, rb.ConstantRate(0.0))
    rep = rb.check_assumptions(sc)
    assert not rep.condition(4).passed


def test_delayed_process_infers_minimal_T():
    # hazard vanishes on [0, 0.5): a delayed process with T = 0.5
    phi = rb.from_segments([(0.0, [0.0]), (0.5, [2.0])])
    q = rb.exponential(2.0)
    rep = rb.check_assumptions(scenario(phi, q, rb.ConstantRate(0.0)))
    c5 = rep.condition(5)
    assert c5.passed
    assert c5.diagnostics["T"] == pytest.approx(0.5)
    assert c5.diagnostics["delayed"] is True


def test_deterministic_passes_condition_5_via_full_atom_cap():
    sc = scenario(rb.deterministic(1.0), rb.deterministic(1.0), rb.ConstantRate(0.0))
    rep = rb.check_assumptions(sc)
    c5 = rep.condition(5)
    assert c5.passed
    assert c5.diagnostics["T"] == pytest.approx(1.0)
    assert rep.condition(3).passed  # full atom diverges; moments finite


def test_explicit_T_fails_when_too_small():
    phi = rb.from_segments([(0.0, [0.0]), (0.5, [2.0])])
    rep = rb.check_assumptions(
        scenario(phi, rb.exponential(2.0), rb.ConstantRate(0.0)), delay_T=0.1
    )
    assert not rep.condition(5).passed
    assert rep.condition(5).diagnostics["zero_measure_beyond_T"] == pytest.approx(0.4)


def test_report_structure():
    sc = scenario(rb.exponential(1.0), rb.exponential(1.0), rb.ConstantRate(0.0))
    rep = rb.check_assumptions(sc)
    assert [c.number for c in rep.conditions] == [1, 2, 3, 4, 5]
    d = rep.as_dict()
    assert d["all_pass"] is True
    assert len(d["conditions"]) == 5
    import json

    json.dumps(d)  # must be JSON-serializable as emitted by the CLI


def test_linear_capped_rule_distinct_set():
    rule = rb.LinearCappedRate(0.5, 0.25, 1.2)
    rates = [0.5, 0.75, 1.0, 1.2]
    assert len(rule.distinct_intensities) == len(rates)
    assert [int(rule.index_for(j)) for j in (1, 2, 3, 4, 5, 9)] == [0, 1, 2, 3, 3, 3]
    # envelope must cover the cap
    sc = scenario(rb.exponential(1.0), rb.exponential(2.2), rule)
    assert rb.check_assumptions(sc).condition(2).passed
    sc_bad = scenario(rb.exponential(1.0), rb.exponential(2.1), rule)
    rep = rb.check_assumptions(sc_bad)
    assert not rep.condition(2).passed
    assert rep.condition(2).diagnostics["max_violation"] == pytest.approx(0.1)


def _rates(rule):
    """The constant hazard of each distinct intensity (0 for the zero intensity)."""
    out = []
    for m in rule.distinct_intensities:
        assert m.breaks.tolist() == [0.0] and m.atom_locs.size == 0
        assert m.coeffs[0, 1:].tolist() == [0.0, 0.0, 0.0]
        out.append(float(m.coeffs[0, 0]))
    return out


@pytest.mark.parametrize(
    "rule, rates, index",
    [
        (rb.ConstantRate(0.0), [0.0], [0, 0, 0]),
        (rb.ConstantRate(2.0), [2.0], [0, 0, 0]),
        (rb.LinearCappedRate(0.5, 0.0, 3.0), [0.5], [0, 0, 0]),
        (rb.LinearCappedRate(1.0, 0.5, 1.0), [1.0], [0, 0, 0]),
        (rb.LinearCappedRate(0.0, 1.0, 2.5), [0.0, 1.0, 2.0, 2.5], [0, 1, 3]),
    ],
)
def test_rate_rule_factories(rule, rates, index):
    assert _rates(rule) == rates
    assert rule.is_iid == (len(rates) == 1)
    assert [int(rule.index_for(j)) for j in (1, 2, 50)] == index
    if rates == [0.0]:
        assert not rule.distinct_intensities[0].proper  # the zero intensity
    if rates == [2.0]:
        expected = rb.exponential(2.0)
        (got,) = rule.distinct_intensities
        for name in ("breaks", "coeffs", "atom_locs", "atom_weights"):
            assert getattr(got, name).tolist() == getattr(expected, name).tolist()


@pytest.mark.parametrize(
    "make",
    [
        lambda: rb.ConstantRate(-1.0),
        lambda: rb.LinearCappedRate(-0.5, 0.1, 1.0),
        lambda: rb.LinearCappedRate(0.5, -0.1, 1.0),
        lambda: rb.LinearCappedRate(2.0, 0.1, 1.0),  # cap below base
        # non-finite inputs; cap = inf with slope > 0 raised OverflowError
        lambda: rb.LinearCappedRate(0.5, 0.5, math.inf),
        lambda: rb.LinearCappedRate(0.5, 0.0, math.inf),
        lambda: rb.LinearCappedRate(math.inf, 0.5, math.inf),
        lambda: rb.LinearCappedRate(0.5, math.inf, 1.0),
        lambda: rb.LinearCappedRate(math.nan, 0.5, 1.0),
    ],
)
def test_rate_rule_factories_reject_bad_rates(make):
    with pytest.raises(rb.IntensityError):
        make()

