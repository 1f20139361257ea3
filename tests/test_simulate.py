"""Simulator: interval law, path geometry, estimator determinism, bounds."""

import math

import numpy as np
import pytest

import renewal_bounds as rb
from renewal_bounds import AssumptionFailure

from helpers import ks_distance


def iid_scenario(phi, reps=100, seed=12345, t_queries=(1.0, 5.0, 10.0), **kw):
    return rb.ScenarioConfig(
        phi=phi, q=phi, mu_rule=rb.ConstantRate(0.0),
        t_queries=t_queries, reps=reps, seed=seed, **kw
    )


@pytest.fixture(scope="module")
def sc_exp():
    return iid_scenario(rb.exponential(1.0))


# ---------------------------------------------------------------------------
# generate_interval
# ---------------------------------------------------------------------------


def test_interval_iid_exponential(sc_exp):
    stream = rb.path_stream(sc_exp.seed, 0)
    draws = np.array([rb.generate_interval(j, sc_exp, stream) for j in range(1, 20001)])
    from helpers import exp_cdf

    assert ks_distance(draws, exp_cdf(1.0)) < 2.0 / math.sqrt(draws.size)


def test_interval_min_coupling_rate_sum():
    sc = rb.ScenarioConfig(
        phi=rb.exponential(1.0), q=rb.exponential(3.0),
        mu_rule=rb.ConstantRate(2.0), t_queries=(1.0,), reps=10, seed=5,
    )
    stream = rb.path_stream(sc.seed, 0)
    draws = np.array([rb.generate_interval(j, sc, stream) for j in range(1, 20001)])
    from helpers import exp_cdf

    assert ks_distance(draws, exp_cdf(3.0)) < 2.0 / math.sqrt(draws.size)


def test_interval_law_matches_summed_intensity():
    mu = rb.CycledIntensities((rb.weibull(2.0, 2.0),))
    sc = rb.ScenarioConfig(
        phi=rb.exponential(0.5), q=rb.exponential(10.0), mu_rule=mu,
        t_queries=(1.0,), reps=10, seed=17,
    )
    n = 100_000
    rng = np.random.default_rng(2024)
    z = sc.eta_cdf.ppf(rng.random(n))
    th = sc.mu_cdfs[0].ppf(rng.random(n))
    target = rb.cdf_from_intensity(rb.add_intensities(sc.phi, mu.items[0]))
    assert ks_distance(np.minimum(z, th), target) < 2.0 / math.sqrt(n)


def test_interval_consumes_two_uniforms_in_order(sc_exp):
    # theta's uniform is consumed even for the zero intensity
    s1 = rb.path_stream(sc_exp.seed, 3)
    x1 = rb.generate_interval(1, sc_exp, s1)
    x2 = rb.generate_interval(2, sc_exp, s1)
    s2 = rb.path_stream(sc_exp.seed, 3)
    u = s2.random(4)
    assert x1 == pytest.approx(float(sc_exp.eta_cdf.ppf(u[0])), abs=0.0)
    assert x2 == pytest.approx(float(sc_exp.eta_cdf.ppf(u[2])), abs=0.0)


# ---------------------------------------------------------------------------
# simulate_path
# ---------------------------------------------------------------------------


def test_path_deterministic_intervals():
    sc = iid_scenario(rb.deterministic(1.0), t_queries=(2.5,))
    p = rb.simulate_path(sc, 0)
    assert p.n_t.tolist() == [2]
    assert p.b_t.tolist() == [0.5]
    assert p.w_t.tolist() == [0.5]


def test_path_query_before_first_jump():
    # all intervals are >= 5, so N_t = 0 and B_t = t at t = 1
    sc = iid_scenario(rb.deterministic(5.0), t_queries=(1.0,))
    p = rb.simulate_path(sc, 0)
    assert p.n_t.tolist() == [0]
    assert p.b_t.tolist() == [1.0]
    assert p.w_t.tolist() == [4.0]


def test_path_identity_backward_plus_forward(sc_exp):
    for r in range(25):
        p = rb.simulate_path(sc_exp, r)
        last = np.where(p.n_t > 0, p.jump_times[np.maximum(p.n_t - 1, 0)], 0.0)
        xi_straddling = p.jump_times[p.n_t] - last
        assert np.max(np.abs((p.b_t + p.w_t) - xi_straddling)) <= 1e-12
        assert np.all(p.b_t >= 0) and np.all(p.b_t <= np.asarray(p.t_queries))
        assert np.all(p.w_t > 0)


def test_path_matches_scalar_interval_stream(sc_exp):
    p = rb.simulate_path(sc_exp, 11)
    stream = rb.path_stream(sc_exp.seed, 11)
    xi = [rb.generate_interval(j, sc_exp, stream) for j in range(1, p.events + 1)]
    assert np.array_equal(np.cumsum(xi), p.jump_times)


def test_monotone_coupling_of_envelope_draws():
    mu = rb.CycledIntensities((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)))
    sc = rb.ScenarioConfig(
        phi=rb.exponential(1.0), q=rb.exponential(3.0), mu_rule=mu,
        t_queries=(5.0,), reps=10, seed=31,
    )
    rng = np.random.default_rng(99)
    u = rng.random(20_000)
    zeta = sc.zeta_cdf.ppf(u)  # fastest envelope
    eta = sc.eta_cdf.ppf(u)    # slowest envelope
    for F in sc.interval_cdfs:
        xi = F.ppf(u)
        assert np.all(zeta <= xi + 1e-9)
        assert np.all(xi <= eta + 1e-9)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_single_replication():
    sc = iid_scenario(rb.exponential(1.0), reps=1)
    table = rb.estimate(sc)
    p = rb.simulate_path(sc, 0)
    assert np.array_equal(table.mean_backward, p.b_t)
    assert np.array_equal(table.mean_forward, p.w_t)
    assert np.all(table.var_backward == 0.0)
    assert np.all(table.half_forward == 0.0)


def test_estimate_same_seed_identical():
    sc = iid_scenario(rb.exponential(1.0), reps=500)
    t1 = rb.estimate(sc)
    t2 = rb.estimate(sc)
    assert np.array_equal(t1.mean_backward, t2.mean_backward)
    assert np.array_equal(t1.var_backward, t2.var_backward)
    assert np.array_equal(t1.mean_forward, t2.mean_forward)


def test_estimate_rows_match_individual_paths():
    sc = iid_scenario(rb.exponential(1.0), reps=40)
    table = rb.estimate(sc, keep_samples=True)
    for r in (0, 7, 39):
        p = rb.simulate_path(sc, r)
        assert np.array_equal(table.samples_backward[r], p.b_t)
        assert np.array_equal(table.samples_forward[r], p.w_t)


def _wave_sums(xi, first_block):
    """Jump times as the wave loop accumulates them: base + cumsum, per wave."""
    out, base, start, block = [], 0.0, 0, first_block
    while start < len(xi):
        times = base + np.cumsum(xi[start : start + block])
        out.append(times)
        base, start, block = times[-1], start + block, 2 * block
    return np.concatenate(out)


def test_rows_match_paths_across_waves(monkeypatch):
    # a 16-interval first wave makes almost every path at t = 60 take at least
    # three waves (16 + 32 Exp(1) intervals fall short of 60); the rows must
    # equal the paths, the scalar stream and the default-block run bit for bit
    import renewal_bounds.simulate as sim

    sc = iid_scenario(rb.exponential(1.0), reps=40, t_queries=(1.0, 30.0, 60.0), seed=8)
    default = rb.estimate(sc, keep_samples=True)
    monkeypatch.setattr(sim, "_initial_block", lambda scenario, t_max: 16)
    table = rb.estimate(sc, keep_samples=True)
    long_paths = 0
    for r in range(sc.reps):
        p = rb.simulate_path(sc, r)
        assert np.array_equal(table.samples_backward[r], p.b_t)
        assert np.array_equal(table.samples_forward[r], p.w_t)
        if p.events > 16 + 32:
            long_paths += 1
            if long_paths <= 3:
                stream = rb.path_stream(sc.seed, r)
                xi = [rb.generate_interval(j, sc, stream) for j in range(1, p.events + 1)]
                assert np.array_equal(_wave_sums(np.array(xi), 16), p.jump_times)
                assert np.allclose(np.cumsum(xi), p.jump_times, rtol=1e-13, atol=0.0)
    assert long_paths >= 30
    # jump times are summed per wave, so another wave partition moves the last
    # bits of B and W; splitting the replications into slabs moves none
    for name in ("samples_backward", "samples_forward"):
        assert np.allclose(getattr(table, name), getattr(default, name), rtol=0.0, atol=1e-12)
    monkeypatch.undo()
    monkeypatch.setattr(sim, "_SLAB", 7)
    split = rb.estimate(sc, keep_samples=True)
    for name in ("samples_backward", "samples_forward", "mean_backward", "var_forward"):
        assert getattr(split, name).tobytes() == getattr(default, name).tobytes()


def test_estimate_exponential_backward_mean():
    sc = iid_scenario(rb.exponential(1.0), reps=20_000, t_queries=(10.0,), seed=777)
    table = rb.estimate(sc)
    se = float(table.se_backward()[0])
    assert abs(float(table.mean_backward[0]) - (1.0 - math.exp(-10.0))) <= 3.0 * se


def test_estimate_parallel_matches_serial():
    sc = iid_scenario(rb.exponential(1.0), reps=2_000, seed=4242)
    serial = rb.estimate(sc, workers=1)
    parallel = rb.estimate(sc, workers=3)
    assert np.array_equal(serial.mean_backward, parallel.mean_backward)
    assert np.array_equal(serial.var_forward, parallel.var_forward)


def test_half_width_contract():
    sc = iid_scenario(rb.exponential(1.0), reps=300)
    t = rb.estimate(sc)
    assert np.allclose(t.half_backward, 1.96 * np.sqrt(t.var_backward / t.reps), atol=0.0)


# ---------------------------------------------------------------------------
# verify_bound
# ---------------------------------------------------------------------------


def test_verify_bound_generalized_scenario():
    mu = rb.CycledIntensities((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)))
    sc = rb.ScenarioConfig(
        phi=rb.exponential(1.0), q=rb.exponential(3.0), mu_rule=mu,
        t_queries=(1.0, 5.0), reps=4_000, seed=1001,
    )
    report = rb.verify_bound(sc)
    assert report.generalized == pytest.approx(4.0, abs=1e-12)
    assert report.classical is None
    assert report.all_pass
    assert report.assumptions.all_pass
    assert not report.assumption_override


def test_verify_bound_iid_exponential():
    sc = iid_scenario(rb.exponential(1.0), reps=4_000, seed=55)
    report = rb.verify_bound(sc)
    assert report.classical == pytest.approx(2.0, rel=1e-12)
    assert abs(report.generalized - report.classical) <= 1e-10
    assert report.all_pass
    for v in report.verdicts:
        assert v.bound >= v.mean_backward
        assert v.bound >= v.mean_forward


def test_verify_bound_deterministic_iid():
    sc = iid_scenario(rb.deterministic(1.0), reps=200, t_queries=(0.4, 2.5), seed=2)
    report = rb.verify_bound(sc)
    assert report.classical == pytest.approx(1.0, rel=1e-12)
    assert report.all_pass
    # backward time never reaches the classical bound for a lattice process
    assert all(v.mean_backward < 1.0 for v in report.verdicts)


def test_verify_bound_requires_assumptions_or_override():
    sc = rb.ScenarioConfig(
        phi=rb.exponential(2.0), q=rb.exponential(1.0),  # envelope violated
        mu_rule=rb.ConstantRate(0.0), t_queries=(1.0,), reps=50, seed=3,
    )
    with pytest.raises(AssumptionFailure):
        rb.verify_bound(sc)
    report = rb.verify_bound(sc, override_assumptions=True)
    assert report.assumption_override
    assert not report.assumptions.all_pass


def test_event_cap_guard(monkeypatch):
    # an atom at 0 with huge weight makes zero-length intervals dominate;
    # the diagnostic cap must fire rather than loop forever (lowered here so
    # the test does not actually draw 1e8 events)
    import renewal_bounds.simulate as sim

    monkeypatch.setattr(sim, "EVENT_CAP", 5_000)
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(0.0, 50.0)])
    sc = rb.ScenarioConfig(
        phi=phi, q=phi, mu_rule=rb.ConstantRate(0.0),
        t_queries=(1.0,), reps=1, seed=9,
    )
    with pytest.raises(rb.EventCapExceeded):
        rb.simulate_path(sc, 0)
