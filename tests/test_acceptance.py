"""End-to-end acceptance gate.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` or
``-rP`` to see them; ``pytest -v`` shows the per-criterion outcome either
way).  Heavy Monte Carlo artifacts are shared through session fixtures; all
replication counts and tolerances are the stated ones.

Statistical slack conventions, fixed here once:

* means are compared at three standard errors of the estimate;
* the tail-bound check (criterion 8) is pointwise: three binomial standard
  deviations of the empirical tail at each node;
* the sum-ordering check (criterion 6) compares a whole empirical CDF with
  its lattice brackets at every node at once, so it uses a simultaneous
  band: the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant,
  P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2), Bonferroni-split over the
  five convolution orders to hold at 99.7 % family-wise (the level a 3-sigma
  rule suggests), plus the stated 1e-6 grid tolerance;
* Kolmogorov-Smirnov distances use the stated explicit thresholds.
"""

import math

import numpy as np
import pytest

import renewal_bounds as rb
from renewal_bounds.cli import run

from helpers import (
    deterministic_cdf,
    empirical_cdf_at,
    exp_cdf,
    exp_with_atom_cdf,
    ks_distance,
    uniform_cdf,
    weibull_cdf,
)

REPS = 100_000
SEED = 20260810


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# shared scenarios
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def sc_exp():
    return rb.ScenarioConfig(
        phi=rb.exponential(1.0),
        q=rb.exponential(1.0),
        mu_rule=rb.ConstantRate(0.0),
        t_queries=(1.0, 5.0, 10.0),
        reps=REPS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def sc_uniform():
    u = rb.uniform(0.0, 1.0)
    return rb.ScenarioConfig(
        phi=u,
        q=u,
        mu_rule=rb.ConstantRate(0.0),
        t_queries=(50.0,),
        reps=REPS,
        seed=SEED + 1,
    )


@pytest.fixture(scope="session")
def sc_gen():
    mu = rb.CycledIntensities((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)))
    return rb.ScenarioConfig(
        phi=rb.exponential(1.0),
        q=rb.exponential(3.0),
        mu_rule=mu,
        t_queries=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0),
        reps=REPS,
        seed=SEED + 2,
        step=0.005,
        horizon=30.0,
    )


@pytest.fixture(scope="session")
def gen_estimates(sc_gen):
    return rb.estimate(sc_gen, keep_samples=True)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_exponential_oracle(sc_exp):
    table = rb.estimate(sc_exp)
    se = table.se_backward()
    ok = True
    details = []
    for i, t in enumerate(sc_exp.t_queries):
        oracle = 1.0 - math.exp(-t)
        gap = abs(float(table.mean_backward[i]) - oracle)
        details.append(f"t={t:g}: |mean-oracle|={gap:.2e} (3se={3*se[i]:.2e})")
        ok &= gap <= 3.0 * se[i]

    classical = rb.lorden_classical_bound(sc_exp.interval_cdfs[0])
    ok &= classical == pytest.approx(2.0, rel=1e-12)
    ok &= bool(np.all(classical >= table.mean_backward))
    ok &= bool(np.all(classical >= table.mean_forward))

    generalized = rb.generalized_bound(sc_exp.eta_cdf, sc_exp.zeta_cdf)
    agree = abs(generalized - classical)
    ok &= generalized == pytest.approx(2.0, abs=1e-10)
    ok &= agree <= 1e-10
    report(
        "criterion 1 (exponential oracle, classical bound 2.0)",
        ok,
        "; ".join(details) + f"; |gen-classical|={agree:.1e}",
    )


def test_criterion_2_uniform_oracle(sc_uniform):
    table = rb.estimate(sc_uniform)
    se = float(table.se_backward()[0])
    mean_b = float(table.mean_backward[0])
    gap = abs(mean_b - 1.0 / 3.0)
    classical = rb.lorden_classical_bound(sc_uniform.interval_cdfs[0])
    ok = gap <= 3.0 * se
    ok &= classical == pytest.approx(2.0 / 3.0, rel=1e-8)
    ok &= classical >= mean_b
    ok &= classical >= float(table.mean_forward[0])
    report(
        "criterion 2 (uniform stationary mean 1/3, bound 2/3)",
        ok,
        f"meanB={mean_b:.5f} (3se={3*se:.1e}), classical={classical:.6f}",
    )


def test_criterion_3_generalized_scenario(sc_gen, gen_estimates):
    checks = rb.check_assumptions(sc_gen)
    ok = checks.all_pass and checks.condition(3).diagnostics["k"] == 4

    bound = rb.generalized_bound(sc_gen.eta_cdf, sc_gen.zeta_cdf)
    ok &= bound == pytest.approx(4.0, abs=1e-12)

    table = gen_estimates
    se_b, se_w = table.se_backward(), table.se_forward()
    worst = -math.inf
    for i in range(len(sc_gen.t_queries)):
        worst = max(
            worst,
            float(table.mean_backward[i]) - 3 * se_b[i] - bound,
            float(table.mean_forward[i]) - 3 * se_w[i] - bound,
        )
    ok &= worst <= 0.0
    report(
        "criterion 3 (generalized bound 4.0 dominates B and W)",
        ok,
        f"assumptions k=4 pass={checks.all_pass}, bound={bound:.12g}, "
        f"worst margin={-worst:.3f}",
    )


def test_criterion_4_round_trips():
    cases = {
        "Exp(1)": exp_cdf(1.0),
        "Uniform(0,1)": uniform_cdf(),
        "Weibull(2)": weibull_cdf(2.0),
        "deterministic(2)": deterministic_cdf(2.0),
        "Exp(1)+atom(1,ln2)": exp_with_atom_cdf(),
    }
    worst_name, worst = "", 0.0
    for name, F in cases.items():
        F2 = rb.cdf_from_intensity(rb.intensity_from_cdf(F))
        pts = np.concatenate([np.linspace(0.0, 12.0, 4801), [a for a, _ in F.jumps]])
        err = float(np.max(np.abs(np.asarray(F2.cdf(pts)) - np.asarray(F.cdf(pts)))))
        if err > worst:
            worst_name, worst = name, err
    report(
        "criterion 4 (round trips <= 1e-8 over grid and jumps)",
        worst <= 1e-8,
        f"worst {worst_name}: {worst:.2e}",
    )


def test_criterion_5_min_coupling_ks():
    n = REPS
    threshold = 2.0 / math.sqrt(n)
    pairs = [
        ("Exp(1)+Exp(2)", rb.exponential(1.0), rb.exponential(2.0)),
        ("Weibull(2)+Exp(0.5)", rb.weibull(2.0), rb.exponential(0.5)),
        (
            "Exp(1)&atom+Exp(2)",
            rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))]),
            rb.exponential(2.0),
        ),
    ]
    rng = np.random.default_rng(SEED + 5)
    ok = True
    details = []
    for name, a, b in pairs:
        x = rb.cdf_from_intensity(a).ppf(rng.random(n))
        y = rb.cdf_from_intensity(b).ppf(rng.random(n))
        target = rb.cdf_from_intensity(rb.add_intensities(a, b))
        d = ks_distance(np.minimum(x, y), target)
        details.append(f"{name}: KS={d:.4f}")
        ok &= d < threshold
    report(
        f"criterion 5 (min-coupling KS < {threshold:.4f})", ok, "; ".join(details)
    )


def test_criterion_6_sum_ordering(sc_gen):
    h, s_max = sc_gen.step, sc_gen.horizon
    g_phi = rb.discretize(sc_gen.eta_cdf, h, s_max, allow_truncation=True)
    g_q = rb.discretize(sc_gen.zeta_cdf, h, s_max, allow_truncation=True)
    nodes = g_phi.grid()
    rng = np.random.default_rng(SEED + 6)
    reps = REPS
    orders = range(1, 6)
    eps = math.sqrt(math.log(2 * len(orders) / 0.003) / (2 * reps))
    worst = -math.inf
    for n in orders:
        lower = rb.convolution_power(g_phi, n)
        upper = rb.convolution_power(g_q, n)
        zeta = sc_gen.eta_cdf.ppf(rng.random((reps, n)).ravel()).reshape(reps, n)
        theta = np.empty_like(zeta)
        for i in range(n):
            cdf = sc_gen.mu_cdfs[int(sc_gen.mu_rule.index_for(i + 1))]
            u = rng.random(reps)
            theta[:, i] = math.inf if cdf.total_mass() <= 0.0 else cdf.ppf(u)
        sums = np.sort(np.minimum(zeta, theta).sum(axis=1))
        emp = empirical_cdf_at(sums, nodes)
        v_lo = float(np.max(lower.values - (emp + eps + 1e-6)))
        v_hi = float(np.max(emp - (upper.values + eps + 1e-6)))
        worst = max(worst, v_lo, v_hi)
    report(
        "criterion 6 (sum ordering Phi^n <= empirical <= G^n, n <= 5)",
        worst <= 0.0,
        f"worst signed violation {worst:.2e} (DKW band eps={eps:.5f})",
    )


def test_criterion_7_renewal_function():
    F1 = rb.cdf_from_intensity(rb.exponential(1.0))
    G = rb.discretize(F1, 0.005, 10.0, allow_truncation=True)
    H = rb.renewal_function(G)
    err_exp = float(np.max(np.abs(H.values - H.grid())))

    Gd = rb.discretize(rb.cdf_from_intensity(rb.deterministic(1.0)), 0.005, 10.0)
    Hd = rb.renewal_function(Gd)
    s = Hd.grid()
    off = np.abs(s - np.round(s)) > 1e-9
    det_exact = bool(np.array_equal(Hd.values[off], np.floor(s[off])))

    ok = err_exp <= 1e-3 and det_exact
    report(
        "criterion 7 (renewal function: |H-s| <= 1e-3; floor exact)",
        ok,
        f"exp sup err={err_exp:.2e}, deterministic exact={det_exact}",
    )


def test_criterion_8_tail_bound_dominance(sc_gen, gen_estimates):
    h = sc_gen.step
    G = rb.discretize(sc_gen.zeta_cdf, h, sc_gen.horizon, allow_truncation=True)
    H = rb.renewal_function(G)
    ok = True
    details = []
    for t in (5.0, 10.0):
        qi = sc_gen.t_queries.index(t)
        samples = np.sort(gen_estimates.samples_backward[:, qi])
        xs = np.arange(0, int(round(t / h)) + 1) * h
        ub = rb.backward_tail_bound(sc_gen.eta_cdf, H, t, xs)
        emp = 1.0 - empirical_cdf_at(samples, xs)
        se = np.sqrt(emp * (1 - emp) / samples.size)
        worst = float(np.max(emp - 3 * se - ub))
        details.append(f"t={t:g}: worst gap {worst:.2e}")
        ok &= worst <= 0.0
    report(
        "criterion 8 (tail bound >= empirical P(B_t > x) - 3se)", ok, "; ".join(details)
    )


def test_criterion_9_determinism(tmp_path, sc_gen):
    scenario_text = """\
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
reps = 2000
seed = 20260810
step = 0.005
horizon = 30
"""
    path = tmp_path / "scenario.ini"
    path.write_text(scenario_text)
    run("verify", path, out_dir=tmp_path / "serial", workers=1)
    run("verify", path, out_dir=tmp_path / "parallel", workers=4)
    run("verify", path, out_dir=tmp_path / "again", workers=1)
    a = (tmp_path / "serial" / "estimates.csv").read_bytes()
    b = (tmp_path / "parallel" / "estimates.csv").read_bytes()
    c = (tmp_path / "again" / "estimates.csv").read_bytes()
    ra = (tmp_path / "serial" / "report.json").read_bytes()
    rbb = (tmp_path / "parallel" / "report.json").read_bytes()
    ok = a == b == c and ra == rbb
    report(
        "criterion 9 (byte-identical estimates across runs and worker counts)",
        ok,
        f"{len(a)} bytes compared",
    )
