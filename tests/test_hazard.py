"""Hazard calculus: construction, conversions, addition, moments, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewal_bounds as rb
from renewal_bounds import IntensityError, DistributionError, DivergentMomentError

from helpers import (
    brute_ppf,
    deterministic_cdf,
    exp_cdf,
    exp_with_atom_cdf,
    ks_distance,
    uniform_cdf,
    weibull_cdf,
)

E1 = math.exp(-1.0)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_rejects_negative_hazard():
    with pytest.raises(IntensityError):
        rb.from_segments([(0.0, [-0.5])])
    with pytest.raises(IntensityError):
        # dips negative in the middle of the segment
        rb.from_segments([(0.0, [0.0, -1.0, 0.0, 0.0]), (5.0, [1.0])])


def test_rejects_unordered_atoms():
    with pytest.raises(IntensityError):
        rb.from_segments([(0.0, [1.0])], atoms=[(2.0, 0.5), (1.0, 0.5)])
    with pytest.raises(IntensityError):
        rb.from_segments([(0.0, [1.0])], atoms=[(1.0, -0.5)])


def test_rejects_zero_mass_by_default():
    with pytest.raises(IntensityError):
        rb.from_segments([(0.0, [1.0]), (1.0, [0.0])])
    # explicit flag (or the zero constructor) allows it
    improper = rb.from_segments([(0.0, [1.0]), (1.0, [0.0])], require_proper=False)
    assert not improper.proper
    assert not rb.zero().proper


def test_rejects_shrinking_tail():
    with pytest.raises(IntensityError):
        rb.from_segments([(0.0, [1.0, -0.1])])  # decreasing last segment


def test_full_atom_only_last():
    with pytest.raises(IntensityError):
        rb.from_segments([(0.0, [1.0])], atoms=[(1.0, rb.ATOM_INF), (2.0, 1.0)])


# ---------------------------------------------------------------------------
# cdf_from_intensity
# ---------------------------------------------------------------------------


def test_constant_hazard_is_exponential():
    F = rb.cdf_from_intensity(rb.exponential(1.0))
    xs = np.linspace(0.0, 20.0, 97)
    assert np.allclose(F.cdf(xs), 1.0 - np.exp(-xs), atol=1e-14)
    assert float(F.cdf(-0.5)) == 0.0


def test_full_atom_is_deterministic():
    F = rb.cdf_from_intensity(rb.deterministic(2.0))
    assert float(F.cdf(1.999999)) == 0.0
    assert float(F.cdf(2.0)) == 1.0
    assert float(F.cdf_left(2.0)) == 0.0
    assert F.jumps == ((2.0, 1.0),)


def test_unit_hazard_with_atom():
    # survival ratio across the atom is exp(-ln 2) = 1/2, so
    # F(1+0) = 1 - e^{-1}/2 (hand-computed before implementation)
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))])
    F = rb.cdf_from_intensity(phi)
    assert float(F.cdf(1.0)) == pytest.approx(0.8160602794142788, abs=1e-15)
    assert float(F.cdf_left(1.0)) == pytest.approx(1.0 - E1, abs=1e-15)
    (loc, mass), = F.jumps
    assert loc == 1.0
    assert mass == pytest.approx(E1 / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# intensity_from_cdf
# ---------------------------------------------------------------------------


def test_recovers_exponential_rate():
    phi = rb.intensity_from_cdf(exp_cdf(2.0))
    xs = np.linspace(0.0, 10.0, 50)
    assert np.allclose(phi.hazard(xs), 2.0, atol=1e-7)
    assert phi.atom_locs.size == 0


def test_recovers_deterministic():
    phi = rb.intensity_from_cdf(deterministic_cdf(3.0))
    assert phi.atom_locs.tolist() == [3.0]
    assert math.isinf(phi.atom_weights[0])


def test_round_trip_atom_case():
    F = exp_with_atom_cdf()
    phi = rb.intensity_from_cdf(F)
    assert phi.atom_locs.tolist() == [1.0]
    assert float(phi.atom_weights[0]) == pytest.approx(math.log(2.0), abs=1e-10)
    F2 = rb.cdf_from_intensity(phi)
    pts = np.concatenate([np.linspace(0, 12, 2401), [1.0]])
    assert np.max(np.abs(np.asarray(F2.cdf(pts)) - np.asarray(F.cdf(pts)))) <= 1e-8


def test_rejects_mass_after_certain_point():
    bad = rb.CallableCdf(
        lambda x: np.where(np.asarray(x) >= 1.0, 1.0, 0.0),
        jumps=[(1.0, 1.0), (2.0, 0.2)],
        sf=lambda x: np.where(np.asarray(x) >= 1.0, 0.0, 1.0),
    )
    with pytest.raises(DistributionError):
        rb.intensity_from_cdf(bad)


@pytest.mark.parametrize(
    "make",
    [exp_cdf, uniform_cdf, lambda: weibull_cdf(2.0), lambda: deterministic_cdf(2.0), exp_with_atom_cdf],
    ids=["exp1", "uniform01", "weibull2", "det2", "exp+atom"],
)
def test_round_trip_family(make):
    F = make()
    F2 = rb.cdf_from_intensity(rb.intensity_from_cdf(F))
    pts = np.concatenate([np.linspace(0.0, 10.0, 4001), [a for a, _ in F.jumps]])
    err = np.max(np.abs(np.asarray(F2.cdf(pts)) - np.asarray(F.cdf(pts))))
    assert err <= 1e-8


# ---------------------------------------------------------------------------
# add_intensities
# ---------------------------------------------------------------------------


def test_add_exponentials_is_min():
    s = rb.add_intensities(rb.exponential(1.0), rb.exponential(2.0))
    assert np.allclose(s.hazard(np.linspace(0, 5, 11)), 3.0)


def test_add_zero_is_identity():
    phi = rb.weibull(2.0)
    s = rb.add_intensities(phi, rb.zero())
    xs = np.linspace(0.0, 4.0, 41)
    assert np.allclose(s.hazard(xs), phi.hazard(xs), atol=0.0)
    assert s.proper


def test_add_atoms_at_same_location():
    a = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))])
    b = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(3.0))])
    s = rb.add_intensities(a, b)
    assert s.atom_locs.tolist() == [1.0]
    # survival ratios multiply: exp(-ln2) * exp(-ln3) = 1/6
    assert float(s.atom_weights[0]) == pytest.approx(math.log(6.0), rel=1e-15)


def test_add_full_atom_truncates():
    s = rb.add_intensities(rb.deterministic(2.0), rb.from_segments([(0.0, [1.0])], atoms=[(3.0, 1.0)]))
    assert s.atom_locs.tolist() == [2.0]
    assert math.isinf(s.atom_weights[-1])


def test_min_coupling_law_empirically():
    # hazard of min(x, y) is the summed hazard (module invariant, KS check)
    pairs = [
        (rb.exponential(1.0), rb.exponential(2.0)),
        (rb.weibull(2.0, 1.5), rb.exponential(0.7)),
    ]
    rng = np.random.default_rng(424242)
    n = 100_000
    threshold = 1.36 / math.sqrt(n) * 1.5
    for a, b in pairs:
        x = rb.cdf_from_intensity(a).ppf(rng.random(n))
        y = rb.cdf_from_intensity(b).ppf(rng.random(n))
        target = rb.cdf_from_intensity(rb.add_intensities(a, b))
        assert ks_distance(np.minimum(x, y), target) < threshold


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_exponential_moments():
    F = rb.cdf_from_intensity(rb.exponential(1.0))
    assert rb.moment(F, 1) == pytest.approx(1.0, rel=1e-12)
    assert rb.moment(F, 2) == pytest.approx(2.0, rel=1e-12)


def test_uniform_second_moment():
    F = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    assert rb.moment(F, 2) == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_uniform_moment_against_quadrature_oracle():
    from scipy.integrate import quad

    F = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    oracle, err = quad(lambda x: 3 * x**2 * max(1.0 - x, 0.0), 0.0, 1.0)
    assert err < 1e-12
    assert rb.moment(F, 3) == pytest.approx(oracle, rel=1e-8)


def test_deterministic_moment():
    F = rb.cdf_from_intensity(rb.deterministic(2.0))
    assert rb.moment(F, 2) == pytest.approx(4.0, abs=1e-12)


def test_weibull_moments_exact_family():
    for shape in (1, 2, 3, 4):
        F = rb.cdf_from_intensity(rb.weibull(shape, 1.0))
        assert rb.moment(F, 1) == pytest.approx(math.gamma(1 + 1 / shape), rel=1e-9)
        assert rb.moment(F, 2) == pytest.approx(math.gamma(1 + 2 / shape), rel=1e-9)


def test_divergent_moment_signalled():
    improper = rb.from_segments([(0.0, [1.0]), (1.0, [0.0])], require_proper=False)
    with pytest.raises(DivergentMomentError):
        rb.moment(rb.cdf_from_intensity(improper), 1)


def test_moment_generic_path_matches_intensity_path():
    F_exact = exp_cdf(1.0)
    F_fast = rb.cdf_from_intensity(rb.exponential(1.0))
    for k in (1, 2, 3):
        assert rb.moment(F_exact, k) == pytest.approx(rb.moment(F_fast, k), rel=1e-8)


def test_moment_positive_mean_and_variance():
    # remark-level invariant: positive mean and variance for laws with a
    # genuinely continuous part (pure atoms are excluded: their variance is 0)
    for phi in (rb.exponential(0.5), rb.uniform(0.0, 1.0), rb.weibull(3.0, 2.0),
                rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))])):
        F = rb.cdf_from_intensity(phi)
        m1 = rb.moment(F, 1)
        m2 = rb.moment(F, 2)
        assert m1 > 0
        assert m2 - m1 * m1 > 0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_exponential_closed_form():
    F = rb.cdf_from_intensity(rb.exponential(1.0))
    assert rb.sample(F, 1.0 - E1) == pytest.approx(1.0, abs=1e-12)


def test_sample_deterministic():
    F = rb.cdf_from_intensity(rb.deterministic(2.0))
    for u in (0.001, 0.5, 0.999):
        assert rb.sample(F, u) == 2.0


def test_sample_mixed_left_neighbourhood():
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))])
    F = rb.cdf_from_intensity(phi)
    for u in (0.05, 0.5, 0.7, 0.816, 0.99):
        s = float(rb.sample(F, u))
        assert float(F.cdf(s)) >= u
        assert float(F.cdf(s - 1e-10)) < u
        # independent bisection oracle lands on the same point
        assert s == pytest.approx(brute_ppf(F, u), abs=1e-9)


def test_sample_rejects_out_of_range():
    F = rb.cdf_from_intensity(rb.exponential(1.0))
    for u in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            rb.sample(F, u)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0 - 1e-9), min_size=2, max_size=40))
def test_sample_monotone_in_u(us):
    phi = rb.from_segments(
        [(0.0, [0.5, 0.25]), (2.0, [1.0])], atoms=[(1.5, 0.4)]
    )
    F = rb.cdf_from_intensity(phi)
    xs = F.ppf(np.sort(np.asarray(us)))
    assert np.all(np.diff(xs) >= 0.0)


def test_sample_atom_masses_binomial():
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))])
    F = rb.cdf_from_intensity(phi)
    n = 100_000
    rng = np.random.default_rng(7)
    draws = F.ppf(rng.random(n))
    p = E1 / 2.0
    hits = int(np.sum(draws == 1.0))
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(hits - n * p) <= 3.0 * sigma


def test_sample_array_shape_and_uniform_law():
    F = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    rng = np.random.default_rng(3)
    u = rng.random(50_000)
    x = rb.sample(F, u)
    assert x.shape == u.shape
    assert ks_distance(x, uniform_cdf()) < 2.0 / math.sqrt(u.size)


# ---------------------------------------------------------------------------
# quartic rows: the bracketed-Newton kernel and chunked ppf
# ---------------------------------------------------------------------------


def _row_increment(F, rows, tau):
    """R_row(tau) by Horner, in the order the CDF evaluates it."""
    val = F._row_RT[4][rows]
    for k in (3, 2, 1):
        val = val * tau + F._row_RT[k][rows]
    return val * tau


@pytest.mark.parametrize(
    "phi",
    [
        rb.uniform(0.0, 1.0),
        rb.weibull(1.5),
        rb.from_cumulative_hazard(lambda x: np.asarray(x) ** 2.5 + 0.3 * np.asarray(x)),
    ],
    ids=["uniform", "weibull1.5", "cumhaz"],
)
def test_quartic_rows_give_the_smallest_qualifying_double(phi):
    F = rb.cdf_from_intensity(phi)
    quartic = np.nonzero((F._row_deg > 2) & np.isfinite(F._row_width))[0]
    assert quartic.size > 0
    per_row = max(64, -(-10_000 // quartic.size))
    rng = np.random.default_rng(5)
    rows = np.repeat(quartic, per_row)
    width = F._row_width[rows]
    end = _row_increment(F, rows, width)
    tp = _row_increment(F, rows, width * rng.random(rows.size))
    j = np.arange(rows.size) % per_row
    tp = np.where(j == 0, end, tp)  # the row end itself
    tp = np.where(j == 1, 1e-12 * width * np.maximum(F._row_RT[1][rows], 1.0), tp)
    tp = np.where(j == 2, np.nextafter(end, -math.inf), tp)
    tp = np.where(tp > 0.0, tp, end)
    assert tp.size >= 10_000

    out = F._solve_rows(rows, tp)
    assert np.all((out > 0.0) & (out <= width))
    assert np.all(_row_increment(F, rows, out) >= tp)
    below = np.nextafter(out, -math.inf)
    assert np.all(_row_increment(F, rows, below) < tp)


_cubic = st.tuples(
    st.floats(0.05, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5)
)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(_cubic, min_size=1, max_size=3),
    widths=st.lists(st.floats(0.2, 1.5), min_size=3, max_size=3),
    atoms=st.lists(st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 1.5)), max_size=2),
    tail=st.floats(0.1, 3.0),
    us=st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=8),
)
def test_ppf_matches_brute_inverse_on_quartic_rows_with_atoms(coeffs, widths, atoms, tail, us):
    starts = np.concatenate([[0.0], np.cumsum(widths[: len(coeffs)])])
    segments = [(float(s), c) for s, c in zip(starts, coeffs)] + [(float(starts[-1]), [tail])]
    locs = sorted({round(a, 6) for a, _ in atoms})
    phi = rb.from_segments(segments, atoms=[(a, w) for a, (_, w) in zip(locs, atoms)])
    F = rb.cdf_from_intensity(phi)
    u = np.asarray(us)
    x = F.ppf(u)
    assert np.all(F.cdf(x) >= u)
    for xi, ui in zip(x, u):
        assert xi == pytest.approx(brute_ppf(F, ui), abs=1e-9)


def test_ppf_is_chunk_invariant(monkeypatch):
    from renewal_bounds import hazard

    F = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    rng = np.random.default_rng(9)
    flat = rng.random(1000)
    grid = rng.random((13, 29))
    expect_flat, expect_grid, expect_one = F.ppf(flat), F.ppf(grid), F.ppf(0.3)

    sc = rb.ScenarioConfig(
        phi=rb.uniform(0.0, 1.0), q=rb.uniform(0.0, 1.0), mu_rule=rb.ConstantRate(0.0),
        t_queries=(2.0, 6.0), reps=40, seed=3,
    )
    whole = rb.estimate(sc, keep_samples=True)

    monkeypatch.setattr(hazard, "_PPF_CHUNK", 7)
    assert F.ppf(flat).tobytes() == expect_flat.tobytes()
    got = F.ppf(grid)
    assert got.shape == grid.shape and got.tobytes() == expect_grid.tobytes()
    one = F.ppf(0.3)
    assert isinstance(one, float) and one == expect_one
    chunked = rb.estimate(sc, keep_samples=True)
    assert chunked.samples_backward.tobytes() == whole.samples_backward.tobytes()
    assert chunked.samples_forward.tobytes() == whole.samples_forward.tobytes()
