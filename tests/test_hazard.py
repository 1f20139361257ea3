"""Hazard calculus: construction, conversions, addition, moments, sampling."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renewal_bounds as rb
from renewal_bounds import IntensityError, DistributionError, DivergentMomentError
from renewal_bounds import hazard

from helpers import (
    KERNEL_LAWS,
    CallableCdf,
    brute_ppf,
    deterministic_cdf,
    erlang_cdf,
    exp_cdf,
    exp_with_atom_cdf,
    fit_panels_by_recursion,
    gl_recursive,
    ks_distance,
    moment_by_recursion,
    newton_quartic_by_masks,
    ppf_by_masks,
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


@pytest.mark.parametrize(
    "segments, atoms",
    [
        ([(0.0, [1.0]), (math.nan, [2.0])], []),
        ([(0.0, [1.0]), (math.inf, [2.0])], []),
        ([(0.0, [1.0])], [(math.nan, 0.5)]),
        ([(0.0, [1.0])], [(math.inf, 0.5)]),
        ([(0.0, [1.0])], [(1.0, math.nan)]),
        ([(0.0, [1.0])], [(1.0, 0.5), (2.0, math.nan)]),
    ],
    ids=["nan-break", "inf-break", "nan-loc", "inf-loc", "nan-weight", "nan-last-weight"],
)
def test_rejects_non_finite_breaks_and_atoms(segments, atoms):
    with pytest.raises(IntensityError):
        rb.from_segments(segments, atoms=atoms)


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


@pytest.mark.parametrize("segments", [[(0.0, [-1e-13])], [(0.0, [1.0]), (1.0, [-1e-13])]])
def test_rejects_a_negative_constant_tail_inside_the_slack(segments):
    # F would fall below 0 for ever; ppf(0.5) overflowed in its ulp walk
    with pytest.raises(IntensityError, match="last segment"):
        rb.from_segments(segments)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: rb.weibull(math.nan), "shape"),
        (lambda: rb.weibull(1.5, math.nan), "scale"),
        (lambda: rb.weibull(1.5, math.inf), "scale"),
        (lambda: rb.uniform(0.0, math.inf), "uniform"),
    ],
    ids=["weibull-shape-nan", "weibull-scale-nan", "weibull-scale-inf", "uniform-b-inf"],
)
def test_families_reject_non_finite_parameters(make, match, monkeypatch):
    monkeypatch.setattr(hazard, "_FIT_MAX_DEPTH", 4)  # bounds a fit that runs away
    with pytest.raises(IntensityError, match=match):
        make()


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: rb.from_segments([]), "at least one segment"),
        (lambda: rb.from_segments([(0.0, [1.0, 0.0, 0.0, 0.0, 1.0])]), "degree 3"),
        (lambda: rb.from_segments([(1.0, [1.0])]), "must start at 0"),
        (lambda: rb.from_segments([(0.0, [1.0]), (0.0, [2.0])]), "strictly increasing"),
        (lambda: rb.GeneralizedIntensity([0.0], np.ones((1, 3)), [], []), r"shape \(1, 4\)"),
        (lambda: rb.GeneralizedIntensity([0.0], [[1.0, 0.0, 0.0, 0.0]], [1.0, 2.0], [0.5]),
         "matching"),
        (lambda: rb.from_segments([(0.0, [math.nan])]), "coefficients must be finite"),
        (lambda: rb.from_segments([(0.0, [1.0])], atoms=[(-1.0, 0.5)]), "nonnegative"),
        (lambda: rb.exponential(0.0), "rate must be positive"),
        (lambda: rb.deterministic(-1.0), "must be nonnegative"),
    ],
    ids=["no-segment", "degree-4", "first-break-1", "two-breaks-at-0", "coeffs-1x3",
         "unequal-atom-arrays", "nan-coefficient", "atom-at-minus-1", "exp-rate-0",
         "deterministic-minus-1"],
)
def test_constructors_reject_malformed_input(make, match):
    with pytest.raises(IntensityError, match=match):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: rb.from_cumulative_hazard(lambda x: np.asarray(x) * np.nan),
        lambda: rb.intensity_from_cdf(
            CallableCdf(lambda x: np.asarray(x) * np.nan, sf=lambda x: np.asarray(x) * np.nan)
        ),
    ],
    ids=["cumhaz", "sf"],
)
def test_compile_rejects_a_non_finite_cumulative_hazard(make, monkeypatch):
    # every panel would fail its fit and halve, down to the last level
    monkeypatch.setattr(hazard, "_FIT_MAX_DEPTH", 4)
    with pytest.raises(DistributionError, match="not finite"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: rb.from_cumulative_hazard(lambda x: np.where(np.asarray(x) > 5, np.nan, x)),
        lambda: rb.intensity_from_cdf(CallableCdf(
            lambda x: -np.expm1(-np.asarray(x)),
            sf=lambda x: np.where(np.asarray(x) > 5, np.nan, np.exp(-np.asarray(x))))),
    ],
    ids=["cumhaz", "sf"],
)
def test_compile_rejects_a_survival_that_turns_nan_in_the_tail(make):
    # the fit nodes below x = 5 are finite; the tail search must not read
    # the NaN beyond as a survival below 1e-12 and close the law at 5
    with pytest.raises(DistributionError, match="NaN at x = 8"):
        make()


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
    bad = CallableCdf(
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
# level-batched compile, against the panel-by-panel recursion
# ---------------------------------------------------------------------------


def _one_d_erlang(x):
    """Erlang(3) CDF that refuses 2-D input, as a user's function may."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise AssertionError(f"called with a {x.ndim}-D array")
    return erlang_cdf(3)(x)


def _scenario_laws(text):
    sc = _parse_scenario_text(text)
    return [sc.phi, sc.q, *sc.mu_rule.distinct_intensities,
            *(F.intensity for F in sc.interval_cdfs)]


def _compiled_laws():
    from test_cli import GENERALIZED, MINIMAL_IID

    return {
        "uniform01": lambda: rb.uniform(0.0, 1.0),
        "uniform25": lambda: rb.uniform(2.0, 5.0),
        "weibull1.5": lambda: rb.weibull(1.5),
        "weibull2.5x3": lambda: rb.weibull(2.5, 3.0),
        "erlang2": lambda: rb.intensity_from_cdf(CallableCdf(erlang_cdf(2))),
        "exp+atom": lambda: rb.intensity_from_cdf(exp_with_atom_cdf()),  # a jump
        "one-d": lambda: rb.intensity_from_cdf(CallableCdf(_one_d_erlang)),
        "generalized": lambda: _scenario_laws(GENERALIZED),
        "minimal": lambda: _scenario_laws(MINIMAL_IID),
    }


def _bits(laws):
    laws = [laws] if isinstance(laws, rb.GeneralizedIntensity) else laws
    return [tuple(a.tobytes() for a in (phi.breaks, phi.coeffs, phi.atom_locs, phi.atom_weights))
            for phi in laws]


@pytest.fixture
def fresh_laws():
    """Empty the law caches before and after, so that every law is compiled."""
    hazard.uniform.cache_clear()
    hazard.weibull.cache_clear()
    yield
    hazard.uniform.cache_clear()
    hazard.weibull.cache_clear()


@pytest.mark.parametrize("name", list(_compiled_laws()))
def test_compile_is_bit_equal_to_the_recursive_fit(name, fresh_laws, monkeypatch):
    make = _compiled_laws()[name]
    got = _bits(make())
    hazard.uniform.cache_clear()
    hazard.weibull.cache_clear()
    monkeypatch.setattr(hazard, "_fit_cumhaz", fit_panels_by_recursion)
    assert got == _bits(make())


def test_fit_falls_back_to_constants_like_the_recursion(fresh_laws, monkeypatch):
    monkeypatch.setattr(hazard, "_FIT_MAX_DEPTH", 3)
    phi = rb.uniform(0.0, 1.0)
    constant = (phi.coeffs[:-1, 0] > 0.0) & np.all(phi.coeffs[:-1, 1:] == 0.0, axis=1)
    assert np.count_nonzero(constant) >= 1  # panels near 1 reach the depth cap
    hazard.uniform.cache_clear()
    monkeypatch.setattr(hazard, "_fit_cumhaz", fit_panels_by_recursion)
    assert _bits(phi) == _bits(rb.uniform(0.0, 1.0))


def test_fit_refines_deep_with_one_flat_lam_call_per_pass():
    calls = []

    def cumhaz(x):  # uniform(0, 1)'s
        x = np.asarray(x, dtype=float)
        calls.append(x.shape)
        return -np.log(np.clip(1.0 - np.minimum(x, 1.0), 1e-300, 1.0))

    phi = rb.from_cumulative_hazard(cumhaz)
    widths = np.diff(phi.breaks)
    panel = phi.breaks[-1] / hazard._HAZARD_PANELS  # about, before the tail edge
    assert widths.min() <= panel / 2**5  # depth >= 5
    arrays = [shape for shape in calls if len(shape) and shape[0] > 1]
    assert all(len(shape) == 1 for shape in arrays)
    # two array calls per refinement level, where the recursion made two per panel
    assert len(arrays) <= 2 * (hazard._FIT_MAX_DEPTH + 1) and len(arrays) < phi.breaks.size / 2


def test_named_laws_are_compiled_once_and_read_only(fresh_laws, monkeypatch):
    compiles = []
    compile_ = hazard._compile
    monkeypatch.setattr(hazard, "_compile", lambda *a, **k: compiles.append(1) or compile_(*a, **k))
    u = rb.uniform(0.0, 1.0)
    assert rb.uniform(0, 1) is u and len(compiles) == 1
    assert rb.weibull(1.5) is rb.weibull(1.5) and len(compiles) == 2
    for arr in (u.breaks, u.coeffs, u.atom_locs, u.atom_weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1.0


def test_intensity_keeps_its_own_copy_of_the_arrays():
    breaks, coeffs = np.array([0.0, 1.0]), np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    phi = rb.GeneralizedIntensity(breaks, coeffs, np.empty(0), np.empty(0))
    breaks[1], coeffs[0, 0] = 5.0, 9.0  # the caller's arrays stay writeable
    assert phi.breaks.tolist() == [0.0, 1.0] and phi.coeffs[0, 0] == 1.0


def test_scenario_with_phi_as_q_builds_one_row_table(fresh_laws, monkeypatch):
    from renewal_bounds import scenario

    text = """\
[phi]
family = uniform
a = 0
b = 1

[Q]
family = uniform
a = 0.0
b = 1.0

[mu]
rule = constant-rate
rate = 0

[simulation]
t_queries = 5
reps = 10
seed = 1
"""
    built = []
    build = scenario.cdf_from_intensity
    monkeypatch.setattr(scenario, "cdf_from_intensity", lambda phi: built.append(phi) or build(phi))
    sc = _parse_scenario_text(text)
    assert sc.q is sc.phi and sc.zeta_cdf is sc.eta_cdf
    assert built == [sc.phi]


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


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_integer_gammainc_matches_mpmath(a):
    import mpmath

    from renewal_bounds.hazard import _gammainc_int

    xs = [0.0, *np.logspace(-300, 3, 607).tolist()]
    xs += [math.nextafter(a + 1.0, 0.0), a + 1.0, math.nextafter(a + 1.0, math.inf)]
    with mpmath.workdps(40):
        for x in xs:
            ref = mpmath.gammainc(a, 0, x, regularized=True)
            err = abs(mpmath.mpf(_gammainc_int(a, x)) - ref)
            # a few units of 2^-52 relative; a subnormal result to one ulp
            assert err <= 5 * 2.0**-52 * ref + math.ulp(0.0), (a, x)


def test_moment_with_constant_rows_matches_mpmath_quadrature():
    import mpmath

    F = rb.cdf_from_intensity(rb.from_segments([(0, [1]), (1, [2])], atoms=[(0.5, 0.3)]))
    with mpmath.workdps(40):
        def sf(x):
            if x < 0.5:
                return mpmath.exp(-x)
            if x < 1:
                return mpmath.exp(-x - 0.3)
            return mpmath.exp(-1.3 - 2 * (x - 1))

        for k in (1, 2):
            ref = mpmath.quad(lambda x: k * x ** (k - 1) * sf(x), [0, 0.5, 1, mpmath.inf])
            assert abs(rb.moment(F, k) - ref) <= 1e-14 * ref, k


@pytest.mark.parametrize("call", [lambda F: rb.moment(F, 1), lambda F: rb.sample(F, 0.5)],
                         ids=["moment", "sample"])
@pytest.mark.parametrize("make", [lambda: exp_cdf(2.0), lambda: uniform_cdf(0.0, 1.0)],
                         ids=["exp", "uniform"])
def test_moment_and_sample_take_an_intensity_cdf(call, make):
    # a CDF of another kind is refused by name, and the conversion the
    # message names makes it acceptable
    F = make()
    with pytest.raises(TypeError, match=r"IntensityCdf.*cdf_from_intensity\(intensity_from_cdf\(F\)\)"):
        call(F)
    assert math.isfinite(call(rb.cdf_from_intensity(rb.intensity_from_cdf(F))))


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


def test_moment_of_the_unit_exponential_is_k_factorial():
    F = rb.cdf_from_intensity(rb.exponential(1.0))
    # a constant-hazard row integrates in closed form (_poly_exp_int)
    for k in (1, 2, 3, 4):
        assert rb.moment(F, k) == pytest.approx(math.factorial(k), rel=1e-15)


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


# survival exp(-s^4) on one row of width 100: the quadrature halves it at
# least five times
_DEEP_ROW = rb.from_segments([(0, [0, 0, 0, 4.0]), (100, [4e6])])


def _fitted(F):
    return rb.cdf_from_intensity(rb.intensity_from_cdf(F))


def _oracle_laws():
    from test_cli import GENERALIZED, MINIMAL_IID

    laws = {
        "uniform": rb.cdf_from_intensity(rb.uniform(0.0, 1.0)),
        "weibull1.5": rb.cdf_from_intensity(rb.weibull(1.5)),
        "weibull2": rb.cdf_from_intensity(rb.weibull(2.0)),  # polynomial tail row
        # its row survivals by np.exp instead of math.exp move k = 2 and 3
        "weibull2.5x3": rb.cdf_from_intensity(rb.weibull(2.5, 3.0)),
        "atoms": rb.cdf_from_intensity(rb.from_segments(
            [(0, [1.0]), (1, [2.0, 0.5]), (2.5, [0.3, 0.1, 0.2])],
            atoms=[(0.5, 0.3), (1.7, 0.2)])),
        "cumhaz": rb.cdf_from_intensity(
            rb.from_cumulative_hazard(lambda x: np.asarray(x) ** 1.7 + 0.3 * np.asarray(x))),
        # one finite polynomial row, then a linear tail
        "one-interval": rb.cdf_from_intensity(rb.from_segments([(0, [0.0, 1.0]), (2, [2.0])])),
        "deep": rb.cdf_from_intensity(_DEEP_ROW),
        # closed forms fitted by intensity_from_cdf
        "exp-generic": _fitted(exp_cdf(1.5)),
        "uniform-generic": _fitted(uniform_cdf(1.0, 3.0)),
        "weibull-generic": _fitted(weibull_cdf(1.5, 2.0)),
        "atom-generic": _fitted(exp_with_atom_cdf()),
    }
    for name, text in (("generalized", GENERALIZED), ("minimal", MINIMAL_IID)):
        sc = _parse_scenario_text(text)
        laws[f"{name}.eta"] = sc.eta_cdf
        laws[f"{name}.zeta"] = sc.zeta_cdf
        for i, F in enumerate(sc.interval_cdfs):
            laws[f"{name}.interval{i}"] = F
    return laws


def _parse_scenario_text(text):
    import tempfile
    from pathlib import Path

    from renewal_bounds.cli import parse_scenario

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scenario.ini"
        path.write_text(text)
        return parse_scenario(path)


def _record_levels(monkeypatch):
    """Record ``(depth, intervals)`` of every ``_gl_adaptive`` call."""
    from renewal_bounds import hazard

    calls = []
    batched = hazard._gl_adaptive

    def spy(f, rows, a, b, tol=None, whole=None, depth=0):
        calls.append((depth, a.size))
        return batched(f, rows, a, b, tol, whole, depth)

    monkeypatch.setattr(hazard, "_gl_adaptive", spy)
    return calls


@pytest.mark.parametrize("name, F", list(_oracle_laws().items()))
def test_moment_is_bit_equal_to_the_recursive_quadrature(name, F):
    for k in (1, 2, 3, 4):
        got, expect = rb.moment(F, k), moment_by_recursion(F, k)
        assert type(got) is float and got == expect, (name, k, got, expect)


def test_moment_of_an_improper_law_diverges_like_the_oracle():
    F = rb.cdf_from_intensity(_GUARD_LAWS["improper"])
    for k in (1, 2):
        with pytest.raises(DivergentMomentError):
            moment_by_recursion(F, k)
        with pytest.raises(DivergentMomentError):
            rb.moment(F, k)


def test_moment_refines_deep_and_every_row_at_once(monkeypatch):
    calls = _record_levels(monkeypatch)
    rb.moment(rb.cdf_from_intensity(_DEEP_ROW), 2)
    assert max(depth for depth, _ in calls) >= 5
    calls.clear()
    F = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    rb.moment(F, 3)
    rows = np.count_nonzero((F._row_deg > 1) & np.isfinite(F._row_width))
    assert calls == [(0, rows)] and rows > 100  # every quartic row in one call


def test_quadrature_memory_is_bounded_and_bits_kept(monkeypatch):
    # a square wave with a jump in every panel never converges at tol = 0:
    # each interval is halved down to the depth cap, 2^8 leaves apiece, yet
    # no integrand call may see more than 2 * _GL_BATCH panels
    from renewal_bounds import hazard

    monkeypatch.setattr(hazard, "_GL_BATCH", 4)
    monkeypatch.setattr(hazard, "_GL_MAX_DEPTH", 8)
    wave = lambda x: np.where(np.sin(1000.0 * x) > 0.0, 1.0, -0.5)
    seen = []

    def f(rows, x):
        seen.append(x.shape[0])
        return wave(x) * (1.0 + rows[:, None])

    a, b = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 3.0])
    got = hazard._gl_adaptive(f, np.arange(3), a, b, tol=np.zeros(3))
    assert max(seen) <= 2 * 4 and sum(seen) > 3 * 2**9
    for i in range(3):
        expect = gl_recursive(lambda x: wave(x) * (1.0 + i), a[i], b[i], 0.0, max_depth=8)
        assert got[i] == expect


def test_quadrature_reaches_the_depth_cap_on_a_step(monkeypatch):
    # the panel holding the jump at 1/3 never converges: depth 30 is reached
    from renewal_bounds import hazard

    calls = _record_levels(monkeypatch)
    step = lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0)
    got = hazard._gl_adaptive(lambda _, x: step(x), np.zeros(1, dtype=int),
                              np.array([0.0]), np.array([1.0]))
    # both halves of the one unconverged interval go down a level together
    assert calls == [(0, 1)] + [(d, 2) for d in range(1, hazard._GL_MAX_DEPTH + 1)]
    assert got[0] == gl_recursive(step, 0.0, 1.0)


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


@pytest.mark.parametrize("u", [math.nan, np.array([0.2, math.nan, 0.7])], ids=["scalar", "array"])
@pytest.mark.parametrize("entry", ["ppf", "sample"])
def test_nan_u_is_rejected(entry, u):
    F = rb.cdf_from_intensity(rb.exponential(1.0))
    call = {"ppf": lambda: F.ppf(u), "sample": lambda: rb.sample(F, u)}[entry]
    with pytest.raises(ValueError):
        call()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0 - 1e-9), min_size=2, max_size=40))
def test_sample_monotone_in_u(us):
    phi = rb.from_segments(
        [(0.0, [0.5, 0.25]), (2.0, [1.0])], atoms=[(1.5, 0.4)]
    )
    F = rb.cdf_from_intensity(phi)
    xs = F.ppf(np.sort(np.asarray(us)))
    assert np.all(np.diff(xs) >= 0.0)


@pytest.mark.parametrize("rate", [0.25, 0.28, 1.0])
def test_ppf_above_the_total_mass_is_infinite(rate):
    # hazard `rate` on [0, 1), then none: F never exceeds its total mass, so
    # a larger u has no finite inverse, even where -log1p(-u) rounds into the
    # last finite row
    phi = rb.from_segments([(0.0, [rate]), (1.0, [0.0])], require_proper=False)
    F = rb.cdf_from_intensity(phi)
    total = F.total_mass()
    below, above = math.nextafter(total, 0.0), math.nextafter(total, 1.0)
    for u in (below, total, above, math.nextafter(above, 1.0)):
        x = float(F.ppf(u))
        if u > total:
            assert x == math.inf
        else:
            assert float(F.cdf(x)) >= u


@pytest.mark.parametrize("cut", [0.3, 1.0, 2.5])
def test_ppf_at_the_total_mass_is_finite(cut):
    # hazard c on [0, cut), then none: F(cut) is the total mass, so u equal
    # to it has an inverse at most cut, while -log1p(-u) may round above the
    # total hazard; the next double above the total has none
    for k in range(1, 200):
        phi = rb.from_segments([(0.0, [k / 50]), (cut, [0.0])], require_proper=False)
        F = rb.cdf_from_intensity(phi)
        total = F.total_mass()
        x = float(F.ppf(total))
        assert math.isfinite(x) and x <= math.nextafter(cut, math.inf), k
        assert float(F.cdf(x)) >= total, k
        assert float(F.ppf(math.nextafter(total, 1.0))) == math.inf, k


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
def test_quartic_rows_give_a_double_whose_predecessor_fails(phi):
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

    with hazard._SCRATCH as take:
        out = F._solve_rows(F._operands(rows, rows.size, take), tp, np.empty(rows.size))
    assert np.all((out > 0.0) & (out <= width))
    assert np.all(_row_increment(F, rows, out) >= tp)
    below = np.nextafter(out, -math.inf)
    assert np.all(_row_increment(F, rows, below) < tp)


def _kernel_draws(F):
    """The quartic kernel's targets on F's quartic rows, as ``(rows, tp)``
    per set: 10^6 bulk draws, 10^4 each with u near 0 and near 1, and the
    row ends with their neighbours."""
    rng = np.random.default_rng(23)
    ends = -np.expm1(-F._row_lam_hi[np.isfinite(F._row_lam_hi)])
    sets = {"bulk": rng.random(10**6), "near0": 1e-9 * rng.random(10**4),
            "near1": 1.0 - 1e-9 * rng.random(10**4),
            "ends": np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])}
    draws = {}
    for name, u in sets.items():
        u = u[u < 1.0]
        T = -np.log1p(-u)
        rows = np.searchsorted(F._row_lam_hi, T, side="left")
        keep = (F._row_deg[rows] > 2) & (T > F._row_lam_lo[rows])
        draws[name] = rows[keep], (T - F._row_lam_lo[rows])[keep]
    return draws


def _kernel_args(F, rows, tp, n=1 << 16):
    """The kernel's arguments but ``out``, for draws ``rows``, ``tp``, ``n``
    at a time: the solve is elementwise, and slices bound the memory."""
    for s in range(0, tp.size, n):
        r = rows[s : s + n]
        coeffs = [F._row_RT[k][r] for k in (1, 2, 3, 4)]
        yield coeffs + [F._row_q[r], F._row_width[r], tp[s : s + n]]


@pytest.mark.parametrize("phi", list(KERNEL_LAWS.values()), ids=list(KERNEL_LAWS))
def test_quartic_kernel_is_bit_equal_to_the_masked_kernel(phi):
    F = rb.cdf_from_intensity(phi)
    rows, tp = (np.concatenate(v) for v in zip(*_kernel_draws(F).values()))
    quartic = np.flatnonzero(F._row_deg > 2)
    assert quartic.size > 10 and np.array_equal(np.unique(rows), quartic)
    assert np.all(np.isfinite(F._row_width[quartic]))
    differ = 0
    for args in _kernel_args(F, rows, tp):
        got = hazard._newton_quartic(*args, np.empty(args[-1].size))
        want = newton_quartic_by_masks(*args)
        differ += np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ == 0, f"{differ} of {tp.size} solves differ"


@pytest.mark.parametrize("phi", list(KERNEL_LAWS.values()), ids=list(KERNEL_LAWS))
def test_short_step_stop_moves_only_edge_draws_by_a_few_ulps(phi):
    # the masked kernel at the stop on an ulp step, the rule before the stop
    # on a Newton step of 2^-26 tau: no bulk draw moves, an edge draw moves
    # by at most 8 ulps, and no walk up reaches its cap.  A walk down may,
    # where it does at the ulp rule too: the row ends of uniform(2, 5)
    # include tp = 5e-324 on a row with c1 = 0, where R stays at or above tp
    # for far more than _FINISH_STEPS ulps below the root
    F = rb.cdf_from_intensity(phi)
    for name, (rows, tp) in _kernel_draws(F).items():
        moved = 0
        for args in _kernel_args(F, rows, tp):
            walks, ulp_walks = [], []
            short = newton_quartic_by_masks(*args, walks=walks)
            ulp = newton_quartic_by_masks(*args, stop=hazard._ULP, walks=ulp_walks)
            gap = np.abs(short.view(np.int64) - ulp.view(np.int64))
            moved += np.count_nonzero(gap)
            assert gap.max(initial=0) <= 8, name
            (_, up, _, down), (_, _, _, ulp_down) = walks[0], ulp_walks[0]
            assert up < hazard._FINISH_STEPS, name
            assert down < hazard._FINISH_STEPS or ulp_down == hazard._FINISH_STEPS, name
        if name == "bulk":
            assert moved == 0


def test_quartic_kernel_result_is_not_the_smallest_qualifying_double():
    # the Horner increment is not monotone at the ulp scale: here the result
    # qualifies and its predecessor does not, but the double two ulps lower
    # qualifies again; the walk from Newton's end point stops at the first
    F = rb.cdf_from_intensity(rb.weibull(1.5))
    row = np.array([84])
    tp = np.array([2.92119253236924])
    tau = hazard._newton_quartic(*(F._row_RT[k][row] for k in (1, 2, 3, 4)), F._row_q[row],
                                 F._row_width[row], tp, np.empty(1))
    assert tau[0] == 0.724984149771789
    one_down = np.nextafter(tau, 0.0)
    two_down = np.nextafter(one_down, 0.0)
    assert _row_increment(F, row, tau)[0] - tp[0] == 8.881784197001252e-16
    assert _row_increment(F, row, one_down)[0] - tp[0] == -4.440892098500626e-16
    assert _row_increment(F, row, two_down)[0] - tp[0] == 0.0


_cubic = st.tuples(
    st.floats(0.05, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5)
)


@settings(max_examples=40, deadline=None)
@example(coeffs=[(1.5, 0.0, 0.0, 0.0), (0.25, 0.0, 0.0, 0.0)], widths=[0.375, 1.0, 1.0],
         atoms=[], tail=1.0, us=[0.4375])  # F is flat over more than four ulps of x
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


_GUARD_LAWS = {
    "uniform": rb.uniform(0.0, 1.0),
    "weibull1.5": rb.weibull(1.5),
    "atoms": rb.from_segments(
        [(0, [0.2, 0.3]), (1, [0.5, 0.1, 0.05]), (1.8, [0.4, 0.0, 0.2, 0.1])],
        atoms=[(0.7, 0.4), (1.8, 0.3), (2.2, math.inf)]),
    "improper": rb.from_segments([(0, [0.5, 0.2]), (1.3, [0.0])], atoms=[(0.4, 0.25)],
                                 require_proper=False),
}


@pytest.mark.parametrize("phi", list(_GUARD_LAWS.values()), ids=list(_GUARD_LAWS))
def test_guard_cdf_on_the_solved_row_is_cdf(phi):
    F = rb.cdf_from_intensity(phi)
    lo, hi, width = F._row_lo, F._row_hi, F._row_width
    rows, xs = [], []
    for r in range(lo.size):
        end = lo[r] + width[r]
        points = [lo[r], end, np.nextafter(lo[r], math.inf)]
        if math.isfinite(hi[r]):  # the next row's start, or the full atom
            points += [hi[r], np.nextafter(hi[r], 0.0), np.nextafter(hi[r], math.inf)]
        # the constant tail of a compiled law can be huge: stay short of overflow
        span = width[r] if math.isfinite(width[r]) else 10.0 / max(1.0, F._row_R[r, 1])
        points += list(lo[r] + span * np.array([1e-9, 0.1, 0.37, 0.5, 0.9, 1 - 1e-12]))
        for x in points:
            if math.isfinite(x) and x >= lo[r]:
                rows.append(r)
                xs.append(x)
    rows, xs = np.array(rows), np.array(xs)
    if F._full_loc is not None:
        assert np.any(xs == F._full_loc)
    with hazard._SCRATCH as take:
        got = F._cdf_on_rows(xs, F._operands(rows, rows.size, take), np.empty(xs.size))
    assert got.tobytes() == F.cdf(xs).tobytes()


@pytest.mark.parametrize("phi", list(_GUARD_LAWS.values()), ids=list(_GUARD_LAWS))
def test_ppf_reaches_u_at_every_row_end(phi):
    F = rb.cdf_from_intensity(phi)
    ends = -np.expm1(-F._row_lam_hi[np.isfinite(F._row_lam_hi)])
    u = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])
    u = u[(u > 0.0) & (u < 1.0)]
    assert u.size >= 3
    x = F.ppf(u)
    total = F.total_mass()
    assert np.all(np.isfinite(x[u <= total])) and np.all(np.isinf(x[u > total]))
    assert np.all(F.cdf(x[u <= total]) >= u[u <= total])


_SEARCH_LAWS = {
    **_GUARD_LAWS,  # uniform's 170 rows; Weibull(1.5): 16 rows end in bucket 0
    "deterministic2": rb.deterministic(2.0),
    "deterministic0": rb.deterministic(0.0),  # a full atom and no row
    "exp+atom1.5": rb.from_segments([(0.0, [1.0])], atoms=[(1.5, 0.5)]),
}


@pytest.mark.parametrize("phi", list(_SEARCH_LAWS.values()), ids=list(_SEARCH_LAWS))
def test_guide_search_equals_searchsorted(phi):
    F = rb.cdf_from_intensity(phi)
    lam_hi = F._row_lam_hi
    # T at every row end and its ulp neighbours, 0 and the total hazard,
    # each with its own u (T capped as ppf caps it)
    T = np.concatenate([lam_hi, np.nextafter(lam_hi, -math.inf),
                        np.nextafter(lam_hi, math.inf), [0.0, F._total_lam]])
    T = np.minimum(np.maximum(T, 0.0), F._total_lam)
    u_of_T = np.minimum(-np.expm1(-T), np.nextafter(1.0, 0.0))
    # u at every bucket edge and its ulp neighbours, random u in the first
    # bucket and over [0, 1), each with the T ppf gives it
    edges = np.arange(hazard._GUIDE_BUCKETS + 1) / hazard._GUIDE_BUCKETS
    rng = np.random.default_rng(29)
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                        rng.random(10**4) / hazard._GUIDE_BUCKETS, rng.random(10**5)])
    u = u[(u >= 0.0) & (u < 1.0)]
    u_all = np.concatenate([u_of_T, u])
    T_all = np.concatenate([T, np.minimum(-np.log1p(-u), F._total_lam)])
    got = F._search(u_all, T_all, np.empty(u_all.size, dtype=np.intp))
    want = np.searchsorted(lam_hi, T_all, side="left")
    assert np.array_equal(got, want)


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


_ORACLE_LAWS = {
    "exp0.7": rb.exponential(0.7),
    "exp1": rb.exponential(1.0),
    "exp2": rb.exponential(2.0),
    "exp3": rb.exponential(3.0),
    "exp+atom0": rb.from_segments([(0.0, [1.0])], atoms=[(0.0, 0.5)]),
    "exp+atom1.5": rb.from_segments([(0.0, [1.0])], atoms=[(1.5, 0.5)]),
    "deterministic2": rb.deterministic(2.0),
    "zero": rb.zero(),
    "improper": rb.from_segments([(0, [0.25]), (1, [0])], require_proper=False),
    "uniform": rb.uniform(0.0, 1.0),
    "weibull1.5": rb.weibull(1.5),
    # one row of degree 2, and one of degree 3 (the quartic solver)
    "linear-hazard": rb.from_segments([(0.0, [0.5, 1.0])]),
    "quadratic-hazard": rb.from_segments([(0.0, [0.5, 0.0, 1.0])]),
    # quartic rows, an interior atom and a full atom: one chunk mixes draws
    # placed at the full atom (8.8 %), draws in the atom's jump (19.6 %) and
    # Newton solves
    "quartic+atoms": rb.from_segments([(0.0, [0.5, 0.2, 0.1]), (1.0, [1.0])],
                                      atoms=[(0.5, 0.3), (2.5, rb.ATOM_INF)]),
}


@pytest.mark.parametrize("phi", list(_ORACLE_LAWS.values()), ids=list(_ORACLE_LAWS))
def test_ppf_is_bit_equal_to_the_masked_inversion(phi, monkeypatch):
    # the whole-array shortcuts (every draw inside a row, one-row laws,
    # degree <= 1 rows) must give the masked inversion's bits
    F = rb.cdf_from_intensity(phi)
    total = F.total_mass()
    edges = [0.0, 5e-324, 1.0 - 2.0**-53,
             math.nextafter(total, 0.0), total, math.nextafter(total, 1.0)]
    edges = np.array([e for e in edges if e < 1.0])
    u = np.concatenate([edges, np.random.default_rng(17).random(10**6)])
    got = F.ppf(u)
    _assert_like_the_masked_inversion(F, u, got)
    # monotone in u, the draws that the guard moved far included
    by_u = got[np.argsort(u)]
    assert np.all(by_u[1:] >= by_u[:-1])
    for e in edges:
        _assert_like_the_masked_inversion(F, np.array([e]), np.array([F.ppf(e)]))

    monkeypatch.setattr(hazard, "_PPF_CHUNK", 7)
    few = u[:3000]
    _assert_like_the_masked_inversion(F, few, F.ppf(few))


def _assert_like_the_masked_inversion(F, u, got):
    # bit for bit wherever the masked inversion meets F(x) >= u; where its
    # four-ulp guard stopped short, ppf steps on to the first larger x that does
    want = ppf_by_masks(F, u)
    short = np.zeros(u.size, dtype=bool)
    finite = np.isfinite(want)
    short[finite] = F.cdf(want[finite]) < u[finite]
    # a count, not pytest's diff of two long byte strings
    differ = np.count_nonzero((got.view(np.uint64) != want.view(np.uint64)) & ~short)
    assert differ == 0, f"{differ} of {got.size} draws differ"
    assert np.all(got[short] > want[short])
    assert np.all(F.cdf(np.nextafter(got[short], 0.0)) < u[short])
    finite = np.isfinite(got)
    assert np.all(F.cdf(got[finite]) >= u[finite])


# ---------------------------------------------------------------------------
# ppf's workspace and the guard's operands
# ---------------------------------------------------------------------------


def test_ppf_workspace_is_shared_without_cross_talk(monkeypatch):
    # every law and every call takes its scratch from one workspace; results
    # interleaved across laws, shapes and the placed-draw path (an atom at 0,
    # an improper law, a full atom) are those of a fresh law in a fresh
    # workspace
    laws = {
        **KERNEL_LAWS,
        "exp1-atom0": rb.from_segments([(0.0, [1.0])], atoms=[(0.0, 0.5)]),
        "improper": rb.from_segments([(0, [0.25]), (1, [0])], require_proper=False),
        "quartic+atoms": rb.from_segments([(0.0, [0.5, 0.2, 0.1]), (1.0, [1.0])],
                                          atoms=[(0.5, 0.3), (2.5, rb.ATOM_INF)]),
    }
    rng = np.random.default_rng(31)
    inputs = {
        "scalar": 0.37,
        "13x29": rng.random((13, 29)),
        "chunk+3": rng.random((1 << 15) + 3),
        "strided": rng.random((3, 6001))[:, ::2],
    }
    want = {}
    for name, phi in laws.items():
        for key, u in inputs.items():
            with monkeypatch.context() as m:
                m.setattr(hazard, "_SCRATCH", hazard._Scratch())
                want[name, key] = np.asarray(rb.cdf_from_intensity(phi).ppf(u)).tobytes()
    shared = {name: rb.cdf_from_intensity(phi) for name, phi in laws.items()}
    for _ in range(2):
        for key, u in inputs.items():
            for name, F in shared.items():
                got = F.ppf(u)
                assert np.shape(got) == np.shape(u)
                assert np.asarray(got).tobytes() == want[name, key], (name, key)


def test_warm_ppf_allocates_little_more_than_its_output():
    # once the workspace has grown to a chunk, a call's temporaries come from
    # it: 28.8 doubles per draw were allocated per chunk before it existed
    import tracemalloc

    F = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    u = np.random.default_rng(37).random(1 << 15)
    first = F.ppf(u)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        second = F.ppf(u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert second.tobytes() == first.tobytes()
    assert peak <= 4 * 8 * u.size, f"{peak / 8 / u.size:.2f} doubles per draw"


def test_workspace_release_waits_for_the_outermost_frame():
    # arrays taken in an open frame are views of the buffer, so release
    # there keeps it; outside every frame it frees the buffer, and the next
    # frame grows it from nothing
    scratch = hazard._Scratch()
    with scratch as take:
        take(1000)
    buf = scratch._buf
    assert buf.size >= 8000
    with scratch as take:
        x = take(1000)
        x[:] = 1.0
        scratch.release()
        assert scratch._buf is buf and np.shares_memory(x, buf)
    scratch.release()
    assert scratch._buf.size == 0
    with scratch as take:
        take(10)
    assert 0 < scratch._buf.size < 1000


def test_gl_rule_is_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = hazard._gl_rule()
    want_nodes, want_weights = leggauss(32)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert not (nodes.flags.writeable or weights.flags.writeable)


def test_guard_on_rows_of_degree_at_most_one_is_cdf():
    # a piecewise-constant hazard of four rows with an interior atom: a
    # chunk's operands carry c1 only, and the guard's lam_lo + c1 tau is
    # cdf's Horner value bit for bit
    phi = rb.from_segments([(0.0, [0.5]), (0.7, [2.0]), (1.5, [0.3])], atoms=[(1.0, 0.4)])
    F = rb.cdf_from_intensity(phi)
    assert F._row_lo.size == 4 and np.all(F._row_deg <= 1)
    rng = np.random.default_rng(41)
    rows = np.repeat(np.arange(4), 200)
    span = np.where(np.isfinite(F._row_width), F._row_width, 5.0)[rows]
    xs = F._row_lo[rows] + span * rng.random(rows.size)
    xs[::200] = F._row_lo[::1]  # each row's start
    with hazard._SCRATCH as take:
        ops = F._operands(rows, rows.size, take)
        assert ops.c2 is None and ops.cls == 0
        got = F._cdf_on_rows(xs, ops, np.empty(xs.size))
    assert got.tobytes() == F.cdf(xs).tobytes()
    total = F.total_mass()
    edges = np.array([0.0, 1.0 - 2.0**-53, math.nextafter(total, 0.0)])
    u = np.concatenate([edges, -np.expm1(-F._row_lam_hi[:-1]), rng.random(10**5)])
    _assert_like_the_masked_inversion(F, u, F.ppf(u))


def test_ppf_in_threads_keeps_its_bits():
    # each thread takes its scratch from a workspace of its own; a short
    # switch interval interleaves the threads between numpy calls
    import sys
    from concurrent.futures import ThreadPoolExecutor

    laws = [rb.cdf_from_intensity(phi) for phi in KERNEL_LAWS.values()]
    u = np.random.default_rng(43).random(3 * (1 << 15) + 5)
    want = [F.ppf(u).tobytes() for F in laws]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda F: F.ppf(u).tobytes(), laws * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3
