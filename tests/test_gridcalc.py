"""Grid arithmetic: discretization, convolution, renewal function, bounds."""

import math

import numpy as np
import pytest

import renewal_bounds as rb
from renewal_bounds import DistributionError, GridError

from helpers import erlang_cdf, ordering_check, renewal_by_powers


@pytest.fixture(scope="module")
def exp1():
    return rb.cdf_from_intensity(rb.exponential(1.0))


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------


def test_discretize_exponential_values(exp1):
    g = rb.discretize(exp1, 0.01, 20.0)
    k = np.arange(g.atoms.size)
    assert np.allclose(g.values, 1.0 - np.exp(-k * 0.01), atol=1e-14)


def test_discretize_deterministic_step():
    F = rb.cdf_from_intensity(rb.deterministic(2.0))
    g = rb.discretize(F, 0.01, 5.0)
    assert g.values[199] == 0.0
    assert g.values[200] == 1.0
    assert np.flatnonzero(g.atoms).tolist() == [200]
    assert g.snap_error == 0.0


def test_discretize_matches_eval_at_nodes():
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(1.0, math.log(2.0))])
    F = rb.cdf_from_intensity(phi)
    g = rb.discretize(F, 0.01, 25.0)
    assert np.max(np.abs(g.values - np.asarray(F.cdf(g.grid())))) <= 1e-12


def test_discretize_truncation_guard(exp1):
    with pytest.raises(GridError):
        rb.discretize(exp1, 0.01, 5.0)  # sf(5) ~ 6.7e-3 > 1e-6
    g = rb.discretize(exp1, 0.01, 5.0, allow_truncation=True)
    assert g.values[-1] < 1.0


def test_discretize_snaps_off_grid_atom():
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(1.0037, 0.7)])
    F = rb.cdf_from_intensity(phi)
    g = rb.discretize(F, 0.01, 25.0)
    assert np.flatnonzero(g.atoms).tolist() == [100]
    assert g.snap_error == pytest.approx(0.0037, abs=1e-12)
    assert np.all(np.diff(g.values) >= 0.0)


def test_discretize_keeps_an_atom_snapped_onto_the_last_node():
    # an atom in (N h, N h + h/2] moves onto node N and stays on the
    # lattice, so it is not part of the truncated mass
    g = rb.discretize(rb.cdf_from_intensity(rb.deterministic(10.002)), 0.005, 10.0)
    assert g.values[-1] == 1.0 and g.truncation_residual == 0.0
    phi = rb.from_segments([(0.0, [1.0])], atoms=[(10.001, 0.5)])
    g = rb.discretize(rb.cdf_from_intensity(phi), 0.005, 10.0, allow_truncation=True)
    left_out = math.exp(-10.0) - math.exp(-10.001) * -math.expm1(-0.5)
    assert g.truncation_residual == pytest.approx(left_out, rel=1e-9)
    assert g.truncation_residual == pytest.approx(1.0 - g.values[-1], abs=1e-15)


@pytest.mark.parametrize(
    "make",
    [
        lambda F: rb.discretize(F, 0.0, 5.0),
        lambda F: rb.discretize(F, math.nan, 5.0),
        lambda F: rb.discretize(F, 0.01, math.inf),
        lambda F: rb.convolve(rb.discretize(F, 0.01, 25.0), rb.discretize(F, 0.01, 30.0)),
        lambda F: rb.convolution_power(rb.discretize(F, 0.01, 25.0), 0),
        lambda F: rb.backward_tail_bound(
            F, rb.renewal_function(rb.discretize(F, 0.01, 10.0, allow_truncation=True)), 5.0, -0.1
        ),
        lambda F: rb.GridDistribution(0.01, [1.0, math.nan], [0.0, 0.0]),
        lambda F: rb.GridDistribution(0.01, [1.0, 0.0], [0.0, -1e-300]),
        lambda F: rb.GridDistribution(0.01, [1.0, 0.0], [0.0, math.inf]),
        lambda F: rb.GridDistribution(0.01, [1.0, 0.0, 0.0], [0.0, 0.0]),
        lambda F: rb.GridDistribution(0.01, [[1.0, 0.0]], [[0.0, 0.0]]),
        lambda F: rb.GridDistribution(0.01, [1.0], [0.0]),
        lambda F: rb.GridDistribution(0.0, [1.0, 0.0], [0.0, 0.0]),
        lambda F: rb.GridDistribution(math.nan, [1.0, 0.0], [0.0, 0.0]),
    ],
    ids=["discretize-h-0", "discretize-h-nan", "discretize-s-max-inf", "convolve-lengths",
         "power-0", "tail-x-negative", "nan-atom", "negative-cell", "inf-cell",
         "unequal-masses", "2-d-masses", "one-node", "step-0", "step-nan"],
)
def test_lattice_rejects_malformed_input(exp1, make):
    with pytest.raises(GridError):
        make(exp1)


# ---------------------------------------------------------------------------
# convolve / convolution_power
# ---------------------------------------------------------------------------


def test_convolve_deterministic_exact():
    F1 = rb.cdf_from_intensity(rb.deterministic(1.0))
    F2 = rb.cdf_from_intensity(rb.deterministic(2.0))
    A = rb.discretize(F1, 0.01, 5.0)
    C = rb.convolve(A, A)
    expected = rb.discretize(F2, 0.01, 5.0)
    assert np.array_equal(C.values, expected.values)
    assert np.flatnonzero(C.atoms).tolist() == [200]


def test_convolve_exponentials_erlang2(exp1):
    A = rb.discretize(exp1, 0.005, 30.0)
    C = rb.convolve(A, A)
    assert np.max(np.abs(C.values - erlang_cdf(2)(C.grid()))) <= 1e-4


def test_convolve_commutative(exp1):
    A = rb.discretize(exp1, 0.005, 30.0)
    B = rb.discretize(rb.cdf_from_intensity(rb.exponential(2.0)), 0.005, 30.0)
    AB = rb.convolve(A, B)
    BA = rb.convolve(B, A)
    assert np.max(np.abs(AB.values - BA.values)) <= 1e-12


def test_convolve_step_mismatch(exp1):
    A = rb.discretize(exp1, 0.005, 30.0)
    B = rb.discretize(exp1, 0.01, 30.0)
    with pytest.raises(GridError):
        rb.convolve(A, B)


def test_convolve_atom_at_zero_is_identity(exp1):
    A = rb.discretize(exp1, 0.01, 25.0)
    delta0 = rb.discretize(rb.cdf_from_intensity(rb.deterministic(0.0)), 0.01, 25.0)
    C = rb.convolve(A, delta0)
    assert np.max(np.abs(C.values - A.values)) <= 1e-15


def test_power_deterministic():
    A = rb.discretize(rb.cdf_from_intensity(rb.deterministic(1.0)), 0.01, 6.0)
    P = rb.convolution_power(A, 5)
    expected = rb.discretize(rb.cdf_from_intensity(rb.deterministic(5.0)), 0.01, 6.0)
    assert np.array_equal(P.values, expected.values)


def test_power_erlang3(exp1):
    A = rb.discretize(exp1, 0.005, 30.0)
    P = rb.convolution_power(A, 3)
    assert np.max(np.abs(P.values - erlang_cdf(3)(P.grid()))) <= 1e-4


def test_power_one_is_identity(exp1):
    A = rb.discretize(exp1, 0.01, 25.0)
    P = rb.convolution_power(A, 1)
    assert np.array_equal(P.values, A.values)


# ---------------------------------------------------------------------------
# renewal_function
# ---------------------------------------------------------------------------


def test_renewal_exponential_is_linear(exp1):
    G = rb.discretize(exp1, 0.005, 10.0, allow_truncation=True)
    H = rb.renewal_function(G)
    assert np.max(np.abs(H.values - H.grid())) <= 1e-3
    assert H.equation_residual <= 1e-10


def test_renewal_deterministic_is_floor():
    G = rb.discretize(rb.cdf_from_intensity(rb.deterministic(1.0)), 0.005, 10.0)
    H = rb.renewal_function(G)
    s = H.grid()
    off = np.abs(s - np.round(s)) > 1e-9
    assert np.array_equal(H.values[off], np.floor(s[off]))


RENEWAL_LAWS = {
    "exp1": rb.exponential(1.0),
    "weibull2": rb.weibull(2.0),
    "uniform01": rb.uniform(0.0, 1.0),
    "exp1-atom-0.5": rb.from_segments([(0.0, [1.0])], atoms=[(0.5, math.log(2.0))]),
    "atom-0.3-at-0-exp2": rb.from_segments([(0.0, [2.0])], atoms=[(0.0, -math.log(0.7))]),
    "deterministic1": rb.deterministic(1.0),
}


@pytest.mark.parametrize("law", list(RENEWAL_LAWS))
def test_renewal_solve_matches_power_sum(law):
    G = rb.discretize(rb.cdf_from_intensity(RENEWAL_LAWS[law]), 0.01, 10.0, allow_truncation=True)
    H = rb.renewal_function(G)
    assert np.max(np.abs(H.values - renewal_by_powers(G, 1e-14))) <= 1e-10
    assert H.equation_residual <= 1e-10


def _conv_masses_in_full(aA, cA, aB, cB, n):
    # gridcalc._conv_masses with every np.convolve formed, zero operands too
    atoms = np.convolve(aA, aB)[: n + 1]
    cells = np.convolve(aA, cB)[: n + 1] + np.convolve(aB, cA)[: n + 1]
    cc = np.concatenate((np.convolve(cA, cB), [0.0]))
    cells[1:] += 0.5 * (cc[1 : n + 1] + cc[2 : n + 2])
    return atoms, cells


@pytest.mark.parametrize("law", list(RENEWAL_LAWS))
def test_conv_masses_skips_zero_operands_bit_for_bit(monkeypatch, law):
    # the renewal residual check's operands (H's masses and G's), G with
    # itself, and G against a negated copy: with or without atoms and cells,
    # a convolution with an all-zero operand is formed nowhere and changes
    # no bit
    from renewal_bounds import gridcalc

    G = rb.discretize(rb.cdf_from_intensity(RENEWAL_LAWS[law]), 0.01, 10.0, allow_truncation=True)
    H = rb.renewal_function(G)
    aG, cG = G.atoms, G.cells
    n = aG.size - 1
    convolve = np.convolve
    for ops in [(H.atoms, H.cells, aG, cG), (aG, cG, aG, cG), (aG, cG, -aG, -cG)]:
        formed = []
        monkeypatch.setattr(np, "convolve", lambda x, y: formed.append(1) or convolve(x, y))
        got = gridcalc._conv_masses(*ops, n)
        monkeypatch.undo()
        want = _conv_masses_in_full(*ops, n)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        aA, cA, aB, cB = (bool(x.any()) for x in ops)
        assert len(formed) == (aA and aB) + (aA and cB) + (aB and cA) + (cA and cB)


def test_renewal_monotone_and_zero_at_origin(exp1):
    G = rb.discretize(exp1, 0.01, 10.0, allow_truncation=True)
    H = rb.renewal_function(G)
    assert H.values[0] == 0.0
    assert np.all(np.diff(H.values) >= -1e-15)


def test_renewal_rejects_unit_mass_at_zero():
    G = rb.discretize(rb.cdf_from_intensity(rb.deterministic(0.0)), 0.01, 5.0)
    with pytest.raises(GridError):
        rb.renewal_function(G)


# ---------------------------------------------------------------------------
# ordering_check
# ---------------------------------------------------------------------------


def _grids(rates, h=0.01, s_max=25.0):
    return [
        rb.discretize(rb.cdf_from_intensity(rb.exponential(r)), h, s_max, allow_truncation=True)
        for r in rates
    ]


def test_ordering_exponential_rates():
    G, F, Phi = _grids([3.0, 2.0, 1.0])
    result = ordering_check(G, F, Phi)
    assert result.passed
    assert result.max_violation <= 1e-9


def test_ordering_reflexive():
    (F,) = _grids([1.0])
    result = ordering_check(F, F, F)
    assert result.passed
    assert result.max_violation == 0.0


def test_ordering_swapped_fails():
    G, F, Phi = _grids([3.0, 2.0, 1.0])
    result = ordering_check(Phi, F, G)
    assert not result.passed
    # at x = 1 the gap is e^{-1} - e^{-2}; the max over the grid is at ln 2
    assert result.max_violation >= math.exp(-1) - math.exp(-2)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_classical_bound_values(exp1):
    assert rb.lorden_classical_bound(exp1) == pytest.approx(2.0, rel=1e-12)
    Fu = rb.cdf_from_intensity(rb.uniform(0.0, 1.0))
    assert rb.lorden_classical_bound(Fu) == pytest.approx(2.0 / 3.0, rel=1e-8)
    Fd = rb.cdf_from_intensity(rb.deterministic(3.5))
    assert rb.lorden_classical_bound(Fd) == pytest.approx(3.5, rel=1e-12)


def test_generalized_bound_values(exp1):
    z2 = rb.cdf_from_intensity(rb.exponential(2.0))
    z3 = rb.cdf_from_intensity(rb.exponential(3.0))
    assert rb.generalized_bound(exp1, z2) == pytest.approx(3.0, rel=1e-12)
    assert rb.generalized_bound(exp1, z3) == pytest.approx(4.0, rel=1e-12)


def test_bounds_need_a_positive_mean():
    zero = rb.cdf_from_intensity(rb.deterministic(0.0))
    with pytest.raises(DistributionError, match="positive mean"):
        rb.lorden_classical_bound(zero)
    with pytest.raises(DistributionError, match="E zeta > 0"):
        rb.generalized_bound(zero, zero)


def test_generalized_bound_iid_boundary(exp1):
    # Phi = G degrades to E xi + E xi^2 / (2 E xi) and, for the exponential,
    # coincides with the classical bound exactly
    gen = rb.generalized_bound(exp1, exp1)
    assert abs(gen - rb.lorden_classical_bound(exp1)) <= 1e-10


# ---------------------------------------------------------------------------
# backward_tail_bound
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exp_renewal(exp1):
    G = rb.discretize(exp1, 0.005, 20.0, allow_truncation=True)
    return rb.renewal_function(G)


def test_tail_bound_empty_integral(exp1, exp_renewal):
    t = 5.0
    assert rb.backward_tail_bound(exp1, exp_renewal, t, t) == pytest.approx(
        float(exp1.sf(t)), abs=1e-9
    )


def test_tail_bound_dominates_exponential_law(exp1, exp_renewal):
    # true law: P(B_t > x) = e^{-x} for x < t; the bound is tight here
    t = 8.0
    xs = np.linspace(0.0, t, 81)
    ub = rb.backward_tail_bound(exp1, exp_renewal, t, xs)
    assert np.all(ub >= np.exp(-xs) - 1e-9)


def test_tail_bound_monotone_in_x(exp1, exp_renewal):
    xs = np.linspace(0.0, 6.0, 121)
    ub = rb.backward_tail_bound(exp1, exp_renewal, 6.0, xs)
    assert np.all(np.diff(ub) <= 1e-12)


def test_tail_bound_zero_beyond_t(exp1, exp_renewal):
    assert rb.backward_tail_bound(exp1, exp_renewal, 3.0, 3.5) == 0.0


def test_tail_bound_horizon_guard(exp1, exp_renewal):
    with pytest.raises(GridError):
        rb.backward_tail_bound(exp1, exp_renewal, 50.0, 1.0)


# ---------------------------------------------------------------------------
# Lemma-2 style ordering for grid powers (module invariant, fast variant)
# ---------------------------------------------------------------------------


def test_power_ordering_under_envelopes():
    phi = rb.exponential(1.0)
    q = rb.exponential(3.0)
    gPhi = rb.discretize(rb.cdf_from_intensity(phi), 0.01, 30.0)
    gG = rb.discretize(rb.cdf_from_intensity(q), 0.01, 30.0)
    for n in (1, 3, 5):
        upper = rb.convolution_power(gG, n)
        lower = rb.convolution_power(gPhi, n)
        assert np.all(upper.values - lower.values >= -1e-12)
