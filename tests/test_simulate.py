"""Simulator: interval law, path geometry, estimator determinism, bounds."""

import math
from pathlib import Path

import numpy as np
import pytest

import renewal_bounds as rb
from renewal_bounds import AssumptionFailure

from helpers import KERNEL_LAWS, ks_distance


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
    mu = rb.MuRule((rb.weibull(2.0, 2.0),))
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


@pytest.mark.parametrize(
    "mu",
    [
        rb.zero(),
        rb.from_segments([(0.0, [1.0]), (1.0, [0.0])], require_proper=False),
        rb.from_segments([(0.0, [0.25]), (1.0, [0.0])], require_proper=False),
        rb.exponential(2.0),
    ],
    ids=["zero", "partial", "partial0.25", "exp2"],
)
def test_batch_theta_matches_scalar_at_the_mass_edges(mu):
    # generate_interval's theta is mu_cdf.ppf(u); the batch must agree at
    # u = 0 and on both sides of the total mass
    from renewal_bounds.simulate import _theta_in_place

    sc = rb.ScenarioConfig(
        phi=rb.exponential(1.0), q=rb.exponential(4.0),
        mu_rule=rb.MuRule((mu,)), t_queries=(1.0,), reps=1, seed=1,
    )
    cdf = sc.mu_cdfs[0]
    total = cdf.total_mass()
    us = [u for u in (0.0, total, math.nextafter(total, 1.0), math.nextafter(1.0, 0.0)) if u < 1.0]
    batch = _theta_in_place(sc, np.array(us)[:, None], 1)[:, 0]
    scalar = [float(cdf.ppf(u)) for u in us]
    assert batch.tolist() == scalar
    assert batch[0] == 0.0


_IN_PLACE_LAWS = {
    **KERNEL_LAWS,
    "exp1": rb.exponential(1.0),
    "exp1-atom0": rb.from_segments([(0.0, [1.0])], atoms=[(0.0, 0.5)]),
}


@pytest.mark.parametrize("phi", list(_IN_PLACE_LAWS.values()), ids=list(_IN_PLACE_LAWS))
def test_ppf_in_place_matches_a_contiguous_copy(phi):
    # a tile (2, block, rows) mapped half by half over its own uniforms, a
    # strided 2-D view of it, and listed interval rows of a half, give ppf's
    # bits on a copy; the tile spans several ppf chunks and holds the mass edges
    from renewal_bounds.simulate import _ppf_in_place

    F = rb.cdf_from_intensity(phi)
    buf = np.random.default_rng(41).random((2, 24, 2000))
    ends = -np.expm1(-F._row_lam_hi[np.isfinite(F._row_lam_hi)])
    edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], ends, np.nextafter(ends, 0.0),
                            np.nextafter(ends, 1.0)])
    edges = edges[edges < 1.0]
    buf[0, 3, : edges.size] = buf[1, 5, -edges.size :] = edges
    want = F.ppf(buf.copy())

    halves = buf.copy()
    for half in halves:
        _ppf_in_place(F, half)
    assert halves.tobytes() == want.tobytes()

    strided = buf.copy()
    for half in strided.transpose(0, 2, 1):  # (rows, block): columns are not contiguous
        _ppf_in_place(F, half)
    assert strided.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):  # its flat view would be a copy
        F._ppf_into(half, half)

    listed = buf.copy()
    _ppf_in_place(F, listed[1], np.arange(1, 24, 3))
    expected = buf.copy()
    expected[1, 1::3] = want[1, 1::3]
    assert listed.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "rule",
    [
        rb.MuRule((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)), period=3),
        rb.ConstantRate(2.0),
    ],
    ids=["cycle-with-zero", "constant-rate"],
)
def test_theta_in_place_on_a_strip(rule):
    # past strips of 16, 32 and 64 intervals (positions 0-223), a
    # 128-interval strip's theta half is mapped in place, row by interval, as
    # each interval's mu ppf maps a contiguous copy
    from renewal_bounds.simulate import _slab_streams, _theta_in_place

    sc = rb.ScenarioConfig(
        phi=rb.exponential(1.0), q=rb.exponential(3.0), mu_rule=rule,
        t_queries=(5.0,), reps=300, seed=17,
    )
    streams = _slab_streams(sc.seed, 0, sc.reps)
    for count in (32, 64, 128):
        _strip(streams, count)
    buf = _strip(streams, 2 * 128)
    j0 = 1 + 224 // 2
    want = np.stack([
        sc.mu_cdfs[int(rule.index_for(j0 + j))].ppf(buf[1, j].copy()) for j in range(128)
    ])
    theta = _theta_in_place(sc, buf[1], j0)
    assert np.shares_memory(theta, buf)
    assert buf[1].tobytes() == want.tobytes()
    if rule.period == 3:  # the cycle's zero member: +inf but at u = 0
        assert np.all(np.isinf(buf[1, 2::3]))


# ---------------------------------------------------------------------------
# slab seeding
# ---------------------------------------------------------------------------


SLAB_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]
SLAB_REPLICATIONS = (0, 1, 16383, 16384, 16385, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1)


def _rows_of(seed, replications):
    # one slab whose rows are the given replications, in order
    from renewal_bounds.simulate import _SlabStreams, _seed_words

    return _SlabStreams(np.concatenate([_seed_words(seed, r, r + 1) for r in replications]))


def _strip(streams, count):
    # the next count doubles of each row still drawing, as a copy of one
    # strip's tile (2, count // 2, rows): position k of row i is in [k % 2, k // 2, i]
    return streams.draw(count // 2).copy()


def _row_doubles(u, i):
    # row i of a strip (2, count // 2, rows) in stream order: position k is u[k % 2, k // 2, i]
    return u[:, :, i].T.ravel()


@pytest.mark.parametrize("seed", SLAB_SEEDS)
def test_slab_seed_words_match_seed_sequence(seed):
    from renewal_bounds.simulate import _seed_words

    for r in SLAB_REPLICATIONS:
        words = _seed_words(seed, r, r + 1)[0]
        expected = np.random.SeedSequence([seed, r]).generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        assert words.tobytes() == expected.tobytes(), (seed, r)


@pytest.mark.parametrize("seed", [12345, 2**64 - 1])
def test_slab_streams_draw_like_path_stream(seed):
    from renewal_bounds.simulate import _slab_streams

    streams = _slab_streams(seed, 16380, 16390)
    assert len(streams) == 10
    u = _strip(streams, 50)
    for i, r in enumerate(range(16380, 16390)):
        assert _row_doubles(u, i).tobytes() == rb.path_stream(seed, r).random(50).tobytes()


@pytest.mark.parametrize("seed", SLAB_SEEDS)
def test_limb_doubles_match_generator_random(seed):
    # strips of 16, 32 and 64 intervals draw positions 0-223
    streams = _rows_of(seed, SLAB_REPLICATIONS)
    strips = [_strip(streams, count) for count in (32, 64, 128)]
    for i, r in enumerate(SLAB_REPLICATIONS):
        u = np.concatenate([_row_doubles(w, i) for w in strips])
        assert u.tobytes() == rb.path_stream(seed, r).random(224).tobytes(), (seed, r)


@pytest.mark.parametrize(
    "counts, end",
    [((32, 64, 128, 256, 512), 224), ((8, 16, 32, 64, 128, 256), 120)],
    ids=["at-224", "at-120"],
)
@pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**64 - 1])
def test_handed_over_rows_continue_bit_equal(counts, end, seed):
    # strips of 16, 32, 64 intervals end at position 224; strips of 4, 8,
    # 16, 32, 64 at 120, where the next strip would straddle 224.  The other
    # rows leave there, and the rows still drawing keep their streams
    streams = _rows_of(seed, SLAB_REPLICATIONS)
    rows = np.arange(len(SLAB_REPLICATIONS))
    survivors = [1, 4, 5, 8]
    drawn = {i: [] for i in rows.tolist()}
    position = 0
    for count in counts:
        u = _strip(streams, count)
        for i, row in enumerate(rows.tolist()):
            drawn[row].append(_row_doubles(u, i))
        position += count
        if position == end:
            go = np.isin(rows, survivors)
            streams.keep(go)
            rows = rows[go]
    for i, r in enumerate(SLAB_REPLICATIONS):
        u = np.concatenate(drawn[i])
        assert u.size == (sum(counts) if i in survivors else end)
        assert u.tobytes() == rb.path_stream(seed, r).random(u.size).tobytes(), r


def _drawn(streams, heights, leave=None):
    # each row's doubles in stream order over strips of the given heights;
    # after each strip, leave(rows) marks the rows drawing that stop
    rows = np.arange(len(streams))
    drawn = {r: [] for r in rows.tolist()}
    for n in heights:
        tile = streams.draw(n)
        for i, r in enumerate(rows.tolist()):
            drawn[r].append(tile[:, :, i].T.ravel().copy())
        if leave is not None:
            go = ~leave(rows)
            streams.keep(go)
            rows = rows[go]
        assert len(streams) == rows.size
    return {r: np.concatenate(u) for r, u in drawn.items()}


@pytest.mark.parametrize("case", ["switch-1", "switch", "switch+1", "switch+2", "odd-strips",
                                  "leave-mid-wave", "one-row-two-chunks"])
def test_ladder_blocks_draw_like_path_stream(monkeypatch, case):
    # a strip is filled in ladder blocks of _LADDER // (2 rows) intervals
    # per row, one at least: _LADDER // 4 rows are the most that take blocks
    # of two intervals.  Odd strips end in a short block, rows that leave
    # strip by strip change the block from strip to strip, and one row
    # draws a strip of _STRIP + 5 intervals in blocks of _LADDER // 2
    # intervals, two full and one of 5
    import renewal_bounds.simulate as sim

    seed, r0, heights, leave = 2**40 + 3, 16380, (16, 32), None
    if case.startswith("switch"):
        rows = sim._LADDER // 4 + {"switch-1": -1, "switch": 0, "switch+1": 1, "switch+2": 2}[case]
    elif case == "odd-strips":  # strips of 7 or 5 intervals, in blocks of 2, the last of 1
        monkeypatch.setattr(sim, "_LADDER", 64)
        rows, heights = 11, (7, 5, 7, 7, 5)
    elif case == "leave-mid-wave":  # a row leaves after each strip, while three remain
        monkeypatch.setattr(sim, "_LADDER", 32)
        rows, heights = 12, (5, 5, 5, 1, 6, 6, 7, 8, 10, 12, 16, 32, 40, 64)
        leave = lambda rows: np.arange(rows.size) == (rows.size // 2 if rows.size > 3 else -1)
    else:
        rows, heights = 1, (16, sim._STRIP + 5)
    drawn = _drawn(sim._slab_streams(seed, r0, r0 + rows), heights, leave)
    sizes = {u.size for u in drawn.values()}
    if leave is None:
        assert sizes == {2 * sum(heights)}
    else:
        assert len(sizes) > 3 and max(sizes) == 2 * sum(heights)
    for r, u in drawn.items():
        assert u.tobytes() == rb.path_stream(seed, r0 + r).random(u.size).tobytes(), r


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
    mu = rb.MuRule((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)), period=3)
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


@pytest.mark.parametrize("case", ["one-query", "several-queries", "improper-phi"])
def test_estimate_variance_is_np_var_of_its_samples(case):
    # without keep_samples, estimate takes each variance in B's or W's own
    # storage, with np.var's steps in np.var's order: the same bits whether
    # numpy sums one query column pairwise or several row by row.  An
    # improper phi (hazard 1 on [0, 1), then 0) gives some paths a +inf
    # forward time and the variance nan, and no RuntimeWarning escapes
    phi, t_queries = rb.exponential(1.0), (1.0, 5.0, 10.0)
    if case == "one-query":
        t_queries = (5.0,)
    elif case == "improper-phi":
        phi = rb.from_segments([(0.0, [1.0]), (1.0, [0.0])], require_proper=False)
    sc = iid_scenario(phi, reps=3000, t_queries=t_queries, seed=5)
    kept = rb.estimate(sc, keep_samples=True)
    table = rb.estimate(sc)
    for side in ("backward", "forward"):
        with np.errstate(invalid="ignore"):
            want = np.var(getattr(kept, f"samples_{side}"), axis=0, ddof=1)
        assert getattr(kept, f"var_{side}").tobytes() == want.tobytes()
        for name in ("mean", "var", "half"):
            key = f"{name}_{side}"
            assert getattr(table, key).tobytes() == getattr(kept, key).tobytes(), key
    assert table.samples_backward is None and table.samples_forward is None
    if case == "improper-phi":
        assert np.isinf(kept.samples_forward).any() and np.isfinite(kept.samples_forward).any()
        assert np.isnan(table.var_forward).all() and np.isfinite(table.var_backward).all()


@pytest.mark.parametrize("seed", [12345, 0, 2**32, 2**64 - 1])
def test_estimate_rows_match_individual_paths(seed):
    sc = iid_scenario(rb.exponential(1.0), reps=40, seed=seed)
    table = rb.estimate(sc, keep_samples=True)
    for r in (0, 7, 39):
        p = rb.simulate_path(sc, r)
        assert np.array_equal(table.samples_backward[r], p.b_t)
        assert np.array_equal(table.samples_forward[r], p.w_t)


def test_rows_match_paths_across_strip_heights(monkeypatch):
    # a first block of 4 and a strip of 40 intervals make a slab of 40 rows
    # advance one interval per strip, and a single path at t = 60 take
    # strips of 4, 4, 8, 16, 32, 40, ...; jump times are the running sum of
    # each path's intervals, so rows, paths, the scalar stream and the
    # default strips agree bit for bit
    import renewal_bounds.simulate as sim

    sc = iid_scenario(rb.exponential(1.0), reps=40, t_queries=(1.0, 30.0, 60.0), seed=8)
    default = rb.estimate(sc, keep_samples=True)
    monkeypatch.setattr(sim, "_FIRST_BLOCK", 4)
    monkeypatch.setattr(sim, "_STRIP", 40)
    table = rb.estimate(sc, keep_samples=True)
    for name in ("samples_backward", "samples_forward"):
        assert getattr(table, name).tobytes() == getattr(default, name).tobytes()
    long_paths = 0
    for r in range(sc.reps):
        p = rb.simulate_path(sc, r)
        assert np.array_equal(table.samples_backward[r], p.b_t)
        assert np.array_equal(table.samples_forward[r], p.w_t)
        if p.events > 4 + 4 + 8 + 16:  # more than four strips
            long_paths += 1
            stream = rb.path_stream(sc.seed, r)
            xi = [rb.generate_interval(j, sc, stream) for j in range(1, p.events + 1)]
            assert np.array_equal(np.cumsum(xi), p.jump_times)
    assert long_paths >= 30
    monkeypatch.undo()
    monkeypatch.setattr(sim, "_SLAB", 7)
    split = rb.estimate(sc, keep_samples=True)
    for name in ("samples_backward", "samples_forward", "mean_backward", "var_forward"):
        assert getattr(split, name).tobytes() == getattr(default, name).tobytes()


@pytest.mark.parametrize("strip", [64, 4096])
def test_strip_size_is_bounded_at_long_horizons(monkeypatch, strip):
    # at t = 400 each Exp(1) path needs about 400 intervals, 80,000 over the
    # slab; no strip may draw more than _STRIP, or one interval per row
    import renewal_bounds.simulate as sim

    monkeypatch.setattr(sim, "_STRIP", strip)
    sc = iid_scenario(rb.exponential(1.0), reps=200, t_queries=(400.0,), seed=3)
    drawn = 0
    for rows, times in sim._strips(sc, sim._slab_streams(sc.seed, 0, sc.reps), 400.0):
        assert times.size <= max(strip, rows.size)
        drawn += times.size
    assert drawn >= 10 * strip


def test_rows_leave_after_the_strip_that_passes_t_max(monkeypatch):
    # a 2,048-interval strip over 400 rows is 5 intervals tall.  A row
    # whose last jump passed t_max is in no later strip, every row short of
    # it is in the next strip, and each strip is _STRIP over the rows still
    # drawing, no taller than what they drew (16 at first)
    import renewal_bounds.simulate as sim

    monkeypatch.setattr(sim, "_STRIP", 2048)
    sc = iid_scenario(rb.exponential(1.0), reps=400, t_queries=(100.0,), seed=6)
    streams = sim._slab_streams(sc.seed, 0, sc.reps)
    passed, waiting, heights = set(), list(range(sc.reps)), []
    j0 = 1
    for rows, times in sim._strips(sc, streams, 100.0):
        assert rows.tolist() == waiting and len(streams) == rows.size
        n = times.shape[0]
        assert n == max(1, min(sim._STRIP // rows.size, max(sim._FIRST_BLOCK, j0 - 1)))
        heights.append(n)
        j0 += n
        done = times[-1] > 100.0
        assert passed.isdisjoint(rows.tolist())
        passed.update(rows[done].tolist())
        waiting = rows[~done].tolist()
    assert heights[:4] == [5, 5, 5, 5] and max(heights) > 5
    assert j0 > 128 and len(passed) == sc.reps and not waiting


def test_a_small_slab_caps_each_strip_at_what_its_rows_drew():
    # the chunk over 200 rows is 163 intervals, so the cap sets each
    # strip's height: 16, then what the rows drew, 16, 32 and 64
    import renewal_bounds.simulate as sim

    sc = iid_scenario(rb.exponential(1.0), reps=200, t_queries=(45.0,), seed=9)
    streams = sim._slab_streams(sc.seed, 0, sc.reps)
    strips, short = [], np.arange(sc.reps)
    for rows, times in sim._strips(sc, streams, 45.0):
        assert rows.tolist() == short.tolist()
        strips.append(times.shape)
        short = rows[~(times[-1] > 45.0)]
    assert [n for n, _ in strips] == [16, 16, 32, 64] and short.size == 0
    assert strips[0][1] == strips[1][1] == 200 > strips[2][1] > strips[3][1] > 0


def test_exp_cycle_slab_draws_at_most_38_intervals_per_rep():
    # the verify-exp-cycle workload's scenario on one full slab: rows leave
    # strip by strip (48.7 per rep when they left only at the end of
    # doubling waves)
    import renewal_bounds.simulate as sim
    from renewal_bounds.cli import load_scenario

    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "verify-exp-cycle.ini"
    sc = load_scenario(path)[0]
    rows = sim._SLAB
    streams = sim._slab_streams(sc.seed, 0, rows)
    drawn = sum(times.size for _, times in sim._strips(sc, streams, float(sc.t_queries[-1])))
    assert drawn <= 38 * rows, drawn / rows


def test_uniform_t50_slab_draws_at_most_104_5_intervals_per_rep():
    # the verify-uniform-t50 workload's scenario on one full slab: rows
    # leave strip by strip, and no strip is taller than what its rows drew
    # (105.18 per rep when rows still short of t = 50 after 112 intervals
    # drew a 128-interval block whole)
    import renewal_bounds.simulate as sim
    from renewal_bounds.cli import load_scenario

    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "verify-uniform-t50.ini"
    sc = load_scenario(path)[0]
    rows = sim._SLAB
    streams = sim._slab_streams(sc.seed, 0, rows)
    drawn = sum(times.size for _, times in sim._strips(sc, streams, float(sc.t_queries[-1])))
    assert drawn <= 104.5 * rows, drawn / rows


def test_tail_exp_cycle_slab_draws_at_most_40_5_intervals_per_rep():
    # the tail-exp-cycle workload's scenario on its one 4,000-row slab: the
    # strip over fewer rows is taller, so rows overshoot more
    # than on a full slab
    import renewal_bounds.simulate as sim
    from renewal_bounds.cli import load_scenario

    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "tail-exp-cycle.ini"
    sc = load_scenario(path)[0]
    rows = sc.reps
    assert rows == 4000
    streams = sim._slab_streams(sc.seed, 0, rows)
    drawn = sum(times.size for _, times in sim._strips(sc, streams, float(sc.t_queries[-1])))
    assert drawn <= 40.5 * rows, drawn / rows


@pytest.mark.parametrize("strip", [1 << 15, 1 << 17])
def test_slab_memory_is_bounded_by_a_ppf_chunk(monkeypatch, strip):
    # one full slab of the verify-uniform-t50 scenario: 16,384 rows at t = 50.
    # It is drawn, mapped and summed one strip of about _STRIP intervals at
    # a time, each half in ppf chunks of _PPF_CHUNK draws (scaled with the
    # strip), and ppf's temporaries live in one workspace, here a fresh one,
    # so its growth is counted.  The peak follows the strip and the chunk,
    # not what the slab draws: waves of up to 2**20 intervals in one
    # (2, block, rows) buffer peaked at 26 MiB (7.9 MiB at the default
    # chunk), and one ppf chunk to a strip half at 8.0 MiB at the default
    # strip (28.1 MiB at 2**17)
    import tracemalloc

    import renewal_bounds.simulate as sim
    from renewal_bounds import hazard

    monkeypatch.setattr(hazard, "_PPF_CHUNK", hazard._PPF_CHUNK * strip // sim._STRIP)
    monkeypatch.setattr(sim, "_STRIP", strip)
    monkeypatch.setattr(hazard, "_SCRATCH", hazard._Scratch())
    uni = rb.uniform(0.0, 1.0)
    sc = iid_scenario(uni, reps=16_384, t_queries=(50.0,), seed=4242)
    sc.eta_cdf, sc.mu_cdfs  # compiled before tracing
    bound = 13 * 2**19 * strip // (1 << 15)  # 6.5 MiB at the default strip
    tracemalloc.start()
    try:
        sim._slab_stats(sc, 0, sc.reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"slab peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


def test_estimate_memory_at_dense_t_is_its_samples(monkeypatch):
    # 10,000 reps of the verify-exp-cycle scenario at 200 query times in
    # slabs of 5,000: each slab writes its times into its rows of B and W,
    # and each variance is taken in B's or W's own storage.  A slab's own
    # last_le/next_gt pair, kept alive beside the next slab's, peaked at
    # 63.7 MiB here, and np.var's temporary of B's size at 45.9 MiB
    import tracemalloc
    from dataclasses import replace

    import renewal_bounds.simulate as sim
    from renewal_bounds import hazard
    from renewal_bounds.cli import load_scenario

    monkeypatch.setattr(sim, "_SLAB", 5_000)
    monkeypatch.setattr(hazard, "_SCRATCH", hazard._Scratch())
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "verify-exp-cycle.ini"
    sc = replace(load_scenario(path)[0], reps=10_000, t_queries=tuple(0.1 * k for k in range(1, 201)))
    sc.eta_cdf, sc.mu_cdfs  # compiled before tracing
    samples = sc.reps * len(sc.t_queries) * 8
    bound = 2 * samples + 6 * 2**20
    tracemalloc.start()
    try:
        rb.estimate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"estimate peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


@pytest.mark.parametrize("cap", [None, 40])
def test_estimate_releases_ppf_workspace_when_it_returns_or_raises(monkeypatch, cap):
    # a fresh workspace that records the bytes it holds when released; a cap
    # of 40 fires after three strips (16, 16 and 32 intervals) are drawn
    import renewal_bounds.simulate as sim
    from renewal_bounds import hazard

    scratch = hazard._Scratch()
    held = []
    release = scratch.release

    def recording():
        held.append(scratch._buf.size)
        release()

    scratch.release = recording
    monkeypatch.setattr(hazard, "_SCRATCH", scratch)
    sc = iid_scenario(rb.uniform(0.0, 1.0), reps=300, t_queries=(1000.0,), seed=7)
    if cap is None:
        rb.estimate(sc)
    else:
        monkeypatch.setattr(sim, "EVENT_CAP", cap)
        with pytest.raises(rb.EventCapExceeded):
            rb.estimate(sc)
    assert held and held[-1] > 0  # the slab grew it
    assert scratch._buf.size == 0 and scratch._marks == [] and scratch._top == 0


@pytest.mark.parametrize("case", ["cycle-with-zero", "uniform"])
def test_strip_heights_do_not_move_a_bit(monkeypatch, case):
    # a strip's height follows _STRIP and its cap _FIRST_BLOCK (a first
    # block of 1 doubles from one interval, one of 2**20 lifts the cap);
    # jump times are running sums per path, so neither changes a sample.
    # Both scenarios run most paths past 112 intervals (224 positions), and
    # a 7-interval strip draws them in strips of one interval.  ppf is
    # elementwise, so a ppf chunk of 7 draws, which splits each half of a
    # default strip across chunks (up to 128 intervals tall from a first
    # block of 1), changes none either; the cycle's zero member maps its
    # uniforms to +inf
    import renewal_bounds.simulate as sim
    from renewal_bounds import hazard

    if case == "uniform":
        sc = iid_scenario(rb.uniform(0.0, 1.0), reps=30, t_queries=(0.5, 20.0, 70.0), seed=22)
    else:
        rule = rb.MuRule((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)), period=3)
        sc = rb.ScenarioConfig(
            phi=rb.exponential(1.0), q=rb.exponential(3.0), mu_rule=rule,
            t_queries=(0.5, 5.0, 100.0), reps=30, seed=21,
        )
    runs = {}
    default = sim._STRIP, hazard._PPF_CHUNK
    cases = [(s, default[1], f) for s in (7, default[0]) for f in (1, 1 << 20)] + [(default[0], 7, 1)]
    for strip, chunk, first in cases:
        monkeypatch.setattr(sim, "_STRIP", strip)
        monkeypatch.setattr(hazard, "_PPF_CHUNK", chunk)
        monkeypatch.setattr(sim, "_FIRST_BLOCK", first)
        table = rb.estimate(sc, keep_samples=True)
        b, w = sim._slab_stats(sc, 0, sc.reps)
        assert b.tobytes() == table.samples_backward.tobytes()
        assert w.tobytes() == table.samples_forward.tobytes()
        runs[strip, chunk, first] = b.tobytes() + w.tobytes()
        monkeypatch.undo()
    assert len(set(runs.values())) == 1, runs.keys()
    events = []
    for r in range(sc.reps):
        p = rb.simulate_path(sc, r)
        assert np.array_equal(b[r], p.b_t)
        assert np.array_equal(w[r], p.w_t)
        events.append(p.events)
    assert sorted(events)[sc.reps // 2] > 112


GOLDEN_SAMPLES = {  # sha256 of estimate(keep_samples=True)'s B then W samples
    ("verify-exp-cycle", 3000, None): "8ce374d519495c7411a39a76ab8af8dacc08013d297e042be433894ff7cc042f",
    ("verify-uniform-t50", 2000, None): "4b5ad9098a33b2be140ae208970db700ace4121674ee79739d8882bbbdb059df",
    ("tail-exp-cycle", 2000, None): "b99f7f7281aabd14df483f8e063b7b602f9e52a9aaa49fe86e899ec4b319b429",
    ("verify-exp-cycle", 400, (5.0, 100.0, 400.0)): "44cf571d9acefd6483ab7984d76261493a0d6484dfcb5fb3c19f4cdc1854cd8f",
}


@pytest.mark.parametrize("workload, reps, t_queries", list(GOLDEN_SAMPLES))
def test_benchmark_samples_keep_their_bits(workload, reps, t_queries):
    # the benchmark's scenarios at fewer reps, and exp-cycle at t = 400, give
    # the samples they gave when these digests were taken: a change to the
    # streams, the strip loop or ppf that moves a bit fails here
    import hashlib
    from dataclasses import replace

    from renewal_bounds.cli import load_scenario

    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / f"{workload}.ini"
    sc = replace(load_scenario(path)[0], reps=reps, t_queries=t_queries or load_scenario(path)[0].t_queries)
    table = rb.estimate(sc, keep_samples=True)
    digest = hashlib.sha256(table.samples_backward.tobytes() + table.samples_forward.tobytes())
    assert digest.hexdigest() == GOLDEN_SAMPLES[workload, reps, t_queries]


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


def test_estimate_parallel_matches_serial_across_slabs(monkeypatch):
    # 300-rep slabs make seven jobs, so workers=3 takes the process-pool path
    import renewal_bounds.simulate as sim

    monkeypatch.setattr(sim, "_SLAB", 300)
    sc = iid_scenario(rb.exponential(1.0), reps=2_000, seed=2**64 - 1)
    assert sc.reps > sim._SLAB
    serial = rb.estimate(sc, workers=1, keep_samples=True)
    parallel = rb.estimate(sc, workers=3, keep_samples=True)
    for name in (
        "samples_backward", "samples_forward", "mean_backward", "mean_forward",
        "var_backward", "var_forward",
    ):
        assert getattr(parallel, name).tobytes() == getattr(serial, name).tobytes()
    for r in (0, 299, 300, 1999):
        p = rb.simulate_path(sc, r)
        assert np.array_equal(parallel.samples_backward[r], p.b_t)
        assert np.array_equal(parallel.samples_forward[r], p.w_t)


def test_half_width_contract():
    sc = iid_scenario(rb.exponential(1.0), reps=300)
    t = rb.estimate(sc)
    assert np.allclose(t.half_backward, 1.96 * np.sqrt(t.var_backward / t.reps), atol=0.0)


# ---------------------------------------------------------------------------
# verify_bound
# ---------------------------------------------------------------------------


def test_verify_bound_generalized_scenario():
    mu = rb.MuRule((rb.zero(), rb.exponential(1.0), rb.exponential(2.0)), period=3)
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
    assert np.all(report.generalized >= report.table.mean_backward)
    assert np.all(report.generalized >= report.table.mean_forward)


def test_verify_bound_deterministic_iid():
    sc = iid_scenario(rb.deterministic(1.0), reps=200, t_queries=(0.4, 2.5), seed=2)
    report = rb.verify_bound(sc)
    assert report.classical == pytest.approx(1.0, rel=1e-12)
    assert report.all_pass
    # backward time never reaches the classical bound for a lattice process
    assert np.all(report.table.mean_backward < 1.0)


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


def test_judge_is_the_one_rule_on_scalars_and_arrays():
    from renewal_bounds.simulate import _judge

    # 1 - 3 * 0.25 is 0.25 exactly: a bound equal to estimate - 3 se holds
    claim = _judge("mean_B", "generalized", 2.0, 0.25, 1.0, 0.25)
    assert claim == rb.Claim("mean_B", "generalized", 2.0, 1, 0.75, True)
    assert type(claim.max_gap) is float and type(claim.dominates) is bool
    assert not _judge("mean_B", "generalized", 2.0, np.nextafter(0.25, 0.0), 1.0, 0.25).dominates

    estimate, se = np.array([1.0, 0.5, 0.2]), np.array([0.25, 0.0, 0.01])
    bound = np.array([0.25, 0.5, 0.3])
    claim = _judge("tail_B", "backward_tail", 2.0, bound, estimate, se)
    assert (claim.points, claim.max_gap, claim.dominates) == (3, float(np.max(estimate - bound)), True)
    bound[0] = np.nextafter(0.25, 0.0)  # one point below the rule fails the claim
    assert not _judge("tail_B", "backward_tail", 2.0, bound, estimate, se).dominates

    # a diverged estimate, or its se, fails
    assert not _judge("mean_W", "generalized", 1.0, 4.0, np.nan, 0.1).dominates
    assert not _judge("mean_W", "generalized", 1.0, 4.0, 0.5, np.nan).dominates


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
