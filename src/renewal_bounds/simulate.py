"""Exact Monte Carlo simulation of generalized renewal processes.

Stream contract
---------------
Replication ``r`` owns the generator ``PCG64(SeedSequence([seed, r]))`` --
a pure function of ``(seed, r)``.  ``path_stream`` is the scalar definition
of that stream and the oracle the tests compare against.  The simulator
builds neither a ``SeedSequence`` nor a ``Generator``: ``_seed_words``
computes the ``SeedSequence`` words of a whole slab of replications in one
vectorized pass, and ``_SlabStreams`` draws the slab's streams as PCG64
itself in numpy ``uint64`` limbs: each row's 128-bit state and increment,
with the XSL-RR output turned into a double as ``Generator.random`` does
(O'Neill 2014, "PCG: a family of simple fast space-efficient statistically
good algorithms for random number generation").  A block of a row's
positions is filled by one ordinary LCG step and a jump-ahead ladder
(Brown 1994, "Random number generation with arbitrary strides"), so ``k``
positions cost O(log k) numpy passes over the rows drawing.
``simulate_path`` draws through the same object, as a one-row slab.

Each interval ``j = 1, 2, ...`` consumes
exactly two uniforms from that stream, in order: first the draw for
``eta_j`` (hazard phi), then the draw for ``theta_j`` (hazard mu_j).  The
theta uniform is consumed even when ``mu_j`` is the zero intensity (theta
is then +inf and the interval equals eta), so traces stay aligned across
mu rules.  The interval is ``xi_j = min(eta_j, theta_j)``; both draws go
through the generalized inverse CDF, so atoms are hit with exactly their
mass and the interval law equals the summed-hazard law.  Theta is
``mu_j``'s ``ppf`` value, in the batch and in ``generate_interval`` alike:
``ppf`` itself gives +inf for a uniform above ``mu_j``'s total mass, and 0
for ``u = 0``, on a zero-mass ``mu_j`` too.

Because interval values depend only on the stream position, batch drawing
(vectorized strips of whole replication slabs) gives every interval the value
``generate_interval`` gives it, bit for bit.  The jump times of a path are
the running sum of its intervals, ``np.cumsum(xi)`` of the whole path, so
they too depend on the stream alone: not on the strip heights, nor on how
replications are split into slabs or workers.  Estimates are therefore
identical for any degree of parallelism: per-replication results are written
into index-addressed arrays, and the reduction is a single deterministic pass
over the assembled array.

Strip loop
----------
One generator, ``_strips``, draws every interval.  It advances a slab's
streams one strip at a time: a strip is a run of intervals, the same ones
for every row still drawing, and a row stops drawing after the strip in
which its last jump passed the largest query time.  A strip's height is
``_STRIP`` intervals over the rows still drawing, one at least, and no
more than the rows have drawn so far (``_FIRST_BLOCK`` at first).
``_STRIP`` bounds the tile, and ``ppf`` maps each of its halves in chunks
of ``hazard._PPF_CHUNK`` draws, two to a full half; the cap bounds how far
the last rows of a slab overshoot, since a row that needs ``k`` intervals
draws fewer than ``k + max(_FIRST_BLOCK, k)``.

A strip is drawn into one float64 tile of shape ``(2, n, rows)`` that every
strip of the slab reuses: half 0 the eta uniforms (stream positions
``2(j-1)``) and half 1 the theta uniforms (``2(j-1)+1``), each
interval-major, one contiguous row per interval and one column per path.
Everything after the draw happens in the tile.
``ppf`` is elementwise and runs in a workspace reused across strips and
slabs (``hazard._SCRATCH``, which ``estimate`` frees when it ends), so
each half is overwritten with its inverse-CDF values where it lies; theta
maps all its rows with one law when the strip's intervals share one mu
index, else each law maps its own rows.
The interval minimum is written over half 0, each row's last jump so far is
added to its first row, and the running sum runs down the rows in place.
That sum is sequential per path, so every jump time equals the running sum
of the whole path whatever the strip heights.  The loop yields each strip's
rows and jump times (half 0, a view of the buffer) before it draws the next
strip.  ``estimate`` reduces a slab of replications to backward/forward
times strip by strip, settling each (row, query time) pair in the strip
that holds the row's first jump beyond it, and writes the times straight
into the slab's rows of its sample arrays ``B`` and ``W``, so a slab holds
no arrays of its own that grow with the query count; ``simulate_path`` is
the one-stream case, which keeps the jumps.

``verify_bound``, and the CLI's ``simulate``, ``verify`` and ``tail``, pass
through one assumption gate, ``_assumption_gate``; the moments and bounds of
a scenario come from one place, ``_bounds``.  Every verdict is a
:class:`Claim`, one bound against one Monte Carlo estimate at one query
time, and one rule, ``_judge``, decides it: ``verify_bound`` gives a claim
per (bound, ``mean_B`` or ``mean_W``, t), and ``tail`` a ``tail_B`` claim
per t over its x grid.  Each of the two commands exits 1 exactly when one of
its claims fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assumptions import AssumptionReport, check_assumptions
from .errors import AssumptionFailure, EventCapExceeded
from .gridcalc import generalized_bound, lorden_classical_bound
from . import hazard
from .hazard import moment
from .scenario import ScenarioConfig

__all__ = [
    "RenewalPath",
    "EstimateTable",
    "Claim",
    "BoundReport",
    "path_stream",
    "generate_interval",
    "simulate_path",
    "estimate",
    "verify_bound",
]

EVENT_CAP = 100_000_000  # diagnostic guard against zero-length interval loops
_SLAB = 16_384  # replications per slab, one job of estimate, advanced together strip by strip
_FIRST_BLOCK = 16  # the cap on the first strips' height; later the cap is what rows drew
_STRIP = 1 << 15  # intervals per strip over the rows still drawing


def path_stream(seed: int, replication: int) -> np.random.Generator:
    """The random stream owned by one replication: PCG64(SeedSequence([seed, r])).

    This is the scalar definition of a stream.  The simulator draws the same
    bits through ``_slab_streams``, and the tests hold it to this one.
    ``numpy.random`` is imported here only: with the ``secrets`` -> ``hashlib``
    -> OpenSSL chain it loads, it costs a process about 6 MB and 14 ms.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    return Generator(PCG64(SeedSequence([int(seed), int(replication)])))


# SeedSequence's hash constants (O'Neill's seed_seq as NumPy implements it)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64's LCG multiplier M (O'Neill 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# stream positions one ladder block holds over all its rows (one interval per
# row at least): a ladder costs O(log block) numpy passes over the block
_LADDER = 32768
# limb operands stay numpy uint64: under numpy < 2's promotion rules a Python
# int operand would turn a uint64 array into float64
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_DOUBLE_UNIT = 2.0**-53


def _limbs(k: int) -> tuple:
    """A 128-bit constant as ``_mul_add`` multiplies by it: its high and low
    ``uint64`` halves, and the low half's two 32-bit quarters."""
    lo = k & 0xFFFFFFFFFFFFFFFF
    return tuple(np.uint64(v) for v in (k >> 64, lo, lo & _MASK32, lo >> 32))


# _JUMPS[i] is M ** 2**i mod 2**128, the multiplier of a jump of 2**i positions
_JUMPS = [_limbs(pow(_PCG_MULT, 1 << i, 1 << 128)) for i in range(_LADDER.bit_length())]


def _mul_add(hi, lo, k, add_hi, add_lo, out_hi, out_lo, tmp, carry) -> None:
    """``out = state * k + add mod 2**128``, elementwise over 128-bit states.

    A state is two ``uint64`` arrays, its high and low halves; ``k`` comes
    from ``_limbs``, and ``add`` broadcasts against the states.  ``out`` may
    be the state itself.  Every product wraps modulo 2**64 except the high
    half of ``lo * k_lo``, which is built from 32-bit partial products
    (Warren, "Hacker's Delight", mulhu).  ``tmp`` is a ``(4, size)``
    ``uint64`` scratch array and ``carry`` a ``bool`` one, ``size`` at least
    the states'.  With ``k = M`` and ``add = inc`` this is one step of
    PCG64's LCG.
    """
    k_hi, k_lo, k0, k1 = k
    a0, a1, t, c = tmp[:, : lo.size].reshape((4,) + lo.shape)
    carry = carry[: lo.size].reshape(lo.shape)
    np.bitwise_and(lo, _LOW32, out=a0)
    np.right_shift(lo, _U32, out=a1)
    np.multiply(a0, k0, out=t)
    np.right_shift(t, _U32, out=t)
    np.multiply(a1, k0, out=c)
    t += c  # a1 * k0 + (a0 * k0 >> 32) < 2**64
    np.bitwise_and(t, _LOW32, out=c)
    a0 *= k1
    a0 += c  # a0 * k1 + (t & 0xFFFFFFFF) < 2**64
    t >>= _U32
    a0 >>= _U32
    a1 *= k1
    a1 += t
    a1 += a0  # the high half of lo * k_lo
    np.multiply(hi, k_lo, out=out_hi)
    out_hi += a1
    np.multiply(lo, k_hi, out=c)
    out_hi += c
    np.multiply(lo, k_lo, out=out_lo)
    out_lo += add_lo
    np.less(out_lo, add_lo, out=carry)
    out_hi += add_hi
    out_hi += carry


def _xsl_rr_doubles(hi, lo, y, out) -> None:
    """PCG64's XSL-RR output of each state, as the double ``Generator.random``
    makes of it, written to ``out``; the states are overwritten.

    The 64-bit output is ``hi ^ lo`` rotated right by the top six bits of the
    state; the double is its top 53 bits times ``2**-53``.  A rotation by 0
    shifts left by 64, which numpy makes 0 (or ``x``, as the hardware does):
    either way ``y | x << 64`` is ``x``.  ``y`` is a ``uint64`` scratch array
    of the states' shape.
    """
    lo ^= hi  # x
    hi >>= _U58  # the rotation r
    np.right_shift(lo, hi, out=y)
    np.subtract(_U64, hi, out=hi)
    lo <<= hi
    lo |= y
    lo >>= _U11
    np.multiply(lo, _DOUBLE_UNIT, out=out)


class _SlabStreams:
    """The streams of one slab's replications, drawn one strip at a time.

    Row ``i`` is seeded with ``words[i]``, the words ``PCG64`` takes from
    ``SeedSequence.generate_state(4, np.uint64)`` (see ``_seed_words``), and
    holds that stream's 128-bit state and increment as ``uint64`` limbs.
    ``draw(n)`` draws the next ``2 n`` doubles of each row still drawing,
    all at the same stream position, and returns them as a tile of shape
    ``(2, n, len(self))``: position ``2 j`` of the strip goes to
    ``tile[0, j]`` and position ``2 j + 1`` to ``tile[1, j]``, so half 0
    holds the eta uniforms and half 1 the theta uniforms, one contiguous
    row per interval and one column per row.  A tile is a view of one buffer
    that every draw reuses, so it is valid until the next draw.
    ``keep(go)``, a boolean per row still drawing, drops the rows where
    ``go`` is false: they never draw again, and their limbs go.  ``len``
    counts the rows still drawing.

    A strip is filled in ladder blocks of up to ``_LADDER`` positions over its
    rows (one interval of each row at least): one LCG step from each row's
    state gives the block's first position, and rung ``i`` fills the next
    ``2**i`` positions from the first ``2**i``, ``x[p + 2**i] = M**(2**i)
    x[p] + incs[i]``, where ``incs[i] = (1 + M + ... + M**(2**i - 1)) inc``
    is kept per row once a ladder has needed it.
    """

    def __init__(self, words: np.ndarray):
        self._buf = np.empty(0)  # the tiles' buffer
        w0, w1, w2, w3 = (np.ascontiguousarray(w) for w in words.T)
        # PCG64's seeding: inc = (w2:w3) << 1 | 1, state = inc + (w0:w1), one step
        inc = (w2 << _U1) | (w3 >> _U63), (w3 << _U1) | _U1
        self._incs = [inc]
        self._lo = inc[1] + w1
        self._hi = inc[0] + w0
        self._hi += self._lo < w1
        n = len(self)
        _mul_add(self._hi, self._lo, _JUMPS[0], *inc, self._hi, self._lo,
                 np.empty((4, n), dtype=np.uint64), np.empty(n, dtype=bool))

    def __len__(self) -> int:
        return self._hi.size

    def draw(self, n: int) -> np.ndarray:
        """The next ``n`` intervals' uniforms of the rows still drawing, as a
        ``(2, n, len(self))`` tile (see the class)."""
        size = 2 * n * len(self)
        if self._buf.size < size:
            self._buf = np.empty(size)
        tile = self._buf[:size].reshape(2, n, len(self))
        self._fill(tile)
        return tile

    def keep(self, go: np.ndarray) -> None:
        """Drop the rows still drawing where ``go`` is false."""
        self._hi, self._lo = self._hi[go], self._lo[go]
        self._incs = [(h[go], l[go]) for h, l in self._incs]

    def _fill(self, tile: np.ndarray) -> None:
        """Write the next ``2 n`` doubles of each of the ``c`` rows drawing
        into ``tile``, of shape ``(2, n, c)``, ladder block by ladder block,
        and move the rows' states past them.  The ladder's arrays come from
        ``hazard._SCRATCH``, which ``ppf`` reuses once the strip is drawn."""
        n, c = tile.shape[1:]
        m = min(n, max(1, _LADDER // (2 * c)))  # intervals per block
        incs = self._incs
        with hazard._SCRATCH as take:
            hi, lo = take(2 * m * c, np.uint64), take(2 * m * c, np.uint64)
            tmp = take(4 * m * c, np.uint64).reshape(4, -1)
            carry = take(m * c, np.bool_)
            while 1 << len(incs) < 2 * m:  # incs[i + 1] = M**(2**i) incs[i] + incs[i]
                h, l = incs[-1]
                incs.append((np.empty_like(h), np.empty_like(l)))
                _mul_add(h, l, _JUMPS[len(incs) - 2], h, l, *incs[-1], tmp, carry)
            for a in range(0, n, m):
                k = min(m, n - a)
                x_hi, x_lo = hi[: 2 * k * c].reshape(2 * k, c), lo[: 2 * k * c].reshape(2 * k, c)
                _mul_add(self._hi, self._lo, _JUMPS[0], *incs[0], x_hi[0], x_lo[0], tmp, carry)
                s, i = 1, 0
                while s < 2 * k:  # rung i: x[s : s + w] from x[:w]
                    w = min(s, 2 * k - s)
                    _mul_add(x_hi[:w], x_lo[:w], _JUMPS[i], *incs[i],
                             x_hi[s : s + w], x_lo[s : s + w], tmp, carry)
                    s, i = 2 * s, i + 1
                self._hi[...], self._lo[...] = x_hi[-1], x_lo[-1]
                # position 2 j + h of the block is tile[h, a + j]
                _xsl_rr_doubles(x_hi.reshape(k, 2, c), x_lo.reshape(k, 2, c),
                                tmp.reshape(-1)[: 2 * k * c].reshape(k, 2, c),
                                tile[:, a : a + k].transpose(1, 0, 2))


def _seed_words(seed: int, r0: int, r1: int) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for each
    replication ``r`` in ``[r0, r1)``, as rows of one array, in one
    vectorized pass.

    The words are O'Neill's seed_seq hash as NumPy implements it (O'Neill
    2015, "Developing a seed_seq alternative"; NumPy NEP 19): the entropy
    words hashed into a pool of four with ``hashmix``, mixed pairwise with
    ``mix``, then drawn out by the ``INIT_B``/``MULT_B`` pass, all in
    ``uint32`` arithmetic over the whole range.

    The entropy is ``[seed words..., r & 0xFFFFFFFF, r >> 32]``, padded with
    zeros to four words.  NumPy pads a short pool with ``hashmix(0)``, so a
    zero word is the same as an absent one, and the formula is exact for every
    ``seed < 2**64`` and ``r < 2**64`` (the seed takes one word below 2**32 and
    two from there on).  Larger values would need more than four words and
    are rejected.
    """
    seed, r0, r1 = int(seed), int(r0), int(r1)
    if not (0 <= seed < 2**64 and 0 <= r0 <= r1 <= 2**64):
        raise ValueError("seed and replication indices must lie in [0, 2**64)")
    r = np.uint64(r0) + np.arange(r1 - r0, dtype=np.uint64)
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(r.size, w, dtype=np.uint32) for w in words]
    entropy += [(r & _MASK32).astype(np.uint32), (r >> 32).astype(np.uint32)]
    entropy += [np.zeros(r.size, dtype=np.uint32)] * (4 - len(entropy))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    pool = [hashmix(e) for e in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    # generate_state(4, np.uint64): eight uint32 words cycling the pool,
    # paired little-endian into uint64, one column at a time
    seeds = np.empty((r.size, 4), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        word = (value ^ (value >> 16)).astype(np.uint64)
        if i % 2:
            seeds[:, i // 2] |= word << _U32
        else:
            seeds[:, i // 2] = word
    return seeds


def _slab_streams(seed: int, r0: int, r1: int) -> _SlabStreams:
    """The streams of replications ``[r0, r1)``: row ``r - r0`` draws like
    ``path_stream(seed, r)``."""
    return _SlabStreams(_seed_words(seed, r0, r1))


def generate_interval(
    j: int, scenario: ScenarioConfig, stream: np.random.Generator
) -> float:
    """Draw interval ``xi_j = min(eta_j, theta_j)``, consuming two uniforms.

    The stream must be positioned at the start of interval ``j``'s pair
    (positions ``2(j-1)`` and ``2(j-1)+1`` of the replication stream).
    """
    u_eta = stream.random()
    u_theta = stream.random()
    eta = float(scenario.eta_cdf.ppf(u_eta))
    mu_cdf = scenario.mu_cdfs[int(scenario.mu_rule.index_for(j))]
    theta = float(mu_cdf.ppf(u_theta))  # +inf when u_theta exceeds mu's total mass
    return min(eta, theta)


@dataclass(frozen=True)
class RenewalPath:
    """One simulated trajectory with per-query backward/forward times."""

    jump_times: np.ndarray  # all jumps up to and including the first beyond max(t)
    t_queries: tuple[float, ...]
    n_t: np.ndarray
    b_t: np.ndarray
    w_t: np.ndarray

    @property
    def events(self) -> int:
        return int(self.jump_times.size)


def _ppf_in_place(cdf, half: np.ndarray, rows=None) -> None:
    """Overwrite interval rows of a tile half (all of them, or the listed
    ``rows``) with their ``cdf.ppf`` values.

    ``ppf`` is elementwise and its chunk loop (``_ppf_into``) may write over
    the uniforms it reads, so a C-contiguous half is mapped where it lies;
    listed rows, or a half that is not C-contiguous, are copied into one
    array, mapped there, and written back.
    """
    if rows is None and half.flags.c_contiguous:
        cdf._ppf_into(half, half)
    else:
        pick = slice(None) if rows is None else rows
        picked = np.ascontiguousarray(half[pick])  # a copy: listed rows are one already
        cdf._ppf_into(picked, picked)
        half[pick] = picked


def _theta_in_place(scenario: ScenarioConfig, u: np.ndarray, j0: int) -> np.ndarray:
    """Map the theta uniforms of a strip, intervals ``j0, j0 + 1, ...`` (one
    row each, interval-major), in place through their mu inverses, and
    return them.

    A strip whose intervals share one mu law maps all its rows at once;
    otherwise each law maps its own rows.  ``ppf`` itself gives ``+inf``
    above that mu's total mass.
    """
    midx = np.asarray(scenario.mu_rule.index_for(j0 + np.arange(u.shape[0])))
    members = np.flatnonzero(np.bincount(midx))  # np.unique, without numpy.ma
    if members.size == 1:
        _ppf_in_place(scenario.mu_cdfs[members[0]], u)
    else:
        for d in members:
            _ppf_in_place(scenario.mu_cdfs[d], u, np.flatnonzero(midx == d))
    return u


def _running_sum(times: np.ndarray) -> None:
    """``np.cumsum(times, axis=0, out=times)``: sequential down each column,
    so the same bits either way.  numpy accumulates column by column, one
    inner loop per column; a strip with more columns than rows adds row
    after row instead."""
    if times.shape[0] < times.shape[1]:
        for j in range(1, times.shape[0]):
            times[j] += times[j - 1]
    else:
        np.cumsum(times, axis=0, out=times)


def _strips(scenario: ScenarioConfig, streams: _SlabStreams, t_max: float):
    """Draw intervals from a slab's ``streams`` strip by strip until every
    path passes ``t_max``, and yield them a strip at a time.

    Yields ``(rows, times)`` once per strip: the rows of ``streams`` still
    drawing, and their jump times over the strip's intervals,
    interval-major (``n x rows.size``: column ``i`` is row ``rows[i]``'s
    path).  A row's strips come in the order of its intervals.  ``times``
    is a view of the tiles' buffer, valid until the next strip.  A row
    whose last jump lies beyond ``t_max`` leaves after the strip in which
    it passed ``t_max``, and draws no more.

    A strip is ``_STRIP`` intervals over the rows still drawing, one
    interval row at least, and no taller than what the rows have drawn
    so far (``_FIRST_BLOCK`` at first).  Both halves of the tile from
    ``streams.draw`` are mapped through their inverses in place, in ppf
    chunks of ``hazard._PPF_CHUNK`` draws (two to a full strip's half), the
    interval minimum overwrites half 0, and so does the running sum: each
    row's last jump so far is added to the strip's first interval row and
    ``_running_sum`` runs down the intervals, sequentially per path, so jump
    times do not depend on the strip heights.
    """
    rows = np.arange(len(streams))
    last = np.zeros(rows.size)  # each row's last jump so far
    j0 = 1
    while rows.size:
        if j0 > EVENT_CAP:
            raise EventCapExceeded(
                f"some path exceeded {EVENT_CAP} events before clearing t = {t_max:g}"
            )
        n = max(1, min(_STRIP // rows.size, max(_FIRST_BLOCK, j0 - 1)))
        tile = streams.draw(n)
        _ppf_in_place(scenario.eta_cdf, tile[0])
        _theta_in_place(scenario, tile[1], j0)
        times = np.minimum(tile[0], tile[1], out=tile[0])  # the intervals xi
        times[0] += last
        _running_sum(times)
        yield rows, times
        last = times[-1].copy()  # the next draw writes over the tile
        if not (go := ~(last > t_max)).all():  # compact to the rows drawing on
            rows, last = rows[go], last[go]
            streams.keep(go)
        j0 += n


def simulate_path(scenario: ScenarioConfig, replication: int) -> RenewalPath:
    """Simulate one trajectory until the first jump beyond max(t_queries)."""
    queries = np.asarray(scenario.t_queries)
    t_max = float(queries[-1])
    streams = _slab_streams(scenario.seed, replication, replication + 1)
    # copies: the next strip writes over the tile
    jumps = np.concatenate([times[:, 0].copy() for _, times in _strips(scenario, streams, t_max)])
    jumps = jumps[: int(np.argmax(jumps > t_max)) + 1]

    n_t = np.searchsorted(jumps, queries, side="right")
    last = np.where(n_t > 0, jumps[np.maximum(n_t - 1, 0)], 0.0)
    b_t = queries - last
    w_t = jumps[n_t] - queries
    return RenewalPath(jumps, scenario.t_queries, n_t, b_t, w_t)


def _slab_stats(
    scenario: ScenarioConfig, r0: int, r1: int, b=None, w=None
) -> tuple[np.ndarray, np.ndarray]:
    """Backward/forward times for replications [r0, r1), vectorized strip by strip.

    Written into ``b`` and ``w``, C-contiguous ``(r1 - r0, queries)``
    arrays (``estimate`` passes its rows of ``B`` and ``W``), or into new
    ones, and returned.  Each (row, query) pair is settled once, in the strip
    that holds the row's first jump beyond the query time ``t``: a row's
    strips come in the order of its jumps, so that is the strip whose last
    jump lies beyond ``t`` while the row's last jump before it (0 before
    any) does not.  There the first jump beyond ``t`` is ``next_gt``, and
    the jump before it, in the strip or the last one before it, is
    ``last_le``.  A strip visits only the queries between its rows' earliest
    and latest jumps, and gathers only the rows it settles, so its memory
    follows its own size.
    """
    queries = np.asarray(scenario.t_queries)
    count = r1 - r0
    # last_le and next_gt, written where B and W go
    last_le = np.empty((count, queries.size)) if b is None else b
    next_gt = np.empty((count, queries.size)) if w is None else w
    prev = np.zeros(count)  # each row's last jump before the strip

    streams = _slab_streams(scenario.seed, r0, r1)
    for rows, times in _strips(scenario, streams, float(queries[-1])):
        before, last = prev[rows], times[-1]
        q0, q1 = np.searchsorted(queries, (before.min(), last.max()), side="left")
        for qi in range(q0, q1):
            t = queries[qi]
            cols = np.flatnonzero((before <= t) & (last > t))
            if cols.size:
                seg = times[:, cols]
                cnt = np.count_nonzero(seg <= t, axis=0)  # jumps at or before t
                i = np.arange(cols.size)
                next_gt[rows[cols], qi] = seg[cnt, i]
                last_le[rows[cols], qi] = np.where(cnt > 0, seg[cnt - 1, i], before[cols])
        prev[rows] = last
    # B and W in place: the same subtractions, and no second pair of arrays
    return np.subtract(queries, last_le, out=last_le), np.subtract(next_gt, queries, out=next_gt)


def _var_in_place(S: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``np.var(S, axis=0, ddof=1)`` bit for bit, given ``S.mean(axis=0)``,
    with ``S`` as its workspace: numpy's steps in numpy's order (``S``
    minus the mean, squared, summed down axis 0, divided by ``len(S) - 1``)
    and no array of ``S``'s size.  ``S`` is left holding the squares."""
    np.subtract(S, mean, out=S)
    np.square(S, out=S)
    return S.sum(axis=0) / (S.shape[0] - 1)


def _slab_worker(args) -> tuple[int, np.ndarray, np.ndarray]:
    scenario, r0, r1 = args
    b, w = _slab_stats(scenario, r0, r1)
    return r0, b, w


@dataclass(frozen=True)
class EstimateTable:
    """Per-query Monte Carlo estimates with 95% half-widths."""

    t_queries: tuple[float, ...]
    reps: int
    mean_backward: np.ndarray
    mean_forward: np.ndarray
    var_backward: np.ndarray
    var_forward: np.ndarray
    half_backward: np.ndarray
    half_forward: np.ndarray
    samples_backward: np.ndarray | None = None
    samples_forward: np.ndarray | None = None

    def se_backward(self) -> np.ndarray:
        return np.sqrt(self.var_backward / self.reps)

    def se_forward(self) -> np.ndarray:
        return np.sqrt(self.var_forward / self.reps)


def estimate(
    scenario: ScenarioConfig,
    *,
    workers: int = 1,
    keep_samples: bool = False,
) -> EstimateTable:
    """Run all replications and reduce to per-query means and intervals.

    Output is bitwise identical for a fixed (seed, reps, scenario)
    regardless of ``workers``: every replication computes the same values
    from its own stream, results are assembled by replication index, and
    the reduction is a single pass over the full array.

    Memory is the samples ``B`` and ``W`` (``reps x queries`` each) plus
    one slab's working set: its streams' limbs, one strip's tile of about
    ``_STRIP`` intervals, and ``ppf``'s workspace (``hazard._SCRATCH``;
    2.52 MiB for a ppf chunk on uniform(0, 1), and exp-cycle's 1.0 MiB is
    the ladder's).  In one process each slab writes its times into its rows
    of ``B`` and ``W``, and the workspace is released once the slabs are
    done, or when one raises.  Each variance is taken in its samples' own
    storage (``_var_in_place``), or, with ``keep_samples``, in a copy: one
    more array of ``B``'s size.
    """
    reps = scenario.reps
    nq = len(scenario.t_queries)
    B = np.empty((reps, nq))
    W = np.empty((reps, nq))
    jobs = [(r0, min(r0 + _SLAB, reps)) for r0 in range(0, reps, _SLAB)]
    try:
        if workers > 1 and len(jobs) > 1:
            # imported here: concurrent.futures costs every command ~13 ms
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for r0, b, w in pool.map(_slab_worker, [(scenario, *job) for job in jobs]):
                    B[r0 : r0 + b.shape[0]] = b
                    W[r0 : r0 + w.shape[0]] = w
        else:
            for r0, r1 in jobs:
                _slab_stats(scenario, r0, r1, B[r0:r1], W[r0:r1])
    finally:
        hazard._SCRATCH.release()

    mean_b = B.mean(axis=0)
    mean_w = W.mean(axis=0)
    if reps > 1:
        # an infinite time (only under an assumption override) gives a nan variance
        with np.errstate(invalid="ignore"):
            var_b = _var_in_place(B.copy() if keep_samples else B, mean_b)
            var_w = _var_in_place(W.copy() if keep_samples else W, mean_w)
    else:
        var_b = np.zeros(nq)
        var_w = np.zeros(nq)
    half_b = 1.96 * np.sqrt(var_b / reps)
    half_w = 1.96 * np.sqrt(var_w / reps)
    return EstimateTable(
        scenario.t_queries,
        reps,
        mean_b,
        mean_w,
        var_b,
        var_w,
        half_b,
        half_w,
        B if keep_samples else None,
        W if keep_samples else None,
    )


@dataclass(frozen=True)
class Claim:
    """One bound against one Monte Carlo estimate at one query time.

    ``quantity`` names what is bounded (``mean_B``, ``mean_W`` or ``tail_B``)
    and ``name`` the bound (``generalized``, ``classical`` or
    ``backward_tail``).  ``points`` counts where the bound was checked: 1 for
    a mean, the x grid for a tail.  ``max_gap`` is the largest estimate minus
    bound over those points, negative where the bound lies above every
    estimate, and ``dominates`` is ``_judge``'s verdict.
    """

    quantity: str
    name: str
    t: float
    points: int
    max_gap: float
    dominates: bool


@dataclass(frozen=True)
class BoundReport:
    """Moments, bound values, Monte Carlo estimates, and the claims they decide.

    ``claims`` holds one :class:`Claim` per (bound, quantity, query time);
    ``all_pass`` is whether every one of them dominates.
    """

    e_eta: float
    e_eta2: float
    e_zeta: float
    generalized: float
    classical: float | None
    table: EstimateTable | None = None
    claims: tuple[Claim, ...] = ()
    assumptions: AssumptionReport | None = None
    assumption_override: bool = False

    @property
    def all_pass(self) -> bool:
        return all(claim.dominates for claim in self.claims)


def _judge(quantity: str, name: str, t: float, bound, estimate, se) -> Claim:
    """The verdict rule: ``bound >= estimate - 3 se`` at every point.

    ``bound``, ``estimate`` and ``se`` are scalars or arrays over the
    claim's points.  A NaN estimate or se (an estimate that diverged under an
    assumption override) fails.
    """
    gap = np.subtract(estimate, bound)
    holds = np.all(bound >= estimate - 3.0 * se)
    return Claim(quantity, name, t, gap.size, float(np.max(gap)), bool(holds))


def _assumption_gate(scenario: ScenarioConfig, override: bool) -> AssumptionReport:
    """The scenario's assumption report; a failed check raises unless overridden."""
    report = check_assumptions(scenario)
    if not report.all_pass and not override:
        failed = [c.number for c in report.conditions if not c.passed]
        raise AssumptionFailure(
            f"scenario fails assumption condition(s) {failed}; override to proceed "
            "anyway (override_assumptions=True, or --force on the command line)"
        )
    return report


def _bounds(scenario: ScenarioConfig) -> BoundReport:
    """Moments and bounds of a scenario, without estimates or claims.

    The classical bound is computed only when the scenario is i.i.d.
    """
    return BoundReport(
        scenario.eta_mean,
        moment(scenario.eta_cdf, 2),
        scenario.zeta_mean,
        generalized_bound(scenario.eta_cdf, scenario.zeta_cdf),
        lorden_classical_bound(scenario.interval_cdfs[0]) if scenario.iid else None,
    )


def verify_bound(
    scenario: ScenarioConfig,
    *,
    override_assumptions: bool = False,
    workers: int = 1,
) -> BoundReport:
    """Compute the envelope bound and verify it dominates the MC estimates.

    Requires the assumption checks to pass unless ``override_assumptions``
    is set (the override is recorded in the report).  The report's claims are
    one per (bound, quantity, query time): the generalized bound, and the
    classical bound when the scenario is i.i.d., each against the mean
    backward time (``mean_B``) and the mean forward time (``mean_W``).
    """
    report = _assumption_gate(scenario, override_assumptions)
    bounds = _bounds(scenario)
    table = estimate(scenario, workers=workers)
    means = (("mean_B", table.mean_backward, table.se_backward()),
             ("mean_W", table.mean_forward, table.se_forward()))
    claims = tuple(
        _judge(quantity, name, t, bound, mean[i], se[i])
        for name, bound in (("generalized", bounds.generalized), ("classical", bounds.classical))
        if bound is not None
        for quantity, mean, se in means
        for i, t in enumerate(scenario.t_queries)
    )
    return replace(
        bounds,
        table=table,
        claims=claims,
        assumptions=report,
        assumption_override=override_assumptions and not report.all_pass,
    )
