"""Lattice measures, the renewal function, and the overshoot formulas.

A measure on the lattice ``0, h, ..., N h`` is two dense arrays of N + 1
masses: ``atoms[k]``, the mass at node ``k h``, and ``cells[k]``, the
continuous mass of ``((k-1) h, k h]``; its CDF at the nodes is their running
sum.  Atoms of a law are snapped to their nearest node and kept apart from
the cells, so that convolutions treat point masses exactly (deterministic
inputs convolve to exact deterministic outputs) while continuous mass uses
midpoint assignment (cell masses sit at cell midpoints; products land on
nodes and are split evenly between the adjacent cells, which keeps the mean
placement unbiased).

On that convolution sits the renewal function ``H = sum_n G^{*n}``.  It is
not summed power by power: it is solved node by node from the discretized
renewal equation ``H = G + G * H``, which the atom/cell convolution makes
lower-triangular, so on the lattice it is exact up to rounding (reported as
``equation_residual``), and it is stored as the same measure, dH.

Three formulas are computed here: Lorden's bound ``E xi^2 / E xi`` on the
mean overshoot of i.i.d. renewals; the generalized formula ``E eta + E
eta^2 / (2 E zeta)``; and the tail formula ``(1 - Phi(t)) + integral_0^{t-x}
(1 - Phi(t-s)) dH(s)`` for ``P(B_t > x)``.  The last two are not proved
bounds: each is exceeded on a law that passes every assumption check
(ROADMAP open item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError, GridError
from .hazard import IntensityCdf, moment

__all__ = [
    "GridDistribution",
    "RenewalFunction",
    "discretize",
    "convolve",
    "convolution_power",
    "renewal_function",
    "lorden_classical_bound",
    "generalized_bound",
    "backward_tail_bound",
]

TRUNCATION_TOL = 1e-6


@dataclass(frozen=True)
class GridDistribution:
    """A measure on ``0, h, ..., N h`` as node atoms and cell masses.

    ``atoms[k]`` is the mass at node ``k h`` and ``cells[k]`` the continuous
    mass of ``((k-1) h, k h]``, both finite and nonnegative; ``values`` is
    the CDF at the nodes, their running sum.  ``snap_error`` is the farthest
    any atom was moved to reach its node; ``truncation_residual`` is the
    mass beyond the last node that the lattice leaves out.
    """

    step: float
    atoms: np.ndarray
    cells: np.ndarray
    snap_error: float = 0.0
    truncation_residual: float = 0.0

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        cells = np.asarray(self.cells, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "cells", cells)
        if not self.step > 0:
            raise GridError("grid step must be positive")
        if atoms.ndim != 1 or atoms.shape != cells.shape or atoms.size < 2:
            raise GridError("atoms and cells must be 1-D arrays of one length, at least 2")
        # NaN fails every comparison
        if not np.all((atoms >= 0) & (atoms < math.inf) & (cells >= 0) & (cells < math.inf)):
            raise GridError("grid masses must be finite and nonnegative")

    @property
    def values(self) -> np.ndarray:
        return np.cumsum(self.atoms + self.cells)

    @property
    def horizon(self) -> float:
        return (self.atoms.size - 1) * self.step

    def grid(self) -> np.ndarray:
        return np.arange(self.atoms.size) * self.step


def discretize(
    F,
    h: float,
    s_max: float,
    *,
    allow_truncation: bool = False,
) -> GridDistribution:
    """Put a mixed law on the lattice, snapping atoms to their nearest nodes.

    ``F`` is any object with ``cdf`` and ``sf`` evaluators and a ``jumps``
    list of ``(location, mass)`` pairs, such as an ``IntensityCdf``.  Each
    atom at or below ``N h + h/2`` moves to its nearest node; the cells
    hold the increments of the snapped CDF at the nodes less the atoms,
    floored at 0, and node 0's value is an atom at the origin.  The mass
    the lattice leaves out, ``F.sf(N h)`` less the atoms snapped down onto
    node N, is kept in ``truncation_residual``; a horizon that leaves out
    more than ``1e-6`` is rejected unless ``allow_truncation`` is set.

    The node values are the running sum of the masses, not evaluations of
    the snapped CDF.  At a node without an atom whose value is at most
    twice the one before, the sum adds back exactly the difference its cell
    was made of (Sterbenz's lemma), so drift enters only at the first nodes
    and at atoms.  Against the snapped CDF at the nodes it measured 8.7e-19
    on Weibull(2) at h = 0.005, and 0 on Exp(1), uniform(0, 1), uniform(2, 5),
    Weibull(4), Exp(1) with an atom at 1.0037 and Exp(2) with an atom at 0,
    each at h = 0.001, 0.005 and 0.01.
    """
    if not 0 < h <= s_max < math.inf:  # NaN fails too
        raise GridError("need 0 < h <= s_max < inf")
    n = int(math.ceil(s_max / h - 1e-12))
    grid = np.arange(n + 1) * h

    jumps = [(a, p) for a, p in F.jumps if a <= n * h + 0.5 * h]
    locs = np.array([a for a, _ in jumps])
    masses = np.array([p for _, p in jumps])
    tail = max(float(F.sf(n * h)) - float(np.sum(masses[locs > n * h])), 0.0)
    if tail > TRUNCATION_TOL and not allow_truncation:
        raise GridError(
            f"horizon {s_max:g} truncates {tail:.3e} of the mass; "
            "enlarge s_max or pass allow_truncation=True"
        )

    values = np.asarray(F.cdf(grid), dtype=float).copy()
    atoms = np.zeros(n + 1)
    snap_err = 0.0
    if locs.size:
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        values -= cum[np.searchsorted(locs, grid, side="right")]
        idx = np.clip(np.round(locs / h).astype(np.int64), 0, n)
        snap_err = float(np.max(np.abs(locs - idx * h)))
        np.add.at(atoms, idx, masses)
        values += np.cumsum(atoms)
    np.clip(values, 0.0, 1.0, out=values)
    np.maximum.accumulate(values, out=values)

    cells = np.zeros(n + 1)
    cells[1:] = np.diff(values) - atoms[1:]
    np.clip(cells, 0.0, None, out=cells)
    atoms[0] = values[0]
    return GridDistribution(h, atoms, cells, snap_err, tail)


def _convolve(x, y):
    """``np.convolve(x, y)`` of finite arrays, which is all +0.0 when either
    is all zero (each output is a dot product begun at +0.0): then no
    products are formed."""
    if x.any() and y.any():
        return np.convolve(x, y)
    return np.zeros(x.size + y.size - 1)


def _conv_masses(aA, cA, aB, cB, n):
    """Convolve two (atom, cell) decompositions; truncate to ``n + 1`` nodes."""
    atoms = _convolve(aA, aB)[: n + 1]
    cells = _convolve(aA, cB)[: n + 1] + _convolve(aB, cA)[: n + 1]
    cc = _convolve(cA, cB)  # continuous x continuous lands on nodes s-1
    cc = np.concatenate((cc, [0.0]))
    cells[1:] += 0.5 * (cc[1 : n + 1] + cc[2 : n + 2])
    return atoms, cells


def convolve(A: GridDistribution, B: GridDistribution) -> GridDistribution:
    """Stieltjes convolution on a common lattice.

    Atom x atom products land on exact node sums; atom x cell shifts cells
    exactly; cell x cell uses the midpoint split described in the module
    docstring.  Mass beyond the horizon is truncated and reported in
    ``truncation_residual``.
    """
    if A.step != B.step:
        raise GridError("convolve requires identical grid steps")
    if A.atoms.size != B.atoms.size:
        raise GridError("convolve requires identical grid lengths")
    atoms, cells = _conv_masses(A.atoms, A.cells, B.atoms, B.cells, A.atoms.size - 1)
    lost = float(A.values[-1] * B.values[-1] - np.sum(atoms + cells))
    return GridDistribution(
        A.step, atoms, cells, max(A.snap_error, B.snap_error), max(lost, 0.0)
    )


def convolution_power(A: GridDistribution, n: int) -> GridDistribution:
    """n-fold convolution power by repeated squaring; ``A^{*1}`` is ``A``."""
    if n < 1 or int(n) != n:
        raise GridError("convolution power requires an integer n >= 1")
    n = int(n)
    result: GridDistribution | None = None
    base = A
    while n:
        if n & 1:
            result = base if result is None else convolve(result, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    assert result is not None
    return result


@dataclass(frozen=True)
class RenewalFunction(GridDistribution):
    """Renewal function ``H(s) = sum_{n>=1} G^{*n}(s)`` as the lattice measure dH.

    H is the solution of the discretized renewal equation ``H = G + G * H``
    (the convolution of :func:`convolve`), found by forward substitution;
    ``equation_residual`` is that equation's largest nodal residual.  The
    atoms and cells are H's Stieltjes increments in the convolution's
    decomposition, so integrals against ``dH`` treat atoms exactly, and
    ``values`` is H at the nodes.  ``n_max`` is always 0: no convolution
    power is formed.
    """

    equation_residual: float = 0.0
    n_max: int = 0


def _forward_solve(rhs, kernel, div, first):
    """``x[k] = (rhs[k] + sum_{first<=i<k} x[i] kernel[k-i]) / div`` for
    ``k >= first``, node by node; ``x[:first]`` is 0."""
    n = rhs.size - 1
    # the kernel is reversed (into a contiguous copy) so that each sum over
    # i < k is one dot product of a prefix of x with a suffix of the kernel
    rev = np.ascontiguousarray(kernel[::-1])
    x = np.zeros(n + 1)
    for k in range(first, n + 1):
        x[k] = (rhs[k] + np.dot(x[first:k], rev[n - k + first : n])) / div
    return x


def renewal_function(G: GridDistribution) -> RenewalFunction:
    """Solve ``H = G + G * H`` on the lattice, one node at a time.

    The convolution's atom/cell operator is lower-triangular in the node
    index, so node k of H follows from nodes ``< k``.  With ``aG, cG`` the
    atom and cell masses of G, the atoms solve
    ``hA[k] (1 - aG[0]) = aG[k] + sum_{i<k} hA[i] aG[k-i]`` and the cells
    ``hC[k] (1 - aG[0] - cG[1]/2) = cG[k] + sum_{i<k} hA[i] cG[k-i]
    + sum_{1<=i<k} hC[i] (aG[k-i] + (cG[k-i] + cG[k+1-i]) / 2)``.
    Both divisors are at least ``(1 - aG[0]) / 2 > 0``.

    The only error against the lattice equation is rounding: the returned
    ``equation_residual`` (about 1e-12 at 6001 nodes) is recomputed with
    the convolution itself as a cross-check.  The lattice's own error
    against the continuous renewal function (midpoint placement of cell
    mass, atom snapping) is not included.

    The sums over ``i < k`` are ``np.dot`` calls, which go through BLAS.  A
    caller whose BLAS runs several threads gets different last bits beyond
    about 10,000 nodes, where OpenBLAS splits a dot product by thread count;
    the CLI pins one thread.  ROADMAP item 4's FFT solve would remove the
    long dot products.
    """
    aG, cG = G.atoms, G.cells
    if aG[0] >= 1.0:
        raise GridError("renewal function diverges: G has atom mass >= 1 at 0")
    n = aG.size - 1
    h_atoms = np.zeros(n + 1)
    cell_rhs = cG
    if np.any(aG):
        h_atoms = _forward_solve(aG, aG, 1.0 - aG[0], 0)
        cell_rhs = cG + np.convolve(h_atoms, cG)[: n + 1]  # atoms are final here
    w = aG + 0.5 * (cG + np.append(cG[1:], 0.0))
    h_cells = _forward_solve(cell_rhs, w, 1.0 - aG[0] - 0.5 * cG[1], 1)

    values = np.cumsum(h_atoms + h_cells)
    ra, rc = _conv_masses(h_atoms, h_cells, aG, cG, n)
    rhs = np.cumsum(aG + cG) + np.cumsum(ra + rc)
    residual = float(np.max(np.abs(values - rhs)))
    return RenewalFunction(G.step, h_atoms, h_cells, G.snap_error, equation_residual=residual)


def lorden_classical_bound(F: IntensityCdf) -> float:
    """Classical overshoot bound ``E xi^2 / E xi`` for i.i.d. renewals."""
    m1 = moment(F, 1)
    if m1 <= 0:
        raise DistributionError("classical bound needs a positive mean interval")
    return moment(F, 2) / m1


def generalized_bound(Phi: IntensityCdf, G: IntensityCdf) -> float:
    """Envelope overshoot bound ``E eta + E eta^2 / (2 E zeta)``.

    ``eta ~ Phi`` is the slow envelope (hazard phi) and ``zeta ~ G`` the
    fast one (hazard Q).  The value is meant to bound the mean backward and
    forward renewal times of the generalized process, uniformly in t.  That
    is unproven: no proof is written here, and the formula fails on a law
    that passes every assumption check.  In the i.i.d. case it reads ``E xi
    + E xi^2 / (2 E xi)``, below Lorden's ``E xi^2 / E xi`` exactly when the
    squared coefficient of variation of ``xi`` exceeds 1, and Lorden's
    factor 2 cannot be lowered.  The counterexample is the two-point i.i.d.
    law with mass 0.99 at 1 and the rest at 100: its bound is 26.30, while
    Monte Carlo (40,000 reps, seed 1) gives E W_50 = 28.05 +- 0.35 and
    E B_99.999 = 35.22 +- 0.35 (ROADMAP open item 1).

    The formula lives here only: ``simulate._bounds`` reports this value
    next to the moments it is made of, and computes it nowhere else.
    """
    e_zeta = moment(G, 1)
    if e_zeta <= 0:
        raise DistributionError("generalized bound needs E zeta > 0")
    return moment(Phi, 1) + moment(Phi, 2) / (2.0 * e_zeta)


def backward_tail_bound(Phi, H: RenewalFunction, t: float, x) -> np.ndarray | float:
    """Upper bound on ``P(B_t > x)``: ``(1 - Phi(t)) + int_0^{t-x} (1 - Phi(t-s)) dH(s)``.

    ``Phi`` is any mixed CDF object with ``cdf``, ``sf`` and ``jumps``, such
    as an ``IntensityCdf``; only its ``sf`` is read.  The Stieltjes sum
    evaluates the (increasing) integrand at the right edge of each cell, so
    the value dominates the exact integral; atoms of H are taken at their
    exact node locations.  Returns 0 for x > t (the backward time never
    exceeds t) and clips at 1.

    With ``H`` the renewal function of zeta, the value is the exact tail
    where phi = Q, but it is not a proven bound where phi < Q: the coupling
    bounds the process's renewal measure by ``1 + H`` only in total, not
    against the increasing integrand.  It fails on i.i.d. intervals near 1
    or 1.9 with Q's mass near 1: at t = 3.5 and x = 0.55 it gives 0.4966
    where the tail is 0.87 (ROADMAP open item 1).
    """
    if t < 0 or t > H.horizon + 1e-9 * max(1.0, H.horizon):
        raise GridError("query time outside the renewal-function horizon")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise GridError("x must be nonnegative")

    h = H.step
    kmax = int(min(math.floor(t / h + 1e-9), H.atoms.size - 1))
    s_nodes = np.arange(kmax + 1) * h
    sf_at = np.asarray(Phi.sf(t - s_nodes), dtype=float)
    w_atom = np.concatenate(([0.0], np.cumsum(H.atoms[: kmax + 1] * sf_at)))
    w_cell = np.concatenate(([0.0], np.cumsum(H.cells[: kmax + 1] * sf_at)))

    c = t - x  # upper integration limit per query
    node_cnt = np.clip(np.floor(c / h + 1e-9).astype(np.int64), -1, kmax)
    out = np.full(x.shape, float(Phi.sf(t)))
    valid = c >= 0
    out[~valid] = 0.0
    out[valid] += w_atom[node_cnt[valid] + 1] + w_cell[node_cnt[valid] + 1]

    # boundary cell containing c, evaluated at s = c (upper evaluation)
    frac = valid & (node_cnt + 1 <= kmax) & (c > node_cnt * h + 1e-15)
    if np.any(frac):
        j = node_cnt[frac] + 1
        out[frac] += H.cells[j] * np.asarray(Phi.sf(x[frac]), dtype=float)

    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if scalar else out

