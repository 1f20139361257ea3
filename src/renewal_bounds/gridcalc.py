"""Grid-based distribution arithmetic and the overshoot bounds.

Distributions live on a uniform lattice ``0, h, ..., N h``.  Each carries
its CDF values at the nodes plus explicit atom bookkeeping: atoms are
snapped to their nearest node and kept separate from the continuous cell
masses, so that convolutions treat point masses exactly (deterministic
inputs convolve to exact deterministic outputs) while continuous mass uses
midpoint assignment (cell masses sit at cell midpoints; products land on
nodes and are split evenly between the adjacent cells, which keeps the mean
placement unbiased).

On top of the convolution sit the renewal function ``H = sum_n G^{*n}``,
stochastic-ordering checks, the classical overshoot bound
``E xi^2 / E xi``, its generalized form ``E eta + E eta^2 / (2 E zeta)``,
and the pointwise tail bound
``P(B_t > x) <= (1 - Phi(t)) + integral_0^{t-x} (1 - Phi(t-s)) dH(s)``.
H is not summed power by power: it is solved node by node from the
discretized renewal equation ``H = G + G * H``, which the atom/cell
convolution makes lower-triangular, so on the lattice it is exact up to
rounding (reported as ``equation_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DistributionError, GridError
from .hazard import IntensityCdf, moment

__all__ = [
    "GridDistribution",
    "RenewalFunction",
    "OrderingResult",
    "discretize",
    "convolve",
    "convolution_power",
    "renewal_function",
    "ordering_check",
    "lorden_classical_bound",
    "generalized_bound",
    "backward_tail_bound",
]

ORDERING_TOL = 1e-9
TRUNCATION_TOL = 1e-6


@dataclass(frozen=True)
class GridDistribution:
    """CDF sampled on ``0, h, ..., N h`` with explicit node atoms.

    ``snap_error`` is the farthest any atom was moved to reach its node;
    ``truncation_residual`` is the mass beyond the last node that the
    values leave out.
    """

    step: float
    values: np.ndarray
    atom_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    atom_mass: np.ndarray = field(default_factory=lambda: np.empty(0))
    snap_error: float = 0.0
    truncation_residual: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "atom_idx", np.asarray(self.atom_idx, dtype=np.int64))
        object.__setattr__(self, "atom_mass", np.asarray(self.atom_mass, dtype=float))
        if self.step <= 0:
            raise GridError("grid step must be positive")
        if values.ndim != 1 or values.size < 2:
            raise GridError("grid values must be a 1-D array with at least 2 nodes")
        if np.any(values < -1e-12) or np.any(values > 1 + 1e-12):
            raise GridError("grid values must lie in [0, 1]")
        if np.any(np.diff(values) < -1e-12):
            raise GridError("grid values must be nondecreasing")

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def horizon(self) -> float:
        return (self.values.size - 1) * self.step

    def grid(self) -> np.ndarray:
        return np.arange(self.values.size) * self.step

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (node atom mass, cell mass) decomposition.

        Cell ``j`` holds the continuous mass of ``((j-1)h, jh]``; any mass at
        node 0 is treated as atomic (mass exactly at the origin).
        """
        n = self.values.size
        atoms = np.zeros(n)
        if self.atom_idx.size:
            np.add.at(atoms, self.atom_idx, self.atom_mass)
        cells = np.zeros(n)
        cells[1:] = np.diff(self.values) - atoms[1:]
        atoms[0] = self.values[0]  # mass sitting exactly at the origin is atomic
        np.clip(cells, 0.0, None, out=cells)
        return atoms, cells


def discretize(
    F,
    h: float,
    s_max: float,
    *,
    allow_truncation: bool = False,
) -> GridDistribution:
    """Sample a mixed CDF on the lattice, snapping atoms to nearest nodes.

    ``F`` is any object with ``cdf`` and ``sf`` evaluators and a ``jumps``
    list of ``(location, mass)`` pairs, such as an ``IntensityCdf``.
    Rejects horizons that truncate more than ``1e-6`` of the mass unless
    ``allow_truncation`` is set; the truncated mass ``F.sf(N h)`` is kept
    in ``truncation_residual``.  Node values are exact pointwise
    evaluations of the snapped distribution, so the interpolation error
    between nodes is bounded by the local increment of F.
    """
    if h <= 0 or s_max < h:
        raise GridError("need h > 0 and s_max >= h")
    n = int(math.ceil(s_max / h - 1e-12))
    grid = np.arange(n + 1) * h

    tail = float(F.sf(n * h))
    if tail > TRUNCATION_TOL and not allow_truncation:
        raise GridError(
            f"horizon {s_max:g} truncates {tail:.3e} of the mass; "
            "enlarge s_max or pass allow_truncation=True"
        )

    jumps = [(a, p) for a, p in F.jumps if a <= n * h + 0.5 * h]
    locs = np.array([a for a, _ in jumps])
    masses = np.array([p for _, p in jumps])

    values = np.asarray(F.cdf(grid), dtype=float).copy()
    snap_err = 0.0
    if locs.size:
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        values -= cum[np.searchsorted(locs, grid, side="right")]
        idx = np.clip(np.round(locs / h).astype(np.int64), 0, n)
        snap_err = float(np.max(np.abs(locs - idx * h)))
        add = np.zeros(n + 1)
        np.add.at(add, idx, masses)
        values += np.cumsum(add)
    else:
        idx = np.empty(0, dtype=np.int64)

    np.clip(values, 0.0, 1.0, out=values)
    np.maximum.accumulate(values, out=values)
    return GridDistribution(h, values, idx, masses, snap_err, tail)


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
    if A.values.size != B.values.size:
        raise GridError("convolve requires identical grid lengths")
    n = A.values.size - 1
    aA, cA = A.masses()
    aB, cB = B.masses()
    atoms, cells = _conv_masses(aA, cA, aB, cB, n)
    values = np.cumsum(atoms + cells)
    np.clip(values, 0.0, 1.0, out=values)
    np.maximum.accumulate(values, out=values)
    residual = float(A.values[-1] * B.values[-1] - values[-1])
    nz = np.nonzero(atoms > 0)[0]
    return GridDistribution(
        A.step,
        values,
        nz,
        atoms[nz],
        max(A.snap_error, B.snap_error),
        max(residual, 0.0),
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
class RenewalFunction:
    """Renewal function ``H(s) = sum_{n>=1} G^{*n}(s)`` on a lattice.

    H is the solution of the discretized renewal equation ``H = G + G * H``
    (the convolution of :func:`convolve`), found by forward substitution;
    ``equation_residual`` is that equation's largest nodal residual.
    ``node_mass``/``cell_mass`` keep the Stieltjes increments of H in the
    same atom/cell decomposition used by the convolution, so downstream
    integrals against ``dH`` treat atoms exactly.  ``n_max`` is always 0:
    no convolution power is formed.
    """

    step: float
    values: np.ndarray
    node_mass: np.ndarray
    cell_mass: np.ndarray
    n_max: int
    equation_residual: float

    @property
    def horizon(self) -> float:
        return (self.values.size - 1) * self.step

    def grid(self) -> np.ndarray:
        return np.arange(self.values.size) * self.step


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
    """
    if G.values[0] >= 1.0:
        raise GridError("renewal function diverges: G has atom mass >= 1 at 0")
    n = G.values.size - 1
    aG, cG = G.masses()
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
    return RenewalFunction(G.step, values, h_atoms, h_cells, 0, residual)


class OrderingResult(NamedTuple):
    max_violation: float
    passed: bool


def ordering_check(
    G: GridDistribution, F: GridDistribution, Phi: GridDistribution
) -> OrderingResult:
    """Verify the stochastic ordering ``G >= F >= Phi`` pointwise on the grid.

    Returns the largest violation ``max(F - G, Phi - F)`` over all nodes;
    the check passes when it does not exceed 1e-9.
    """
    if not (G.step == F.step == Phi.step) or not (
        G.values.size == F.values.size == Phi.values.size
    ):
        raise GridError("ordering check requires a common grid")
    v = max(
        float(np.max(F.values - G.values)),
        float(np.max(Phi.values - F.values)),
    )
    return OrderingResult(v, v <= ORDERING_TOL)


def lorden_classical_bound(F: IntensityCdf) -> float:
    """Classical overshoot bound ``E xi^2 / E xi`` for i.i.d. renewals."""
    m1 = moment(F, 1)
    if m1 <= 0:
        raise DistributionError("classical bound needs a positive mean interval")
    return moment(F, 2) / m1


def generalized_bound(Phi: IntensityCdf, G: IntensityCdf) -> float:
    """Envelope overshoot bound ``E eta + E eta^2 / (2 E zeta)``.

    ``eta ~ Phi`` is the slow envelope (hazard phi) and ``zeta ~ G`` the
    fast one (hazard Q).  The value is meant to bound both the backward and
    the forward renewal time of the generalized process, uniformly in t, but
    that is not proven for every law that passes the assumption checks, and
    it fails on some.  In the i.i.d. case it reads ``E xi + E xi^2 / (2 E
    xi)``, below Lorden's ``E xi^2 / E xi`` exactly when the squared
    coefficient of variation of ``xi`` exceeds 1.  A two-point i.i.d. law
    (mass 0.99 at 1, the rest at 100) passes every check and gets a bound
    of 26.30, while Monte Carlo gives E W_50 = 28.05 and E B_99.999 = 35.22
    (ROADMAP open item 1).

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
    """
    if t < 0 or t > H.horizon + 1e-9 * max(1.0, H.horizon):
        raise GridError("query time outside the renewal-function horizon")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise GridError("x must be nonnegative")

    h = H.step
    kmax = int(min(math.floor(t / h + 1e-9), H.values.size - 1))
    s_nodes = np.arange(kmax + 1) * h
    sf_at = np.asarray(Phi.sf(t - s_nodes), dtype=float)
    w_atom = np.concatenate(([0.0], np.cumsum(H.node_mass[: kmax + 1] * sf_at)))
    w_cell = np.concatenate(([0.0], np.cumsum(H.cell_mass[: kmax + 1] * sf_at)))

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
        out[frac] += H.cell_mass[j] * np.asarray(Phi.sf(x[frac]), dtype=float)

    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if scalar else out

