"""The measurement operator: one functional per subsampled set, and measuring by it.

A measurement functional is a unit-mass measure on a subsampled set, described
by its extent on every axis: the set averages over width h on each thin axis
(density 1/h per axis) and takes the patch centre's coordinate on each flat one.
Applied to a grid function it returns the measured average.  Its node weights,
consistent with the midpoint-rule inner product, are a tensor product of per-axis
factors (every subsampled set is a product of intervals), so measuring u
integrates u against the functional's grid density by one contraction per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, GridFunction, SubsampleSpec, check_same_grid

__all__ = [
    "MeasurementFunctional",
    "MeasurementOperator",
    "MeasurementVector",
    "build_functionals",
    "contract",
    "measure",
    "measure_all",
]


def contract(values: np.ndarray, matrices) -> np.ndarray:
    """Apply the matrix M_a (K_a x J_a) to trailing axis a of ``values``, the last first.

    Row k sums over its band of nonzero columns only (every band padded to the widest),
    gathered band offset first, by np.einsum: no bit depends on the BLAS thread count.
    """
    d, axes = len(matrices), "xyz"[:len(matrices)]  # a grid has at most three axes
    for a in reversed(range(d)):
        if matrices[a].shape[1] != values.shape[a - d]:
            raise ValueError(f"axis {a}: the matrix has {matrices[a].shape[1]} columns, "
                             f"the values {values.shape[a - d]} entries")
        nz = matrices[a] != 0
        first, last = nz.argmax(axis=1), nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
        width = np.max(last - first, where=nz.any(axis=1), initial=0) + 1
        cols = np.minimum(first, nz.shape[1] - width) + np.arange(width)[:, None]  # (w, K)
        before, after = axes[:a] + "tk" + axes[a + 1:], axes[:a] + "k" + axes[a + 1:]
        values = np.einsum(f"tk,...{before}->...{after}", np.take_along_axis(
            matrices[a].T, cols, axis=0), np.take(values, cols, axis=a - d))
    return values


class MeasurementFunctional:
    """One functional: a row of each axis factor, and the support of their product
    (flat row-major ``node_indices``, with ``node_weights``)."""

    __slots__ = ("rows", "node_indices", "node_weights")

    def __init__(self, rows):
        self.rows = rows
        self.node_indices, self.node_weights = np.zeros(1, dtype=np.intp), np.ones(1)
        for row in rows:
            nz = np.flatnonzero(row)
            self.node_indices = np.add.outer(self.node_indices * len(row), nz).reshape(-1)
            self.node_weights = np.multiply.outer(self.node_weights, row[nz]).reshape(-1)


@dataclass(frozen=True, eq=False)
class MeasurementOperator:
    """Measurement functionals as one (m_a, n+1) node-weight matrix per axis: functional
    i, of row-major multi-index (k_0, ..., k_{d-1}), weighs the nodes by
    factors[0][k_0] (x) ... (x) factors[d-1][k_{d-1}]; ``len``, iteration and ``[i]``
    give the functionals in that order."""

    factors: list

    @property
    def spec(self) -> DomainSpec:  # one axis per factor, of n + 1 nodes
        return DomainSpec(len(self.factors), self.factors[0].shape[1] - 1)

    def __len__(self) -> int:
        return math.prod(len(w) for w in self.factors)

    def __getitem__(self, i: int) -> MeasurementFunctional:
        if not -len(self) <= i < len(self):
            raise IndexError(f"functional {i} out of range for {len(self)} functionals")
        multi = np.unravel_index(i % len(self), [len(w) for w in self.factors])
        return MeasurementFunctional([w[k] for w, k in zip(self.factors, multi)])


def _axis_factors(sub: SubsampleSpec, axis: int) -> np.ndarray:
    """(m, n+1) node weights of the patch coordinates k = 0..m-1 along ``axis``.

    A flat interval is a point value, interpolated between its two nearest
    nodes (the hat functions there); any other interval lies on grid lines,
    and its row averages the interval's cells by the trapezoid rule.
    """
    n = sub.partition.spec.n
    node = np.arange(n + 1)
    lo, hi = (x[:, None] * n for x in sub.axis_intervals(axis))  # in cells
    if sub.extents[axis] == "flat":
        lo = np.where(np.abs(lo - np.rint(lo)) < 1e-12, np.rint(lo), lo)  # on a node: it alone
        return np.maximum(0.0, 1.0 - np.abs(lo - node))
    lo, hi = np.rint(lo), np.rint(hi)
    inside, ends = (lo <= node) & (node <= hi), (node == lo) | (node == hi)
    return (inside - 0.5 * ends) / (hi - lo)


def build_functionals(sub: SubsampleSpec) -> MeasurementOperator:
    """The measurement operator of ``sub``: one functional per patch, in patch index order."""
    return MeasurementOperator([_axis_factors(sub, a) for a in range(sub.partition.spec.dim)])


def measure(u: GridFunction, phi: MeasurementFunctional) -> float:
    """Measured average of u under one functional: ``measure_all`` with its rows alone."""
    return measure_all(u, MeasurementOperator([row[None] for row in phi.rows])).values.item()


@dataclass(frozen=True)
class MeasurementVector:
    """Measured averages in patch index order."""

    values: np.ndarray


def measure_all(u: GridFunction, functionals: MeasurementOperator) -> MeasurementVector:
    """Measured averages of u under each functional."""
    check_same_grid("field", u.spec, "functional", functionals.spec)
    return MeasurementVector(contract(u.values, functionals.factors).reshape(-1))
