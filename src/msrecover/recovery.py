"""Recovery engines: piecewise constant, energy-minimizing multiscale, and the
optimal-constant eigen estimator.

The multiscale basis solves, for each patch i, the energy minimization over
boundary-vanishing fields subject to unit measurement on patch i and zero on
all others.  Its closed form is a coupling-matrix-weighted combination of the
operator solves against the measurement densities.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .elliptic import StiffnessOperator, energy_inner, kronecker_sum, q1_spectrum
from .errors import SolverError
from .grid import (CoarsePartition, GridFunction, SubsampleSpec, cell_center_values,
                   check_same_grid, lp_norm, midpoint_lp)
from .measurements import (MeasurementOperator, MeasurementVector, build_functionals,
                           contract, measure_all)

__all__ = [
    "ThetaMatrix",
    "BasisSet",
    "RecoveryReport",
    "pc_recover",
    "build_theta",
    "multiscale_basis",
    "ms_recover",
    "constrained_minimizer",
    "recover",
    "recovery_error_report",
    "sharp_constant_estimate",
]


def pc_recover(data: MeasurementVector, part: CoarsePartition) -> GridFunction:
    """Piecewise-constant recovery: the measured value on each patch.

    Nodes shared by several patches take the average of the adjacent patch
    values (a measure-zero convention, fixed here for reproducibility).
    """
    if len(data.values) != part.num_patches:
        raise ValueError(f"data and patch index sets do not match: {len(data.values)} values, "
                         f"{part.num_patches} patches")
    spec, q = part.spec, part.cells_per_patch
    node = np.arange(spec.n + 1)[:, None]
    on = (q * np.arange(part.m) <= node) & (node <= q * np.arange(1, part.m + 1))
    average = on / on.sum(axis=1, keepdims=True)  # per axis, a face node averages two
    return GridFunction(spec, contract(data.values.reshape((part.m,) * spec.dim),
                                       [average] * spec.dim))


class ThetaMatrix:
    """Coupling matrix of measurement functionals through the operator inverse.

    Entry (i, j) pairs functional j with the operator solve against functional
    i; symmetrized before factoring.  Also retains the solves, which span the
    recovery space.
    """

    __slots__ = ("matrix", "cho", "solves", "spec")

    def __init__(self, matrix, cho, solves, spec):
        self.matrix = matrix
        self.cho = cho
        self.solves = solves
        self.spec = spec

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_theta(functionals: MeasurementOperator, op: StiffnessOperator) -> ThetaMatrix:
    """Solve the operator against every measurement density and pair the results.

    One solve per functional; the load of a functional is its node-weight
    vector restricted to interior nodes (test functions vanish on the
    boundary): the product of its factor rows' interior columns, in axis order.
    Raises ``SolverError`` if the coupling matrix is not numerically positive
    definite, e.g. for a repeated or nearly linearly dependent functional.
    """
    check_same_grid("operator", op.spec, "functional", functionals.spec)
    spec = op.spec
    nfun = len(functionals)
    solves = np.empty((nfun, spec.num_nodes))
    interior = [w[:, 1:-1] for w in functionals.factors]
    for j, multi in enumerate(np.ndindex(*(len(w) for w in interior))):
        load = functools.reduce(np.multiply.outer, [w[k] for w, k in zip(interior, multi)])
        solves[j] = op.embed_interior(op.solve_interior(load.reshape(-1)))

    theta = contract(solves.reshape(nfun, *spec.node_shape), functionals.factors).reshape(nfun, -1)
    theta = 0.5 * (theta + theta.T)
    from scipy.linalg import cho_factor  # loaded by the first Cholesky, never by pc runs

    try:
        cho = cho_factor(theta, lower=True)
        # a pivot that rounding left positive: its square is at the rounding
        # level of the largest diagonal entry
        if np.diag(cho[0]).min() ** 2 <= nfun * np.finfo(float).eps * np.diag(theta).max():
            raise np.linalg.LinAlgError("pivot at the rounding level")
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "coupling matrix is not numerically positive definite "
            "(repeated or nearly linearly dependent functionals)"
        ) from exc
    return ThetaMatrix(theta, cho, solves, spec)


class BasisSet:
    """Recovery basis fields, one per patch, stacked row-wise."""

    __slots__ = ("spec", "stack")

    def __init__(self, spec, stack):
        self.spec = spec
        self.stack = stack

    def __len__(self):
        return self.stack.shape[0]

    def __getitem__(self, i: int) -> GridFunction:
        return GridFunction(self.spec, self.stack[i].reshape(self.spec.node_shape))


def multiscale_basis(theta: ThetaMatrix) -> BasisSet:
    """Combine the operator solves through the inverse coupling matrix.

    The result is biorthogonal to the measurement functionals and each field
    vanishes on the boundary.
    """
    from scipy.linalg import cho_solve  # loaded with the Cholesky, never by pc runs

    inv = cho_solve(theta.cho, np.eye(theta.size))
    stack = inv @ theta.solves
    return BasisSet(theta.spec, stack)


def ms_recover(data: MeasurementVector, basis: BasisSet) -> GridFunction:
    """Expand the measured data in the recovery basis."""
    if len(data.values) != len(basis):
        raise ValueError("data and basis index sets do not match")
    # elementwise sums, not a BLAS product, so no bit depends on the BLAS thread count
    vals = np.einsum("i,ij->j", data.values, basis.stack)
    return GridFunction(basis.spec, vals.reshape(basis.spec.node_shape))


def constrained_minimizer(op: StiffnessOperator, functionals: MeasurementOperator,
                          data: MeasurementVector) -> GridFunction:
    """The least-energy field of ``op``, zero on the boundary, whose measurements
    under ``functionals`` are ``data``.

    Computed as the data's expansion in the multiscale basis: the operator solves
    against the functionals, combined through the inverse coupling matrix.
    """
    return ms_recover(data, multiscale_basis(build_theta(functionals, op)))


def recover(u: GridFunction, sub: SubsampleSpec,
            op: StiffnessOperator | None = None) -> GridFunction:
    """Measure ``u`` with the functionals of ``sub`` and recover it from the data:
    piecewise constant without ``op``, else the constrained minimizer of ``op``.
    """
    functionals = build_functionals(sub)
    data = measure_all(u, functionals)
    if op is None:
        return pc_recover(data, sub.partition)
    return constrained_minimizer(op, functionals, data)


@dataclass
class RecoveryReport:
    l2_error: float
    energy_error: float
    params: dict
    per_patch_l2: list = field(default_factory=list)
    energy_stable: bool | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def recovery_error_report(u: GridFunction, recovered: GridFunction, params: dict,
                          a: StiffnessOperator,
                          partition: CoarsePartition | None = None) -> RecoveryReport:
    """Error summary of a recovery against the ground truth on the same grid.

    The operator ``a`` gives the energy-norm error; for multiscale recoveries
    the report flags whether the energy error stays below the energy norm of u
    itself.  Piecewise-constant recoveries carry no stability flag: no such
    bound holds for them.
    """
    diff = u - recovered
    l2 = lp_norm(diff, 2.0)
    energy = float(np.sqrt(max(energy_inner(diff, diff, a), 0.0)))
    stable = None
    if params.get("basis", "ms") != "pc":
        u_energy = float(np.sqrt(max(energy_inner(u, u, a), 0.0)))
        stable = energy <= u_energy * (1.0 + 1e-10)
    per_patch = []
    if partition is not None:
        check_same_grid("partition", partition.spec, "field", u.spec)
        # one row of cells per patch: (m, q)^d transposed to (m^d, q^d), in patch order
        m, q, dim = partition.m, partition.cells_per_patch, u.spec.dim
        cells = cell_center_values(diff).reshape((m, q) * dim)
        cells = cells.transpose([*range(0, 2 * dim, 2), *range(1, 2 * dim, 2)]).reshape(m**dim, -1)
        per_patch = midpoint_lp(cells, 2.0, u.spec.cell_volume, axis=1).tolist()
    return RecoveryReport(l2, energy, dict(params), per_patch, stable)


def sharp_constant_estimate(sub: SubsampleSpec) -> float:
    """Optimal constant of the measured-average inequality on one patch of ``sub``: patch
    0's, of q = n/m cells, as the patches are congruent and each set is centred in its own.

    Maximizes  ||u - measured(u)||_L2 / ||grad u||_L2  over discrete fields with free
    boundary values and unit coefficient.  The tensor DCT-I basis diagonalizes the natural
    stiffness and the midpoint mass (fast diagonalization) and the centering adds a
    rank-one term, so the constant squared is the largest root of a secular equation.
    """
    q, dim = sub.partition.cells_per_patch, sub.partition.spec.dim
    outer = functools.partial(functools.reduce, np.multiply.outer)  # of one array per axis
    theta, consistent, midpoint, c, cos = q1_spectrum(q)
    kappa = kronecker_sum(theta, consistent, dim, np.multiply.outer)
    mu = outer([midpoint] * dim)
    # g = Q^T w for the L-orthonormal tensor DCT-I basis Q; the functional's node
    # weights are a product of axis factors, so g is the product of their cosine sums
    k = np.arange(q + 1)[:, None]
    # (elementwise sums over each row's support, so no bit depends on the BLAS thread count)
    rows = [w[0, :q + 1] for w in build_functionals(sub).factors]  # patch 0's nodes
    g = outer([c * np.sum(cos[k * j % (2 * q)] * row[j], axis=1)
               for row, j in zip(rows, map(np.flatnonzero, rows))])
    # k = 0 is the constants, which the quotient leaves out
    kappa, mu, g = (v.reshape(-1)[1:] for v in (kappa, mu, g))
    return float(np.sqrt(_rank_one_top(mu / kappa, g / np.sqrt(kappa))))


def _rank_one_top(delta, z) -> float:
    """Largest eigenvalue of diag(delta) + z z^T, for delta >= 0.

    Modes with z_k = 0 keep their delta_k.  The others peak at top + t, t > 0,
    where sum z_k^2 / (top - delta_k + t) = phi(t) = 1: Newton on the increasing,
    concave 1/phi climbs to it from a lower bound and never divides by zero.
    """
    zz = z * z
    on = zz > np.finfo(float).tiny  # a square below the normal range counts as 0
    off = float(delta[~on].max(initial=0.0))
    if not on.any():
        return off
    zz, gap = zz[on], delta[on].max() - delta[on]
    # lower bounds: the poles at the top, and the Rayleigh quotient of z
    t = max(zz[gap == 0.0].sum(), zz.sum() - np.sum(gap * zz) / zz.sum())
    while True:
        r = zz / (gap + t)
        step = r.sum() * (r.sum() - 1.0) / np.sum(r / (gap + t))
        if not step > np.finfo(float).eps * t:
            return max(float(delta[on].max() + t), off)
        t += step

