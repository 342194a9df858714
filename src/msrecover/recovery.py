"""Recovery engines: piecewise constant, energy-minimizing multiscale, and the
optimal-constant eigen estimator.

The multiscale basis solves, for each patch i, the energy minimization over
boundary-vanishing fields subject to unit measurement on patch i and zero on
all others.  Its closed form is a coupling-matrix-weighted combination of the
operator solves against the measurement densities.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .elliptic import StiffnessOperator, energy_inner
from .errors import SolverError
from .grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec, _BINARY_MAGIC,
                   cell_center_values, lp_norm, scatter_cells_to_nodes)
from .measurements import MeasurementVector, build_functionals

__all__ = [
    "ThetaMatrix",
    "BasisSet",
    "RecoveryReport",
    "pc_recover",
    "build_theta",
    "multiscale_basis",
    "ms_recover",
    "recovery_error_report",
    "sharp_constant_estimate",
    "save_basis",
    "load_basis",
]


def pc_recover(data: MeasurementVector, part: CoarsePartition) -> GridFunction:
    """Piecewise-constant recovery: the measured value on each patch.

    Nodes shared by several patches take the average of the adjacent patch
    values (a measure-zero convention, fixed here for reproducibility).
    """
    spec = part.spec
    acc = np.zeros(spec.node_shape)
    cnt = np.zeros(spec.node_shape)
    for i in range(part.num_patches):
        sl = part.patch_nodes(i)
        acc[sl] += data.values[i]
        cnt[sl] += 1.0
    return GridFunction(spec, acc / cnt)


class ThetaMatrix:
    """Coupling matrix of measurement functionals through the operator inverse.

    Entry (i, j) pairs functional j with the operator solve against functional
    i; symmetrized before factoring.  Also retains the solves, which span the
    recovery space.
    """

    __slots__ = ("matrix", "cho", "solves", "spec", "provenance")

    def __init__(self, matrix, cho, solves, spec, provenance):
        self.matrix = matrix
        self.cho = cho
        self.solves = solves
        self.spec = spec
        self.provenance = provenance

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def build_theta(functionals: list, op: StiffnessOperator, tol: float = 1e-10) -> ThetaMatrix:
    """Solve the operator against every measurement density and pair the results.

    One solve per functional; the load of a functional is its node-weight
    vector restricted to interior nodes (test functions vanish on the
    boundary).  Cholesky failure signals that the solver tolerance was too
    loose for the measurement geometry.
    """
    spec = op.spec
    nfun = len(functionals)
    solves = np.empty((nfun, spec.num_nodes))
    for j, phi in enumerate(functionals):
        b = phi.dense_weights()
        x = op.solve_interior(b[op.interior_indices], tol)
        solves[j] = op.embed_interior(x)

    theta = np.empty((nfun, nfun))
    for j, phi in enumerate(functionals):
        theta[:, j] = solves[:, phi.node_indices] @ phi.node_weights
    theta = 0.5 * (theta + theta.T)
    try:
        cho = cho_factor(theta, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "coupling matrix is not positive definite; solver tolerance too loose"
        ) from exc
    prov = {
        "kind": functionals[0].kind,
        "num_functionals": nfun,
        "a_min": op.coefficient.a_min,
        "a_max": op.coefficient.a_max,
        "solver_tol": tol,
    }
    return ThetaMatrix(theta, cho, solves, spec, prov)


class BasisSet:
    """Recovery basis fields, one per patch, stacked row-wise."""

    __slots__ = ("spec", "stack", "provenance")

    def __init__(self, spec, stack, provenance):
        self.spec = spec
        self.stack = stack
        self.provenance = provenance

    def __len__(self):
        return self.stack.shape[0]

    def __getitem__(self, i: int) -> GridFunction:
        return GridFunction(self.spec, self.stack[i].reshape(self.spec.node_shape))


def multiscale_basis(theta: ThetaMatrix) -> BasisSet:
    """Combine the operator solves through the inverse coupling matrix.

    The result is biorthogonal to the measurement functionals and each field
    vanishes on the boundary.
    """
    inv = cho_solve(theta.cho, np.eye(theta.size))
    stack = inv @ theta.solves
    return BasisSet(theta.spec, stack, dict(theta.provenance))


def ms_recover(data: MeasurementVector, basis: BasisSet) -> GridFunction:
    """Expand the measured data in the recovery basis."""
    if len(data.values) != len(basis):
        raise ValueError("data and basis index sets do not match")
    vals = data.values @ basis.stack
    return GridFunction(basis.spec, vals.reshape(basis.spec.node_shape))


@dataclass
class RecoveryReport:
    l2_error: float
    energy_error: float
    params: dict
    per_patch_l2: list = field(default_factory=list)
    energy_stable: bool | None = None

    def to_json(self) -> str:
        payload = {
            "l2_error": self.l2_error,
            "energy_error": self.energy_error,
            "params": self.params,
            "per_patch_l2": self.per_patch_l2,
            "energy_stable": self.energy_stable,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def recovery_error_report(u: GridFunction, recovered: GridFunction, params: dict,
                          a: StiffnessOperator,
                          partition: CoarsePartition | None = None) -> RecoveryReport:
    """Error summary of a recovery against the ground truth on the same grid.

    The operator ``a`` gives the energy-norm error; for multiscale recoveries
    the report flags whether the energy error stays below the energy norm of u
    itself.  Piecewise-constant recoveries carry no stability flag: no such
    bound holds for them.
    """
    if u.spec != recovered.spec:
        raise ValueError("fields live on different grids")
    diff = u - recovered
    l2 = lp_norm(diff, 2.0)
    energy = float(np.sqrt(max(energy_inner(diff, diff, a), 0.0)))
    stable = None
    if params.get("basis", "ms") != "pc":
        u_energy = float(np.sqrt(max(energy_inner(u, u, a), 0.0)))
        stable = energy <= u_energy * (1.0 + 1e-10)
    per_patch = []
    if partition is not None:
        per_patch = [lp_norm(diff, 2.0, region=partition.patch_cells(i))
                     for i in range(partition.num_patches)]
    return RecoveryReport(l2, energy, dict(params), per_patch, stable)


def sharp_constant_estimate(part: CoarsePartition, sub: SubsampleSpec,
                            op: StiffnessOperator, tol: float = 1e-8,
                            maxiter: int = 500) -> float:
    """Optimal constant of the measured-average inequality on a single patch.

    Maximizes  ||u - measured(u)||_L2 / ||grad u||_L2  over discrete fields
    with free boundary values, via power iteration on the generalized pair
    (centered mass form, natural stiffness).  The stiffness null space (the
    constants) never enters: centering annihilates them in the numerator and
    the natural-form solve is pinned.  Requires unit coefficient.
    """
    if part.m != 1:
        raise ValueError("the constant estimate runs on a single-patch configuration")
    if abs(op.coefficient.a_min - 1.0) > 1e-14 or abs(op.coefficient.a_max - 1.0) > 1e-14:
        raise ValueError("the constant estimate needs unit coefficient")

    spec = part.spec
    phi = build_functionals(sub)[0]
    w = phi.dense_weights()
    vol = spec.cell_volume
    ones = np.ones(spec.num_nodes)

    def numerator_apply(v):
        centered = v - np.dot(w, v)
        cc = cell_center_values(GridFunction(spec, centered.reshape(spec.node_shape)))
        mz = scatter_cells_to_nodes(spec, cc * vol).reshape(-1)
        return mz - w * mz.sum()

    def rayleigh(v):
        num = float(np.dot(v, numerator_apply(v)))
        den = float(np.dot(v, op.full_matrix @ v))
        return num / den

    # a generic start: the maximizer may live in any symmetry sector of the
    # patch, so a deterministic seeded random vector is used rather than a
    # structured field that could be orthogonal to it
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(spec.num_nodes)
    v -= v.mean()
    v /= np.linalg.norm(v)

    mu = rayleigh(v)
    settled = 0
    for _ in range(maxiter):
        b = numerator_apply(v)
        b -= b.mean()  # remove floating-point drift along the null space
        y = op.solve_neumann(b)
        y -= y.mean()
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            raise SolverError("power iteration collapsed to the null space")
        v = y / nrm
        mu_new = rayleigh(v)
        settled = settled + 1 if abs(mu_new - mu) <= tol * abs(mu_new) else 0
        mu = mu_new
        if settled >= 3:
            return float(np.sqrt(mu))
    raise SolverError(f"power iteration did not converge in {maxiter} steps")


def save_basis(basis: BasisSet, container_path, manifest_path) -> None:
    """One binary container of grid-function blobs plus a JSON offset manifest."""
    spec = basis.spec
    offsets = {}
    with open(container_path, "wb") as fh:
        for i in range(len(basis)):
            offsets[str(i)] = fh.tell()
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<qq", spec.dim, spec.n))
            fh.write(np.ascontiguousarray(basis.stack[i]).astype("<f8").tobytes())
    manifest = {
        "dim": spec.dim,
        "n": spec.n,
        "count": len(basis),
        "provenance": basis.provenance,
        "offsets": offsets,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def load_basis(container_path, manifest_path) -> BasisSet:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    spec = DomainSpec(manifest["dim"], manifest["n"])
    count = manifest["count"]
    stack = np.empty((count, spec.num_nodes))
    blob = 4 + 16 + 8 * spec.num_nodes
    with open(container_path, "rb") as fh:
        for i in range(count):
            fh.seek(manifest["offsets"][str(i)])
            raw = fh.read(blob)
            # a short read or a header for another grid would misplace every value
            if (len(raw) != blob or raw[:4] != _BINARY_MAGIC
                    or struct.unpack("<qq", raw[4:20]) != (spec.dim, spec.n)):
                raise ValueError(f"corrupt basis container: blob {i}")
            stack[i] = np.frombuffer(raw[20:], dtype="<f8")
    return BasisSet(spec, stack, manifest.get("provenance", {}))
