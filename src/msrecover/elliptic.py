"""Discrete divergence-form elliptic operator on the fine grid.

Multilinear (linear/bilinear/trilinear) elements with a cellwise-constant
coefficient a, homogeneous Dirichlet boundary.  The discrete energy form is the
exact element bilinear form; loads and the scalar product [.,.] use the same
midpoint-rule quadrature as the grid-module norms, so Galerkin identities hold
to solver tolerance.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import cg, splu

from .errors import SolverError
from .grid import DomainSpec, GridFunction, cell_center_values, scatter_cells_to_nodes

__all__ = [
    "CoefficientField",
    "StiffnessOperator",
    "assemble",
    "solve",
    "energy_inner",
    "l2_inner",
    "load_vector",
    "constant_coefficient",
    "checkerboard_coefficient",
    "layered_coefficient",
    "lognormal_coefficient",
    "coefficient_from_csv",
]

# direct factorization cap; larger systems fall back to Jacobi-preconditioned CG
DIRECT_SOLVE_MAX_NODES = 80_000
# normwise backward-error bound a Neumann solve must meet
NEUMANN_TOL = 1e-10


class CoefficientField:
    """Strictly positive cellwise-constant coefficient."""

    __slots__ = ("spec", "values", "a_min", "a_max")

    def __init__(self, spec: DomainSpec, values):
        values = np.asarray(values, dtype=float)
        if values.shape == (spec.n**spec.dim,):
            values = values.reshape(spec.cell_shape)
        if values.shape != spec.cell_shape:
            raise ValueError(
                f"coefficient shape {values.shape} does not match cell shape {spec.cell_shape}"
            )
        a_min = float(values.min())
        a_max = float(values.max())
        if not np.isfinite(a_max) or a_min <= 0.0:
            raise ValueError("coefficient must be strictly positive and finite on every cell")
        self.spec = spec
        self.values = values
        self.a_min = a_min
        self.a_max = a_max


def constant_coefficient(spec: DomainSpec, c: float = 1.0) -> CoefficientField:
    return CoefficientField(spec, np.full(spec.cell_shape, float(c)))


def checkerboard_coefficient(spec: DomainSpec, contrast: float) -> CoefficientField:
    idx = np.indices(spec.cell_shape).sum(axis=0)
    vals = np.where(idx % 2 == 0, 1.0, float(contrast))
    return CoefficientField(spec, vals)


def layered_coefficient(spec: DomainSpec, contrast: float, axis: int = 0) -> CoefficientField:
    idx = np.indices(spec.cell_shape)[axis]
    vals = np.where(idx % 2 == 0, 1.0, float(contrast))
    return CoefficientField(spec, vals)


def lognormal_coefficient(spec: DomainSpec, sigma: float = 1.0, seed: int = 0) -> CoefficientField:
    """Seeded multiplicative noise: exp(sigma * g), g iid standard normal per cell."""
    rng = np.random.default_rng(seed)
    vals = np.exp(sigma * rng.standard_normal(spec.cell_shape))
    return CoefficientField(spec, vals)


def coefficient_from_csv(spec: DomainSpec, path) -> CoefficientField:
    """CSV rows (cell_index, value) in C cell order.

    Raises ValueError on a cell index outside 0..n^dim-1, on a repeated index
    and unless every cell is covered.
    """
    ncell = spec.n**spec.dim
    vals = np.empty(ncell)
    seen = np.zeros(ncell, dtype=bool)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "cell_index":
                continue
            i = int(row[0])
            if not 0 <= i < ncell:
                raise ValueError(f"{path}: cell index {i} outside 0..{ncell - 1}")
            if seen[i]:
                raise ValueError(f"{path}: duplicate cell index {i}")
            seen[i] = True
            vals[i] = float(row[1])
    if not seen.all():
        raise ValueError("coefficient CSV does not cover every cell")
    return CoefficientField(spec, vals)


def _reference_stiffness(dim: int) -> np.ndarray:
    """Exact unit-cell stiffness of multilinear elements (2-pt Gauss per axis)."""
    g = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    corners = list(itertools.product((0, 1), repeat=dim))
    nloc = len(corners)
    K = np.zeros((nloc, nloc))
    for qpt in itertools.product(range(2), repeat=dim):
        x = g[list(qpt)]
        wq = 0.5**dim
        dN = np.zeros((nloc, dim))
        for a, c in enumerate(corners):
            for axis in range(dim):
                term = 1.0
                for other in range(dim):
                    xo = x[other]
                    if other == axis:
                        term *= 1.0 if c[other] else -1.0
                    else:
                        term *= xo if c[other] else 1.0 - xo
                dN[a, axis] = term
        K += wq * dN @ dN.T
    return K


class StiffnessOperator:
    """Sparse SPD stiffness with Dirichlet elimination, plus the natural form.

    ``matrix`` couples interior nodes only (the solve target).  ``full_matrix``
    is the same bilinear form over all nodes (no boundary condition); it
    evaluates the energy of arbitrary nodal fields and its null space is the
    constants.
    """

    __slots__ = ("spec", "coefficient", "matrix", "full_matrix",
                 "interior_indices", "_lu", "_lu_pinned", "_norm", "_full_norm")

    def __init__(self, spec, coefficient, matrix, full_matrix, interior_indices):
        self.spec = spec
        self.coefficient = coefficient
        self.matrix = matrix
        self.full_matrix = full_matrix
        self.interior_indices = interior_indices
        self._lu = None
        self._lu_pinned = None
        self._norm = None
        self._full_norm = None

    @property
    def matrix_norm(self) -> float:
        """Infinity norm of the interior matrix (for backward-error checks)."""
        if self._norm is None:
            self._norm = _inf_norm(self.matrix)
        return self._norm

    @property
    def num_interior(self) -> int:
        return len(self.interior_indices)

    def embed_interior(self, x_int: np.ndarray) -> np.ndarray:
        full = np.zeros(self.spec.num_nodes)
        full[self.interior_indices] = x_int
        return full

    def solve_interior(self, b_int: np.ndarray, tol: float = 1e-10) -> np.ndarray:
        """Solve K x = b on interior nodes.

        Acceptance is the normwise backward error ||Kx-b|| <= tol*(||b|| +
        ||K|| ||x||): a plain relative residual of 1e-10 is not representable
        in double precision once the coefficient contrast drives the condition
        number past ~1e8.  The direct solve meets it without refinement even at
        contrast 1e12 (tests/test_elliptic.py pins this).
        """
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        bnorm = float(np.linalg.norm(b_int))
        if bnorm == 0.0:
            return np.zeros_like(b_int)
        if self.num_interior <= DIRECT_SOLVE_MAX_NODES:
            if self._lu is None:
                self._lu = splu(self.matrix.tocsc())
            x = self._lu.solve(b_int)
        else:
            contrast = self.coefficient.a_max / self.coefficient.a_min
            maxiter = int(4000 * max(1.0, np.sqrt(contrast)))
            x, info = cg(self.matrix, b_int, rtol=tol * 0.1, atol=0.0,
                         maxiter=maxiter, M=diags(1.0 / self.matrix.diagonal()))
            if info != 0:
                res = np.linalg.norm(self.matrix @ x - b_int) / bnorm
                raise SolverError(
                    f"conjugate gradients did not converge in {maxiter} iterations "
                    f"(relative residual {res:.3e}, target {tol:.1e})"
                )
        ok, res = _backward_error_ok(self.matrix, self.matrix_norm, x, b_int, tol)
        if not ok:
            raise SolverError(f"solve backward error {res:.3e} exceeds tolerance {tol:.1e}")
        return x

    def solve_neumann(self, b_full: np.ndarray) -> np.ndarray:
        """Solve the natural-form system for zero-sum right-hand sides.

        The full matrix annihilates constants; pinning node 0 makes the system
        nonsingular, and for compatible b (sum zero) the pinned solution solves
        the original system exactly with x[0] = 0.  The solution must meet the
        same normwise backward-error test as ``solve_interior``, against the
        full matrix, so an incompatible b raises ``SolverError``.
        """
        if self._lu_pinned is None:
            pinned = self.full_matrix.tocsc(copy=True)
            pinned[0, 0] += 1.0  # an entry of the pattern, so no structural change
            # set before the factor: a caller that sees the factor also needs the norm
            self._full_norm = _inf_norm(self.full_matrix)
            self._lu_pinned = splu(pinned)
        x = self._lu_pinned.solve(b_full)
        ok, res = _backward_error_ok(self.full_matrix, self._full_norm, x, b_full, NEUMANN_TOL)
        if not ok:
            raise SolverError(
                f"Neumann solve backward error {res:.3e} exceeds tolerance {NEUMANN_TOL:.1e}"
            )
        return x


def _inf_norm(matrix) -> float:
    return float(np.abs(matrix).sum(axis=1).max())


def _backward_error_ok(matrix, matrix_norm: float, x, b, tol: float):
    """(||Ax-b|| <= tol*(||b|| + ||A|| ||x||), ||Ax-b||): the normwise backward-error test."""
    res = float(np.linalg.norm(matrix @ x - b))
    bound = tol * (float(np.linalg.norm(b)) + matrix_norm * float(np.linalg.norm(x)))
    return res <= bound, res


def _interior_mask(spec: DomainSpec) -> np.ndarray:
    mask = np.ones(spec.node_shape, dtype=bool)
    for axis in range(spec.dim):
        sl = [slice(None)] * spec.dim
        sl[axis] = 0
        mask[tuple(sl)] = False
        sl[axis] = -1
        mask[tuple(sl)] = False
    return mask.reshape(-1)


def assemble(spec: DomainSpec, a: CoefficientField) -> StiffnessOperator:
    """Assemble the multilinear stiffness matrix with cellwise-constant a."""
    if a.spec != spec:
        raise ValueError("coefficient and domain specs do not match")
    dim, n = spec.dim, spec.n
    kref = _reference_stiffness(dim)
    corners = list(itertools.product((0, 1), repeat=dim))
    nloc = len(corners)

    base = np.indices(spec.cell_shape).reshape(dim, -1)
    corner_ids = np.empty((base.shape[1], nloc), dtype=np.int64)
    for k, c in enumerate(corners):
        shifted = base + np.asarray(c)[:, None]
        corner_ids[:, k] = np.ravel_multi_index(shifted, spec.node_shape)

    scale = a.values.reshape(-1) * spec.spacing ** (dim - 2)
    ncell = corner_ids.shape[0]
    rows = np.repeat(corner_ids, nloc, axis=1).reshape(-1)
    cols = np.tile(corner_ids, (1, nloc)).reshape(-1)
    vals = (scale[:, None] * kref.reshape(-1)[None, :]).reshape(-1)

    nn = spec.num_nodes
    full = coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()
    full.sum_duplicates()

    interior = np.flatnonzero(_interior_mask(spec))
    matrix = full[interior][:, interior].tocsr()
    return StiffnessOperator(spec, a, matrix, full, interior)


def load_vector(spec: DomainSpec, f: GridFunction) -> np.ndarray:
    """Midpoint-rule load over all nodes: entries integrate f against nodal hats."""
    fc = cell_center_values(f) * spec.cell_volume
    return scatter_cells_to_nodes(spec, fc).reshape(-1)


def solve(op: StiffnessOperator, f: GridFunction, tol: float = 1e-10) -> GridFunction:
    """Solve the operator against source f; the result vanishes on the boundary."""
    b = load_vector(op.spec, f)
    x = op.solve_interior(b[op.interior_indices], tol)
    return GridFunction(op.spec, op.embed_interior(x))


def energy_inner(u: GridFunction, v: GridFunction, op: StiffnessOperator) -> float:
    """Discrete energy product int a grad(u).grad(v); exact for the element space.

    Uses the natural (no boundary condition) form of the assembled operator,
    so arbitrary nodal fields are admissible; for boundary-vanishing fields it
    coincides with the Dirichlet form.
    """
    return float(u.values.reshape(-1) @ (op.full_matrix @ v.values.reshape(-1)))


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Midpoint-rule scalar product int u v over the cube."""
    uc = cell_center_values(u)
    vc = cell_center_values(v)
    return float(np.sum(uc * vc) * u.spec.cell_volume)
