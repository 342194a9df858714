"""Discrete divergence-form elliptic operator on the fine grid.

Multilinear (linear/bilinear/trilinear) elements with a cellwise-constant
coefficient a, homogeneous Dirichlet boundary.  The element matrix (the exact
energy form) and its DCT-I spectrum are Kronecker sums of the 1D unit-cell
stiffness and consistent mass.  Loads and the scalar product [.,.] use the
midpoint rule of the grid-module norms, so Galerkin identities hold to solver
tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import SolverError
from .grid import (DomainSpec, GridFunction, cell_center_values, check_same_grid,
                   scatter_cells_to_nodes)

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
]

# direct factorization cap; larger systems fall back to Jacobi-preconditioned CG
DIRECT_SOLVE_MAX_NODES = 80_000
# normwise backward-error bound every Dirichlet and Neumann solve must meet
BACKWARD_TOL = 1e-10
# CG's least iteration cap, and the iterations it runs without a new least residual
_CG_ITERATIONS = 4000


class CoefficientField:
    """Strictly positive cellwise-constant coefficient, of its grid's cell shape; a and
    its element scale a h^(d-2) are finite on every cell."""

    __slots__ = ("spec", "values", "a_min", "a_max")

    def __init__(self, spec: DomainSpec, values):
        values = np.asarray(values, dtype=float)
        if values.shape != spec.cell_shape:
            raise ValueError(
                f"coefficient shape {values.shape} does not match cell shape {spec.cell_shape}"
            )
        a_min = float(values.min())
        a_max = float(values.max())
        scale = spec.spacing ** (spec.dim - 2)  # of the element form, see _cell_scale
        if not (a_min * scale > 0.0 and math.isfinite(a_max * scale)):  # False for NaN too
            raise ValueError(f"coefficient must be strictly positive and finite on every cell, "
                             f"and so must a h^(d-2): a in [{a_min!r}, {a_max!r}], "
                             f"h^(d-2) = {scale!r}")
        self.spec = spec
        self.values = values
        self.a_min = a_min
        self.a_max = a_max


def constant_coefficient(spec: DomainSpec, value: float = 1.0) -> CoefficientField:
    return CoefficientField(spec, np.full(spec.cell_shape, float(value)))


def checkerboard_coefficient(spec: DomainSpec, contrast: float) -> CoefficientField:
    idx = np.indices(spec.cell_shape).sum(axis=0)
    vals = np.where(idx % 2 == 0, 1.0, float(contrast))
    return CoefficientField(spec, vals)


def layered_coefficient(spec: DomainSpec, contrast: float, axis: int = 0) -> CoefficientField:
    if not 0 <= axis < spec.dim:
        raise ValueError(f"layered axis must lie in 0..{spec.dim - 1}, got {axis}")
    idx = np.indices(spec.cell_shape)[axis]
    vals = np.where(idx % 2 == 0, 1.0, float(contrast))
    return CoefficientField(spec, vals)


def lognormal_coefficient(spec: DomainSpec, sigma: float = 1.0, seed: int = 0) -> CoefficientField:
    """Seeded multiplicative noise: exp(sigma * g), g iid standard normal per cell."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an infinite cell is the constructor's to reject
        vals = np.exp(sigma * rng.standard_normal(spec.cell_shape))
    return CoefficientField(spec, vals)


# the 1D unit-cell Q1 factors: stiffness int N_i' N_j' and consistent mass int N_i N_j
UNIT_STIFFNESS = np.array([[1.0, -1.0], [-1.0, 1.0]])
UNIT_MASS = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])


def kronecker_sum(stiffness, mass, dim: int, product):
    """sum_a (x)_b (stiffness if b == a else mass), axis 0 outermost; ``product`` is
    ``np.kron`` for element matrices and ``np.multiply.outer`` for spectra."""
    return sum(functools.reduce(product, [stiffness if b == a else mass for b in range(dim)])
               for a in range(dim))


def _reference_stiffness(dim: int) -> np.ndarray:
    """Exact unit-cell stiffness of multilinear elements, in ``_corner_values`` order."""
    return kronecker_sum(UNIT_STIFFNESS, UNIT_MASS, dim, np.kron)


def q1_spectrum(n: int):
    """(theta, consistent, midpoint, c, cos): the 1D DCT-I tables of n cells.

    cos(pi k j / n) = cos[k j % 2n] (exact arguments at large n) are the modes of
    the natural stiffness K against the lumped mass L, eigenvalues theta; the
    consistent and midpoint masses L - (h^2/6) K and L - (h^2/4) K have the
    eigenvalues consistent and midpoint, and c_k cos(pi k j / n) is L-orthonormal.
    """
    angle = 0.5 * np.pi * np.arange(n + 1) / n
    theta = 4.0 * n * n * np.sin(angle) ** 2
    consistent = 1.0 - theta / (6.0 * n * n)
    midpoint = np.cos(angle) ** 2
    c = np.r_[1.0, np.full(n - 1, np.sqrt(2.0)), 1.0]
    cos = np.cos(np.pi * np.arange(2 * n) / n)
    return theta, consistent, midpoint, c, cos


class StiffnessOperator:
    """Sparse SPD stiffness with Dirichlet elimination, plus the natural form.

    ``matrix`` couples interior nodes only (the solve target).  ``full_matrix``
    is the same bilinear form over all nodes (no boundary condition); its null
    space is the constants.  The grid is the coefficient's.  Matrices, norms
    and factors are built at first access and kept, so an operator that only
    evaluates energies (``energy_inner``) builds none of them.
    """

    def __init__(self, coefficient: CoefficientField):
        self.coefficient = coefficient
        self.spec = coefficient.spec
        # the nodes off the boundary, the Dirichlet unknowns
        self.interior_indices = np.flatnonzero(
            np.pad(np.ones((self.spec.n - 1,) * self.spec.dim, dtype=bool), 1))

    @functools.cached_property
    def full_matrix(self):
        """CSR natural form over all nodes."""
        return _assemble_full(self.coefficient)

    @functools.cached_property
    def matrix(self):
        """CSR Dirichlet form: the interior rows and columns of ``full_matrix``."""
        return self.full_matrix[self.interior_indices][:, self.interior_indices].tocsr()

    @functools.cached_property
    def matrix_norm(self) -> float:
        """Infinity norm of the interior matrix (for backward-error checks)."""
        return _inf_norm(self.matrix)

    @functools.cached_property
    def _full_norm(self) -> float:
        return _inf_norm(self.full_matrix)

    @functools.cached_property
    def _lu(self):
        return _splu(self.matrix.tocsc())

    @functools.cached_property
    def _lu_pinned(self):
        pinned = self.full_matrix.tocsc(copy=True)
        pinned[0, 0] += 1.0  # an entry of the pattern, so no structural change
        return _splu(pinned)

    @property
    def num_interior(self) -> int:
        return len(self.interior_indices)

    def embed_interior(self, x_int: np.ndarray) -> np.ndarray:
        full = np.zeros(self.spec.num_nodes)
        full[self.interior_indices] = x_int
        return full

    def solve_interior(self, b_int: np.ndarray) -> np.ndarray:
        """Solve K x = b on interior nodes: ``splu`` up to DIRECT_SOLVE_MAX_NODES
        unknowns, Jacobi-preconditioned CG above, for at most 4000 sqrt(contrast)
        and at most max(4000, unknowns) iterations, and no more than 4000 past the
        last iteration that reduced the residual norm to a new least value.

        Acceptance is the normwise backward error ||Kx-b|| <= BACKWARD_TOL*(||b||
        + ||K|| ||x||): a plain relative residual of 1e-10 is not representable
        in double precision once the coefficient contrast drives the condition
        number past ~1e8.  The direct solve meets it without refinement even at
        contrast 1e12 (tests/test_elliptic.py pins this).
        """
        if float(np.linalg.norm(b_int)) == 0.0:
            return np.zeros_like(b_int)
        if self.num_interior <= DIRECT_SOLVE_MAX_NODES:
            x = self._lu.solve(b_int)
        else:
            contrast = self.coefficient.a_max / self.coefficient.a_min
            maxiter = min(_CG_ITERATIONS * max(1.0, np.sqrt(contrast)),
                          max(_CG_ITERATIONS, self.num_interior))
            x = _jacobi_cg(self.matrix, b_int, int(maxiter))
        return _accepted("solve", self.matrix, self.matrix_norm, x, b_int)

    def solve_neumann(self, b_full: np.ndarray) -> np.ndarray:
        """Solve the natural-form system for zero-sum right-hand sides.

        The full matrix annihilates constants; pinning node 0 makes the system
        nonsingular, and for compatible b (sum zero) the pinned solution solves
        the original system exactly with x[0] = 0.  The solution must meet the
        same normwise backward-error test as ``solve_interior``, against the
        full matrix, so an incompatible b raises ``SolverError``.
        """
        x = self._lu_pinned.solve(b_full)
        return _accepted("Neumann solve", self.full_matrix, self._full_norm, x, b_full)


def _splu(matrix):
    """SuperLU factors of a CSC matrix; a failed factorization is a ``SolverError``."""
    from scipy.sparse.linalg import splu  # loaded by the first solve, never by pc runs

    try:
        return splu(matrix)
    except RuntimeError as exc:  # e.g. "Factor is exactly singular"
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc


def _inf_norm(matrix) -> float:
    return float(np.abs(matrix).sum(axis=1).max())


def _accepted(what: str, matrix, matrix_norm: float, x, b):
    """x, if it meets the normwise backward-error test ||Ax-b|| <= BACKWARD_TOL*(||b||
    + ||A|| ||x||); else ``SolverError``.  A NaN residual fails the test."""
    res = float(np.linalg.norm(matrix @ x - b))
    bound = BACKWARD_TOL * (float(np.linalg.norm(b)) + matrix_norm * float(np.linalg.norm(x)))
    if not res <= bound:
        raise SolverError(f"{what} backward error {res:.3e} exceeds tolerance {BACKWARD_TOL:.1e}")
    return x


def _jacobi_cg(matrix, b, maxiter: int):
    """Jacobi-preconditioned conjugate gradients from x = 0 until the recursive
    residual meets ||r|| <= 0.1*BACKWARD_TOL*||b||, for at most ``maxiter``
    iterations and at most _CG_ITERATIONS after the least ||r|| so far.  Inner
    products sum elementwise (np.einsum), so no bit depends on the BLAS thread count."""
    dot = functools.partial(np.einsum, "i,i->")
    bnorm = np.sqrt(dot(b, b))
    target = 0.1 * BACKWARD_TOL * bnorm
    inv_diag = 1.0 / matrix.diagonal()
    x = np.zeros_like(b)
    r = b.copy()
    p = z = inv_diag * r
    rz = dot(r, z)
    least, least_at = np.inf, 0
    for it in range(1, maxiter + 1):
        q = matrix @ p
        alpha = rz / dot(p, q)
        x += alpha * p
        r -= alpha * q
        rnorm = np.sqrt(dot(r, r))
        if rnorm <= target:  # False for NaN, which runs out the iterations
            return x
        if rnorm < least:
            least, least_at = rnorm, it
        elif it - least_at >= _CG_ITERATIONS:  # a solve that stopped improving
            raise SolverError(f"conjugate gradients stagnated: no new least residual in "
                              f"{_CG_ITERATIONS} iterations after iteration {least_at} "
                              f"(relative residual {least / bnorm:.3e}, "
                              f"target {0.1 * BACKWARD_TOL:.1e})")
        z = inv_diag * r
        rz, rz_old = dot(r, z), rz
        p = z + (rz / rz_old) * p
    raise SolverError(f"conjugate gradients did not converge in {maxiter} iterations "
                      f"(relative residual {rnorm / bnorm:.3e}, target {0.1 * BACKWARD_TOL:.1e})")


def _cell_scale(a: CoefficientField) -> np.ndarray:
    """Per-cell factor a_c h^(d-2) of the reference stiffness, in C cell order."""
    return a.values.reshape(-1) * a.spec.spacing ** (a.spec.dim - 2)


def assemble(spec: DomainSpec, a: CoefficientField) -> StiffnessOperator:
    """Multilinear stiffness operator with cellwise-constant a.

    The sparse matrices are built at their first use (see ``StiffnessOperator``).
    """
    check_same_grid("coefficient", a.spec, "domain", spec)
    return StiffnessOperator(a)


def _assemble_full(a: CoefficientField):
    """COO assembly of the natural form over all nodes of ``a.spec``, summed into CSR."""
    from scipy.sparse import coo_matrix  # loaded by the first matrix use, never by pc runs

    spec = a.spec
    kref = _reference_stiffness(spec.dim)
    nloc = len(kref)
    corner_ids = _corner_values(np.arange(spec.num_nodes).reshape(spec.node_shape)).T
    scale = _cell_scale(a)
    rows = np.repeat(corner_ids, nloc, axis=1).reshape(-1)
    cols = np.tile(corner_ids, (1, nloc)).reshape(-1)
    vals = (scale[:, None] * kref.reshape(-1)[None, :]).reshape(-1)

    nn = spec.num_nodes
    full = coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()
    full.sum_duplicates()
    return full


def load_vector(f: GridFunction) -> np.ndarray:
    """Midpoint-rule load over all nodes: entries integrate f against nodal hats."""
    return scatter_cells_to_nodes(cell_center_values(f) * f.spec.cell_volume).reshape(-1)


def solve(op: StiffnessOperator, f: GridFunction) -> GridFunction:
    """Solve the operator against source f on its grid; the result vanishes on the boundary."""
    check_same_grid("source", f.spec, "operator", op.spec)
    b = load_vector(f)
    x = op.solve_interior(b[op.interior_indices])
    return GridFunction(op.spec, op.embed_interior(x).reshape(op.spec.node_shape))


def energy_inner(u: GridFunction, v: GridFunction, op: StiffnessOperator) -> float:
    """Discrete energy product int a grad(u).grad(v); exact for the element space.

    Sums a_c h^(d-2) u_c^T K_ref v_c over cells without a matrix: the natural
    (no boundary condition) form, so arbitrary nodal fields are admissible;
    for boundary-vanishing fields it coincides with the Dirichlet form.
    """
    for w in (u, v):
        check_same_grid("field", w.spec, "operator", op.spec)
    kref = _reference_stiffness(op.spec.dim)
    uc = _corner_values(u.values)
    vc = _corner_values(v.values)
    # elementwise sums, not a BLAS dot, so no bit depends on the BLAS thread count
    return float(np.einsum("c,ic,ic->", _cell_scale(op.coefficient), uc, kref @ vc))


def _corner_values(values: np.ndarray) -> np.ndarray:
    """Nodal values at each local corner of every cell, shape (2^d, cells), corners in
    lexicographic order (axis 0 slowest)."""
    n = values.shape[0] - 1
    return np.stack([values[tuple(slice(c, c + n) for c in corner)].reshape(-1)
                     for corner in itertools.product((0, 1), repeat=values.ndim)])


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Midpoint-rule scalar product int u v over the cube."""
    check_same_grid("operand", v.spec, "field", u.spec)
    uc = cell_center_values(u)
    vc = cell_center_values(v)
    return float(np.sum(uc * vc) * u.spec.cell_volume)
