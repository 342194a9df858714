"""Uniform fine grids on the unit cube, two-scale patch geometry, and discrete norms.

The domain is always [0,1]^d for d in {1,2,3}.  A scalar field is stored by its
nodal values on a uniform grid with n cells per axis and is understood as the
piecewise-multilinear interpolant of those values.  All integrals (p-norms,
weighted gradient norms) use the composite midpoint rule on fine cells, with
cell-center values obtained from the interpolant.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError

__all__ = [
    "DomainSpec",
    "CoarsePartition",
    "SubsampleSpec",
    "GridFunction",
    "build_partition",
    "build_subsample",
    "lp_norm",
    "gradient_lp_norm",
    "cell_center_values",
    "cell_gradient",
    "scatter_cells_to_nodes",
    "save_grid_function",
    "load_grid_function",
]

_BINARY_MAGIC = b"MSRG"


@dataclass(frozen=True)
class DomainSpec:
    """Unit cube [0,1]^dim discretized by n cells per axis."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @property
    def node_shape(self) -> tuple:
        return (self.n + 1,) * self.dim

    @property
    def cell_shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def num_nodes(self) -> int:
        return (self.n + 1) ** self.dim

    def node_coordinates(self) -> list:
        """Per-axis node coordinate arrays (identical for each axis)."""
        ax = np.linspace(0.0, 1.0, self.n + 1)
        return [ax] * self.dim

    def cell_center_coordinates(self) -> list:
        ax = (np.arange(self.n) + 0.5) * self.spacing
        return [ax] * self.dim


class GridFunction:
    """Nodal values of a scalar field, interpreted multilinearly between nodes."""

    __slots__ = ("spec", "values")

    def __init__(self, spec: DomainSpec, values):
        values = np.asarray(values, dtype=float)
        if values.shape == (spec.num_nodes,):
            values = values.reshape(spec.node_shape)
        if values.shape != spec.node_shape:
            raise ValueError(
                f"values shape {values.shape} does not match node shape {spec.node_shape}"
            )
        self.spec = spec
        self.values = values

    @classmethod
    def from_callable(cls, spec: DomainSpec, f) -> "GridFunction":
        """Sample f(x) (one array argument per axis) at the grid nodes."""
        grids = np.meshgrid(*spec.node_coordinates(), indexing="ij")
        return cls(spec, np.asarray(f(*grids), dtype=float))

    @classmethod
    def constant(cls, spec: DomainSpec, c: float) -> "GridFunction":
        return cls(spec, np.full(spec.node_shape, float(c)))

    def __add__(self, other):
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other):
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.spec, self.values * float(scalar))

    __rmul__ = __mul__

    def shifted(self, c: float) -> "GridFunction":
        return GridFunction(self.spec, self.values - float(c))


@dataclass(frozen=True)
class CoarsePartition:
    """Even partition of the cube into m^dim coarse patches of side H = 1/m."""

    spec: DomainSpec
    m: int

    @property
    def H(self) -> float:
        return 1.0 / self.m

    @property
    def cells_per_patch(self) -> int:
        return self.spec.n // self.m

    @property
    def num_patches(self) -> int:
        return self.m**self.spec.dim

    def patch_multi_index(self, i: int) -> tuple:
        return np.unravel_index(i, (self.m,) * self.spec.dim)

    def center(self, i: int) -> np.ndarray:
        mi = self.patch_multi_index(i)
        return (np.asarray(mi, dtype=float) + 0.5) * self.H

    def centers(self) -> np.ndarray:
        """All patch centers, shape (num_patches, dim), in patch index order."""
        return np.stack([self.center(i) for i in range(self.num_patches)])

    def patch_cells(self, i: int) -> tuple:
        """Cell-array slices covering patch i."""
        q = self.cells_per_patch
        mi = self.patch_multi_index(i)
        return tuple(slice(k * q, (k + 1) * q) for k in mi)

    def patch_nodes(self, i: int) -> tuple:
        """Node-array slices covering patch i (inclusive of patch boundary nodes)."""
        q = self.cells_per_patch
        mi = self.patch_multi_index(i)
        return tuple(slice(k * q, k * q + q + 1) for k in mi)

    def patch_bounds(self, i: int) -> tuple:
        mi = np.asarray(self.patch_multi_index(i), dtype=float)
        return mi * self.H, (mi + 1.0) * self.H


def build_partition(spec: DomainSpec, m: int) -> CoarsePartition:
    """Partition the cube into m^dim patches; m must divide the fine resolution."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if spec.n % m != 0:
        raise AlignmentError(
            f"patch count m={m} does not divide fine resolution n={spec.n}; "
            "patch boundaries must lie on fine-grid lines"
        )
    return CoarsePartition(spec, m)


@dataclass(frozen=True)
class SubsampleSpec:
    """Concentric subsampled sets, one per patch.

    kind "cube": an axis-aligned cube of side h = ratio*H centered in the patch.
    kind "slice": an axis-aligned (dim-1)-square of side h through the patch
    center, orthogonal to normal_axis.
    kind "point": the patch center itself (h treated as 0).
    """

    partition: CoarsePartition
    kind: str
    ratio: float
    normal_axis: int = -1

    @property
    def H(self) -> float:
        return self.partition.H

    @property
    def h(self) -> float:
        if self.kind == "point":
            return 0.0
        return self.ratio * self.partition.H

    @property
    def cells_across(self) -> int:
        """Subsample side length in fine cells (0 for point kind)."""
        if self.kind == "point":
            return 0
        return int(round(self.ratio * self.partition.cells_per_patch))

    def support_box(self, i: int) -> tuple:
        """(lo, hi) corners of the subsample set of patch i (degenerate axes allowed)."""
        c = self.partition.center(i)
        half = np.full(self.partition.spec.dim, 0.5 * self.h)
        if self.kind == "point":
            half[:] = 0.0
        elif self.kind == "slice":
            half[self.normal_axis] = 0.0
        return c - half, c + half


def build_subsample(part: CoarsePartition, kind: str, ratio: float = 1.0,
                    normal_axis: int | None = None) -> SubsampleSpec:
    """Build the subsampled sets inside each patch.

    For cube and slice kinds the side h = ratio*H must be a whole number of fine
    cells and the concentric placement must put the set's corners on grid lines,
    i.e. cells_per_patch - h*n must be even.
    """
    dim = part.spec.dim
    if kind not in ("cube", "slice", "point"):
        raise ValueError(f"unknown subsample kind {kind!r}")
    if kind == "point":
        if normal_axis is not None:
            raise ValueError("normal_axis is only meaningful for slice kind")
        return SubsampleSpec(part, kind, 0.0)
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if kind == "slice":
        if dim < 2:
            raise ValueError("slice kind needs dim >= 2")
        axis = dim - 1 if normal_axis is None else int(normal_axis)
        if not (0 <= axis < dim):
            raise ValueError(f"normal_axis {axis} out of range for dim {dim}")
    else:
        if normal_axis is not None:
            raise ValueError("normal_axis is only meaningful for slice kind")
        axis = -1
    q = part.cells_per_patch
    k = ratio * q
    k_int = int(round(k))
    if abs(k - k_int) > 1e-9 or k_int < 1:
        raise AlignmentError(
            f"subsample side h = {ratio}*H is not a whole number of fine cells "
            f"(ratio*cells_per_patch = {k})"
        )
    if (q - k_int) % 2 != 0:
        raise AlignmentError(
            f"concentric subsample of {k_int} cells inside a {q}-cell patch has "
            "corners off the fine grid (parity mismatch)"
        )
    return SubsampleSpec(part, kind, ratio, axis)


def cell_center_values(u: GridFunction) -> np.ndarray:
    """Values of the multilinear interpolant at cell centers (corner averages)."""
    v = u.values
    for axis in range(u.spec.dim):
        lo = [slice(None)] * u.spec.dim
        hi = [slice(None)] * u.spec.dim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        v = 0.5 * (v[tuple(lo)] + v[tuple(hi)])
    return v


def cell_gradient(u: GridFunction) -> list:
    """Cell-centered first differences, one array of cell shape per axis."""
    dim = u.spec.dim
    out = []
    for axis in range(dim):
        g = np.diff(u.values, axis=axis) * u.spec.n
        for other in range(dim):
            if other == axis:
                continue
            lo = [slice(None)] * dim
            hi = [slice(None)] * dim
            lo[other] = slice(0, -1)
            hi[other] = slice(1, None)
            g = 0.5 * (g[tuple(lo)] + g[tuple(hi)])
        out.append(g)
    return out


def scatter_cells_to_nodes(spec: DomainSpec, cellvals: np.ndarray) -> np.ndarray:
    """Adjoint of cell-center averaging: distribute cell values to corner nodes.

    Each cell value is split equally (weight 2^-dim) among its corner nodes, so
    dot(scatter(c), u_nodes) == dot(c, cell_center_values(u)) exactly.
    """
    t = np.asarray(cellvals, dtype=float)
    for axis in range(spec.dim):
        shape = list(t.shape)
        shape[axis] += 1
        out = np.zeros(shape)
        lo = [slice(None)] * t.ndim
        hi = [slice(None)] * t.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        out[tuple(lo)] += 0.5 * t
        out[tuple(hi)] += 0.5 * t
        t = out
    return t


def _resolve_cell_weight(weight, spec: DomainSpec):
    if weight is None:
        return None
    w = getattr(weight, "values", weight)
    w = np.asarray(w, dtype=float)
    if w.shape != spec.cell_shape:
        raise ValueError(f"weight shape {w.shape} does not match cell shape {spec.cell_shape}")
    if np.any(w <= 0.0):
        raise ValueError("weight must be strictly positive on all cells")
    return w


def lp_norm(u: GridFunction, p: float, region: tuple | None = None) -> float:
    """Midpoint-rule L^p norm of u over the cube, or over a patch cell-slice region."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    v = cell_center_values(u)
    if region is not None:
        v = v[region]
    return float(np.sum(np.abs(v) ** p) * u.spec.cell_volume) ** (1.0 / p)


def gradient_lp_norm(u: GridFunction, p: float, weight=None) -> float:
    """Midpoint-rule (weighted) L^p norm of the gradient magnitude.

    weight is an optional strictly positive field on cells (array, or any
    object with a cell-shaped ``values`` attribute); weight None means 1.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    w = _resolve_cell_weight(weight, u.spec)
    comps = cell_gradient(u)
    mag2 = np.zeros(u.spec.cell_shape)
    for g in comps:
        mag2 += g * g
    integrand = mag2 ** (p / 2.0)
    if w is not None:
        integrand = integrand * w
    return float(np.sum(integrand) * u.spec.cell_volume) ** (1.0 / p)


def save_grid_function(u: GridFunction, path, fmt: str = "csv") -> None:
    """Write a grid function to disk.

    csv: header row "dim,n", then node values one per line in C (lexicographic)
    node order.  binary: magic b"MSRG", dim and n as little-endian int64, then
    node values as little-endian float64 in the same order.
    """
    flat = np.ascontiguousarray(u.values).reshape(-1)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([u.spec.dim, u.spec.n])
            for val in flat:
                writer.writerow([repr(float(val))])
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<qq", u.spec.dim, u.spec.n))
            fh.write(flat.astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_grid_function(path, fmt: str | None = None) -> GridFunction:
    """Read a grid function written by save_grid_function (format sniffed if None)."""
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == _BINARY_MAGIC else "csv"
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            dim, n = (int(tok) for tok in next(reader))
            vals = np.array([float(row[0]) for row in reader])
        return GridFunction(DomainSpec(dim, n), vals)
    if fmt == "binary":
        with open(path, "rb") as fh:
            if fh.read(4) != _BINARY_MAGIC:
                raise ValueError("not a binary grid-function file")
            dim, n = struct.unpack("<qq", fh.read(16))
            spec = DomainSpec(int(dim), int(n))
            vals = np.frombuffer(fh.read(), dtype="<f8").astype(float)
        return GridFunction(spec, vals)
    raise ValueError(f"unknown format {fmt!r}")
