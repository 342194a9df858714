"""Uniform fine grids on the unit cube, two-scale patch geometry, and discrete norms.

The domain is always [0,1]^d for d in {1,2,3}.  A scalar field is stored by its
nodal values on a uniform grid with n cells per axis and is understood as the
piecewise-multilinear interpolant of those values.  All integrals (p-norms,
weighted gradient norms) use the composite midpoint rule on fine cells, with
cell-center values obtained from the interpolant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError

__all__ = [
    "DomainSpec",
    "CoarsePartition",
    "SubsampleSpec",
    "GridFunction",
    "check_dim",
    "check_integer",
    "check_p",
    "check_same_grid",
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

# each subsample kind's extents (see SubsampleSpec) at a given dim, in the order errors list them
SUBSAMPLE_KINDS = {"cube": lambda dim: ("thin",) * dim,
                   "slice": lambda dim: ("thin",) * (dim - 1) + ("flat",),
                   "point": lambda dim: ("flat",) * dim}


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool, a float of integer value or NaN is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_dim(dim) -> int:
    """The dimension rule: the domain is [0,1]^dim for dim 1, 2 or 3; returns ``int(dim)``."""
    if not (_is_integer(dim) and dim in (1, 2, 3)):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    return int(dim)


def check_integer(what: str, value, least: int) -> int:
    """The integer rule: ``what`` is an integer >= ``least``; returns ``int(value)``."""
    if not (_is_integer(value) and value >= least):
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_p(p) -> None:
    """The exponent rule: p is a finite number >= 1, not a bool; at p = inf every norm reads 1."""
    if isinstance(p, bool) or not 1.0 <= p < np.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")


def check_same_grid(role: str, spec, other_role: str, other_spec) -> None:
    """The same-grid rule: two objects that meet, named by their roles, share one grid."""
    if spec != other_spec:
        raise ValueError(f"{role} grid {spec} does not match the {other_role} grid {other_spec}")


@dataclass(frozen=True)
class DomainSpec:
    """Unit cube [0,1]^dim discretized by n cells per axis."""

    dim: int
    n: int

    def __post_init__(self):  # Python ints, so a grid prints the same whatever built it
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "n", check_integer("n", self.n, 2))

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
        check_same_grid("operand", other.spec, "field", self.spec)
        return GridFunction(self.spec, self.values + other.values)

    def __sub__(self, other):
        check_same_grid("operand", other.spec, "field", self.spec)
        return GridFunction(self.spec, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.spec, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class CoarsePartition:
    """Even partition of the cube into m^dim coarse patches of side H = 1/m; m must
    divide the fine resolution, so patch boundaries lie on fine-grid lines."""

    spec: DomainSpec
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", check_integer("m", self.m, 1))
        if self.spec.n % self.m != 0:
            raise AlignmentError(
                f"patch count m={self.m} does not divide fine resolution n={self.spec.n}; "
                "patch boundaries must lie on fine-grid lines"
            )

    @property
    def H(self) -> float:
        return 1.0 / self.m

    @property
    def cells_per_patch(self) -> int:
        return self.spec.n // self.m

    @property
    def num_patches(self) -> int:
        return self.m**self.spec.dim

    def patch_nodes(self, i: int) -> tuple:
        """Node-array slices covering patch i (inclusive of patch boundary nodes)."""
        q = self.cells_per_patch
        mi = np.unravel_index(i, (self.m,) * self.spec.dim)
        return tuple(slice(k * q, k * q + q + 1) for k in mi)


@dataclass(frozen=True)
class SubsampleSpec:
    """Concentric subsampled sets, one per patch, each the product of its ``extents``:
    width h = ratio*H centred in the patch on a "thin" axis, the patch centre's
    coordinate on a "flat" one.  A cube is thin on every axis, a slice on all but
    the last, a point on none (h is 0 there).

    A set with a thin axis needs a side h = ratio*H that is a whole number of fine
    cells, placed concentrically with its corners on grid lines, i.e.
    cells_per_patch - h*n must be even; a set with none stores ratio 0.
    """

    partition: CoarsePartition
    kind: str
    ratio: float = 1.0

    def __post_init__(self):
        if self.kind not in SUBSAMPLE_KINDS:
            raise ValueError(f"unknown subsample kind {self.kind!r}")
        if self.kind == "slice" and self.partition.spec.dim < 2:
            raise ValueError("slice kind needs dim >= 2")
        if "thin" not in self.extents:
            object.__setattr__(self, "ratio", 0.0)
            return
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError(f"ratio must lie in (0, 1], got {self.ratio}")
        q = self.partition.cells_per_patch
        k = self.ratio * q
        k_int = int(round(k))
        if abs(k - k_int) > 1e-9 or k_int < 1:
            raise AlignmentError(
                f"subsample side h = {self.ratio}*H is not a whole number of fine cells "
                f"(ratio*cells_per_patch = {k})"
            )
        if (q - k_int) % 2 != 0:
            raise AlignmentError(
                f"concentric subsample of {k_int} cells inside a {q}-cell patch has "
                "corners off the fine grid (parity mismatch)"
            )

    @property
    def H(self) -> float:
        return self.partition.H

    @property
    def extents(self) -> tuple:
        return SUBSAMPLE_KINDS[self.kind](self.partition.spec.dim)

    @property
    def h(self) -> float:
        return self.ratio * self.partition.H if "thin" in self.extents else 0.0

    def axis_intervals(self, axis: int) -> tuple:
        """(lo, hi) arrays over the patch coordinates k = 0..m-1 along ``axis``.

        The set spans (k + 1/2)H -+ h/2 on a thin axis and is the centre (k + 1/2)H
        on a flat one.  Every set is the product of its axes' intervals, so the
        union of the sets is the product of the per-axis unions.
        """
        c = (np.arange(self.partition.m) + 0.5) * self.H
        half = 0.5 * self.h if self.extents[axis] == "thin" else 0.0
        return c - half, c + half

    def distance(self, coords) -> np.ndarray:
        """Euclidean distance to the union of the sets from each point of the grid
        spanned by ``coords`` (one coordinate array per axis), of shape
        ``tuple(map(len, coords))``.

        The union is the product of the per-axis unions of ``axis_intervals``, so
        the distance is the root of the summed squared per-axis gaps to them.
        """
        sq = 0.0
        for axis, x in enumerate(coords):
            lo, hi = (e[:, None] for e in self.axis_intervals(axis))
            gap = np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=0)
            shape = [1] * len(coords)
            shape[axis] = -1
            sq = sq + (gap * gap).reshape(shape)
        return np.sqrt(sq)


# the two constructors under their older builder names, which the benchmark calls
build_partition = CoarsePartition
build_subsample = SubsampleSpec


def _pairs(a: np.ndarray, axis: int) -> tuple:
    """The views of ``a`` holding entries 0..k-2 and 1..k-1 along ``axis``: each
    entry's pair with its successor."""
    lead = (slice(None),) * axis
    return a[lead + (slice(0, -1),)], a[lead + (slice(1, None),)]


def _average(a: np.ndarray, axes) -> np.ndarray:
    """Midpoint averages of ``a`` along each of ``axes``, in the order given."""
    for axis in axes:
        lo, hi = _pairs(a, axis)
        a = 0.5 * (lo + hi)
    return a


def cell_center_values(u: GridFunction) -> np.ndarray:
    """Values of the multilinear interpolant at cell centers (corner averages)."""
    return _average(u.values, range(u.spec.dim))


def cell_gradient(u: GridFunction) -> list:
    """Cell-centered first differences, one array of cell shape per axis: the difference
    along the axis, then the averages along the others in increasing order."""
    out = []
    for axis in range(u.spec.dim):
        lo, hi = _pairs(u.values, axis)
        others = [other for other in range(u.spec.dim) if other != axis]
        out.append(_average((hi - lo) * u.spec.n, others))
    return out


def scatter_cells_to_nodes(cellvals: np.ndarray) -> np.ndarray:
    """Adjoint of cell-center averaging: distribute cell values to corner nodes.

    Each cell value is split equally (weight 2^-dim) among its corner nodes, so
    dot(scatter(c), u_nodes) == dot(c, cell_center_values(u)) exactly.
    """
    t = np.asarray(cellvals, dtype=float)
    for axis in range(t.ndim):
        shape = list(t.shape)
        shape[axis] += 1
        out = np.zeros(shape)
        for view in _pairs(out, axis):
            view += 0.5 * t
        t = out
    return t


def lp_norm(u: GridFunction, p: float) -> float:
    """Midpoint-rule L^p norm of u over the cube."""
    check_p(p)
    return float(midpoint_lp(cell_center_values(u), p, u.spec.cell_volume))


def midpoint_lp(cells: np.ndarray, p: float, cell_volume: float, axis=None, weight=1.0,
                squared: bool = False):
    """Midpoint-rule L^p norm, weighted cell by cell, of cell-center values (``squared``:
    of their squares) over ``axis`` (default all), with the same bits for one norm or an
    array of them.  A p-th-power sum that leaves the normal float range, while some value
    is not 0, is taken relative to its largest term, in logarithms."""
    base, power = (cells, p / 2.0) if squared else (np.abs(cells), p)
    with np.errstate(all="ignore"):  # powers that overflow or underflow, and log 0 = -inf
        total = np.sum(base**power * weight, axis=axis) * cell_volume
        normal = (total >= np.finfo(float).tiny) & (total < np.inf) | ~np.any(base, axis=axis)
        if np.all(normal):
            return np.power(total, 1.0 / p)
        logs = power * np.log(base) + np.log(weight)
        top = np.max(logs, axis=axis, keepdims=True)
        rest = np.sum(np.exp(logs - top), axis=axis) * cell_volume  # its top term is 1
        top = np.squeeze(top, axis=axis)  # an inf or NaN value keeps its inf or NaN norm
        return np.where(normal | ~np.isfinite(top), np.power(total, 1.0 / p),
                        np.exp((top + np.log(rest)) / p))


def gradient_lp_norm(u: GridFunction, p: float, weight=None) -> float:
    """Midpoint-rule L^p norm of the gradient magnitude, weighted by ``weight``: a
    ``CoefficientField`` on the grid of u (strictly positive by construction), or None for 1."""
    check_p(p)
    if weight is not None:
        check_same_grid("weight", weight.spec, "field", u.spec)
    mag2 = sum(g * g for g in cell_gradient(u))
    return float(midpoint_lp(mag2, p, u.spec.cell_volume, squared=True,
                             weight=1.0 if weight is None else weight.values))


def save_grid_function(u: GridFunction, path) -> None:
    """Write a grid function as CSV: header row "dim,n", then node values one per
    line in C (lexicographic) node order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([u.spec.dim, u.spec.n])
        for val in np.ascontiguousarray(u.values).reshape(-1):
            writer.writerow([repr(float(val))])


def load_grid_function(path) -> GridFunction:
    """Read a grid function written by save_grid_function.

    Raises ValueError on a malformed or truncated file, a value row that is not
    exactly one field, a value that is not finite, or other than (n+1)^dim values.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            dim, n = _parse_row(next(reader, []), int, 2, "the header must be 'dim,n'")
            vals = np.array([_parse_row(row, float, 1, "a value row must hold one number")[0]
                             for row in reader])
        except csv.Error as exc:  # a line over the csv field limit, or a NUL before 3.11
            raise ValueError(f"not a grid-function CSV: {exc}") from exc
    if not np.isfinite(vals).all():
        raise ValueError("grid-function values must be finite")
    spec = DomainSpec(dim, n)
    if len(vals) != spec.num_nodes:
        raise ValueError(f"a dim-{dim} n={n} grid function has {spec.num_nodes} values, "
                         f"got {len(vals)}")
    return GridFunction(spec, vals.reshape(spec.node_shape))


def _parse_row(row: list, convert, count: int, rule: str) -> list:
    """The ``count`` fields of a CSV row through ``convert``; any other row raises
    ValueError stating ``rule`` and quoting at most the row's first 40 characters."""
    try:
        if len(row) == count:
            return [convert(tok) for tok in row]
    except ValueError:
        pass
    text = ",".join(row)
    raise ValueError(f"{rule}, got {text[:40]!r}" + ("..." if len(text) > 40 else ""))
