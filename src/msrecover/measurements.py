"""Measurement functionals over subsampled sets and their growth envelopes.

A measurement functional is a unit-mass measure: the normalized indicator of a
subsampled cube (density 1/h^dim), a normalized (dim-1)-dimensional slice
density (1/h^(dim-1)), or a point evaluation at the patch center.  Applied to a
grid function it returns the measured average.  Internally each functional is a
sparse vector of node weights, consistent with the midpoint-rule inner product,
so that measuring u equals integrating u against the functional's grid density.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, GridFunction, SubsampleSpec

__all__ = [
    "MeasurementFunctional",
    "MeasurementVector",
    "build_functionals",
    "measure",
    "measure_all",
    "alpha_envelope",
    "bound_integral",
    "save_measurements",
    "load_measurements",
]


class MeasurementFunctional:
    """One unit-mass measurement over a single patch's subsample set."""

    __slots__ = ("kind", "patch_index", "mass", "h", "H", "spec",
                 "node_indices", "node_weights")

    def __init__(self, kind, patch_index, mass, h, H, spec, node_indices, node_weights):
        self.kind = kind
        self.patch_index = patch_index
        self.mass = mass  # Lebesgue/Hausdorff measure of the support (1 for point)
        self.h = h
        self.H = H
        self.spec = spec
        self.node_indices = node_indices
        self.node_weights = node_weights

    def apply(self, u: GridFunction) -> float:
        return float(np.dot(self.node_weights, u.values.reshape(-1)[self.node_indices]))

    def dense_weights(self) -> np.ndarray:
        """Node-weight vector as a dense array over all nodes."""
        w = np.zeros(self.spec.num_nodes)
        np.add.at(w, self.node_indices, self.node_weights)
        return w


def _axis_interp(spec: DomainSpec, x: float):
    """Start node index and interpolation weights for coordinate x in [0,1]."""
    g = x * spec.n
    j = int(np.floor(g))
    if j >= spec.n:
        j = spec.n - 1
    frac = g - j
    if frac < 1e-12:
        return j, np.array([1.0])
    if frac > 1.0 - 1e-12:
        return j + 1, np.array([1.0])
    return j, np.array([1.0 - frac, frac])


def _axis_cell_average(start_cell: int, k: int):
    """Node weights of the averaging functional over k consecutive cells."""
    w = np.ones(k + 1)
    w[0] = 0.5
    w[-1] = 0.5
    w /= w.sum()
    return start_cell, w


def _build_one(sub: SubsampleSpec, i: int) -> MeasurementFunctional:
    part = sub.partition
    spec = part.spec
    dim = spec.dim
    q = part.cells_per_patch
    k = sub.cells_across
    mi = part.patch_multi_index(i)
    center = part.center(i)

    starts = []
    axis_weights = []
    for axis in range(dim):
        if sub.kind == "cube" or (sub.kind == "slice" and axis != sub.normal_axis):
            s = mi[axis] * q + (q - k) // 2
            s, w = _axis_cell_average(s, k)
        else:
            s, w = _axis_interp(spec, center[axis])
        starts.append(s)
        axis_weights.append(w)

    weights = axis_weights[0]
    for w in axis_weights[1:]:
        weights = np.multiply.outer(weights, w)
    idx_axes = [np.arange(s, s + len(w)) for s, w in zip(starts, axis_weights)]
    grids = np.meshgrid(*idx_axes, indexing="ij")
    flat_idx = np.ravel_multi_index([g.reshape(-1) for g in grids], spec.node_shape)

    if sub.kind == "cube":
        mass = sub.h**dim
    elif sub.kind == "slice":
        mass = sub.h ** (dim - 1)
    else:
        mass = 1.0
    return MeasurementFunctional(sub.kind, i, mass, sub.h, sub.H, spec, flat_idx,
                                 weights.reshape(-1))


def build_functionals(sub: SubsampleSpec) -> list:
    """One measurement functional per patch, in patch index order."""
    return [_build_one(sub, i) for i in range(sub.partition.num_patches)]


def measure(u: GridFunction, phi: MeasurementFunctional) -> float:
    """Measured average of u under one functional."""
    return phi.apply(u)


@dataclass(frozen=True)
class MeasurementVector:
    """Measured averages in patch index order, with provenance."""

    values: np.ndarray
    kind: str
    h: float
    H: float
    dim: int


def measure_all(u: GridFunction, functionals: list) -> MeasurementVector:
    """Measured averages of u under each functional, with the first one's provenance."""
    phi0 = functionals[0]
    vals = np.array([phi.apply(u) for phi in functionals])
    return MeasurementVector(vals, phi0.kind, phi0.h, phi0.H, phi0.spec.dim)


def alpha_envelope(kind: str, dim: int, H: float, h: float, t: float) -> float:
    """Upper envelope for the mass of the subsample measure under t-shrinking.

    cube:  min{1, (H/h)^dim * (t/(1-t))^dim}
    slice: min{1, (H/h)^(dim-1) * (t/(1-t))^(dim-1)}
    Nondecreasing in t, equal to 1 from the breakpoint t = h/(H+h) on.
    """
    if kind not in ("cube", "slice"):
        raise ValueError(f"alpha envelope defined for cube and slice kinds, got {kind!r}")
    if not (0.0 < h <= H):
        raise ValueError(f"need 0 < h <= H, got h={h}, H={H}")
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0,1], got {t}")
    if t >= 1.0:
        return 1.0
    e = dim if kind == "cube" else dim - 1
    val = (H / h) ** e * (t / (1.0 - t)) ** e
    return min(1.0, val)


def bound_integral(kind: str, p: float, dim: int, H: float, h: float) -> float:
    """Numeric value of the envelope integral int_0^1 alpha(t)^(1/p) / t^(dim/p) dt.

    Adaptive quadrature with the envelope breakpoint t = h/(H+h) as a forced
    subdivision node.  The slice integrand carries a t^(-1/p) endpoint
    singularity, which is integrable only for p > 1.
    """
    if kind not in ("cube", "slice"):
        raise ValueError(f"bound integral defined for cube and slice kinds, got {kind!r}")
    if not (0.0 < h <= H):
        raise ValueError(f"need 0 < h <= H, got h={h}, H={H}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if kind == "slice" and p == 1.0:
        raise ValueError(
            "sliced measurements need p > 1: the envelope integral diverges at t=0 for p=1"
        )
    from scipy.integrate import quad

    tstar = h / (H + h)
    e = dim if kind == "cube" else dim - 1
    ratio_pow = (H / h) ** (e / p)

    def integrand(t):
        if t >= tstar:
            return t ** (-dim / p)
        if kind == "cube":
            return ratio_pow * (1.0 - t) ** (-dim / p)
        return ratio_pow * t ** (-1.0 / p) * (1.0 - t) ** (-(dim - 1) / p)

    val, _ = quad(integrand, 0.0, 1.0, points=[tstar], limit=200, epsabs=0.0, epsrel=1e-10)
    return float(val)


def save_measurements(vec: MeasurementVector, path) -> None:
    """CSV layout: provenance header row, column names, then (patch_index, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "h", "H", "dim"])
        writer.writerow([vec.kind, repr(float(vec.h)), repr(float(vec.H)), vec.dim])
        writer.writerow(["patch_index", "value"])
        for i, v in enumerate(vec.values):
            writer.writerow([i, repr(float(v))])


def load_measurements(path) -> MeasurementVector:
    """Read a ``save_measurements`` file; rows may come in any order.

    Raises ValueError unless the patch indices are exactly 0..N-1, each once.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        kind, h, H, dim = next(reader)
        next(reader)
        rows = [(int(r[0]), float(r[1])) for r in reader]
    rows.sort()
    indices = [i for i, _ in rows]
    for a, b in zip(indices, indices[1:]):
        if a == b:
            raise ValueError(f"{path}: duplicate patch index {a}")
    if indices != list(range(len(indices))):
        raise ValueError(f"{path}: patch indices are not exactly 0..{len(indices) - 1}")
    vals = np.array([v for _, v in rows])
    return MeasurementVector(vals, kind, float(h), float(H), int(dim))
