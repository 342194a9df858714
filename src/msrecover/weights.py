"""Singular weight fields concentrated at the subsample sets.

Profiles (s = max{h, dist(x, sample sets)}):

  polynomial:   (H/s)^(dim - p + beta),                      beta > 0
  logarithmic:  (H/s)^(dim-p) (log(1/s)+1)^gamma / (log(1/H)+1)^(gamma-p+1),
                                                             gamma > p - 1
  w11:          (H/s)^(dim-1)   (the p = 1 inequality's weight)

h = 0 yields the limit field with dist taken to the patch centers; it is
finite on the grid because cell centers avoid the patch centers when the
per-patch cell count is even (enforced).  Weights are evaluated at cell
centers, never nodes.
"""

from __future__ import annotations

import csv

import numpy as np

from .elliptic import CoefficientField, assemble
from .errors import AlignmentError
from .grid import CoarsePartition, SubsampleSpec
from .measurements import build_functionals
from .recovery import build_theta, multiscale_basis

__all__ = [
    "DistanceField",
    "WeightField",
    "distance_field",
    "build_weight",
    "weight_condition_check",
    "weighted_basis",
    "save_weight_field",
    "load_weight_field",
]


class DistanceField:
    """Euclidean distance from each cell center to the union of subsample sets."""

    __slots__ = ("spec", "values", "kind")

    def __init__(self, spec, values, kind):
        self.spec = spec
        self.values = values
        self.kind = kind


def _box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distance from points (N, dim) to an axis-aligned box (degenerate ok)."""
    excess = np.maximum(np.maximum(lo - points, points - hi), 0.0)
    return np.sqrt(np.sum(excess * excess, axis=1))


def distance_field(part: CoarsePartition, sub: SubsampleSpec) -> DistanceField:
    """Exact point-to-box distances, minimized over subsample sets.

    The sets are concentric with their patches, so the nearest one to any cell
    center lies in the center's own patch or an adjacent patch; only those are
    scanned.
    """
    spec = part.spec
    dim = spec.dim
    axes = spec.cell_center_coordinates()
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)

    own = np.minimum((pts * part.m).astype(int), part.m - 1)
    best = np.full(len(pts), np.inf)
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * dim), indexing="ij")).reshape(dim, -1).T
    for off in offsets:
        nb = own + off
        ok = np.all((nb >= 0) & (nb < part.m), axis=1)
        if not np.any(ok):
            continue
        ids = np.ravel_multi_index(nb[ok].T, (part.m,) * dim)
        sel = np.flatnonzero(ok)
        for patch in np.unique(ids):
            lo, hi = sub.support_box(int(patch))
            mask = sel[ids == patch]
            d = _box_distance(pts[mask], lo, hi)
            best[mask] = np.minimum(best[mask], d)
    return DistanceField(spec, best.reshape(spec.cell_shape), sub.kind)


class WeightField:
    """Positive cellwise weight with its construction parameters."""

    __slots__ = ("spec", "values", "profile", "params", "is_limit")

    def __init__(self, spec, values, profile, params, is_limit):
        self.spec = spec
        self.values = values
        self.profile = profile
        self.params = params
        self.is_limit = is_limit


def _check_limit_geometry(dist: DistanceField, part: CoarsePartition) -> None:
    if part.cells_per_patch % 2 != 0:
        raise AlignmentError(
            "limit weight (h=0) needs an even cell count per patch so cell "
            "centers stay off the patch centers"
        )


def build_weight(dist: DistanceField, profile: str, p: float, H: float, h: float, *,
                 beta: float = 1.0, gamma: float | None = None,
                 partition: CoarsePartition | None = None,
                 validate: bool = True) -> WeightField:
    """Evaluate a weight profile on cell centers from a distance field.

    ``validate=False`` bypasses the parameter admissibility checks; it exists
    so experiments can probe the failure regimes (e.g. beta = 0).
    """
    spec = dist.spec
    dim = spec.dim
    if h < 0.0:
        raise ValueError("h must be >= 0")
    if h == 0.0 and partition is not None:
        _check_limit_geometry(dist, partition)
    s = np.maximum(dist.values, h)
    if h == 0.0 and np.any(s <= 0.0):
        raise AlignmentError("limit weight hit a zero distance; cell centers touch a sample point")

    if profile == "polynomial":
        if validate and beta <= 0.0:
            raise ValueError("polynomial profile needs beta > 0")
        vals = (H / s) ** (dim - p + beta)
        params = {"profile": profile, "beta": beta, "p": p, "dim": dim, "h": h, "H": H}
    elif profile == "logarithmic":
        if gamma is None:
            gamma = p
        if validate and gamma <= p - 1.0:
            raise ValueError("logarithmic profile needs gamma > p - 1")
        log_s = np.log(1.0 / s) + 1.0
        if np.any(log_s <= 0.0):
            raise ValueError("logarithmic profile undefined: distances reach exp(1)")
        denom = np.log(1.0 / max(H, np.finfo(float).tiny)) + 1.0
        denom = max(denom, np.finfo(float).eps)  # H = 1 gives exactly 1; guard H > 1
        vals = (H / s) ** (dim - p) * log_s**gamma / denom ** (gamma - p + 1.0)
        params = {"profile": profile, "gamma": gamma, "p": p, "dim": dim, "h": h, "H": H}
    elif profile == "w11":
        vals = (H / s) ** (dim - 1)
        params = {"profile": profile, "p": p, "dim": dim, "h": h, "H": H}
    else:
        raise ValueError(f"unknown weight profile {profile!r}")
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("weight evaluation produced nonpositive or infinite cells")
    return WeightField(spec, vals, profile, params, h == 0.0)


def weight_condition_check(w: WeightField, dist: DistanceField, p: float,
                           H: float, h: float) -> dict:
    """Admissibility integral of a weight and its size relative to the patch volume.

    Integrates (H/max{h,dist})^(p(dim-1)/(p-1)) * w^(-1/(p-1)) by the midpoint
    rule; an admissible weight keeps integral/H^dim bounded as h decreases at
    fixed H.  Only defined for p > 1 (the p = 1 inequality needs no condition).
    """
    if p <= 1.0:
        raise ValueError("the weight condition applies to p > 1 only")
    spec = w.spec
    dim = spec.dim
    s = np.maximum(dist.values, h)
    integrand = (H / s) ** (p * (dim - 1) / (p - 1.0)) * w.values ** (-1.0 / (p - 1.0))
    value = float(np.sum(integrand) * spec.cell_volume)
    return {"integral_value": value, "normalized": value / H**dim}


def weighted_basis(part: CoarsePartition, sub: SubsampleSpec, w: WeightField,
                   tol: float = 1e-10):
    """Multiscale basis with the weight as the operator coefficient.

    Returns (basis, operator); ``energy_inner`` with the operator gives
    weighted energies.
    """
    coeff = CoefficientField(part.spec, w.values)
    op = assemble(part.spec, coeff)
    functionals = build_functionals(sub)
    theta = build_theta(functionals, op, tol)
    return multiscale_basis(theta), op


def save_weight_field(w: WeightField, path) -> None:
    """CSV: params header, then cell values one per line in C cell order."""
    keys = sorted(w.params)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        writer.writerow([repr(w.params[k]) if isinstance(w.params[k], float)
                         else w.params[k] for k in keys])
        writer.writerow(["cell_value"])
        for val in w.values.reshape(-1):
            writer.writerow([repr(float(val))])


def load_weight_field(spec, path) -> WeightField:
    """Read a ``save_weight_field`` file for the grid ``spec``.

    Raises ValueError unless it holds one finite, positive value per cell.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        keys = next(reader)
        raw = next(reader)
        next(reader)
        vals = np.array([float(r[0]) for r in reader])
    ncell = spec.n**spec.dim
    if len(vals) != ncell:
        raise ValueError(f"{path}: {len(vals)} cell values for a grid of {ncell} cells")
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError(f"{path}: weight values must be finite and positive")
    params = {}
    for k, v in zip(keys, raw):
        try:
            params[k] = float(v)
        except ValueError:
            params[k] = v
    profile = params.get("profile", "polynomial")
    h = float(params.get("h", 0.0))
    return WeightField(spec, vals.reshape(spec.cell_shape), profile, params, h == 0.0)
