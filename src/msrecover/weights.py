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

import numpy as np

from .elliptic import CoefficientField, assemble
from .errors import AlignmentError
from .grid import CoarsePartition, SubsampleSpec
from .measurements import build_functionals
from .recovery import build_theta, multiscale_basis

__all__ = [
    "DistanceField",
    "distance_field",
    "build_weight",
    "weight_condition_check",
    "weighted_basis",
]

# the weight profiles, in the order errors list them
WEIGHT_PROFILES = ("polynomial", "logarithmic", "w11")


class DistanceField:
    """Euclidean distance from each cell center to the union of subsample sets."""

    __slots__ = ("spec", "values")

    def __init__(self, spec, values):
        self.spec = spec
        self.values = values


def distance_field(part: CoarsePartition, sub: SubsampleSpec) -> DistanceField:
    """Exact Euclidean distances from the cell centers to the union of subsample sets.

    The union is a product of per-axis unions of intervals, so the distance is
    the root of the summed squared per-axis gaps to those unions.
    """
    spec = part.spec
    sq = 0.0
    for axis, x in enumerate(spec.cell_center_coordinates()):
        lo, hi = (e[:, None] for e in sub.axis_intervals(axis))
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=0)
        shape = [1] * spec.dim
        shape[axis] = -1
        sq = sq + (gap * gap).reshape(shape)
    return DistanceField(spec, np.sqrt(sq))


def _check_limit_geometry(part: CoarsePartition) -> None:
    if part.cells_per_patch % 2 != 0:
        raise AlignmentError(
            "limit weight (h=0) needs an even cell count per patch so cell "
            "centers stay off the patch centers"
        )


def build_weight(dist: DistanceField, profile: str, p: float, H: float, h: float, *,
                 beta: float = 1.0, gamma: float | None = None,
                 partition: CoarsePartition | None = None,
                 validate: bool = True) -> CoefficientField:
    """Evaluate a weight profile on cell centers from a distance field.

    Returns the cellwise coefficient of the weighted operator, whose
    constructor rejects nonpositive and non-finite cells.  ``validate=False``
    bypasses the parameter admissibility checks; it exists so experiments can
    probe the failure regimes (e.g. beta = 0).
    """
    if profile not in WEIGHT_PROFILES:
        raise ValueError(f"unknown weight profile {profile!r}")
    spec = dist.spec
    dim = spec.dim
    if h < 0.0:
        raise ValueError("h must be >= 0")
    if h == 0.0 and partition is not None:
        _check_limit_geometry(partition)
    s = np.maximum(dist.values, h)
    if h == 0.0 and np.any(s <= 0.0):
        raise AlignmentError("limit weight hit a zero distance; cell centers touch a sample point")

    if profile == "polynomial":
        if validate and beta <= 0.0:
            raise ValueError("polynomial profile needs beta > 0")
        vals = (H / s) ** (dim - p + beta)
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
    else:  # w11
        vals = (H / s) ** (dim - 1)
    return CoefficientField(spec, vals)


def weight_condition_check(w: CoefficientField, dist: DistanceField, p: float,
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


def weighted_basis(part: CoarsePartition, sub: SubsampleSpec, w: CoefficientField):
    """Multiscale basis with the weight as the operator coefficient.

    Returns (basis, operator); ``energy_inner`` with the operator gives
    weighted energies.
    """
    op = assemble(part.spec, w)
    functionals = build_functionals(sub)
    theta = build_theta(functionals, op)
    return multiscale_basis(theta), op

