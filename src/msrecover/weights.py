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
from .grid import SubsampleSpec, check_p, check_same_grid
from .measurements import build_functionals
from .recovery import build_theta, multiscale_basis

__all__ = [
    "DistanceField",
    "distance_field",
    "build_weight",
    "weight_condition_check",
    "weighted_basis",
]

# the weight profiles, in the order errors list them, each with the keys of a
# config weight it reads besides "profile"
WEIGHT_PROFILES = {"polynomial": ("beta", "validate"), "logarithmic": ("gamma", "validate"),
                   "w11": ()}


class DistanceField:
    """Euclidean distance from each cell center to the union of the sets of ``sub``."""

    __slots__ = ("sub", "values")

    def __init__(self, sub, values):
        self.sub = sub
        self.values = values


def distance_field(sub: SubsampleSpec) -> DistanceField:
    """Exact Euclidean distances from the cell centers to the union of subsample sets."""
    return DistanceField(sub, sub.distance(sub.partition.spec.cell_center_coordinates()))


def build_weight(dist: DistanceField, profile: str, p: float, *, beta: float = 1.0,
                 gamma: float | None = None, validate: bool = True) -> CoefficientField:
    """Evaluate a weight profile on cell centers from a distance field.

    H and h are those of ``dist.sub``.  Returns the cellwise coefficient of the
    weighted operator, whose constructor rejects nonpositive and non-finite
    cells.  ``validate=False`` bypasses the parameter admissibility checks; it
    exists so experiments can probe the failure regimes (e.g. beta = 0).
    """
    if profile not in WEIGHT_PROFILES:
        raise ValueError(f"unknown weight profile {profile!r}")
    check_p(p)
    sub = dist.sub
    spec, H, h = sub.partition.spec, sub.H, sub.h
    dim = spec.dim
    if h == 0.0 and sub.partition.cells_per_patch % 2 != 0:
        raise AlignmentError(
            "limit weight (h=0) needs an even cell count per patch so cell "
            "centers stay off the patch centers"
        )
    s = np.maximum(dist.values, h)

    # a huge exponent overflows to inf (and inf/inf to nan): the constructor rejects both
    with np.errstate(over="ignore", invalid="ignore"):
        if profile == "polynomial":
            if validate and not beta > 0.0:
                raise ValueError("polynomial profile needs beta > 0")
            vals = (H / s) ** (dim - p + beta)
        elif profile == "logarithmic":
            if gamma is None:
                gamma = p
            if validate and not gamma > p - 1.0:
                raise ValueError("logarithmic profile needs gamma > p - 1")
            # s <= sqrt(3) < e and H <= 1, so both logarithms exceed 1
            log_s = np.log(1.0 / s) + 1.0
            vals = ((H / s) ** (dim - p) * log_s**gamma
                    / (np.log(1.0 / H) + 1.0) ** (gamma - p + 1.0))
        else:  # w11
            vals = (H / s) ** (dim - 1)
    return CoefficientField(spec, vals)


def weight_condition_check(w: CoefficientField, dist: DistanceField, p: float) -> dict:
    """Admissibility integral of a weight and its size relative to the patch volume.

    Integrates (H/max{h,dist})^(p(dim-1)/(p-1)) * w^(-1/(p-1)) by the midpoint
    rule, H and h those of ``dist.sub``; an admissible weight keeps
    integral/H^dim bounded as h decreases at fixed H.  Only defined for p > 1
    (the p = 1 inequality needs no condition).
    """
    check_p(p)
    if not p > 1.0:
        raise ValueError("the weight condition applies to p > 1 only")
    spec = w.spec
    check_same_grid("weight", spec, "distance", dist.sub.partition.spec)
    dim = spec.dim
    H = dist.sub.H
    s = np.maximum(dist.values, dist.sub.h)
    integrand = (H / s) ** (p * (dim - 1) / (p - 1.0)) * w.values ** (-1.0 / (p - 1.0))
    value = float(np.sum(integrand) * spec.cell_volume)
    return {"integral_value": value, "normalized": value / H**dim}


def weighted_basis(sub: SubsampleSpec, w: CoefficientField):
    """Multiscale basis of the functionals of ``sub`` with the weight as the
    operator coefficient.

    Returns (basis, operator); ``energy_inner`` with the operator gives
    weighted energies.
    """
    op = assemble(sub.partition.spec, w)
    functionals = build_functionals(sub)
    theta = build_theta(functionals, op)
    return multiscale_basis(theta), op
