"""Measurement functionals over subsampled sets and their growth envelopes.

A measurement functional is a unit-mass measure: the normalized indicator of a
subsampled cube (density 1/h^dim), a normalized (dim-1)-dimensional slice
density (1/h^(dim-1)), or a point evaluation at the patch center.  Applied to a
grid function it returns the measured average.  Internally each functional is a
sparse vector of node weights, consistent with the midpoint-rule inner product,
so that measuring u equals integrating u against the functional's grid density.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .grid import DomainSpec, GridFunction, SubsampleSpec

__all__ = [
    "MeasurementFunctional",
    "MeasurementVector",
    "axis_factors",
    "build_functionals",
    "measure",
    "measure_all",
    "alpha_envelope",
    "bound_integral",
]


class MeasurementFunctional:
    """One unit-mass measurement over a single patch's subsample set."""

    __slots__ = ("spec", "node_indices", "node_weights")

    def __init__(self, spec, node_indices, node_weights):
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


def axis_factors(sub: SubsampleSpec, axis: int) -> list:
    """(start node, node weights) of every patch coordinate along ``axis``.

    A flat interval is a point value, interpolated between its two nearest
    nodes; any other interval lies on grid lines, and its factor averages the
    interval's cells by the trapezoid rule.  A functional's node weights are
    the outer product of its axes' factors.
    """
    spec = sub.partition.spec
    lo, hi = sub.axis_intervals(axis)
    if np.array_equal(lo, hi):
        return [_axis_interp(spec, x) for x in lo]
    k = sub.cells_across
    w = np.ones(k + 1)
    w[0] = 0.5
    w[-1] = 0.5
    w /= w.sum()
    return [(int(round(x * spec.n)), w) for x in lo]


def build_functionals(sub: SubsampleSpec) -> list:
    """One measurement functional per patch, in patch index order."""
    spec = sub.partition.spec
    out = []
    strides = [(spec.n + 1) ** (spec.dim - 1 - axis) for axis in range(spec.dim)]
    # per axis and patch coordinate: (flat-index contribution, weights)
    factors = [[(stride * np.arange(s, s + len(w)), w) for s, w in axis_factors(sub, axis)]
               for axis, stride in enumerate(strides)]
    for mi in itertools.product(range(sub.partition.m), repeat=spec.dim):
        idx, weights = zip(*(factors[axis][k] for axis, k in enumerate(mi)))
        out.append(MeasurementFunctional(
            spec, functools.reduce(np.add.outer, idx).reshape(-1),
            functools.reduce(np.multiply.outer, weights).reshape(-1)))
    return out


def measure(u: GridFunction, phi: MeasurementFunctional) -> float:
    """Measured average of u under one functional."""
    return phi.apply(u)


@dataclass(frozen=True)
class MeasurementVector:
    """Measured averages in patch index order."""

    values: np.ndarray


def measure_all(u: GridFunction, functionals: list) -> MeasurementVector:
    """Measured averages of u under each functional."""
    return MeasurementVector(np.array([phi.apply(u) for phi in functionals]))


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

