"""Seeded test-function library for the experiment harness.

All generators are deterministic in their seed.  Version bumps whenever a
generator's output changes, so archived experiment records stay attributable.
"""

from __future__ import annotations

import numpy as np

from .grid import CoarsePartition, DomainSpec, GridFunction, build_subsample
from .measurements import build_functionals, measure_all

LIBRARY_VERSION = 2

__all__ = ["LIBRARY_VERSION", "sine_product", "fourier_h01", "fourier_free",
           "flattened_profile"]


def sine_product(spec: DomainSpec) -> GridFunction:
    """Product of first sine modes; vanishes on the whole boundary."""
    return GridFunction.from_callable(
        spec, lambda *xs: np.prod([np.sin(np.pi * x) for x in xs], axis=0))


def _mode_indices(dim: int, kmax: int):
    grids = np.meshgrid(*([np.arange(kmax + 1)] * dim), indexing="ij")
    modes = np.stack([g.reshape(-1) for g in grids], axis=1)
    return modes


def _axis_modes(spec: DomainSpec, fn, kmax: int) -> list:
    """fn(pi k x) on each axis's nodes for k = 0..kmax, shaped to broadcast along it."""
    tables = []
    for axis, x in enumerate(spec.node_coordinates()):
        shape = [1] * spec.dim
        shape[axis] = -1
        tables.append([fn(np.pi * k * x).reshape(shape) for k in range(kmax + 1)])
    return tables


def _product_term(tables: list, k) -> np.ndarray:
    """Tensor product of the axis factors of mode k, multiplied in axis order."""
    term = tables[0][k[0]]
    for axis in range(1, len(tables)):
        term = term * tables[axis][k[axis]]
    return term


def fourier_h01(spec: DomainSpec, seed: int, kmax: int = 3) -> GridFunction:
    """Random low-order sine series with decaying coefficients; boundary zero."""
    rng = np.random.default_rng(seed)
    tables = _axis_modes(spec, np.sin, kmax)
    vals = np.zeros(spec.node_shape)
    modes = _mode_indices(spec.dim, kmax)
    for k in modes:
        if np.any(k == 0):
            continue
        c = rng.standard_normal() / (1.0 + float(np.sum(k * k)))
        vals += c * _product_term(tables, k)
    return GridFunction(spec, vals)


def fourier_free(spec: DomainSpec, seed: int, kmax: int = 3) -> GridFunction:
    """Random low-order cosine series; generic boundary values, nonconstant."""
    rng = np.random.default_rng(seed)
    tables = _axis_modes(spec, np.cos, kmax)
    vals = np.zeros(spec.node_shape)
    modes = _mode_indices(spec.dim, kmax)
    for k in modes:
        c = rng.standard_normal() / (1.0 + float(np.sum(k * k)))
        if np.all(k == 0):
            continue  # constants drop out of every average-removed quantity
        vals += c * _product_term(tables, k)
    return GridFunction(spec, vals)


def flattened_profile(part: CoarsePartition, seed: int) -> GridFunction:
    """Random boundary-zero field made exactly flat near every patch center.

    Within distance 0.05*H of a center the field is constant (gradient zero);
    it blends back to the underlying ``fourier_h01`` field over a further
    0.2*H.  Plateau and ramp stay inside the patch, so singular weights
    concentrated at the centers see no gradient where they are large.
    """
    spec = part.spec
    plateau, ramp = 0.05 * part.H, 0.2 * part.H
    base = fourier_h01(spec, seed)
    centers = build_subsample(part, "point")
    # per axis: each node's own patch coordinate and its offset from that patch's center
    sq, own = 0.0, 0
    for axis, x in enumerate(spec.node_coordinates()):
        k = np.minimum((x * part.m).astype(int), part.m - 1)
        shape = [1] * spec.dim
        shape[axis] = -1
        sq = sq + ((x - centers.axis_intervals(axis)[0][k]) ** 2).reshape(shape)
        own = own * part.m + k.reshape(shape)  # the row-major patch index
    dist = np.sqrt(sq)

    # the anchor of each patch is the base field's point measurement at its center
    anchor = measure_all(base, build_functionals(centers)).values[own]

    s = np.clip((dist - plateau) / ramp, 0.0, 1.0)
    eta = s * s * (3.0 - 2.0 * s)
    return GridFunction(spec, eta * base.values + (1.0 - eta) * anchor)
