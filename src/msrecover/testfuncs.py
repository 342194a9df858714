"""Seeded test-function library for the experiment harness.

All generators are deterministic in their seed.  Version bumps whenever a
generator's output changes, so archived experiment records stay attributable.
"""

from __future__ import annotations

import numpy as np

from .grid import CoarsePartition, DomainSpec, GridFunction, build_subsample
from .measurements import contract
from .recovery import recover

LIBRARY_VERSION = 3
# the seeded series keep the modes k_a = 0..KMAX on every axis
KMAX = 3

__all__ = ["LIBRARY_VERSION", "KMAX", "sine_product", "fourier_h01", "fourier_free",
           "flattened_profile"]


def sine_product(spec: DomainSpec) -> GridFunction:
    """Product of first sine modes; vanishes on the whole boundary."""
    return GridFunction.from_callable(
        spec, lambda *xs: np.prod([np.sin(np.pi * x) for x in xs], axis=0))


def _coefficients(rng, dim: int, skip_zero_axis: bool) -> np.ndarray:
    """(KMAX+1)^dim tensor of c_k = N(0,1) / (1 + |k|^2), drawn in row-major mode order.

    With ``skip_zero_axis`` a mode with any k_a = 0 draws nothing and stays 0.
    """
    k = np.indices((KMAX + 1,) * dim)
    ksq = np.sum(k * k, axis=0)
    coef = np.zeros(ksq.shape)
    drawn = np.all(k > 0, axis=0) if skip_zero_axis else np.ones(ksq.shape, dtype=bool)
    coef[drawn] = rng.standard_normal(int(drawn.sum())) / (1.0 + ksq[drawn])
    return coef


def _series(spec: DomainSpec, coef: np.ndarray, fn) -> np.ndarray:
    """sum_k coef[k] prod_a fn(pi k_a x_a) on the nodes, contracted one axis at a time.

    Each mode axis becomes its node axis; the contraction adds the terms in k
    order, so in 1D it adds them as a mode-by-mode sum does.
    """
    x = spec.node_coordinates()[0]
    table = fn(np.pi * np.arange(len(coef))[:, None] * x)  # (KMAX+1, n+1)
    return contract(coef, [table.T] * spec.dim)


def fourier_h01(spec: DomainSpec, seed: int) -> GridFunction:
    """Random low-order sine series with decaying coefficients; boundary zero."""
    coef = _coefficients(np.random.default_rng(seed), spec.dim, skip_zero_axis=True)
    return GridFunction(spec, _series(spec, coef, np.sin))


def fourier_free(spec: DomainSpec, seed: int) -> GridFunction:
    """Random low-order cosine series; generic boundary values, nonconstant."""
    coef = _coefficients(np.random.default_rng(seed), spec.dim, skip_zero_axis=False)
    coef[(0,) * spec.dim] = 0.0  # constants drop out of every average-removed quantity
    return GridFunction(spec, _series(spec, coef, np.cos))


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
    # each patch's anchor is the base field's point measurement at its center; the
    # pc recovery's face averages never show, the blend being 1 from 0.25*H on
    anchor = recover(base, centers)
    s = np.clip((centers.distance(spec.node_coordinates()) - plateau) / ramp, 0.0, 1.0)
    eta = s * s * (3.0 - 2.0 * s)
    return GridFunction(spec, eta * base.values + (1.0 - eta) * anchor.values)
