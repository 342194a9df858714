"""Closed-form rate functions and grid-free radial computations on the unit ball.

The optimality studies live here: explicit radial profiles whose
average-removed p-norm to gradient p-norm ratio realizes the lower bound of
the subsampled inequality, and ball-average sequences probing whether a
pointwise value at the origin exists.  All integrals are one-dimensional in
the radius with the surface factor r^(dim-1); the unit-sphere measure cancels
in every ratio and is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check_integer, check_p

__all__ = [
    "rho",
    "RadialFunction",
    "radial_function",
    "power_profile",
    "eval_radial",
    "eval_radial_deriv",
    "critical_ratio",
    "ball_average_sequence",
]


def rho(variant: str, p: float, dim: int, x: float) -> float:
    """Growth rate of the optimal constant in the coarse-to-fine ratio x.

    variant "tilde" uses the plain logarithm in the balanced case dim = p;
    variant "sharp" uses its (dim-1)/dim power.  Both are 1 for dim < p and
    x^((dim-p)/p) for dim > p.
    """
    if variant not in ("sharp", "tilde"):
        raise ValueError(f"variant must be 'sharp' or 'tilde', got {variant!r}")
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    check_p(p)
    check_integer("dim", dim, 1)  # a ball's dimension, of any size
    if dim < p:
        return 1.0
    if dim > p:
        return x ** ((dim - p) / p)
    if variant == "tilde":
        return float(np.log(x + 1.0))
    return float(np.log(x + 1.0) ** ((dim - 1) / dim))


@dataclass(frozen=True)
class RadialFunction:
    """Radial profile u(r) on [0,1] with its derivative rule and known kinks."""

    f: object
    df: object
    kinks: tuple = ()


def radial_function(kind: str, h: float | None = None) -> RadialFunction:
    """A named radial profile:

      critical_log   max{0, ln(1+r/h) - ln 2} / ln(1+1/h); zero on r <= h
      critical_ramp  min{max{r-h, 0}/h, 1}; ramps from 0 to 1 on [h, 2h]
      constant       1; every ball average is 1
      loglog         ln(ln(1/r+1)); diverges at r = 0

    The critical kinds need h in (0, 1/4].
    """
    if kind in ("critical_log", "critical_ramp") and not (h is not None and 0.0 < h <= 0.25):
        raise ValueError(f"{kind} needs h in (0, 1/4]")
    if kind == "critical_log":
        scale = 1.0 / np.log(1.0 + 1.0 / h)

        def f(r):
            return np.maximum(0.0, np.log(1.0 + r / h) - np.log(2.0)) * scale

        def df(r):
            return np.where(r > h, scale / (h + r), 0.0)

        return RadialFunction(f, df, kinks=(h,))
    if kind == "critical_ramp":

        def f(r):
            return np.minimum(np.maximum(np.asarray(r) - h, 0.0) / h, 1.0)

        def df(r):
            r = np.asarray(r)
            return np.where((r > h) & (r < 2 * h), 1.0 / h, 0.0)

        return RadialFunction(f, df, kinks=(h, 2 * h))
    if kind == "constant":
        return RadialFunction(lambda r: np.ones_like(np.asarray(r, float)),
                              lambda r: np.zeros_like(np.asarray(r, float)))
    if kind == "loglog":

        def f(r):
            r = np.asarray(r, dtype=float)
            if not np.all(r > 0.0):
                raise ValueError("loglog diverges at r = 0 (the pointwise value is infinite)")
            return np.log(np.log(1.0 / r + 1.0))

        def df(r):
            r = np.asarray(r, dtype=float)
            return -1.0 / (r * (r + 1.0) * np.log(1.0 / r + 1.0))

        return RadialFunction(f, df)
    raise ValueError(f"unknown radial kind {kind!r}")


def power_profile(q: float) -> RadialFunction:
    """Custom profile r^q; finite singular-weighted gradient norm iff q > beta/p."""
    if not q > 0.0:
        raise ValueError("power profile needs q > 0")

    def f(r):
        return np.asarray(r, dtype=float) ** q

    def df(r):
        return q * np.asarray(r, dtype=float) ** (q - 1.0)

    return RadialFunction(f, df)


def eval_radial(fn: RadialFunction, r: float) -> float:
    """Pointwise value u(r); divergent kinds raise at their singular radius."""
    return float(fn.f(r))


def eval_radial_deriv(fn: RadialFunction, r: float) -> float:
    return float(fn.df(r))


def _radial_integral(g, dim: int, kinks=()) -> float:
    """int_0^1 g(r) r^(dim-1) dr, split at the kinks inside (0, 1)."""
    from scipy.integrate import quad

    pts = sorted({k for k in kinks if 0.0 < k < 1.0})

    def integrand(r):
        return g(r) * r ** (dim - 1)

    val, _ = quad(integrand, 0.0, 1.0, points=pts or None, limit=300,
                  epsabs=0.0, epsrel=1e-10)
    return float(val)


def critical_ratio(dim: int, p: float, h: float) -> float:
    """Average-removed to gradient p-norm ratio of the critical profile on the ball.

    The regime picks the profile: critical_log at dim = p, critical_ramp at
    dim > p.  It vanishes on the sampled ball of radius h, so the removed
    average is exactly zero and the numerator is the plain p-norm.  Valid for
    dim >= p; h must lie in (0, 1/4].
    """
    check_integer("dim", dim, 1)
    check_p(p)
    if not p <= dim:
        raise ValueError("critical profiles exist for dim >= p only")
    fn = radial_function("critical_log" if dim == p else "critical_ramp", h)
    num_p = _radial_integral(lambda r: np.abs(fn.f(r)) ** p, dim, kinks=fn.kinks + (0.5,))
    den_p = _radial_integral(lambda r: np.abs(fn.df(r)) ** p, dim, kinks=fn.kinks + (0.5,))
    return (num_p ** (1.0 / p)) / (den_p ** (1.0 / p))


def ball_average_sequence(fn: RadialFunction, radii, dim: int) -> dict:
    """Averages of a radial profile over shrinking balls, with their increments.

    radii must be strictly decreasing normal floats in (0, 1]: below the smallest
    normal float r t loses precision.  The average over the ball of radius r is
    taken in t = s/r, as dim * int_0^1 u(r t) t^(dim-1) dt, so its accuracy does
    not depend on r.  Returns the averages and the magnitudes of
    consecutive differences; a divergent profile shows averages growing beyond
    any bound instead of settling.
    """
    check_integer("dim", dim, 1)
    radii = list(radii)
    tiny = float(np.finfo(float).tiny)
    if not radii or any(not (tiny <= r <= 1.0) for r in radii):
        raise ValueError(f"radii must lie in [{tiny!r}, 1], the normal floats of (0, 1]")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    averages = []
    for r in radii:
        mass = _radial_integral(lambda t: fn.f(r * t), dim, kinks=[k / r for k in fn.kinks])
        averages.append(mass * dim)
    diffs = [abs(a - b) for a, b in zip(averages, averages[1:])]
    return {"radii": radii, "averages": averages, "differences": diffs}
