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
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if dim < p:
        return 1.0
    if dim > p:
        return x ** ((dim - p) / p)
    if variant == "tilde":
        return float(np.log(x + 1.0))
    return float(np.log(x + 1.0) ** ((dim - 1) / dim))


@dataclass(frozen=True)
class RadialFunction:
    """Radial profile u(r) on [0,1] with its derivative rule and known kinks.

    kinds:
      critical_log   max{0, ln(1+r/h) - ln 2} / ln(1+1/h); zero on r <= h
      critical_ramp  min{max{r-h, 0}/h, 1}; ramps from 0 to 1 on [h, 2h]
      loglog         ln(ln(1/r+1)); diverges at r = 0
      logloglog      ln(ln(ln(1/r+1))); defined for r < 1/(e-1), diverges at 0
      custom         caller-supplied (f, df)
    """

    kind: str
    h: float | None = None
    f: object = None
    df: object = None
    kinks: tuple = ()


def radial_function(kind: str, h: float | None = None) -> RadialFunction:
    if kind == "critical_log":
        if h is None or not (0.0 < h <= 0.25):
            raise ValueError("critical_log needs h in (0, 1/4]")
        scale = 1.0 / np.log(1.0 + 1.0 / h)

        def f(r):
            return np.maximum(0.0, np.log(1.0 + r / h) - np.log(2.0)) * scale

        def df(r):
            return np.where(r > h, scale / (h + r), 0.0)

        return RadialFunction(kind, h, f, df, kinks=(h,))
    if kind == "critical_ramp":
        if h is None or not (0.0 < h <= 0.25):
            raise ValueError("critical_ramp needs h in (0, 1/4]")

        def f(r):
            return np.minimum(np.maximum(np.asarray(r) - h, 0.0) / h, 1.0)

        def df(r):
            r = np.asarray(r)
            return np.where((r > h) & (r < 2 * h), 1.0 / h, 0.0)

        return RadialFunction(kind, h, f, df, kinks=(h, 2 * h))
    if kind == "loglog":

        def f(r):
            r = np.asarray(r, dtype=float)
            if np.any(r <= 0.0):
                raise ValueError("loglog diverges at r = 0 (the pointwise value is infinite)")
            return np.log(np.log(1.0 / r + 1.0))

        def df(r):
            r = np.asarray(r, dtype=float)
            return -1.0 / (r * (r + 1.0) * np.log(1.0 / r + 1.0))

        return RadialFunction(kind, None, f, df)
    if kind == "logloglog":
        r_max = 1.0 / (np.e - 1.0)

        def f(r):
            r = np.asarray(r, dtype=float)
            if np.any(r <= 0.0):
                raise ValueError("logloglog diverges at r = 0 (the pointwise value is infinite)")
            if np.any(r >= r_max):
                raise ValueError(f"logloglog is defined for r < 1/(e-1) ~ {r_max:.4f}")
            return np.log(np.log(np.log(1.0 / r + 1.0)))

        def df(r):
            r = np.asarray(r, dtype=float)
            inner = np.log(1.0 / r + 1.0)
            return -1.0 / (r * (r + 1.0) * inner * np.log(inner))

        return RadialFunction(kind, None, f, df)
    raise ValueError(f"unknown radial kind {kind!r}")


def power_profile(q: float) -> RadialFunction:
    """Custom profile r^q; finite singular-weighted gradient norm iff q > beta/p."""
    if q <= 0.0:
        raise ValueError("power profile needs q > 0")

    def f(r):
        return np.asarray(r, dtype=float) ** q

    def df(r):
        return q * np.asarray(r, dtype=float) ** (q - 1.0)

    return RadialFunction("custom", None, f, df)


def eval_radial(fn: RadialFunction, r: float) -> float:
    """Pointwise value u(r); divergent kinds raise at their singular radius."""
    return float(fn.f(r))


def eval_radial_deriv(fn: RadialFunction, r: float) -> float:
    return float(fn.df(r))


def _radial_integral(g, dim: int, lo: float, hi: float, kinks=()) -> float:
    from scipy.integrate import quad

    pts = sorted({k for k in kinks if lo < k < hi})

    def integrand(r):
        return g(r) * r ** (dim - 1)

    val, _ = quad(integrand, lo, hi, points=pts or None, limit=300,
                  epsabs=1e-12, epsrel=1e-10)
    return float(val)


def critical_ratio(kind: str, dim: int, p: float, h: float) -> float:
    """Average-removed to gradient p-norm ratio of a critical profile on the ball.

    The profile vanishes on the sampled ball of radius h, so the removed
    average is exactly zero and the numerator is the plain p-norm.  Valid for
    dim >= p with the kind matching the regime (critical_log at dim = p,
    critical_ramp at dim > p); h must lie in (0, 1/4].
    """
    if not (0.0 < h <= 0.25):
        raise ValueError("h must lie in (0, 1/4]")
    if dim < p:
        raise ValueError("critical profiles exist for dim >= p only")
    if kind == "critical_log" and dim != p:
        raise ValueError("critical_log realizes the balanced regime dim = p")
    if kind == "critical_ramp" and dim <= p:
        raise ValueError("critical_ramp realizes the regime dim > p")
    fn = radial_function(kind, h)
    num_p = _radial_integral(lambda r: np.abs(fn.f(r)) ** p, dim, 0.0, 1.0,
                             kinks=fn.kinks + (0.5,))
    den_p = _radial_integral(lambda r: np.abs(fn.df(r)) ** p, dim, 0.0, 1.0,
                             kinks=fn.kinks + (0.5,))
    return (num_p ** (1.0 / p)) / (den_p ** (1.0 / p))


def ball_average_sequence(fn: RadialFunction, radii, dim: int) -> dict:
    """Averages of a radial profile over shrinking balls, with their increments.

    radii must be strictly decreasing in (0, 1].  Returns the averages and the
    magnitudes of consecutive differences; a divergent profile shows averages
    growing beyond any bound instead of settling.
    """
    radii = list(radii)
    if not radii or any(not (0.0 < r <= 1.0) for r in radii):
        raise ValueError("radii must lie in (0, 1]")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    averages = []
    for r in radii:
        kinks = tuple(k for k in fn.kinks if k < r)
        mass = _radial_integral(lambda s: fn.f(s), dim, 0.0, r, kinks=kinks)
        averages.append(mass * dim / r**dim)
    diffs = [abs(a - b) for a, b in zip(averages, averages[1:])]
    return {"radii": radii, "averages": averages, "differences": diffs}
