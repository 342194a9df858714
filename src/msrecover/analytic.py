"""The paper's grid-free quantities: rate functions, the envelope bound, radial optimality.

The envelope integral of the subsample measure's mass bounds the constant whose
growth the rates rho describe.  Explicit radial profiles realize the lower bound
of the subsampled inequality, and ball-average sequences probe whether a
pointwise value at the origin exists; their integrals carry the surface factor
r^(dim-1), the unit-sphere measure cancelling in every ratio.  Every integral is
one quadrature over [0, 1], split at the integrand's kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SUBSAMPLE_KINDS, check_dim, check_integer, check_p

__all__ = [
    "rho",
    "alpha_envelope",
    "bound_integral",
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


def _unit_integral(g, kinks=()) -> float:
    """int_0^1 g(t) dt, split at the kinks inside (0, 1)."""
    from scipy.integrate import quad  # loaded by the first integral, never by the package

    pts = sorted({k for k in kinks if 0.0 < k < 1.0})
    val, _ = quad(g, 0.0, 1.0, points=pts or None, limit=300, epsabs=0.0, epsrel=1e-10)
    return float(val)


def _envelope_exponent(what: str, kind: str, dim: int, H: float, h: float) -> int:
    """The envelope's exponent: the number of thin axes of ``kind`` at ``dim``, never 0."""
    check_dim(dim)
    e = SUBSAMPLE_KINDS[kind](dim).count("thin") if kind in SUBSAMPLE_KINDS else 0
    if e == 0:
        raise ValueError(f"{what} defined for cube and slice kinds, got {kind!r} at dim {dim}")
    if not (0.0 < h <= H):
        raise ValueError(f"need 0 < h <= H, got h={h}, H={H}")
    return e


def alpha_envelope(kind: str, dim: int, H: float, h: float, t: float) -> float:
    """Upper envelope for the mass of the subsample measure under t-shrinking.

    min{1, (H/h)^e * (t/(1-t))^e}, e the number of thin axes (dim for a cube,
    dim - 1 for a slice).  Nondecreasing in t, equal to 1 from the breakpoint
    t = h/(H+h) on.
    """
    e = _envelope_exponent("alpha envelope", kind, dim, H, h)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0,1], got {t}")
    return 1.0 if t >= 1.0 else min(1.0, (H / h) ** e * (t / (1.0 - t)) ** e)


def bound_integral(kind: str, p: float, dim: int, H: float, h: float) -> float:
    """Numeric value of the envelope integral int_0^1 alpha(t)^(1/p) / t^(dim/p) dt.

    Adaptive quadrature with the envelope breakpoint t = h/(H+h) as a forced
    subdivision node.  A set flat on f axes gives the integrand a t^(-f/p)
    endpoint singularity, which is integrable only for p > f.
    """
    e = _envelope_exponent("bound integral", kind, dim, H, h)
    check_p(p)
    if dim - e >= p:
        raise ValueError(f"sliced measurements need p > {dim - e}: "
                         f"the envelope integral diverges at t=0 for p={p:g}")
    # quad's nodes lie inside (0, 1), so alpha_envelope's checks hold
    return _unit_integral(lambda t: alpha_envelope(kind, dim, H, h, t) ** (1.0 / p)
                          * t ** (-dim / p), kinks=(h / (H + h),))


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
    kinks = fn.kinks + (0.5,)
    num_p = _unit_integral(lambda r: np.abs(fn.f(r)) ** p * r ** (dim - 1), kinks)
    den_p = _unit_integral(lambda r: np.abs(fn.df(r)) ** p * r ** (dim - 1), kinks)
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
        mass = _unit_integral(lambda t: fn.f(r * t) * t ** (dim - 1), [k / r for k in fn.kinks])
        averages.append(mass * dim)
    diffs = [abs(a - b) for a, b in zip(averages, averages[1:])]
    return {"radii": radii, "averages": averages, "differences": diffs}
