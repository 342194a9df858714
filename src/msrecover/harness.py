"""Experiment orchestration: sweeps, slope fits, pass/fail gates, persistence.

``STUDIES`` declares each CLI subcommand once: its runner, CSV columns and
default config, whose keys are the fields it reads; ``GATES`` declares each
study's gates.  ``run_study`` runs one, records those fields in its report,
sets its ``passed`` from its gates and, given an output directory, writes
deterministic CSV/JSON: same config and seed, byte-identical files.
"""

from __future__ import annotations

import csv
import errno
import inspect
import json
import math
import os
import pathlib
from dataclasses import dataclass

import numpy as np

from . import testfuncs
from .analytic import ball_average_sequence, critical_ratio, power_profile, radial_function, rho
from .elliptic import (assemble, checkerboard_coefficient, constant_coefficient,
                       layered_coefficient, lognormal_coefficient)
from .errors import ConfigError
from .grid import (SUBSAMPLE_KINDS, CoarsePartition, DomainSpec, SubsampleSpec, check_dim,
                   check_integer, check_p, lp_norm, gradient_lp_norm)
from .measurements import build_functionals  # noqa: F401  (uncalled; bench's tracing test reads it)
from .recovery import recover, recovery_error_report, sharp_constant_estimate
from .weights import WEIGHT_PROFILES, build_weight, distance_field, weight_condition_check

__all__ = [
    "ExperimentConfig",
    "fit_loglog",
    "run_convergence_study",
    "run_rate_study",
    "run_degeneracy_study",
    "run_weighted_study",
    "run_pointwise_limit_study",
    "STUDIES",
    "GATES",
    "RECOVER_DEFAULTS",
    "run_study",
    "COEFFICIENTS",
    "coefficient",
    "POINTWISE_PROFILES",
]

# gate widths and levels of the studies; they are fixed, not configurable
GRID_BAND = 0.30  # rates: relative band of the normalized grid estimates
# converge: [target, width] of each fitted slope against H
SLOPE_BANDS = {"pc_l2": (1.0, 0.15), "ms_l2": (2.0, 0.2), "ms_energy": (1.0, 0.15)}
FREE_BAND = 0.25  # rates: relative band of the normalized grid-free ratios (dim <= p)
EXPONENT_WIDTH = 0.1  # rates: grid-free exponent fit against (dim - p)/p (dim > p)
WEIGHTED_MAX_MIN = 3.0  # degeneracy: cap on the weighted error's max/min where it acts
CONSTANT_SLACK = 0.25  # weighted: growth allowed to the constant fitted at h = H
CONDITION_POINTS = 5  # weighted: sweep points the condition class needs
CONDITION_REFERENCE = 2  # weighted: sweep index the condition growth is measured from
CONDITION_BOUNDED = 1.6  # weighted: condition growth up to this is "bounded"
CONDITION_DIVERGENT = 2.0  # weighted: from this on "divergent", between "inconclusive"
RATE_SLACK = 0.2  # pointwise: slack on the per-halving difference ratio
DIVERGENCE_LEVEL = 3.0  # pointwise: growing averages above this level diverge

# ExperimentConfig field -> its JSON type, in the order the types are checked
_FIELD_TYPES = dict(dim="integer", p="number", n="integer", kind="string", basis="string",
                    r="number", m="integer", H_sweep="array", r_sweep="array", h_sweep="array",
                    radii="array", coeff="object", weight="object", profile_kind="string",
                    profile_q="number", seed="integer", num_functions="integer")
# a JSON type -> the Python types it accepts; bool is an int subclass but is accepted nowhere
_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "array": list,
               "object": dict}
# a config coeff's "name" -> its generator; the coeff's other keys are the
# generator's parameters after spec, required where the signature has no default
COEFFICIENTS = {"constant": constant_coefficient, "checkerboard": checkerboard_coefficient,
                "layered": layered_coefficient, "lognormal": lognormal_coefficient}
# a pointwise profile_kind -> the classification its ball averages must reach;
# power is r^profile_q, the others are the analytic radial functions of that name
POINTWISE_PROFILES = {"power": "convergent", "constant": "convergent", "loglog": "divergent"}
# the recovery bases a config's basis names, in the order errors list them
BASES = ("ms", "pc")


def fit_loglog(points) -> dict:
    """Least-squares slope of log y against log x, as the report writes it."""
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 3:
        raise ValueError("need at least 3 distinct x values to fit")
    if not all(x > 0.0 and y > 0.0 for x, y in pts):
        raise ValueError("log-log fit needs strictly positive data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": float(r2),
            "points_used": len(pts), "fit_domain": "log-log"}


class ExperimentConfig:
    """A command's sweep parameters, each checked: exactly the fields it is built with.
    ``STUDIES`` and ``RECOVER_DEFAULTS`` hold the only defaults, so reading a field the
    config was not given raises ``AttributeError``."""

    def __init__(self, **values):
        unknown = sorted(set(values) - set(_FIELD_TYPES))
        if unknown:
            raise TypeError(f"ExperimentConfig got unknown fields: {unknown}")
        # validated, never coerced: the report records the values as given
        for key in filter(values.__contains__, _FIELD_TYPES):
            what, value = _FIELD_TYPES[key], values[key]
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[what]):
                raise ConfigError(f"{key} must be a JSON {what}, got {value!r}")
            if what == "number":  # NaN and Infinity parse as JSON numbers
                _check_number(key, value, positive=False)
        if "dim" in values:
            check_dim(values["dim"])  # the grid's rules, for the studies that build no grid
        if "p" in values:
            check_p(values["p"])
        if "num_functions" in values:
            check_integer("num_functions", values["num_functions"], 1)
        for key, choices in (("kind", SUBSAMPLE_KINDS), ("basis", BASES),
                             ("profile_kind", POINTWISE_PROFILES)):
            if key in values:
                _check_choice(key, values[key], choices)
        if "weight" in values:
            weight = values["weight"]
            profile = _profile(weight)
            _check_choice("weight profile", profile, WEIGHT_PROFILES)
            _check_keys(f"{profile} weight", set(weight) - {"profile"}, (),
                        WEIGHT_PROFILES[profile])
            for key in ("beta", "gamma"):
                if key in weight:
                    _check_number(f"weight {key}", weight[key], positive=False)
            if "validate" in weight and not isinstance(weight["validate"], bool):
                raise ConfigError(f"weight validate must be true or false, "
                                  f"got {weight['validate']!r}")
        if "coeff" in values:
            coeff = values["coeff"]
            name = _generator_name(coeff)
            if not (isinstance(name, str) and name in COEFFICIENTS):
                raise ConfigError(f"unknown coefficient generator {name!r}")
            params = list(inspect.signature(COEFFICIENTS[name]).parameters.values())[1:]
            _check_keys(f"{name} coeff", set(coeff) - {"name"},
                        [q.name for q in params if q.default is q.empty], [q.name for q in params])
            for key in ("value", "contrast", "sigma"):
                if key in coeff:
                    _check_number(f"coeff {key}", coeff[key], positive=key != "sigma")
            # stored as Python ints, which the report can write; the generator checks an
            # axis against the grid
            values["coeff"] = {**coeff, **{key: check_integer(f"coeff {key}", coeff[key], 0)
                                           for key in ("axis", "seed") if key in coeff}}
        if "seed" in values:
            check_integer("seed", values["seed"], 0)  # numpy seeds are non-negative
        for key in filter(values.__contains__, ("H_sweep", "r_sweep", "h_sweep", "radii")):
            sweep = values[key]
            for value in sweep:
                _check_number(f"{key} entries", value, positive=True)
            if len(set(sweep)) < len(sweep):  # a repeated point adds nothing to a gate
                raise ConfigError(f"{key} repeats a value: {sweep!r}")
        vars(self).update(values)

    @classmethod
    def from_json(cls, path, defaults) -> "ExperimentConfig":
        """``defaults`` overridden key by key by a JSON object of some of their keys."""
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        bad = sorted(set(raw) - set(defaults))
        if bad:
            raise ConfigError(f"keys this command does not read: {bad}; it reads {list(defaults)}")
        return cls(**{**defaults, **raw})


def _unique_keys(pairs: list) -> dict:
    """A config JSON object; a key it repeats is malformed, not last-one-wins."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"a config object repeats keys: {repeated}")
    return dict(pairs)


def _check_number(what: str, value, positive: bool) -> None:
    """A JSON number (bool excluded) that is finite, and positive if asked."""
    ok = not isinstance(value, bool) and isinstance(value, (int, float))
    try:
        ok = ok and math.isfinite(value) and (value > 0 or not positive)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        sign = "positive " if positive else ""
        raise ConfigError(f"{what} must be a {sign}finite number, got {value!r}")


def _check_choice(what: str, value, choices) -> None:
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{what} must be one of {list(choices)}, got {value!r}")


def _check_keys(what: str, given, required, optional) -> None:
    unknown = sorted(set(given) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = sorted(set(required) - set(given))
    if missing:
        raise ConfigError(f"{what} needs keys: {missing}")


def _generator_name(coeff: dict):
    """The generator a config coeff names; one without a "name" key is constant."""
    return coeff.get("name", "constant")


def coefficient(spec: DomainSpec, cfg: ExperimentConfig):
    """The config coeff on ``spec``: its generator called with the coeff's other keys."""
    keys = {k: v for k, v in cfg.coeff.items() if k != "name"}
    return COEFFICIENTS[_generator_name(cfg.coeff)](spec, **keys)


def _profile(weight: dict) -> str:
    """The profile of a config weight; one without a "profile" key is polynomial."""
    return weight.get("profile", "polynomial")


def _weight(cfg: ExperimentConfig, dist):
    """The config weight on ``dist``; a key it leaves out takes ``build_weight``'s default."""
    keys = {k: v for k, v in cfg.weight.items() if k != "profile"}
    return build_weight(dist, _profile(cfg.weight), cfg.p, **keys)


def _band_gate(normalized: list, band: float) -> dict:
    """A relative band gate: ``passed`` if every value lies within ``band`` times
    their mean (``band_center``) of it."""
    center = float(np.mean(normalized))
    return {"normalized": normalized, "band": band, "band_center": center,
            "passed": all(abs(v - center) <= band * center for v in normalized)}


def _nondecreasing(estimates) -> bool:
    """Each estimate at least its predecessor, up to a relative 1e-6.

    Neighbouring constants can be equal (the 2D r = 1 and r = 1/2 cubes share
    their maximizer); the slack keeps rounding between them from reading as a
    decrease.
    """
    return all(b >= a * (1.0 - 1e-6) for a, b in zip(estimates, estimates[1:]))


def _at_least(cfg: ExperimentConfig, key: str, least: int, what: str) -> None:
    """Refuse a sweep ``key`` of fewer than ``least`` points: a gate on fewer
    would pass on too few estimates."""
    got = len(getattr(cfg, key))
    if got < least:
        raise ConfigError(f"{key} needs at least {least} {what}, got {got}")


def _ratio_sweep(cfg: ExperimentConfig, part) -> list:
    """The subsamples of ``cfg.kind`` at each ``r_sweep`` ratio on ``part``.  A set with
    no thin axis has no ratio: a sweep over it would repeat one set."""
    sweep = [SubsampleSpec(part, cfg.kind, r) for r in cfg.r_sweep]
    if "thin" not in sweep[0].extents:
        raise ConfigError("an r_sweep needs a cube or slice kind: a point set has no ratio")
    return sweep


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def run_convergence_study(cfg: ExperimentConfig) -> dict:
    """Recovery error against patch size at a fixed subsample ratio.

    Fits (log-log) the piecewise-constant L2 error, the multiscale L2 error,
    and the multiscale energy error against H, and verifies the energy
    stability of the multiscale recovery at every sweep point.
    """
    _at_least(cfg, "H_sweep", 3, "patch sizes")
    if not (0.0 < cfg.r <= 1.0):
        raise ConfigError("fixed ratio r must lie in (0, 1]")
    spec = DomainSpec(cfg.dim, cfg.n)
    if min(cfg.H_sweep) < spec.spacing:  # before 1/H, which overflows at a subnormal H
        raise ConfigError(f"H_sweep entries must be at least one cell, 1/n = {spec.spacing!r}, "
                          f"got {cfg.H_sweep!r}")
    a = coefficient(spec, cfg)
    op = assemble(spec, a)
    u = testfuncs.sine_product(spec)

    def one_point(H):
        m = round(1.0 / H)
        if abs(m * H - 1.0) > 1e-12:
            raise ConfigError(f"H={H} is not 1/m for integer m")
        part = CoarsePartition(spec, m)
        sub = SubsampleSpec(part, cfg.kind, cfg.r)
        rep_ms = recovery_error_report(u, recover(u, sub, op), {"basis": "ms"}, a=op)
        return (H, sub.h, lp_norm(u - recover(u, sub), 2.0), rep_ms.l2_error,
                rep_ms.energy_error, rep_ms.energy_stable)

    rows = [one_point(H) for H in cfg.H_sweep]
    hs = [row[0] for row in rows]
    fits = {
        "pc_l2": fit_loglog(zip(hs, [r[2] for r in rows])),
        "ms_l2": fit_loglog(zip(hs, [r[3] for r in rows])),
        "ms_energy": fit_loglog(zip(hs, [r[4] for r in rows])),
    }
    return {
        "fits": fits,
        "energy_stable_everywhere": all(r[5] for r in rows),
        "rows": [list(r) for r in rows],
    }


def run_rate_study(cfg: ExperimentConfig) -> dict:
    """Growth of the optimal constant as the subsample shrinks at fixed H.

    Single-patch grid sweep: the eigen estimate per ratio, normalized by both
    rate variants.  Off-balance regimes (dim > p) add a grid-free exponent fit
    from the critical-profile ratio.
    """
    if not (cfg.r_sweep or cfg.h_sweep):
        raise ConfigError("rate study needs an r_sweep (grid) or h_sweep (grid-free)")
    for key, least, what in (("r_sweep", 2, "ratios"), ("h_sweep", 3, "radii")):
        if getattr(cfg, key):
            _at_least(cfg, key, least, what)
    report, rows = {}, []

    if cfg.r_sweep:
        if cfg.p != 2.0:
            raise ConfigError("the grid eigen estimate is a p = 2 construction")
        spec = DomainSpec(cfg.dim, cfg.n)
        grid_rows = []
        for sub in _ratio_sweep(cfg, CoarsePartition(spec, 1)):
            est = sharp_constant_estimate(sub)
            rv = rho("sharp", cfg.p, cfg.dim, 1.0 / sub.ratio)
            grid_rows.append((sub.ratio, est, rv, est / rv, "grid"))
        rows.extend(grid_rows)
        report["grid"] = {"estimates": [g[1] for g in grid_rows],
                          **_band_gate([g[3] for g in grid_rows], GRID_BAND),
                          "monotone_growth": _nondecreasing([g[1] for g in grid_rows])}

    if cfg.h_sweep:
        free_rows = []
        for h in cfg.h_sweep:
            ratio = critical_ratio(cfg.dim, cfg.p, h)
            rv = rho("sharp", cfg.p, cfg.dim, 1.0 / h)
            free_rows.append((h, ratio, rv, ratio / rv, "grid-free"))
        rows.extend(free_rows)
        if cfg.dim > cfg.p:
            fit = fit_loglog([(1.0 / h, ratio) for h, ratio, _, _, _ in free_rows])
            target = (cfg.dim - cfg.p) / cfg.p
            report["grid_free"] = {"fit": fit, "target_exponent": target, "width": EXPONENT_WIDTH,
                                   "passed": abs(fit["slope"] - target) <= EXPONENT_WIDTH}
        else:
            report["grid_free"] = _band_gate([fr[3] for fr in free_rows], FREE_BAND)

    report["rows"] = [list(r) for r in rows]
    return report


def run_degeneracy_study(cfg: ExperimentConfig) -> dict:
    """Paired recovery-error curves as the subsample shrinks to points.

    The weighted multiscale recovery must stay flat (bounded max/min) down to
    the point-measurement endpoint, while the optimal constant of one patch of
    the same sets grows monotonically.  The flatness gate reads only the
    points where the weight acts: a weight that is constant on every cell only
    rescales the operator, so there the weighted recovery is the unweighted
    one.
    """
    if cfg.dim < cfg.p:
        raise ConfigError("the degeneracy regime needs dim >= p")
    if cfg.p != 2.0:
        raise ConfigError("the grid eigen estimate is a p = 2 construction")
    _at_least(cfg, "r_sweep", 2, "ratios")
    spec = DomainSpec(cfg.dim, cfg.n)
    part = CoarsePartition(spec, cfg.m)
    u = testfuncs.flattened_profile(part, cfg.seed)
    op = assemble(spec, constant_coefficient(spec))
    sweep = [SubsampleSpec(part, "cube", r) for r in cfg.r_sweep] + [
        SubsampleSpec(part, "point")]
    # the weights first: the gate's precondition fails before any recovery runs
    weights = [_weight(cfg, distance_field(sub)) for sub in sweep]
    acts = [w.a_min < w.a_max for w in weights]
    if sum(acts) < 2:
        raise ConfigError("degeneracy study needs the weight to act (vary across cells) "
                          "at 2 or more sweep points")
    rows = [(sub.h, e := lp_norm(u - recover(u, sub, op), 2.0),
             lp_norm(u - recover(u, sub, assemble(spec, w)), 2.0) if act else e)
            for sub, w, act in zip(sweep, weights, acts)]
    active = [row[2] for row, a in zip(rows, acts) if a]

    constants = [sharp_constant_estimate(sub) for sub in sweep]  # one patch's (cross-check)

    _, unweighted_vals, weighted_vals = zip(*rows)
    return {
        "weighted_max_min": max(weighted_vals) / min(weighted_vals),
        "weighted_active_max_min": max(active) / min(active),
        "unweighted_growth": max(unweighted_vals) / unweighted_vals[0],
        "sharp_constants": constants,
        "sharp_monotone": _nondecreasing(constants),
        "rows": [[*r, c] for r, c in zip(rows, constants)],
    }


def run_weighted_study(cfg: ExperimentConfig) -> dict:
    """Single-constant check of the weighted average-removal inequality.

    Draws seeded smooth fields on a single patch and verifies that one fitted
    constant covers  ||u - measured(u)||_p <= C H ||grad u||_{p,w}  across the
    whole subsample sweep, and that the weight admissibility integral stays
    bounded over the sweep.
    """
    _at_least(cfg, "r_sweep", 2, "ratios")
    spec = DomainSpec(cfg.dim, cfg.n)
    part = CoarsePartition(spec, 1)
    H = part.H
    if _profile(cfg.weight) != "w11" and cfg.p <= 1.0:
        raise ConfigError("p must exceed 1 unless using the w11 profile")
    sweep = _ratio_sweep(cfg, part)
    funcs = [testfuncs.fourier_free(spec, cfg.seed + k) for k in range(cfg.num_functions)]

    rows, per_h_max, condition = [], [], []
    for sub in sweep:
        dist = distance_field(sub)
        w = _weight(cfg, dist)
        ratios = []
        for u in funcs:
            # the one patch's recovery is the measured average
            lhs = lp_norm(u - recover(u, sub), cfg.p)
            rhs = H * gradient_lp_norm(u, cfg.p, weight=w)
            ratios.append(lhs / rhs)
        cmax = max(ratios)
        per_h_max.append(cmax)
        cond = (weight_condition_check(w, dist, cfg.p)["normalized"]
                if cfg.p > 1.0 else None)
        condition.append(cond)
        rows.append((sub.h, cmax, cond))

    condition_class = None
    if cfg.p > 1.0 and len(condition) >= CONDITION_POINTS:
        cond_growth = condition[-1] / condition[CONDITION_REFERENCE]
        condition_class = "bounded" if cond_growth <= CONDITION_BOUNDED else (
            "divergent" if cond_growth >= CONDITION_DIVERGENT else "inconclusive")

    return {
        "fitted_constant": per_h_max[0] * (1.0 + CONSTANT_SLACK),
        "per_h_max_ratio": per_h_max,
        "constant_growth": max(per_h_max) / per_h_max[0],
        "constant_slack": CONSTANT_SLACK,
        "condition_normalized": condition,
        "condition_class": condition_class,
        "rows": [list(r) for r in rows],
    }


def run_pointwise_limit_study(cfg: ExperimentConfig) -> dict:
    """Ball-average sequences: convergent with the guaranteed rate, or divergent.

    A profile with finite singular-weighted gradient norm must be Cauchy with
    per-halving difference ratio no worse than 2^(-beta/p) (20 percent slack);
    the divergent counterexamples must grow past DIVERGENCE_LEVEL.
    """
    _at_least(cfg, "radii", 4, "radii")
    beta = cfg.weight.get("beta", inspect.signature(build_weight).parameters["beta"].default)
    # the target rate is the polynomial weight's: beta is the only weight key read
    if not set(cfg.weight.items()) <= {("profile", "polynomial"), ("beta", beta)}:
        raise ConfigError(f"pointwise reads only a polynomial weight's beta, got {cfg.weight}")
    if beta <= 0:  # every bounded sequence would meet a target ratio of 1 or more
        raise ConfigError("polynomial profile needs beta > 0")  # build_weight's rule
    fn = (power_profile(cfg.profile_q) if cfg.profile_kind == "power"
          else radial_function(cfg.profile_kind))
    seq = ball_average_sequence(fn, cfg.radii, cfg.dim)
    diffs = seq["differences"]
    target = 2.0 ** (-beta / cfg.p)
    averages = seq["averages"]
    strictly_growing = all(b > a + 1e-12 for a, b in zip(averages, averages[1:]))
    if strictly_growing and averages[-1] > DIVERGENCE_LEVEL:
        # level check first: slowly divergent profiles have shrinking
        # increments and would otherwise masquerade as Cauchy
        classification = "divergent"
        measured = None
        rate_ok = False
    else:
        # no positive difference to form a ratio (a constant profile): no decay to measure
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
        with np.errstate(divide="ignore"):  # a difference that underflows to 0: log -inf
            measured = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
        rate_ok = measured <= target * (1.0 + RATE_SLACK)
        shrinking = diffs[-1] <= diffs[0]
        classification = "convergent" if (rate_ok and shrinking) else "inconclusive"
    rows = list(zip(seq["radii"], seq["averages"], [float("nan")] + diffs))
    return {
        "classification": classification,
        "expected": POINTWISE_PROFILES[cfg.profile_kind],
        "measured_ratio": measured,
        "target_ratio": target,
        "rate_band_pass": bool(rate_ok),
        "rows": [list(r) for r in rows],
    }


@dataclass(frozen=True)
class Study:
    """A CLI subcommand: its runner, default config and CSV columns.  The defaults'
    keys are the fields it reads: all its config file may hold and its report records."""

    runner: object  # ExperimentConfig -> report dict whose "rows" match columns
    defaults: dict
    columns: tuple


_RATE_COLUMNS = ("h", "ratio", "rho_value", "normalized_ratio", "source")

STUDIES = {
    "converge": Study(run_convergence_study,
                      dict(dim=1, n=256, kind="cube", r=0.5,
                           H_sweep=[1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32],
                           coeff={"name": "constant", "value": 1.0}),
                      ("H", "h", "pc_l2_error", "ms_l2_error", "ms_energy_error",
                       "energy_stable")),
    "rates": Study(run_rate_study,
                   dict(dim=2, p=2.0, n=256, kind="cube",
                        r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16], h_sweep=[]),
                   _RATE_COLUMNS),
    "critical": Study(run_rate_study,
                      dict(dim=2, p=2.0, n=256, kind="cube",
                           r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16],
                           h_sweep=[1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]),
                      _RATE_COLUMNS),
    "degeneracy": Study(run_degeneracy_study,
                        dict(dim=2, p=2.0, n=128, m=2,
                             r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8],
                             weight={"profile": "polynomial", "beta": 1.0}, seed=0),
                        ("h", "unweighted_ms_l2", "weighted_ms_l2", "sharp_constant")),
    "weighted": Study(run_weighted_study,
                      dict(dim=2, p=2.0, n=64, kind="cube",
                           r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16],
                           weight={"profile": "polynomial", "beta": 1.0}, seed=0, num_functions=50),
                      ("h", "max_ratio", "condition_normalized")),
    "pointwise": Study(run_pointwise_limit_study,
                       dict(dim=2, p=2.0, radii=[2.0**-k for k in range(1, 11)],
                            weight={"profile": "polynomial", "beta": 1.0},
                            profile_kind="power", profile_q=0.55),
                       ("h", "average", "difference")),
}
# each study's gates: gate name -> (the config sweep it needs, None if it always applies;
# its verdict on the runner's report, which raises KeyError on a missing statistic).
# A rate section's passed is its _band_gate band or, off balance, its exponent fit.
_RATE_GATES = {"grid": ("r_sweep", lambda r: r["grid"]["passed"]),
               "grid_free": ("h_sweep", lambda r: r["grid_free"]["passed"])}
GATES = {
    "converge": {**{fit: (None, lambda r, fit=fit, band=band:
                          abs(r["fits"][fit]["slope"] - band[0]) <= band[1])
                    for fit, band in SLOPE_BANDS.items()},
                 "energy_stable_everywhere": (None, lambda r: r["energy_stable_everywhere"])},
    "rates": _RATE_GATES, "critical": _RATE_GATES,  # one runner, one set of rows
    "degeneracy": {"weighted_active_max_min":
                   (None, lambda r: r["weighted_active_max_min"] <= WEIGHTED_MAX_MIN),
                   "sharp_monotone": (None, lambda r: r["sharp_monotone"])},
    # one constant, fitted at h = H, keeps covering the sweep: the ratio may not grow
    "weighted": {"constant_growth": (None, lambda r: r["constant_growth"] <= 1 + CONSTANT_SLACK)},
    "pointwise": {"classification": (None, lambda r: r["classification"] == r["expected"])},
}
# `msrecover recover`: the grid (dim, n) comes from its input file
RECOVER_DEFAULTS = dict(m=2, kind="cube", r=1.0, basis="ms",
                        coeff={"name": "constant", "value": 1.0})


def _check_out_dir(out_dir, files) -> None:
    """Raise the ``OSError`` that creating ``out_dir`` and writing ``files`` there
    would, creating nothing: it must not be an existing non-directory, and neither
    may its nearest existing ancestor; no file may be an existing directory."""
    path = pathlib.Path(out_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == path else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out_dir))
    for file in filter(os.path.isdir, files):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), file)


def run_study(name: str, cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run the study ``name`` of ``STUDIES`` on ``cfg`` and return its report.

    The report's config is the fields the study reads, with the library version.
    Its ``passed`` is every verdict of ``GATES[name]`` that applies.
    Given ``out_dir``, writes ``<name>_rows.csv`` (the report's rows under the
    study's columns) and ``<name>_report.json`` there.
    """
    study = STUDIES[name]
    if out_dir is not None:
        stem = os.path.join(out_dir, name)
        _check_out_dir(out_dir, (f"{stem}_rows.csv", f"{stem}_report.json"))
    report = study.runner(cfg)
    report["config"] = {**{k: getattr(cfg, k) for k in study.defaults},
                        "library_version": testfuncs.LIBRARY_VERSION}
    report["passed"] = all([verdict(report) for sweep, verdict in GATES[name].values()
                            if sweep is None or getattr(cfg, sweep)])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(f"{stem}_rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(study.columns)
            writer.writerows([_fmt(v) for v in row] for row in report["rows"])
        with open(f"{stem}_report.json", "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report
