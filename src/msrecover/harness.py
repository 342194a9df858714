"""Experiment orchestration: sweeps, slope fits, pass/fail gates, persistence.

Every study returns a plain dict embedding its fully resolved configuration
and writes deterministic CSV/JSON when given an output directory: same config
and seed, byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import testfuncs
from .analytic import (RadialFunction, ball_average_sequence, critical_ratio, power_profile,
                       radial_function, rho)
from .elliptic import (assemble, checkerboard_coefficient, constant_coefficient,
                       layered_coefficient, lognormal_coefficient)
from .errors import ConfigError
from .grid import DomainSpec, build_partition, build_subsample, lp_norm, gradient_lp_norm
from .measurements import build_functionals, measure, measure_all
from .recovery import (build_theta, ms_recover, multiscale_basis, pc_recover,
                       recovery_error_report, sharp_constant_estimate)
from .weights import build_weight, distance_field, weight_condition_check, weighted_basis

__all__ = [
    "ExperimentConfig",
    "FitResult",
    "fit_loglog",
    "run_convergence_study",
    "run_rate_study",
    "run_degeneracy_study",
    "run_weighted_study",
    "run_pointwise_limit_study",
]

# gate widths and levels of the studies; they are fixed, not configurable
GRID_BAND = 0.30  # rates: relative band of the normalized grid estimates
FREE_BAND = 0.25  # rates: relative band of the normalized grid-free ratios (dim <= p)
EXPONENT_WIDTH = 0.1  # rates: grid-free exponent fit against (dim - p)/p (dim > p)
WEIGHTED_MAX_MIN = 3.0  # degeneracy: cap on the weighted error's max/min
CONSTANT_SLACK = 0.25  # weighted: growth allowed to the constant fitted at h = H
RATE_SLACK = 0.2  # pointwise: slack on the per-halving difference ratio
DIVERGENCE_LEVEL = 3.0  # pointwise: growing averages above this level diverge

# the only keys a config's ``tolerances`` may set
_TOLERANCE_KEYS = ("slopes", "expect_condition")
_WEIGHT_KEYS = ("profile", "beta", "gamma", "validate")
# coefficient generator -> (required keys, optional keys) besides "name"
_COEFF_KEYS = {"constant": ((), ("value",)), "checkerboard": (("contrast",), ()),
               "layered": (("contrast",), ("axis",)), "lognormal": ((), ("sigma", "seed"))}


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    points_used: int
    fit_domain: str = "log-log"

    def to_dict(self):
        return asdict(self)


def fit_loglog(points) -> FitResult:
    """Least-squares slope of log y against log x."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit")
    if any(x <= 0.0 or y <= 0.0 for x, y in pts):
        raise ValueError("log-log fit needs strictly positive data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), float(r2), len(pts))


@dataclass
class ExperimentConfig:
    """Bag of sweep parameters; each study validates the fields it needs."""

    name: str = "study"
    dim: int = 1
    p: float = 2.0
    n: int = 256
    kind: str = "cube"
    basis: str = "ms"
    r: float = 1.0
    m: int = 2
    H_sweep: list = field(default_factory=list)
    r_sweep: list = field(default_factory=list)
    h_sweep: list = field(default_factory=list)
    radii: list = field(default_factory=list)
    coeff: dict = field(default_factory=lambda: {"name": "constant", "value": 1.0})
    weight: dict = field(default_factory=lambda: {"profile": "polynomial", "beta": 1.0})
    profile_kind: str = "power"
    profile_q: float = 0.55
    seed: int = 0
    num_functions: int = 50
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("tolerances", "weight", "coeff"):
            if not isinstance(getattr(self, key), dict):
                raise ConfigError(f"{key} must be a JSON object")
        _check_keys("tolerances", self.tolerances, (), _TOLERANCE_KEYS)
        _check_keys("weight", self.weight, (), _WEIGHT_KEYS)
        name = self.coeff.get("name", "constant")
        if name not in _COEFF_KEYS:
            raise ConfigError(f"unknown coefficient generator {name!r}")
        _check_keys(f"{name} coeff", set(self.coeff) - {"name"}, *_COEFF_KEYS[name])

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def resolved(self) -> dict:
        out = asdict(self)
        out["library_version"] = testfuncs.LIBRARY_VERSION
        return out


def _check_keys(what: str, given, required, optional) -> None:
    unknown = sorted(set(given) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = sorted(set(required) - set(given))
    if missing:
        raise ConfigError(f"{what} needs keys: {missing}")


def _coefficient(spec: DomainSpec, cfg: ExperimentConfig):
    c = cfg.coeff
    name = c.get("name", "constant")
    if name == "checkerboard":
        return checkerboard_coefficient(spec, c["contrast"])
    if name == "layered":
        return layered_coefficient(spec, c["contrast"], c.get("axis", 0))
    if name == "lognormal":
        return lognormal_coefficient(spec, c.get("sigma", 1.0), c.get("seed", cfg.seed))
    return constant_coefficient(spec, c.get("value", 1.0))


def _weight(cfg: ExperimentConfig, part, sub, dist):
    w = cfg.weight
    return build_weight(dist, w.get("profile", "polynomial"), cfg.p, part.H, sub.h,
                        beta=w.get("beta", 1.0), gamma=w.get("gamma"), partition=part,
                        validate=w.get("validate", True))


def _nondecreasing(estimates) -> bool:
    """Each estimate at least its predecessor, up to a relative 1e-6.

    The slack sits well above the eigen estimate's own stopping tolerance, so
    solver noise between equal constants does not read as a decrease.
    """
    return all(b >= a * (1.0 - 1e-6) for a, b in zip(estimates, estimates[1:]))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(report: dict, out_dir, columns, rows) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    name = report["config"]["name"]
    _write_rows(os.path.join(out_dir, f"{name}_rows.csv"), columns, rows)
    _write_report(os.path.join(out_dir, f"{name}_report.json"), report)


def run_convergence_study(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Recovery error against patch size at a fixed subsample ratio.

    Fits (log-log) the piecewise-constant L2 error, the multiscale L2 error,
    and the multiscale energy error against H, and verifies the energy
    stability of the multiscale recovery at every sweep point.
    """
    if len(cfg.H_sweep) < 3:
        raise ConfigError("convergence study needs an H_sweep of at least 3 values")
    if not (0.0 < cfg.r <= 1.0):
        raise ConfigError("fixed ratio r must lie in (0, 1]")
    spec = DomainSpec(cfg.dim, cfg.n)
    a = _coefficient(spec, cfg)
    op = assemble(spec, a)
    u = testfuncs.sine_product(spec)

    def one_point(H):
        m = round(1.0 / H)
        if abs(m * H - 1.0) > 1e-12:
            raise ConfigError(f"H={H} is not 1/m for integer m")
        part = build_partition(spec, m)
        sub = build_subsample(part, cfg.kind, cfg.r)
        functionals = build_functionals(sub)
        data = measure_all(u, functionals)
        pc = pc_recover(data, part)
        rep_pc = recovery_error_report(u, pc, {"basis": "pc"}, a=op)
        theta = build_theta(functionals, op)
        basis = multiscale_basis(theta)
        ms = ms_recover(data, basis)
        rep_ms = recovery_error_report(u, ms, {"basis": "ms"}, a=op)
        return (H, sub.h, rep_pc.l2_error, rep_ms.l2_error, rep_ms.energy_error,
                rep_ms.energy_stable)

    rows = [one_point(H) for H in cfg.H_sweep]
    hs = [row[0] for row in rows]
    fits = {
        "pc_l2": fit_loglog(zip(hs, [r[2] for r in rows])).to_dict(),
        "ms_l2": fit_loglog(zip(hs, [r[3] for r in rows])).to_dict(),
        "ms_energy": fit_loglog(zip(hs, [r[4] for r in rows])).to_dict(),
    }
    stable = all(r[5] for r in rows)
    tol = {"pc_l2": (1.0, 0.15), "ms_l2": (2.0, 0.2), "ms_energy": (1.0, 0.15)}
    tol.update(cfg.tolerances.get("slopes", {}))
    passed = stable and all(
        abs(fits[k]["slope"] - target) <= width for k, (target, width) in tol.items())
    report = {
        "config": cfg.resolved(),
        "fits": fits,
        "energy_stable_everywhere": stable,
        "passed": bool(passed),
        "rows": [list(r) for r in rows],
    }
    _emit(report, out_dir,
          ["H", "h", "pc_l2_error", "ms_l2_error", "ms_energy_error", "energy_stable"],
          rows)
    return report


def run_rate_study(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Growth of the optimal constant as the subsample shrinks at fixed H.

    Single-patch grid sweep: the eigen estimate per ratio, normalized by both
    rate variants.  Off-balance regimes (dim > p) add a grid-free exponent fit
    from the critical-profile ratio.
    """
    if len(cfg.r_sweep) < 2 and len(cfg.h_sweep) < 3:
        raise ConfigError("rate study needs an r_sweep (grid) or h_sweep (grid-free)")
    report = {"config": cfg.resolved(), "passed": True}
    rows = []
    columns = ["h", "ratio", "rho_value", "normalized_ratio", "source"]

    if cfg.r_sweep:
        if cfg.p != 2.0:
            raise ConfigError("the grid eigen estimate is a p = 2 construction")
        spec = DomainSpec(cfg.dim, cfg.n)
        part = build_partition(spec, 1)
        op = assemble(spec, constant_coefficient(spec))
        grid_rows = []
        for r in cfg.r_sweep:
            sub = build_subsample(part, cfg.kind, r)
            est = sharp_constant_estimate(part, sub, op)
            x = 1.0 / r
            rv = rho("sharp", cfg.p, cfg.dim, x)
            grid_rows.append((r, est, rv, est / rv, "grid"))
        rows.extend(grid_rows)
        normalized = [g[3] for g in grid_rows]
        center = float(np.mean(normalized))
        grid_pass = all(abs(v - center) <= GRID_BAND * center for v in normalized)
        report["grid"] = {
            "estimates": [g[1] for g in grid_rows],
            "normalized": normalized,
            "band": GRID_BAND,
            "band_center": center,
            "passed": bool(grid_pass),
            "monotone_growth": _nondecreasing([g[1] for g in grid_rows]),
        }
        report["passed"] = report["passed"] and grid_pass

    if cfg.h_sweep:
        kind = "critical_log" if cfg.dim == cfg.p else "critical_ramp"
        free_rows = []
        for h in cfg.h_sweep:
            ratio = critical_ratio(kind, cfg.dim, cfg.p, h)
            rv = rho("sharp", cfg.p, cfg.dim, 1.0 / h)
            free_rows.append((h, ratio, rv, ratio / rv, "grid-free"))
        rows.extend(free_rows)
        if cfg.dim > cfg.p:
            fit = fit_loglog([(1.0 / h, ratio) for h, ratio, _, _, _ in free_rows])
            target = (cfg.dim - cfg.p) / cfg.p
            free_pass = abs(fit.slope - target) <= EXPONENT_WIDTH
            report["grid_free"] = {"fit": fit.to_dict(), "target_exponent": target,
                                   "width": EXPONENT_WIDTH, "passed": bool(free_pass)}
        else:
            normalized = [fr[3] for fr in free_rows]
            center = float(np.mean(normalized))
            free_pass = all(abs(v - center) <= FREE_BAND * center for v in normalized)
            report["grid_free"] = {"normalized": normalized, "band": FREE_BAND,
                                   "band_center": center, "passed": bool(free_pass)}
        report["passed"] = report["passed"] and free_pass

    report["rows"] = [list(r) for r in rows]
    _emit(report, out_dir, columns, rows)
    return report


def run_degeneracy_study(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Paired recovery-error curves as the subsample shrinks to points.

    The weighted multiscale recovery must stay flat (bounded max/min) down to
    the point-measurement endpoint, while the single-patch optimal constant on
    the same ratios grows monotonically.
    """
    if cfg.dim < cfg.p:
        raise ConfigError("the degeneracy regime needs dim >= p")
    if len(cfg.r_sweep) < 2:
        raise ConfigError("degeneracy study needs an r_sweep")
    spec = DomainSpec(cfg.dim, cfg.n)
    part = build_partition(spec, cfg.m)
    u = testfuncs.flattened_profile(part, cfg.seed)
    op = assemble(spec, constant_coefficient(spec))
    # build_subsample ignores the ratio of the point kind
    sweep = [("cube", r) for r in cfg.r_sweep] + [("point", 0.0)]

    def one_point(job):
        kind, r = job
        sub = build_subsample(part, kind, r)
        functionals = build_functionals(sub)
        data = measure_all(u, functionals)
        theta = build_theta(functionals, op)
        ms = ms_recover(data, multiscale_basis(theta))
        unweighted_l2 = lp_norm(u - ms, 2.0)
        w = _weight(cfg, part, sub, distance_field(part, sub))
        basis, _ = weighted_basis(part, sub, w)
        msw = ms_recover(data, basis)
        weighted_l2 = lp_norm(u - msw, 2.0)
        return (sub.h, unweighted_l2, weighted_l2)

    rows = [one_point(job) for job in sweep]

    # single-patch optimal constants on the same ratios (cross-check curve)
    spec1 = DomainSpec(cfg.dim, cfg.n // cfg.m if cfg.n // cfg.m >= 4 else cfg.n)
    part1 = build_partition(spec1, 1)
    op1 = assemble(spec1, constant_coefficient(spec1))
    constants = []
    for kind, r in sweep:
        sub1 = build_subsample(part1, kind, r)
        constants.append(sharp_constant_estimate(part1, sub1, op1))

    weighted_vals = [r[2] for r in rows]
    max_min = max(weighted_vals) / min(weighted_vals)
    monotone = _nondecreasing(constants)
    unweighted_vals = [r[1] for r in rows]
    passed = (max_min <= WEIGHTED_MAX_MIN) and monotone
    full_rows = [(h, uw, wv, c) for (h, uw, wv), c in zip(rows, constants)]
    report = {
        "config": cfg.resolved(),
        "weighted_max_min": max_min,
        "unweighted_growth": max(unweighted_vals) / unweighted_vals[0],
        "sharp_constants": constants,
        "sharp_monotone": bool(monotone),
        "passed": bool(passed),
        "rows": [list(r) for r in full_rows],
    }
    _emit(report, out_dir,
          ["h", "unweighted_ms_l2", "weighted_ms_l2", "sharp_constant"], full_rows)
    return report


def run_weighted_study(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Single-constant check of the weighted average-removal inequality.

    Draws seeded smooth fields on a single patch and verifies that one fitted
    constant covers  ||u - measured(u)||_p <= C H ||grad u||_{p,w}  across the
    whole subsample sweep, and that the weight admissibility integral stays
    bounded over the sweep.
    """
    if len(cfg.r_sweep) < 2:
        raise ConfigError("weighted study needs an r_sweep")
    spec = DomainSpec(cfg.dim, cfg.n)
    part = build_partition(spec, 1)
    H = part.H
    if cfg.weight.get("profile", "polynomial") != "w11" and cfg.p <= 1.0:
        raise ConfigError("p must exceed 1 unless using the w11 profile")
    funcs = [testfuncs.fourier_free(spec, cfg.seed + k) for k in range(cfg.num_functions)]

    rows = []
    per_h_max = []
    condition = []
    for r in cfg.r_sweep:
        sub = build_subsample(part, cfg.kind, r)
        phi = build_functionals(sub)[0]
        dist = distance_field(part, sub)
        w = _weight(cfg, part, sub, dist)
        ratios = []
        for u in funcs:
            avg = measure(u, phi)
            lhs = lp_norm(u.shifted(avg), cfg.p)
            rhs = H * gradient_lp_norm(u, cfg.p, weight=w)
            ratios.append(lhs / rhs)
        cmax = max(ratios)
        per_h_max.append(cmax)
        cond = (weight_condition_check(w, dist, cfg.p, H, sub.h)["normalized"]
                if cfg.p > 1.0 else None)
        condition.append(cond)
        rows.append((sub.h, cmax, cond))

    # one constant, fitted at h = H, must keep covering the whole sweep: the
    # fitted ratio may not grow as the subsample shrinks
    fitted = per_h_max[0] * (1.0 + CONSTANT_SLACK)
    growth = max(per_h_max) / per_h_max[0]
    passed = growth <= 1.0 + CONSTANT_SLACK

    condition_class = None
    if cfg.p > 1.0 and len(condition) >= 5:
        cond_growth = condition[-1] / condition[2]
        condition_class = "bounded" if cond_growth <= 1.6 else (
            "divergent" if cond_growth >= 2.0 else "inconclusive")
        expect = cfg.tolerances.get("expect_condition")
        if expect is not None:
            passed = passed and condition_class == expect

    report = {
        "config": cfg.resolved(),
        "fitted_constant": fitted,
        "per_h_max_ratio": per_h_max,
        "constant_growth": growth,
        "constant_slack": CONSTANT_SLACK,
        "condition_normalized": condition,
        "condition_class": condition_class,
        "passed": bool(passed),
        "rows": [list(r) for r in rows],
    }
    _emit(report, out_dir, ["h", "max_ratio", "condition_normalized"], rows)
    return report


def run_pointwise_limit_study(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Ball-average sequences: convergent with the guaranteed rate, or divergent.

    A profile with finite singular-weighted gradient norm must be Cauchy with
    per-halving difference ratio no worse than 2^(-beta/p) (20 percent slack);
    the divergent counterexamples must grow past DIVERGENCE_LEVEL.
    """
    if not cfg.radii or len(cfg.radii) < 4:
        raise ConfigError("pointwise study needs at least 4 radii")
    beta = cfg.weight.get("beta", 1.0)
    if cfg.profile_kind == "power":
        fn = power_profile(cfg.profile_q)
        expect = "convergent"
    elif cfg.profile_kind in ("loglog", "logloglog"):
        fn = radial_function(cfg.profile_kind)
        expect = "divergent"
    elif cfg.profile_kind == "constant":
        fn = RadialFunction("custom", None, lambda r: np.ones_like(np.asarray(r, float)),
                            lambda r: np.zeros_like(np.asarray(r, float)))
        expect = "convergent"
    else:
        raise ConfigError(f"unknown profile kind {cfg.profile_kind!r}")

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
    elif all(d == 0.0 for d in diffs):
        classification = "convergent"
        rate_ok = True
        measured = 0.0
    else:
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
        measured = float(np.exp(np.mean(np.log(ratios)))) if ratios else 1.0
        rate_ok = measured <= target * (1.0 + RATE_SLACK)
        shrinking = diffs[-1] <= diffs[0]
        classification = "convergent" if (rate_ok and shrinking) else "inconclusive"
    passed = classification == expect
    rows = list(zip(seq["radii"], seq["averages"], [float("nan")] + diffs))
    report = {
        "config": cfg.resolved(),
        "classification": classification,
        "expected": expect,
        "measured_ratio": measured,
        "target_ratio": target,
        "rate_band_pass": bool(rate_ok),
        "passed": bool(passed),
        "rows": [list(r) for r in rows],
    }
    _emit(report, out_dir, ["h", "average", "difference"], rows)
    return report
