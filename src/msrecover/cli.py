"""Command-line entry points for the experiment harness.

Exit codes: 0 the study ran and passed its gates, 1 it ran and failed them,
2 the configuration or the input file was unusable, or a solve was rejected
(e.g. a singular coupling matrix).
"""

from __future__ import annotations

import argparse
import json
import sys

from .elliptic import assemble
from .errors import AlignmentError, ConfigError, SolverError
from .grid import build_partition, build_subsample, load_grid_function, save_grid_function
from .harness import (ExperimentConfig, _coefficient, run_convergence_study,
                      run_degeneracy_study, run_pointwise_limit_study, run_rate_study,
                      run_weighted_study)
from .recovery import recover, recovery_error_report

_EPILOG = """\
CSV column names by subcommand:
  converge    H, h, pc_l2_error, ms_l2_error, ms_energy_error, energy_stable
  rates       h, ratio, rho_value, normalized_ratio, source
  critical    h, ratio, rho_value, normalized_ratio, source
  degeneracy  h, unweighted_ms_l2, weighted_ms_l2, sharp_constant
  weighted    h, max_ratio, condition_normalized
  pointwise   h, average, difference
Config files are JSON objects whose keys mirror ExperimentConfig fields.
"""


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (defaults per subcommand)")
    sub.add_argument("--out", help="output directory for CSV/JSON records")
    sub.add_argument("--seed", type=int, help="override the config seed")


def _load_config(args, defaults: dict) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig(**defaults)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


_DEFAULTS = {
    "converge": dict(name="converge", dim=1, n=256, r=0.5,
                     H_sweep=[1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32]),
    "rates": dict(name="rates", dim=2, p=2.0, n=256,
                  r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16]),
    "critical": dict(name="critical", dim=2, p=2.0, n=256,
                     r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16],
                     h_sweep=[1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]),
    "degeneracy": dict(name="degeneracy", dim=2, p=2.0, n=128, m=2,
                       r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8]),
    "weighted": dict(name="weighted", dim=2, p=2.0, n=64,
                     r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16]),
    "pointwise": dict(name="pointwise", dim=2, p=2.0,
                      radii=[2.0**-k for k in range(1, 11)]),
}

_RUNNERS = {
    "converge": run_convergence_study,
    "rates": run_rate_study,
    "critical": run_rate_study,
    "degeneracy": run_degeneracy_study,
    "weighted": run_weighted_study,
    "pointwise": run_pointwise_limit_study,
}


def _run_recover(args) -> int:
    try:
        u = load_grid_function(args.input)
    except ValueError as exc:
        print(f"input error: {args.input}: {exc}", file=sys.stderr)
        return 2
    # the grid comes from the input file, so the config's dim and n are unused
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    part = build_partition(u.spec, cfg.m)
    sub = build_subsample(part, cfg.kind, cfg.r)
    op = assemble(u.spec, _coefficient(u.spec, cfg))
    rec = recover(u, sub, op, cfg.basis)
    report = recovery_error_report(u, rec, {"basis": cfg.basis, "dim": u.spec.dim,
                                            "h": sub.h, "H": part.H}, a=op,
                                   partition=part)
    save_grid_function(rec, args.output, fmt="csv")
    print(report.to_json())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msrecover",
        description="Recovery of functions from subsampled local averages: "
                    "rate studies and one-shot recovery.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sub = subs.add_parser(name, help=f"run the {name} study")
        _add_common(sub)
    rec = subs.add_parser("recover", help="one-shot recovery from a grid-function file")
    rec.add_argument("--input", required=True, help="grid-function file (csv or binary)")
    rec.add_argument("--output", required=True, help="recovered grid-function CSV")
    rec.add_argument("--config", help="JSON config (m, kind, r, basis, coeff)")
    args = parser.parse_args(argv)

    try:
        if args.command == "recover":
            return _run_recover(args)
        cfg = _load_config(args, _DEFAULTS[args.command])
        report = _RUNNERS[args.command](cfg, out_dir=args.out)
    except (ConfigError, AlignmentError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    summary = {k: v for k, v in report.items() if k not in ("rows", "config")}
    print(json.dumps(summary, sort_keys=True))
    return 0 if report.get("passed", False) else 1


if __name__ == "__main__":
    sys.exit(main())
