"""Command-line entry points for the experiment harness.

Exit codes: 0 the study ran and passed its gates, 1 it ran and failed them,
2 the configuration or the input file was unusable, or a solve was rejected
(e.g. a singular coupling matrix).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import sys

from .elliptic import assemble
from .errors import SolverError
from .grid import CoarsePartition, SubsampleSpec, load_grid_function, save_grid_function
from .recovery import recover, recovery_error_report


def _epilog(harness) -> str:
    studies = harness.STUDIES.items()
    lines = ["CSV column names by subcommand:"]
    lines += [f"  {name:<12}{', '.join(study.columns)}" for name, study in studies]
    lines.append("Config keys by subcommand (any other key is a configuration error):")
    lines += [f"  {name:<12}{', '.join(study.defaults)}" for name, study in studies]
    lines.append(f"  {'recover':<12}{', '.join(harness.RECOVER_DEFAULTS)}\n")
    return "\n".join(lines)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; its keys override the defaults")
    sub.add_argument("--out", help="output directory for CSV/JSON records")
    sub.add_argument("--seed", type=int, help="override the config seed, if the study reads one")


def _load_config(args, defaults, harness):
    cfg = (harness.ExperimentConfig.from_json(args.config, defaults) if args.config
           else harness.ExperimentConfig(**defaults))
    if getattr(args, "seed", None) is not None:  # recover has no --seed
        cfg = dataclasses.replace(cfg, seed=args.seed)  # checked like a config's seed
    return cfg


def _check_output_file(path) -> None:
    """Raise the ``OSError`` that writing the file ``path`` would, writing nothing:
    it must not be a directory, and its parent must be one."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _run_recover(args, harness) -> int:
    _check_output_file(args.output)  # before the recovery, not after it
    try:
        u = load_grid_function(args.input)
    except (ValueError, OSError) as exc:
        print(f"input error: {args.input}: {exc}", file=sys.stderr)
        return 2
    cfg = _load_config(args, harness.RECOVER_DEFAULTS, harness)
    part = CoarsePartition(u.spec, cfg.m)
    sub = SubsampleSpec(part, cfg.kind, cfg.r)
    op = assemble(u.spec, harness.coefficient(u.spec, cfg))
    rec = recover(u, sub, op if cfg.basis == "ms" else None)
    report = recovery_error_report(u, rec, {"basis": cfg.basis, "dim": u.spec.dim,
                                            "h": sub.h, "H": part.H}, a=op,
                                   partition=part)
    save_grid_function(rec, args.output)
    print(report.to_json())
    return 0


def main(argv=None) -> int:
    import argparse  # loaded by the command line, never by `import msrecover`

    from . import harness  # the study layer: loaded by the command line, not the package
    parser = argparse.ArgumentParser(
        prog="msrecover",
        description="Recovery of functions from subsampled local averages: "
                    "rate studies and one-shot recovery.",
        epilog=_epilog(harness), formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in harness.STUDIES:
        sub = subs.add_parser(name, help=f"run the {name} study")
        _add_common(sub)
    rec = subs.add_parser("recover", help="one-shot recovery from a grid-function file")
    rec.add_argument("--input", required=True, help="grid-function CSV")
    rec.add_argument("--output", required=True, help="recovered grid-function CSV")
    rec.add_argument("--config", help=f"JSON config ({', '.join(harness.RECOVER_DEFAULTS)})")
    args = parser.parse_args(argv)

    try:
        if args.command == "recover":
            return _run_recover(args, harness)
        cfg = _load_config(args, harness.STUDIES[args.command].defaults, harness)
        report = harness.run_study(args.command, cfg, args.out)
    # ValueError covers ConfigError, AlignmentError, malformed JSON and every
    # value a library constructor rejects (a slice kind at dim 1, m = 0, ...);
    # OSError a --config, --out or --output path that cannot be read or written
    except (ValueError, OSError) as exc:
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
