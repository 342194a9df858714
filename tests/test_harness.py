import csv
import dataclasses
import inspect
import json
import os
import pathlib
import struct
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from msrecover import cli, harness
from msrecover.cli import main as cli_main
from msrecover.elliptic import StiffnessOperator
from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            save_grid_function)
from msrecover.harness import (CONSTANT_SLACK, GATES, POINTWISE_PROFILES, RATE_SLACK,
                               RECOVER_DEFAULTS, SLOPE_BANDS, STUDIES, WEIGHTED_MAX_MIN,
                               ExperimentConfig, fit_loglog, run_convergence_study, run_study)
from msrecover.testfuncs import LIBRARY_VERSION, fourier_h01
from msrecover.weights import WEIGHT_PROFILES, build_weight, distance_field


def _argv(run_dir: pathlib.Path, command: str, config: str | None = None, field=None,
          argv: tuple = ()) -> list:
    """Write a run's files in ``run_dir`` and return its ``msrecover`` argv: ``config``
    (JSON text) as ``--config cfg.json``; for recover, ``field`` (CSV bytes or a
    ``GridFunction``) as ``--input u.csv`` and ``--output rec.csv``; for a study,
    ``--out out``. ``argv`` comes last, with ``{tmp}`` read as ``run_dir``, so an
    option there overrides these. Every command line here is built by it, so a flag or
    file layout is one edit; only the two argparse tests call cli.main directly."""
    run_dir.mkdir(parents=True, exist_ok=True)
    args = [command]
    if config is not None:
        (run_dir / "cfg.json").write_text(config)
        args += ["--config", str(run_dir / "cfg.json")]
    if command == "recover":
        if isinstance(field, GridFunction):
            save_grid_function(field, run_dir / "u.csv")
        else:
            (run_dir / "u.csv").write_bytes(field)
        args += ["--input", str(run_dir / "u.csv"), "--output", str(run_dir / "rec.csv")]
    else:
        args += ["--out", str(run_dir / "out")]
    return args + [arg.format(tmp=run_dir) for arg in argv]


def _run(run_dir: pathlib.Path, capsys, *args, **kwargs) -> tuple:
    """Run the command line ``_argv(run_dir, *args, **kwargs)`` writes; return its
    (exit code, stdout, stderr)."""
    code = cli_main(_argv(run_dir, *args, **kwargs))
    return (code, *capsys.readouterr())


def _sines(dim: int, n: int) -> GridFunction:
    """The product of sin(pi x_i) on the ``dim``-D grid of ``n`` cells a side."""
    return GridFunction.from_callable(
        DomainSpec(dim, n), lambda *x: np.prod([np.sin(np.pi * xi) for xi in x], axis=0))


def _grid_csv(dim: int, n: int, last: str = "1.0") -> bytes:
    """A grid-function CSV of ones on the ``dim``-D grid of ``n`` cells a side, with
    ``last`` as its last node value."""
    return (f"{dim},{n}\n" + "1.0\n" * ((n + 1) ** dim - 1) + f"{last}\n").encode()


def test_fit_loglog_exact_quadratic():
    xs = [1.0, 2.0, 4.0, 8.0]
    fit = fit_loglog([(x, x**2) for x in xs])
    assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_linear_intercept():
    fit = fit_loglog([(x, 3.0 * x) for x in (1.0, 2.0, 5.0, 9.0)])
    assert fit["slope"] == pytest.approx(1.0, abs=1e-12)
    assert fit["intercept"] == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_loglog_noisy_quadratic():
    rng = np.random.default_rng(42)
    xs = np.linspace(1.0, 16.0, 12)
    ys = xs**2 * np.exp(0.01 * rng.standard_normal(len(xs)))
    fit = fit_loglog(zip(xs, ys))
    assert fit["slope"] == pytest.approx(2.0, abs=0.05)


def test_cli_degeneracy_needs_two_points_where_the_weight_acts(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a recovery ran before the weights were checked")

    # the check comes before every recovery, so no operator solve may run
    monkeypatch.setattr(StiffnessOperator, "solve_interior", no_solve)
    # the weight is constant at both ratios, which leaves only the point endpoint
    config = json.dumps({**STUDIES["degeneracy"].defaults, "r_sweep": [1.0, 0.5]})
    code, _, err = _run(tmp_path, capsys, "degeneracy", config)
    assert code == 2 and "weight to act" in err


@pytest.mark.parametrize("profile", list(WEIGHT_PROFILES))
def test_a_config_weight_of_only_a_profile_takes_build_weights_defaults(profile):
    dist = distance_field(SubsampleSpec(CoarsePartition(DomainSpec(2, 16), 2), "cube", 0.5))
    cfg = ExperimentConfig(p=3.0, weight={"profile": profile})
    got = harness._weight(cfg, dist)
    assert np.array_equal(got.values, build_weight(dist, profile, cfg.p).values)


@pytest.mark.parametrize("name", list(harness.COEFFICIENTS))
def test_a_config_coeff_of_only_its_required_keys_takes_its_generators_defaults(name):
    spec = DomainSpec(2, 8)
    generator = harness.COEFFICIENTS[name]
    required = {"contrast": 10.0} if name in ("checkerboard", "layered") else {}
    cfg = ExperimentConfig(coeff={"name": name, **required}, seed=4)
    # every left-out key takes the signature default, a lognormal seed too
    expected = generator(spec, **required)
    assert np.array_equal(harness.coefficient(spec, cfg).values, expected.values)


@pytest.mark.parametrize("coeff", [{"name": "layered", "contrast": 10.0, "axis": np.int64(0)},
                                   {"name": "lognormal", "seed": np.int32(3)}])
def test_a_config_stores_a_numpy_coeff_integer_as_an_int_its_report_can_write(coeff):
    assert json.loads(json.dumps(ExperimentConfig(coeff=coeff).coeff)) == coeff


# a lognormal coeff draws with its own seed, never the run's; sine_product is not
# L_a^-1 f, so converge fails its slope gates on a lognormal medium (ROADMAP item 17)
@pytest.mark.parametrize("command,config,code", [
    ("pointwise", None, 0),
    ("converge", '{"coeff": {"name": "lognormal", "sigma": 0.5}}', 1)],
    ids=["pointwise", "converge-lognormal"])
def test_cli_a_study_that_reads_no_seed_ignores_the_seed_option(tmp_path, capsys, command,
                                                                config, code):
    files = {}
    for seed in ("5", "6"):
        assert _run(tmp_path / seed, capsys, command, config, argv=("--seed", seed))[0] == code
        files[seed] = _tree(tmp_path / seed / "out")
    assert files["5"] == files["6"]
    report = json.loads(files["5"][pathlib.Path(f"{command}_report.json")])
    assert "seed" not in report["config"]


# stderr prefixes; {tmp} is the run's directory, and u.csv its --input file
CONFIG, SOLVER, INPUT = "configuration error: ", "solver error: ", "input error: {tmp}/u.csv: "
SEED = "seed must be an integer >= 0, got -1\n"
UNREAD = "keys this command does not read: "  # each such config has one key
SCALE = "coefficient must be strictly positive and finite"  # an element scale a h^(d-2)


class Refusal(NamedTuple):
    """A command line that exits 2 with one line on stderr: ``prefix``, then a
    message that starts with ``start`` (is ``start``, where that ends in a newline)."""

    command: str
    config: str | None  # the --config file's JSON text; None: no --config
    start: str
    prefix: str = CONFIG
    data: bytes = _grid_csv(2, 16)  # recover's --input bytes
    argv: tuple = ()  # appended last, so an option here overrides the runner's own
    early: bool = False  # refused before the study's runner or `recover` starts


# every exit-2 case of the command line, one row each; warnings are errors
# (pyproject.toml), so a warning on the way to a refusal fails its row
REFUSALS = [
    # a negative seed: in a config, refused as unread where the study reads no seed;
    # from --seed, refused even there
    Refusal("converge", '{"seed": -1}', UNREAD + "['seed']"),
    Refusal("degeneracy", '{"seed": -1}', SEED),
    Refusal("weighted", '{"seed": -1}', SEED),
    Refusal("converge", None, SEED, argv=("--seed", "-1")),
    Refusal("weighted", None, SEED, argv=("--seed", "-1")),
    Refusal("rates", None, SEED, argv=("--seed", "-1")),
    # a named choice recover reads, and a key no command reads
    Refusal("recover", '{"basis": "pcc"}', "basis must be one of"),
    Refusal("recover", '{"kind": "cubee"}', "kind must be one of"),
    Refusal("pointwise", '{"nonsense": true}', UNREAD),
    # a number field that is not finite: JSON text may hold NaN and Infinity
    Refusal("pointwise", '{"profile_q": NaN}', "profile_q must be a finite number, got nan\n"),
    Refusal("pointwise", '{"profile_q": Infinity}', "profile_q must be a finite number, got inf\n"),
    Refusal("converge", '{"r": NaN}', "r must be a finite number, got nan\n"),
    Refusal("degeneracy", '{"p": Infinity}', "p must be a finite number, got inf\n"),
    # JSON text that is no config object, or a key it repeats at any depth
    Refusal("converge", "3", "a config must be a JSON object"),
    Refusal("converge", "[1, 2]", "a config must be a JSON object"),
    Refusal("converge", '"converge"', "a config must be a JSON object"),
    Refusal("converge", "null", "a config must be a JSON object"),
    Refusal("converge", '{"n": 64, "H_sweep": [0.5', "Expecting"),  # truncated
    Refusal("converge", '{"n": 64, "n": 32}', "a config object repeats keys: ['n']\n"),
    Refusal("converge", '{"coeff": {"name": "checkerboard", "contrast": 10, "contrast": 100}}',
            "a config object repeats keys: ['contrast']\n"),
    # ExperimentConfig accepts each value; a library constructor rejects it
    Refusal("recover", '{"kind": "slice"}', "slice kind needs dim >= 2", data=_grid_csv(1, 16)),
    Refusal("recover", '{"r": 1.5}', "ratio must lie in (0, 1]"),
    Refusal("recover", '{"m": 0}', "m must be an integer >= 1"),
    Refusal("recover", '{"m": -2}', "m must be an integer >= 1"),
    Refusal("rates", '{"dim": 1, "kind": "slice"}', "slice kind needs dim >= 2"),
    Refusal("rates", '{"r_sweep": [1.0, 2.0]}', "ratio must lie in (0, 1]"),
    Refusal("degeneracy", '{"m": 0}', "m must be an integer >= 1"),
    # (but the config itself rejects a dim outside 1..3, as DomainSpec does)
    Refusal("weighted", '{"dim": 4}', "dim must be 1, 2 or 3", early=True),
    Refusal("converge", '{"n": 1}', "n must be an integer >= 2"),
    Refusal("pointwise", '{"profile_q": 0}', "power profile needs q > 0"),
    Refusal("critical", '{"h_sweep": [0.5, 0.25, 0.125]}', "critical_log needs h in (0, 1/4]"),
    # the grid is 2D: a layered axis is checked against the input, not a config dim
    Refusal("recover", '{"coeff": {"name": "layered", "contrast": 10, "axis": 2}}',
            "layered axis must lie in 0..1"),
    # a value that overflows or underflows inside the library, or a sub-cell H
    Refusal("converge", '{"coeff": {"name": "lognormal", "sigma": 1000}}', SCALE),
    Refusal("converge", '{"coeff": {"name": "checkerboard", "contrast": 1e308}}', SCALE),  # a h^-1
    Refusal("converge", '{"H_sweep": [0.5, 0.25, 1e-320]}',
            "H_sweep entries must be at least one cell"),
    Refusal("degeneracy", '{"weight": {"profile": "polynomial", "beta": 1e300}}', SCALE),
    Refusal("degeneracy", '{"weight": {"profile": "logarithmic", "gamma": 1e300}}', SCALE),
    Refusal("pointwise", '{"profile_kind": "bogus"}', "profile_kind must be one of"),
    Refusal("recover", '{"coeff": {"name": "constant", "value": 5e-324}}',
            SCALE, data=_grid_csv(3, 16)),  # a h
    # a ratio sweep over a point set, which has no ratio, or a subnormal radius
    Refusal("weighted", '{"kind": "point"}', "an r_sweep needs a cube or slice kind"),
    Refusal("rates", '{"kind": "point"}', "an r_sweep needs a cube or slice kind"),
    Refusal("pointwise", '{"radii": [0.5, 0.25, 0.125, 5e-324]}',
            "radii must lie in [2.2250738585072014e-308, 1]"),
    # 2D n = 2 has one interior node, so Theta of the four functionals has rank 1
    Refusal("recover", '{"m": 2}', "coupling matrix", SOLVER, _grid_csv(2, 2)),
    # a malformed --input file is quoted, not dumped
    Refusal("recover", None, "the header must be 'dim,n'", INPUT, b""),
    Refusal("recover", None, "the header must be 'dim,n'", INPUT, b"dim,n\n0.0\n"),
    Refusal("recover", None, "the header must be 'dim,n'", INPUT, b"2\n0.0\n"),
    Refusal("recover", None, "a value row must hold one number", INPUT, b"1,4\n0.0\n\n0.0\n"),
    Refusal("recover", None, "a value row must hold one number", INPUT,
            b"1,4\n0.0,7.5\n1.0\n2.0\n3.0\n4.0\n"),
    # the former binary layout: magic, dim and n as int64, then float64 values
    Refusal("recover", None, "'utf-8' codec can't decode", INPUT,
            b"MSRG" + struct.pack("<qq", 1, 4) + struct.pack("<5d", *range(5))),
    # a line beyond the csv module's field limit raises csv.Error, not ValueError
    Refusal("recover", None, "not a grid-function CSV: field larger than field limit", INPUT,
            b"1,4\n" + b"1" * 200_000 + b"\n"),
    # rows far longer than the quoted prefix: 2000 fields, and one 5000-character field
    Refusal("recover", None, "a value row must hold one number", INPUT,
            b"1,4\n" + b",".join([b"0.0"] * 2000) + b"\n"),
    Refusal("recover", None, "a value row must hold one number", INPUT,
            b"1,4\n" + b"x" * 5000 + b"\n"),
    Refusal("recover", None, "grid-function values must be finite", INPUT, _grid_csv(2, 4, "nan")),
    Refusal("recover", None, "grid-function values must be finite", INPUT, _grid_csv(2, 4, "inf")),
    Refusal("recover", None, "grid-function values must be finite", INPUT, _grid_csv(2, 4, "-inf")),
    # a path that cannot be read or written; an unusable --output or --out is
    # found before the recovery or the study runs
    Refusal("recover", None, "[Errno 2] No such file or directory",
            "input error: {tmp}/none.csv: ", argv=("--input", "{tmp}/none.csv")),
    Refusal("recover", None, "[Errno 21] Is a directory", "input error: {tmp}: ",
            argv=("--input", "{tmp}")),
    Refusal("recover", None, "[Errno 21] Is a directory", argv=("--output", "{tmp}"), early=True),
    Refusal("rates", None,
            "[Errno 2] No such file or directory", argv=("--config", "{tmp}/none.json")),
    Refusal("rates", None, "[Errno 21] Is a directory", argv=("--config", "{tmp}")),
    Refusal("rates", "{}", "[Errno 17] File exists", argv=("--out", "{tmp}/cfg.json"), early=True),
    Refusal("converge", "{}", "[Errno 20] Not a directory",
            argv=("--out", "{tmp}/cfg.json/out"), early=True),
    Refusal("recover", None, "[Errno 2] No such file or directory",
            argv=("--output", "{tmp}/none/rec.csv"), early=True),
    Refusal("recover", None, "[Errno 20] Not a directory",
            argv=("--output", "{tmp}/u.csv/rec.csv"), early=True),
    # a rate gate on fewer points would pass on one estimate
    Refusal("rates", '{"h_sweep": [0.25]}', "h_sweep needs at least 3 radii, got 1\n"),
    Refusal("critical", '{"r_sweep": [0.5], "h_sweep": [0.25, 0.125, 0.0625]}',
            "r_sweep needs at least 2 ratios, got 1\n"),
    # a dim no grid has, checked with the config even where no grid is built
    Refusal("pointwise", '{"dim": 0}', "dim must be 1, 2 or 3", early=True),
    Refusal("pointwise", '{"dim": -1}', "dim must be 1, 2 or 3", early=True),
    Refusal("critical", '{"dim": 5, "r_sweep": []}', "dim must be 1, 2 or 3", early=True),
    # a weight exponent beta <= 0 sets a target ratio 2^(-beta/p) any bounded sequence meets
    Refusal("pointwise", '{"weight": {"profile": "polynomial", "beta": -1.0}}',
            "polynomial profile needs beta > 0"),
    Refusal("pointwise", '{"weight": {"beta": 0.0}}', "polynomial profile needs beta > 0"),
    # a value outside the construction a study's runner measures
    Refusal("converge", '{"r": 1.5}', "fixed ratio r must lie in (0, 1]\n"),
    Refusal("converge", '{"coeff": {"name": "layered", "contrast": 10, "axis": 0.5}}',
            "coeff axis must be an integer >= 0, got 0.5\n"),
    Refusal("rates", '{"r_sweep": [], "h_sweep": []}',
            "rate study needs an r_sweep (grid) or h_sweep (grid-free)\n"),
    Refusal("rates", '{"p": 3.0}', "the grid eigen estimate is a p = 2 construction\n"),
    Refusal("degeneracy", '{"dim": 1, "p": 2.0}', "the degeneracy regime needs dim >= p\n"),
    Refusal("weighted", '{"p": 1.0}', "p must exceed 1 unless using the w11 profile\n"),
    # every sweep's least length, in the rule the rate gates use
    Refusal("converge", '{"H_sweep": [0.5, 0.25]}',
            "H_sweep needs at least 3 patch sizes, got 2\n"),
    Refusal("degeneracy", '{"r_sweep": [1.0]}', "r_sweep needs at least 2 ratios, got 1\n"),
    Refusal("weighted", '{"r_sweep": [1.0]}', "r_sweep needs at least 2 ratios, got 1\n"),
    Refusal("pointwise", '{"radii": [0.5, 0.25, 0.125]}', "radii needs at least 4 radii, got 3\n"),
    # ln ln ln(1/r + 1) diverges, but is only 1.88 at r = 1e-300: no float radius
    # could show its ball averages pass the divergence level
    Refusal("pointwise", '{"profile_kind": "logloglog"}',
            "profile_kind must be one of ['power', 'constant', 'loglog'], got 'logloglog'\n",
            early=True),
    # gate widths, slope bands and the condition class are constants: tolerances
    # is an unknown key in every study, whatever it holds
    Refusal("rates", '{"tolerances": {"grid_band": 0.5}}', UNREAD),
    Refusal("converge", '{"coeff": {"name": "checkerboard", "contrst": 10}}',
            "unknown checkerboard coeff keys: ['contrst']"),
    Refusal("converge", '{"coeff": {"name": "checkerboard"}}',
            "checkerboard coeff needs keys: ['contrast']"),
    Refusal("converge", '{"coeff": {"name": "stripes"}}',
            "unknown coefficient generator 'stripes'"),
    Refusal("converge", '{"coeff": "checkerboard"}', "coeff must be a JSON object"),
    Refusal("degeneracy", '{"weight": {"betta": 5.0}}',
            "unknown polynomial weight keys: ['betta']"),
    # values of the wrong JSON type
    Refusal("converge", '{"H_sweep": 0.5}', "H_sweep must be a JSON array"),
    Refusal("converge", '{"n": 256.0}', "n must be a JSON integer"),
    Refusal("converge", '{"dim": true}', "dim must be a JSON integer"),
    Refusal("converge", '{"r": "0.5"}', "r must be a JSON number"),
    Refusal("rates", '{"name": 3}', "name must be a JSON string"),
    Refusal("weighted", '{"seed": null}', "seed must be a JSON integer"),
    # values inside coeff and the sweep lists
    Refusal("converge", '{"coeff": {"name": "checkerboard", "contrast": "ten"}}',
            "coeff contrast must be a positive finite number"),
    Refusal("converge", '{"coeff": {"name": "constant", "value": -1}}',
            "coeff value must be a positive finite number"),
    Refusal("converge", '{"coeff": {"name": "constant", "value": true}}',
            "coeff value must be a positive finite number"),
    Refusal("converge", '{"coeff": {"name": "layered", "contrast": 10, "axis": 1}}',
            "layered axis must lie in 0..0"),  # dim 1
    Refusal("converge", '{"coeff": {"name": "lognormal", "sigma": "1"}}',
            "coeff sigma must be a finite number"),
    Refusal("converge", '{"coeff": {"name": "lognormal", "seed": 2.0}}',
            "coeff seed must be an integer >= 0, got 2.0\n"),
    Refusal("converge", '{"H_sweep": [0.5, "1/4", 0.125]}',
            "H_sweep entries must be a positive finite number"),
    Refusal("rates", '{"r_sweep": [1.0, 0.5, 0.0]}',
            "r_sweep entries must be a positive finite number"),
    Refusal("critical", '{"h_sweep": [0.25, 0.125, -0.0625]}',
            "h_sweep entries must be a positive finite number"),
    Refusal("pointwise", '{"radii": [0.5, 0.25, 0.125, null]}',
            "radii entries must be a positive finite number"),
    # names and types inside weight, and the named choices
    Refusal("degeneracy", '{"weight": {"profile": "polinomial"}}', "weight profile must be one of"),
    Refusal("degeneracy", '{"weight": {"beta": "one"}}', "weight beta must be a finite number"),
    Refusal("degeneracy", '{"weight": {"validate": "yes"}}',
            "weight validate must be true or false"),
    Refusal("degeneracy", '{"weight": {"beta": 0.0, "validate": true}}',
            "polynomial profile needs beta > 0"),  # build_weight's rule
    Refusal("rates", '{"kind": "cubee"}', "kind must be one of"),
    Refusal("converge", '{"basis": "pcc"}', UNREAD),
    # a valid field the command does not read
    Refusal("converge", '{"m": 4}', UNREAD),
    Refusal("rates", '{"seed": 1}', UNREAD),
    Refusal("critical", '{"weight": {"beta": 2.0}}', UNREAD),
    Refusal("degeneracy", '{"kind": "slice"}', UNREAD),
    Refusal("weighted", '{"coeff": {"name": "checkerboard", "contrast": 10.0}}', UNREAD),
    Refusal("pointwise", '{"coeff": {"name": "checkerboard", "contrast": 1e9}}', UNREAD),
    Refusal("recover", '{"dim": 2}', UNREAD),
    # pointwise's target rate is the polynomial weight's: it reads beta alone
    Refusal("pointwise", '{"weight": {"profile": "w11", "gamma": 3.0, "validate": false}}',
            "unknown w11 weight keys: ['gamma', 'validate']"),
    Refusal("pointwise", '{"weight": {"profile": "logarithmic"}}',
            "pointwise reads only a polynomial weight's beta"),
    Refusal("pointwise", '{"weight": {"beta": 2.0, "validate": true}}',
            "pointwise reads only a polynomial weight's beta"),
    # p below 1 is no norm exponent, and weighted draws at least one function
    Refusal("pointwise", '{"p": 0}', "p must be a finite number >= 1"),
    Refusal("pointwise", '{"p": -2.0}', "p must be a finite number >= 1"),
    Refusal("degeneracy", '{"p": -1.0}', "p must be a finite number >= 1"),
    Refusal("weighted", '{"num_functions": 0}', "num_functions must be an integer >= 1, got 0\n"),
    # a repeated sweep value: the fits and bands would read fewer distinct points
    Refusal("converge", '{"H_sweep": [0.5, 0.5, 0.5]}', "H_sweep repeats a value"),
    Refusal("rates", '{"r_sweep": [0.5, 0.5]}', "r_sweep repeats a value"),
    Refusal("critical", '{"h_sweep": [0.25, 0.25, 0.25]}', "h_sweep repeats a value"),
    Refusal("degeneracy", '{"r_sweep": [0.25, 0.25]}', "r_sweep repeats a value"),
    # a key the weight's profile does not read
    Refusal("weighted", '{"weight": {"profile": "polynomial", "beta": 1.0, "gamma": 5.0}}',
            "unknown polynomial weight keys: ['gamma']"),
    Refusal("weighted", '{"weight": {"profile": "w11", "beta": 7.0, "gamma": 9.0}}',
            "unknown w11 weight keys: ['beta', 'gamma']"),
    Refusal("degeneracy", '{"weight": {"profile": "polynomial", "beta": 1.0, "gamma": 5.0}}',
            "unknown polynomial weight keys: ['gamma']"),
    # a patch size that is no patch count's reciprocal
    Refusal("converge", '{"H_sweep": [0.5, 0.3, 0.25]}', "H=0.3 is not 1/m for integer m\n"),
    # an integer beyond the float range
    Refusal("pointwise", '{"profile_q": 1%s}' % ("0" * 400), "profile_q must be a finite number"),
    # a negative coeff axis: the layered generator used to refuse it, against the grid's axes
    Refusal("converge", '{"coeff": {"name": "layered", "contrast": 10, "axis": -1}}',
            "coeff axis must be an integer >= 0, got -1\n"),
    # a value count other than the header grid's: one short, one over
    Refusal("recover", None, "a dim-2 n=4 grid function has 25 values, got 24\n", INPUT,
            _grid_csv(2, 4)[:-len(b"1.0\n")]),
    Refusal("recover", None, "a dim-2 n=4 grid function has 25 values, got 26\n", INPUT,
            _grid_csv(2, 4) + b"1.0\n"),
]


def _tree(root: pathlib.Path) -> dict:
    """Every path under ``root``, relative to it, with a file's bytes."""
    return {path.relative_to(root): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


@pytest.mark.parametrize("row", [pytest.param(row, id=f"{row.command}-{i}")
                                 for i, row in enumerate(REFUSALS)])
def test_cli_refusal_exits_two(tmp_path, capsys, monkeypatch, row):
    started = []  # the work an early row must not start

    def recorded(work):
        return lambda *args: started.append(args) or work(*args)

    if row.early and row.command == "recover":
        monkeypatch.setattr(cli, "recover", recorded(cli.recover))
    elif row.early:
        study = STUDIES[row.command]
        monkeypatch.setitem(STUDIES, row.command,
                            dataclasses.replace(study, runner=recorded(study.runner)))
    run, args = tmp_path / "run", (row.command, row.config, row.data, row.argv)
    code, out, err = _run(run, capsys, *args)
    prefix = row.prefix.format(tmp=run)
    # one line, no traceback, and nothing on stdout
    assert code == 2 and out == "" and err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(prefix + row.start), err
    if prefix.startswith("input error"):  # a malformed file is quoted, not dumped
        assert len(err[len(prefix):-1].replace(str(run), "")) <= 120
    # nothing on disk but the run's inputs, as the same argv writes them unrun:
    # no rec.csv, no report
    _argv(tmp_path / "unrun", *args)
    assert _tree(run) == _tree(tmp_path / "unrun")
    assert started == []


def test_cli_help_lists_every_study_with_its_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    columns, keys = capsys.readouterr().out.split("Config keys by subcommand")
    listed = [" ".join(line.split(maxsplit=1)) for line in columns.splitlines()]
    for name, study in STUDIES.items():
        assert f"{name} {', '.join(study.columns)}" in listed
    # the accepted keys are the defaults', in their order
    listed = [" ".join(line.split(maxsplit=1)) for line in keys.splitlines()[1:] if line]
    declared = {**{name: study.defaults for name, study in STUDIES.items()},
                "recover": RECOVER_DEFAULTS}
    assert listed == [f"{name} {', '.join(defaults)}" for name, defaults in declared.items()]


def test_the_module_run_prints_the_same_help(capsys, monkeypatch):
    # `python -m msrecover.cli` reaches main through the module's __main__ guard alone
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps to the terminal width
    src = str(pathlib.Path(harness.__file__).parents[1])
    run = subprocess.run([sys.executable, "-m", "msrecover.cli", "--help"], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    with pytest.raises(SystemExit):
        cli_main(["--help"])
    assert run.stdout == capsys.readouterr().out


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _assert_matches(new, old, path):
    """Verdicts, strings and integers exactly; floats to a relative 1e-12."""
    assert type(new) is type(old), path
    if isinstance(old, dict):
        assert sorted(new) == sorted(old), path
        for key in old:
            _assert_matches(new[key], old[key], f"{path}.{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), path
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_matches(a, b, f"{path}[{i}]")
    elif isinstance(old, float):
        assert new == pytest.approx(old, rel=1e-12, abs=0.0, nan_ok=True), path
    else:
        assert new == old, path


_DEFAULT_RUNS = {}


def _default_run(name, tmp_path_factory):
    """Run study ``name`` through ``run_study`` at its defaults, once per session.
    Return its report, its output directory, the config fields its runner read and
    the keys of the report its runner returned."""
    if name not in _DEFAULT_RUNS:
        out_dir, study, read_by_runner = tmp_path_factory.mktemp(name), STUDIES[name], set()
        runner_keys = set()
        with pytest.MonkeyPatch.context() as mp:
            read = _record_reads(mp)

            def runner(cfg):  # run_study reads every declared field after it, for the report
                report = study.runner(cfg)
                read_by_runner.update(read)
                runner_keys.update(report)
                return report

            mp.setitem(STUDIES, name, dataclasses.replace(study, runner=runner))
            report = run_study(name, harness.ExperimentConfig(**study.defaults), out_dir=out_dir)
        _DEFAULT_RUNS[name] = report, out_dir, frozenset(read_by_runner), frozenset(runner_keys)
    return _DEFAULT_RUNS[name]


@pytest.mark.parametrize("name", list(STUDIES))
def test_default_report_matches_its_golden_file(tmp_path_factory, name):
    # tests/golden holds the report `msrecover <name>` writes at the defaults
    report, out_dir, _, _ = _default_run(name, tmp_path_factory)
    new = json.loads((out_dir / f"{name}_report.json").read_text())
    _assert_matches(new, json.loads((GOLDEN / f"{name}_report.json").read_text()), name)
    header, *rows = (out_dir / f"{name}_rows.csv").read_text().splitlines()
    assert header.split(",") == list(STUDIES[name].columns)
    assert len(rows) == len(report["rows"])
    assert all(len(row) == len(STUDIES[name].columns) for row in report["rows"])


@pytest.mark.parametrize("name", list(STUDIES))
def test_each_study_reads_exactly_its_declared_fields(tmp_path_factory, name):
    _, _, read_by_runner, _ = _default_run(name, tmp_path_factory)
    # name is read by run_study alone, for the output file names
    assert read_by_runner | {"name"} == set(STUDIES[name].defaults)


@pytest.mark.parametrize("name", list(STUDIES))
def test_a_runner_reports_statistics_and_run_study_alone_decides_passed(tmp_path_factory, name):
    report, _, _, runner_keys = _default_run(name, tmp_path_factory)
    assert "passed" not in runner_keys and set(report) == runner_keys | {"config", "passed"}


# (critical's config, its runner's report less rows, passed or the KeyError raised): a
# gate applies where its sweep is not empty, and one that applies reads its statistic
GATE_SWEEPS = [
    ({}, {"grid": {"passed": True}, "grid_free": {"passed": True}}, True),
    ({}, {"grid": {"passed": True}, "grid_free": {"passed": False}}, False),
    ({"h_sweep": []}, {"grid": {"passed": True}, "grid_free": {"passed": False}}, True),
    ({"r_sweep": []}, {"grid": {"passed": False}, "grid_free": {"passed": True}}, True),
    ({}, {"grid": {"passed": False}}, "grid_free"),
    ({"h_sweep": []}, {"grid_free": {"passed": True}}, "grid"),
]


@pytest.mark.parametrize("config,statistics,verdict", GATE_SWEEPS)
def test_passed_is_every_gate_that_applies_and_a_missing_statistic_raises(monkeypatch, config,
                                                                           statistics, verdict):
    study = STUDIES["critical"]
    monkeypatch.setitem(STUDIES, "critical", dataclasses.replace(
        study, runner=lambda cfg: {**statistics, "rows": []}))
    cfg = ExperimentConfig(**{**study.defaults, **config})
    if isinstance(verdict, bool):
        assert run_study("critical", cfg)["passed"] is verdict
    else:
        with pytest.raises(KeyError, match=verdict):
            run_study("critical", cfg)


# the gates no config fails today, each with the ROADMAP item that will supply a
# must-fail row; a control lands as one GATE_CONTROLS row and one deleted entry
NO_FAILING_CONTROL = {
    ("converge", "pc_l2"): "none found: the 1e4 checkerboard leaves it in band (1.095)",
    ("converge", "energy_stable_everywhere"): "none: a projection cannot fail it",
    ("rates", "grid"): "items 11(a) and 14: the same band against the plain-log rho",
    ("critical", "grid"): "items 11(a) and 14: the same band against the plain-log rho",
    ("rates", "grid_free"): "item 9: a construction check, profile and rate built alike",
    ("critical", "grid_free"): "item 9: a construction check, profile and rate built alike",
    ("degeneracy", "weighted_active_max_min"): "items 4 (gate B), 11(c): unweighted passes too",
}
# not a control: weighted passes at the critical beta = 0, growth 1.058 (items 5, 11(b))


class GateRun(NamedTuple):
    """A study run that exits ``exit``: 0 passes its gates, 1 fails them.
    ``check`` reads, in the written report, the statistic of ``gate``: the gate
    that decides, or of a passing run the one the row is about."""

    command: str
    config: str | None  # the --config file's JSON text; None: the defaults, whose
    # report is the golden file test_default_report_matches_its_golden_file checks
    exit: int
    gate: str
    check: object  # report dict -> bool


def _in_band(report, *fits) -> bool:
    return all(abs(report["fits"][fit]["slope"] - SLOPE_BANDS[fit][0]) <= SLOPE_BANDS[fit][1]
               for fit in fits)


def _declared(report) -> bool:
    return report["expected"] == POINTWISE_PROFILES[report["config"]["profile_kind"]]


_ROUGH = '{"coeff": {"name": "checkerboard", "contrast": 1e4}}'
_BETA = inspect.signature(build_weight).parameters["beta"].default

# each study's must-pass run at its defaults, the runs whose verdict rests on
# one gate, and a must-fail run of each gate that has one
GATE_CONTROLS = [
    GateRun("converge", None, 0, "energy_stable_everywhere",
            lambda r: r["energy_stable_everywhere"] and _in_band(r, *SLOPE_BANDS)),
    GateRun("converge", '{"H_sweep": [0.5, 0.25, 0.125, 0.0625]}', 0, "ms_l2",
            lambda r: _in_band(r, *SLOPE_BANDS) and "m" not in r["config"]),
    # a rough coefficient breaks the regularity the predicted rates assume: both
    # multiscale slopes leave their bands (energy 0.000, L2 1.766)
    GateRun("converge", _ROUGH, 1, "ms_energy",
            lambda r: not _in_band(r, "ms_energy") and _in_band(r, "pc_l2")),
    GateRun("converge", _ROUGH, 1, "ms_l2", lambda r: not _in_band(r, "ms_l2")),
    GateRun("rates", None, 0, "grid", lambda r: r["grid"]["monotone_growth"]),
    GateRun("critical", None, 0, "grid_free", lambda r: r["grid_free"]["passed"]),
    # 3D p = 2 off balance: the grid-free exponent fit alone, against (d - p)/p
    GateRun("critical", '{"dim": 3, "r_sweep": [], "h_sweep": [0.25, 0.125, 0.0625, 0.03125]}', 0,
            "grid_free", lambda r: abs(r["grid_free"]["fit"]["slope"] - 0.5) <= 0.1),
    GateRun("degeneracy", None, 0, "weighted_active_max_min",
            lambda r: r["weighted_active_max_min"] <= WEIGHTED_MAX_MIN and r["sharp_monotone"]),
    # at r = 1 and 1/2 the default weight is constant, so those points are the
    # unweighted recovery; a small error there spiked the all-points max/min
    *(GateRun("degeneracy", f'{{"seed": {seed}}}', 0, "weighted_active_max_min",
              lambda r: r["weighted_max_min"] > WEIGHTED_MAX_MIN >= r["weighted_active_max_min"])
      for seed in (3881382969, 3518778431, 2116885485, 3528835259, 2620380365)),
    GateRun("weighted", None, 0, "constant_growth",
            lambda r: r["constant_growth"] <= 1.0 + CONSTANT_SLACK),
    GateRun("weighted", '{"n": 32, "num_functions": 5, "r_sweep": [1.0, 0.5, 0.25]}', 0,
            "constant_growth", lambda r: len(r["per_h_max_ratio"]) == 3),
    # past the critical exponent the weight no longer keeps the constant bounded
    GateRun("weighted", '{"weight": {"profile": "polynomial", "beta": -1.0, "validate": false}}',
            1, "constant_growth", lambda r: r["constant_growth"] > 1.0 + CONSTANT_SLACK),
    # averages d/(d+q) r^q differ by a factor 2^-q per halving of r
    GateRun("pointwise", None, 0, "classification",
            lambda r: _declared(r) and r["classification"] == "convergent"
            and r["measured_ratio"] == pytest.approx(2.0 ** -r["config"]["profile_q"], rel=1e-12)),
    GateRun("pointwise", '{"profile_kind": "constant"}', 0, "classification",
            lambda r: _declared(r) and r["measured_ratio"] == 0.0),  # no difference to decay
    # ln ln(1/r + 1) passes the divergence level 3 only below r ~ 1e-12; a slower
    # profile, ln ln ln(1/r + 1) (1.88 at r = 1e-300), passes it at no float radius,
    # so the study could only read it convergent
    GateRun("pointwise", '{"profile_kind": "loglog", "radii": [%s]}'
            % ", ".join(f"1e-{k}" for k in range(1, 13)), 0, "classification",
            lambda r: _declared(r) and r["classification"] == "divergent"),
    # a later difference of ball averages ~r^q is exactly 0: its ratio's log is -inf
    *(GateRun("pointwise", config, 0, "classification", lambda r: r["measured_ratio"] == 0.0)
      for config in ('{"profile_q": 1000}', '{"dim": 1, "profile_q": 600}')),
    # a weight without beta takes build_weight's default
    *(GateRun("pointwise", weight, 0, "classification",
              lambda r: r["target_ratio"] == 2.0 ** (-_BETA / r["config"]["p"]))
      for weight in ('{"weight": {"profile": "polynomial"}}', '{"weight": {}}')),
    # q < beta/p lies outside the theorem's hypothesis: the differences decay
    # too slowly (ratio 0.933)
    GateRun("pointwise", '{"profile_q": 0.1}', 1, "classification",
            lambda r: r["measured_ratio"] > r["target_ratio"] * (1.0 + RATE_SLACK)),
    # radii that do not halve: the averages stay accurate down to 1e-110
    GateRun("pointwise", '{"dim": 3, "radii": [0.5, 0.25, 0.125, 1e-110]}', 1, "classification",
            lambda r: r["classification"] == "inconclusive"),
    # the weight condition applies to p > 1 only: at p = 1 each point's is None, an
    # empty CSV field
    GateRun("weighted", '{"p": 1, "weight": {"profile": "w11"}}', 0, "constant_growth",
            lambda r: r["condition_normalized"] == [None] * len(r["rows"])),
    # at p = 600 the p-th powers leave the float range: the norms used to read 0 or
    # inf, and the growth over the first point raised ZeroDivisionError
    GateRun("weighted", '{"p": 600, "n": 32, "num_functions": 3, "weight": {"profile": "w11"}}',
            0, "constant_growth", lambda r: min(r["per_h_max_ratio"]) > 0.0
            and r["constant_growth"] <= 1.0 + CONSTANT_SLACK),
    # the gate reads the constants in the sweep's order: a shrinking subsample given
    # first reads them falling (0.515, 0.405, 0.318, 0.318, then the point set's 0.896)
    GateRun("degeneracy", '{"r_sweep": [0.125, 0.25, 0.5, 1.0]}', 1, "sharp_monotone",
            lambda r: not r["sharp_monotone"] and r["weighted_active_max_min"] <= WEIGHTED_MAX_MIN),
    # past the critical exponent but closer to it than beta = -1: the growth (1.495)
    # fails the slack but would pass twice the slack
    GateRun("weighted", '{"weight": {"profile": "polynomial", "beta": -0.5, "validate": false}}',
            1, "constant_growth",
            lambda r: 1.0 + CONSTANT_SLACK < r["constant_growth"] <= 1.0 + 2 * CONSTANT_SLACK),
]


@pytest.mark.parametrize("row", [pytest.param(row, id=f"{row.command}-{i}")
                                 for i, row in enumerate(GATE_CONTROLS)])
def test_study_gate_reads_as_declared(tmp_path, capsys, row):
    if row.config is None:
        report = json.loads((GOLDEN / f"{row.command}_report.json").read_text())
    else:
        code, out, err = _run(tmp_path, capsys, row.command, row.config)
        assert (code, err) == (row.exit, "")
        report = json.loads((tmp_path / "out" / f"{row.command}_report.json").read_text())
        # the written rows: a field is empty exactly where the report's value is None
        with open(tmp_path / "out" / f"{row.command}_rows.csv", newline="") as fh:
            written = list(csv.reader(fh))[1:]
        assert [[field == "" for field in line] for line in written] == [
            [value is None for value in line] for line in report["rows"]]
        # the printed summary: one JSON line, the report less its rows and config
        assert out.count("\n") == 1 and out.endswith("\n")
        assert json.loads(out) == {k: v for k, v in report.items() if k not in ("rows", "config")}
    assert report["passed"] is (row.exit == 0)
    assert row.check(report)


def test_every_gate_has_a_must_fail_row_or_names_what_will_supply_one():
    gates = {(study, gate) for study, rows in GATES.items() for gate in rows}
    failing = {(row.command, row.gate) for row in GATE_CONTROLS if row.exit == 1}
    assert {(row.command, row.gate) for row in GATE_CONTROLS} <= gates
    assert failing.isdisjoint(NO_FAILING_CONTROL)
    assert failing | set(NO_FAILING_CONTROL) == gates
    # every study has its defaults' row, whose report holds each gate that applies
    defaults = {row.command for row in GATE_CONTROLS if row.config is None}
    assert defaults == set(GATES) == set(STUDIES)
    for study, rows in GATES.items():
        golden = json.loads((GOLDEN / f"{study}_report.json").read_text())
        applies = {gate for gate, (sweep, _) in rows.items()
                   if sweep is None or golden["config"][sweep]}
        assert applies <= {*golden, *golden.get("fits", ())}


class ThreadRun(NamedTuple):
    """An ``msrecover`` command line whose stdout and written files may not depend
    by one bit on the BLAS thread count."""

    command: str
    config: str | None = None  # the --config file's JSON text; None: no --config
    field: tuple | None = None  # recover's --input: fourier_h01(DomainSpec(*field), 7)
    cg: bool = False  # elliptic.DIRECT_SOLVE_MAX_NODES set to 0: every solve runs CG


# command lines that reach every sum a threaded BLAS could reorder; a new solver
# path is one more row
THREAD_RUNS = [
    # the studies at their defaults; rates holds the 2D n=256 sharp constants at
    # r = 1/2 ... 1/16, where a BLAS product once moved the last bit of r = 1/8
    *(ThreadRun(name) for name in STUDIES),
    # the ms expansion in the basis moved bits at 2D n=128 while it was a BLAS product
    ThreadRun("recover", '{"m": 8, "r": 0.5, "basis": "ms"}', (2, 128)),
    # a variable coefficient, whose layered axis is checked against the input grid
    ThreadRun("recover", '{"m": 8, "r": 0.5, "basis": "ms", '
              '"coeff": {"name": "layered", "contrast": 100, "axis": 1}}', (2, 128)),
    # 3D n=16: the element matrix has exact zeros
    ThreadRun("recover", '{"m": 4, "r": 0.5, "basis": "ms"}', (3, 16)),
    ThreadRun("recover", '{"m": 16, "r": 0.5, "basis": "pc"}', (3, 64)),
    # CG's inner products moved bits while they were BLAS dots; the layered
    # coefficient keeps a constant-coefficient fast path from bypassing them
    ThreadRun("recover", '{"m": 2, "r": 0.5, "basis": "ms"}', (2, 128), cg=True),
    ThreadRun("recover", '{"m": 2, "r": 0.5, "basis": "ms", '
              '"coeff": {"name": "layered", "contrast": 10}}', (2, 128), cg=True),
]

# runs each [argv, run directory, cg] of the JSON list in argv[1] through cli.main;
# prints [exit code, sha256 of stdout and of each file under the run directory] of each
_THREAD_CHILD = """
import contextlib, hashlib, io, json, pathlib, sys
from msrecover import cli, elliptic
direct, results = elliptic.DIRECT_SOLVE_MAX_NODES, []
for argv, run_dir, cg in json.loads(sys.argv[1]):
    elliptic.DIRECT_SOLVE_MAX_NODES = 0 if cg else direct
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode())
    for path in sorted(p for p in pathlib.Path(run_dir).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(run_dir)).encode() + b"\\0" + path.read_bytes())
    results.append([code, digest.hexdigest()])
print(json.dumps(results))
"""


def test_no_output_bit_depends_on_the_blas_thread_count(tmp_path):
    fields = {row.field: fourier_h01(DomainSpec(*row.field), 7)
              for row in THREAD_RUNS if row.field is not None}
    src = str(pathlib.Path(harness.__file__).parents[1])
    children = {}
    for threads in ("1", "2"):  # both children at once
        jobs = []
        for i, row in enumerate(THREAD_RUNS):
            run_dir = tmp_path / threads / str(i)
            jobs.append([_argv(run_dir, row.command, row.config, fields.get(row.field)),
                         str(run_dir), row.cg])
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        children[threads] = subprocess.Popen(
            [sys.executable, "-c", _THREAD_CHILD, json.dumps(jobs)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    results = {}
    try:
        for threads, child in children.items():
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0 and err == "", err
            results[threads] = json.loads(out)
    finally:  # a child left running by a failure or a timeout
        for child in children.values():
            child.kill()
    assert [code for code, _ in results["1"]] == [0] * len(THREAD_RUNS)
    differ = [row for row, one, two in zip(THREAD_RUNS, results["1"], results["2"]) if one != two]
    assert not differ, f"the first run whose output depends on the thread count: {differ[0]}"


def test_config_accepts_an_int_for_a_float_field_unchanged():
    cfg = ExperimentConfig(p=2, r=1, profile_q=1)
    # validated, not coerced: the resolved config keeps the ints
    assert [type(v) for v in (cfg.p, cfg.r, cfg.profile_q)] == [int, int, int]


def test_cli_format_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["pointwise", "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("coeff", [
    {"name": "checkerboard", "contrast": 10.0},
    {"name": "layered", "contrast": 10.0, "axis": 1},
    {"name": "lognormal", "sigma": 0.5, "seed": 2},
])
def test_convergence_study_variable_coefficient(coeff):
    sweep = dict(name="vc", dim=2, n=32, r=0.5, H_sweep=[1 / 2, 1 / 4, 1 / 8])
    rep = run_study("converge", ExperimentConfig(coeff=coeff, **sweep))
    plain = run_convergence_study(ExperimentConfig(**sweep))
    # energy stability holds in the energy norm of every admissible coefficient
    assert rep["energy_stable_everywhere"]
    assert rep["config"]["coeff"] == coeff
    # the coefficient reaches the operator: the multiscale errors move
    assert all(a[3] != b[3] for a, b in zip(rep["rows"], plain["rows"]))


_CUBES = '{"m": 4, "kind": "cube", "r": 0.5, "basis": "%s"}'


@pytest.mark.parametrize("field,config,params,stable,l2_below", [
    # the config carries neither dim nor n: both come from the input file
    pytest.param((2, 16), _CUBES % "ms", {"basis": "ms", "dim": 2, "h": 0.125, "H": 0.25}, True,
                 np.inf, id="2d-ms"),
    pytest.param((2, 16), _CUBES % "pc", {"basis": "pc", "dim": 2, "h": 0.125, "H": 0.25}, None,
                 np.inf, id="2d-pc"),
    # RECOVER_DEFAULTS: m = 2, full-patch cubes, multiscale basis
    pytest.param((2, 16), None, {"basis": "ms", "dim": 2, "h": 0.5, "H": 0.5}, True, np.inf,
                 id="2d-defaults"),
    pytest.param((1, 32), _CUBES % "ms", {"basis": "ms", "dim": 1, "h": 0.125, "H": 0.25}, True,
                 0.05, id="1d-ms"),
])
def test_cli_recover_reports_its_grid_and_error(tmp_path, capsys, field, config, params, stable,
                                                l2_below):
    code, out, err = _run(tmp_path, capsys, "recover", config, _sines(*field))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["params"] == params
    assert len(report["per_patch_l2"]) == round(1 / params["H"]) ** params["dim"]
    assert report["energy_stable"] is stable
    assert report["l2_error"] < l2_below


def test_cli_recover_layered_axis_is_checked_against_the_input_grid(tmp_path, capsys):
    # the config carries no dim: axis 1 is valid because the input is 2D
    config = '{"m": 2, "coeff": {"name": "layered", "contrast": 10, "axis": 1}}'
    assert _run(tmp_path, capsys, "recover", config, _sines(2, 16))[0] == 0
    layered = (tmp_path / "rec.csv").read_bytes()
    assert _run(tmp_path, capsys, "recover", '{"m": 2}', _sines(2, 16))[0] == 0
    assert (tmp_path / "rec.csv").read_bytes() != layered


@pytest.mark.parametrize("command,override", [
    # r is left out: converge's 0.5 holds, not the class default 1.0
    ("converge", {"H_sweep": [0.5, 0.25, 0.125, 0.0625]}),
    ("rates", {"n": 32}),
    ("critical", {"n": 32}),
    ("degeneracy", {"n": 32}),
    ("weighted", {"num_functions": 5}),
    ("pointwise", {"weight": {"beta": 0.5}}),
    ("recover", {"m": 4}),
])
def test_cli_config_overrides_the_defaults_key_by_key(tmp_path, capsys, command, override):
    if command == "recover":
        partial = _run(tmp_path, capsys, "recover", json.dumps(override), _sines(2, 16))
        recovered = (tmp_path / "rec.csv").read_bytes()
        full = {**RECOVER_DEFAULTS, **override}
        assert _run(tmp_path, capsys, "recover", json.dumps(full), _sines(2, 16)) == partial
        assert partial[0] == 0 and (tmp_path / "rec.csv").read_bytes() == recovered
        return
    assert _run(tmp_path, capsys, command, json.dumps(override))[0] == 0
    report = json.loads((tmp_path / "out" / f"{command}_report.json").read_text())
    assert report["config"] == {**STUDIES[command].defaults, **override,
                                "library_version": LIBRARY_VERSION}


def _record_reads(monkeypatch) -> set:
    """Make ``harness.ExperimentConfig`` a subclass that adds the name of every
    field read after construction to the returned set."""
    read, names = set(), {f.name for f in dataclasses.fields(ExperimentConfig)}

    class RecordingConfig(ExperimentConfig):
        built = False

        def __post_init__(self):
            super().__post_init__()
            self.built = True

        def __getattribute__(self, key):
            if key in names and object.__getattribute__(self, "built"):
                read.add(key)
            return object.__getattribute__(self, key)

    monkeypatch.setattr(harness, "ExperimentConfig", RecordingConfig)
    return read


def test_recover_reads_exactly_its_declared_fields(tmp_path, capsys, monkeypatch):
    read = _record_reads(monkeypatch)
    config = '{"coeff": {"name": "lognormal", "sigma": 0.5}}'
    assert _run(tmp_path, capsys, "recover", config, _sines(2, 16))[0] == 0
    assert read == set(RECOVER_DEFAULTS)
