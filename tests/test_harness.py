import json

import numpy as np
import pytest

from msrecover.cli import _DEFAULTS, main as cli_main
from msrecover.errors import ConfigError
from msrecover.harness import (ExperimentConfig, fit_loglog, run_convergence_study,
                               run_pointwise_limit_study, run_rate_study,
                               run_weighted_study)


def test_fit_loglog_exact_quadratic():
    xs = [1.0, 2.0, 4.0, 8.0]
    fit = fit_loglog([(x, x**2) for x in xs])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_linear_intercept():
    fit = fit_loglog([(x, 3.0 * x) for x in (1.0, 2.0, 5.0, 9.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_loglog_noisy_quadratic():
    rng = np.random.default_rng(42)
    xs = np.linspace(1.0, 16.0, 12)
    ys = xs**2 * np.exp(0.01 * rng.standard_normal(len(xs)))
    fit = fit_loglog(zip(xs, ys))
    assert fit.slope == pytest.approx(2.0, abs=0.05)


def test_fit_loglog_validation():
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "t", "dim": 1, "n": 64,
                                "H_sweep": [0.5, 0.25, 0.125]}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.n == 64 and len(cfg.H_sweep) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "t", "bogus_key": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


def test_convergence_study_requires_sweep():
    with pytest.raises(ConfigError):
        run_convergence_study(ExperimentConfig(name="x", H_sweep=[]))


def test_convergence_study_small():
    cfg = ExperimentConfig(name="conv", dim=1, n=256, r=0.5,
                           H_sweep=[1 / 2, 1 / 4, 1 / 8, 1 / 16])
    rep = run_convergence_study(cfg)
    assert rep["passed"]
    assert abs(rep["fits"]["pc_l2"]["slope"] - 1.0) <= 0.15
    assert abs(rep["fits"]["ms_l2"]["slope"] - 2.0) <= 0.2
    assert abs(rep["fits"]["ms_energy"]["slope"] - 1.0) <= 0.15
    assert rep["config"]["n"] == 256  # resolved config embedded


def test_rate_study_grid_free_only():
    cfg = ExperimentConfig(name="r", dim=3, p=2.0, r_sweep=[],
                           h_sweep=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    rep = run_rate_study(cfg)
    assert rep["grid_free"]["passed"]
    assert abs(rep["grid_free"]["fit"]["slope"] - 0.5) <= 0.1


def test_determinism_byte_identical(tmp_path):
    cfg = dict(name="det", dim=1, n=64, r=0.5, H_sweep=[1 / 2, 1 / 4, 1 / 8], seed=5)
    for sub in ("x", "y"):
        run_convergence_study(ExperimentConfig(**cfg), out_dir=tmp_path / sub)
    for fname in ("det_rows.csv", "det_report.json"):
        a = (tmp_path / "x" / fname).read_bytes()
        b = (tmp_path / "y" / fname).read_bytes()
        assert a == b


def test_weighted_study_report_shape(tmp_path):
    cfg = ExperimentConfig(name="w", dim=2, p=2.0, n=32, num_functions=5,
                           r_sweep=[1.0, 1 / 2, 1 / 4],
                           weight={"profile": "polynomial", "beta": 1.0})
    rep = run_weighted_study(cfg, out_dir=tmp_path)
    assert rep["passed"]
    assert len(rep["per_h_max_ratio"]) == 3
    assert (tmp_path / "w_rows.csv").exists()
    assert (tmp_path / "w_report.json").exists()
    report = json.loads((tmp_path / "w_report.json").read_text())
    assert report["config"]["weight"]["profile"] == "polynomial"


def test_pointwise_study_validation():
    with pytest.raises(ConfigError):
        run_pointwise_limit_study(ExperimentConfig(name="p", radii=[0.5]))


def test_pointwise_study_constant_profile_is_convergent():
    rep = run_pointwise_limit_study(ExperimentConfig(
        name="pc", dim=2, p=2.0, profile_kind="constant",
        radii=[2.0**-k for k in range(1, 8)]))
    assert rep["classification"] == "convergent"
    assert rep["measured_ratio"] == 0.0
    assert rep["passed"]


def test_cli_pass_and_fail_and_config_error(tmp_path, capsys):
    cfg = {"name": "cli", "dim": 2, "p": 2.0, "profile_kind": "power",
           "profile_q": 0.55, "weight": {"beta": 1.0},
           "radii": [2.0**-k for k in range(1, 9)]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["pointwise", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip())["classification"] == "convergent"

    # a config that fails its gate: loglog claimed convergent
    cfg["profile_kind"] = "loglog"
    cfg["radii"] = [10.0**-k for k in range(1, 13)]
    cfg["tolerances"] = {}
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(cfg))
    rc = cli_main(["pointwise", "--config", str(path2)])
    assert rc == 0  # divergence is the expected outcome for loglog
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": True}))
    assert cli_main(["pointwise", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_default_rates_report_monotone_growth(tmp_path, capsys):
    # the first two default estimates differ only by solver noise (relative ~1e-9)
    assert cli_main(["rates", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "rates_report.json").read_text())
    assert rep["grid"]["monotone_growth"] is True


def test_cli_failing_gate_returns_one(tmp_path, capsys):
    # quadratic ms slope cannot appear over a 3-point sweep of identical H: force
    # a failure by demanding an absurd tolerance band
    cfg = {"name": "fail", "dim": 1, "n": 64, "r": 0.5,
           "H_sweep": [1 / 2, 1 / 4, 1 / 8],
           "tolerances": {"slopes": {"pc_l2": [5.0, 0.01]}}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["converge", "--config", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("study,override", [
    ("rates", {"tolerances": {"grid_bnad": 0.0}}),  # misspelled gate key
    ("rates", {"tolerances": {"grid_band": 0.5}}),  # gate widths are constants
    ("converge", {"coeff": {"name": "checkerboard", "contrst": 10}}),
    ("converge", {"coeff": {"name": "checkerboard"}}),  # contrast is required
    ("converge", {"coeff": {"name": "stripes"}}),
    ("converge", {"coeff": "checkerboard"}),
    ("degeneracy", {"weight": {"betta": 5.0}}),
])
def test_cli_rejects_bad_config_keys(tmp_path, capsys, study, override):
    # the study's default config, which runs, with one bad entry
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_DEFAULTS[study], **override}))
    assert cli_main([study, "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


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
    rep = run_convergence_study(ExperimentConfig(coeff=coeff, **sweep))
    plain = run_convergence_study(ExperimentConfig(**sweep))
    # energy stability holds in the energy norm of every admissible coefficient
    assert rep["energy_stable_everywhere"]
    assert rep["config"]["coeff"] == coeff
    # the coefficient reaches the operator: the multiscale errors move
    assert all(a[3] != b[3] for a, b in zip(rep["rows"], plain["rows"]))


def _recover(tmp_path, capsys, u, config=None):
    from msrecover.grid import save_grid_function

    upath = tmp_path / "u.csv"
    save_grid_function(u, upath)
    argv = ["recover", "--input", str(upath), "--output", str(tmp_path / "rec.csv")]
    if config is not None:
        cfgpath = tmp_path / "rc.json"
        cfgpath.write_text(json.dumps(config))
        argv += ["--config", str(cfgpath)]
    assert cli_main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _field_2d():
    from msrecover.grid import DomainSpec, GridFunction

    return GridFunction.from_callable(
        DomainSpec(2, 16), lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


@pytest.mark.parametrize("basis", ["ms", "pc"])
def test_cli_recover_reports_the_grid_dim(tmp_path, capsys, basis):
    # rc.json carries neither dim nor n: both come from the input file
    report = _recover(tmp_path, capsys, _field_2d(),
                      {"m": 4, "kind": "cube", "r": 0.5, "basis": basis})
    assert report["params"] == {"basis": basis, "dim": 2, "h": 0.125, "H": 0.25}
    assert len(report["per_patch_l2"]) == 16
    assert report["energy_stable"] is (True if basis == "ms" else None)


def test_cli_recover_without_config(tmp_path, capsys):
    report = _recover(tmp_path, capsys, _field_2d())
    # ExperimentConfig defaults: m = 2, full-patch cubes, multiscale basis
    assert report["params"] == {"basis": "ms", "dim": 2, "h": 0.5, "H": 0.5}
    assert report["energy_stable"] is True


def test_cli_recover_roundtrip(tmp_path, capsys):
    from msrecover.grid import DomainSpec, GridFunction, save_grid_function

    spec = DomainSpec(1, 32)
    u = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
    upath = tmp_path / "u.csv"
    save_grid_function(u, upath)
    cfgpath = tmp_path / "rc.json"
    cfgpath.write_text(json.dumps({"name": "rec", "dim": 1, "n": 32, "m": 4,
                                   "kind": "cube", "r": 0.5, "basis": "ms"}))
    out = tmp_path / "rec.csv"
    rc = cli_main(["recover", "--input", str(upath), "--output", str(out),
                   "--config", str(cfgpath)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["l2_error"] < 0.05
    assert report["energy_stable"] is True
