"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Each test prints a single pass/fail line so a `pytest -s tests/test_acceptance.py`
run doubles as the sign-off record.
"""

import numpy as np
import pytest

from msrecover.analytic import critical_ratio, rho
from msrecover.elliptic import assemble, constant_coefficient
from msrecover.grid import (DomainSpec, GridFunction, build_partition, build_subsample,
                            lp_norm)
from msrecover.harness import (ExperimentConfig, fit_loglog, run_convergence_study,
                               run_degeneracy_study, run_pointwise_limit_study,
                               run_weighted_study)
from msrecover.measurements import bound_integral, build_functionals, measure, measure_all
from msrecover.recovery import (build_theta, ms_recover, multiscale_basis,
                                sharp_constant_estimate)


def _verdict(num, name, ok):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def grid2d_sweeps():
    """Single-patch optimal-constant sweeps on the 2D grid, cube and slice kinds."""
    spec = DomainSpec(2, 256)
    part = build_partition(spec, 1)
    op = assemble(spec, constant_coefficient(spec))
    rs = [1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16]
    out = {}
    for kind in ("cube", "slice"):
        ests = []
        for r in rs:
            sub = build_subsample(part, kind, r)
            ests.append(sharp_constant_estimate(part, sub, op, tol=1e-9))
        out[kind] = (rs, ests)
    return out


def test_criterion_01_biorthogonality():
    worst = 0.0
    for dim in (1, 2):
        kinds = ["cube", "point"] if dim == 1 else ["cube", "slice", "point"]
        for m in (2, 4):
            spec = DomainSpec(dim, 32)
            part = build_partition(spec, m)
            op = assemble(spec, constant_coefficient(spec))
            for kind in kinds:
                ratios = [1.0] if kind == "point" else [1.0, 0.5, 0.25]
                for r in ratios:
                    sub = (build_subsample(part, kind, r) if kind != "point"
                           else build_subsample(part, kind))
                    functionals = build_functionals(sub)
                    basis = multiscale_basis(build_theta(functionals, op))
                    gram = np.array([[measure(basis[i], phi) for phi in functionals]
                                     for i in range(len(basis))])
                    worst = max(worst, float(np.abs(gram - np.eye(len(basis))).max()))
    _verdict(1, f"biorthogonality (max deviation {worst:.2e})", worst <= 1e-8)


def test_criterion_02_dense_oracle_equivalence():
    n, m, r = 64, 2, 0.5
    spec = DomainSpec(1, n)
    part = build_partition(spec, m)
    sub = build_subsample(part, "cube", r)
    functionals = build_functionals(sub)
    op = assemble(spec, constant_coefficient(spec))
    theta = build_theta(functionals, op)
    basis = multiscale_basis(theta)
    u = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
    data = measure_all(u, functionals)
    rec = ms_recover(data, basis)

    # independent dense reimplementation: textbook tridiagonal assembly plus
    # dense numpy solves
    h = 1.0 / n
    K = (np.diag(np.full(n - 1, 2.0)) + np.diag(np.full(n - 2, -1.0), 1)
         + np.diag(np.full(n - 2, -1.0), -1)) / h
    W = np.stack([phi.dense_weights() for phi in functionals])
    G = np.zeros((m, n + 1))
    G[:, 1:-1] = np.linalg.solve(K, W[:, 1:-1].T).T
    theta_d = G @ W.T
    psi_d = np.linalg.solve(theta_d, G)
    rec_d = (W @ u.values) @ psi_d

    e_theta = np.abs(theta.matrix - theta_d).max() / np.abs(theta_d).max()
    e_psi = np.abs(basis.stack - psi_d).max() / np.abs(psi_d).max()
    e_rec = np.abs(rec.values - rec_d).max() / np.abs(rec_d).max()
    ok = max(e_theta, e_psi, e_rec) <= 1e-8
    _verdict(2, f"dense-oracle equivalence (worst {max(e_theta, e_psi, e_rec):.2e})", ok)


def test_criterion_03_convergence_rates():
    ok = True
    details = []
    for dim, n, sweep in ((1, 256, [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32]),
                          (2, 128, [1 / 2, 1 / 4, 1 / 8, 1 / 16])):
        cfg = ExperimentConfig(name=f"conv{dim}d", dim=dim, n=n, r=0.5,
                               H_sweep=sweep)
        rep = run_convergence_study(cfg)
        s = {k: rep["fits"][k]["slope"] for k in rep["fits"]}
        ok &= abs(s["pc_l2"] - 1.0) <= 0.15
        ok &= abs(s["ms_l2"] - 2.0) <= 0.2
        ok &= abs(s["ms_energy"] - 1.0) <= 0.15
        ok &= rep["energy_stable_everywhere"]
        details.append(f"{dim}d slopes pc={s['pc_l2']:.2f} ms={s['ms_l2']:.2f} "
                       f"en={s['ms_energy']:.2f}")
    _verdict(3, "convergence rates (" + "; ".join(details) + ")", ok)


def test_criterion_04_noncritical_rate_exponents():
    ok = True
    slopes = {}
    for dim, target in ((3, 0.5), (4, 1.0)):
        hs = [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]
        fit = fit_loglog([(1 / h, critical_ratio("critical_ramp", dim, 2, h))
                          for h in hs])
        slopes[dim] = fit.slope
        ok &= abs(fit.slope - target) <= 0.1
    _verdict(4, f"non-critical exponents (d3 {slopes[3]:.3f}, d4 {slopes[4]:.3f})", ok)


def test_criterion_05_critical_case(grid2d_sweeps):
    # (a) grid-free: profile ratio over sqrt-log stays in a 25 percent band
    hs = [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]
    norm_free = [critical_ratio("critical_log", 2, 2, h) / np.sqrt(np.log(1 + 1 / h))
                 for h in hs]
    center = float(np.mean(norm_free))
    ok_a = all(abs(v - center) <= 0.25 * center for v in norm_free)
    # (b) grid estimates grow and track sqrt-log within a 30 percent band
    rs, ests = grid2d_sweeps["cube"]
    growing = all(b >= a - 1e-6 for a, b in zip(ests, ests[1:]))
    norm_grid = [e / np.sqrt(np.log(1 + 1 / r)) for e, r in zip(ests, rs)]
    center_g = float(np.mean(norm_grid))
    ok_b = growing and all(abs(v - center_g) <= 0.30 * center_g for v in norm_grid)
    _verdict(5, f"critical-case rate (free band {max(abs(v-center)/center for v in norm_free):.2f},"
                f" grid band {max(abs(v-center_g)/center_g for v in norm_grid):.2f})",
             ok_a and ok_b)


def test_criterion_06_sliced_data(grid2d_sweeps):
    rs, ests = grid2d_sweeps["slice"]
    # no faster than the plain-log rate: the normalized sequence must not rise
    up = [e / rho("tilde", 2, 2, 1 / r) for e, r in zip(ests, rs)]
    ok_upper = all(v <= up[0] * 1.10 for v in up)
    # at least as fast as the grid-free lower-bound profile's growth
    cmp = [(r, e) for r, e in zip(rs, ests) if r <= 0.25]
    lower = {r: critical_ratio("critical_log", 2, 2, r) for r, _ in cmp}
    base_r, base_e = cmp[0]
    ok_lower = all((e / base_e) >= 0.75 * (lower[r] / lower[base_r]) for r, e in cmp)
    _verdict(6, "sliced-data rate (upper, lower growth checks)", ok_upper and ok_lower)


def _closed_form_cube(p, d, H, h):
    x = H / h
    if d < p:
        return (p / (p - d)) * (x ** (d / p) * (1 - (H / (H + h)) ** (1 - d / p))
                                + 1 - (h / (H + h)) ** (1 - d / p))
    if d == p:
        return x * np.log(1 + 1 / x) + np.log(1 + x)
    return (p / (d - p)) * (x ** (d / p) * ((1 + h / H) ** ((d - p) / p) - 1)
                            + (1 + x) ** ((d - p) / p) - 1)


def test_criterion_07_envelope_integral_algebra():
    combos = [(1, 2, 2), (1, 2, 10), (1, 3, 4), (1, 4, 8),
              (2, 2, 2), (2, 2, 10), (3, 3, 8), (2, 2, 64),
              (3, 2, 4), (3, 2, 16), (2, 1, 8), (3, 1, 32)]
    assert len(combos) == 12
    worst = 0.0
    for d, p, ratio in combos:
        H, h = 1.0, 1.0 / ratio
        num = bound_integral("cube", p, d, H, h)
        ref = _closed_form_cube(p, d, H, h)
        worst = max(worst, abs(num - ref) / abs(ref))
    exact = bound_integral("cube", 2, 2, 1.0, 0.1)
    worst = max(worst, abs(exact - (10 * np.log(1.1) + np.log(11.0))) / exact)
    _verdict(7, f"envelope integral algebra (worst rel {worst:.2e})", worst <= 1e-6)


def test_criterion_08_weighted_inequalities():
    ok = True
    details = []
    for p, weight in ((1.0, {"profile": "w11"}),
                      (2.0, {"profile": "polynomial", "beta": 1.0}),
                      (2.0, {"profile": "logarithmic", "gamma": 2.0})):
        cfg = ExperimentConfig(name="w", dim=2, p=p, n=64, seed=3, num_functions=50,
                               r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16],
                               weight=weight)
        rep = run_weighted_study(cfg)
        ok &= rep["constant_growth"] <= 1.25
        details.append(f"{weight['profile']} growth {rep['constant_growth']:.3f}")
    # admissibility integral: bounded for valid profiles, divergent at the edge
    deep = [1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]
    for weight, expect in (({"profile": "polynomial", "beta": 1.0}, "bounded"),
                           ({"profile": "logarithmic", "gamma": 2.0}, "bounded"),
                           ({"profile": "polynomial", "beta": 0.0,
                             "validate": False}, "divergent")):
        cfg = ExperimentConfig(name="wc", dim=2, p=2.0, n=128, seed=3,
                               num_functions=3, r_sweep=deep, weight=weight,
                               tolerances={"expect_condition": expect})
        rep = run_weighted_study(cfg)
        ok &= rep["condition_class"] == expect
        details.append(f"{weight.get('beta', weight.get('gamma'))}:{rep['condition_class']}")
    _verdict(8, "weighted inequalities (" + ", ".join(details) + ")", ok)


def test_criterion_09_nondegenerate_recovery():
    cfg = ExperimentConfig(name="deg", dim=2, p=2.0, n=128, m=2, seed=7,
                           r_sweep=[1.0, 1 / 2, 1 / 4, 1 / 8])
    rep = run_degeneracy_study(cfg)
    ok = rep["weighted_max_min"] <= 3.0 and rep["sharp_monotone"]
    _verdict(9, f"non-degenerate weighted recovery (max/min {rep['weighted_max_min']:.2f}, "
                f"constants monotone {rep['sharp_monotone']})", ok)


def test_criterion_10_pointwise_limit():
    radii = [2.0**-k for k in range(1, 11)]
    cfg = ExperimentConfig(name="pw", dim=2, p=2.0, profile_kind="power",
                           profile_q=0.55, radii=radii, weight={"beta": 1.0})
    rep = run_pointwise_limit_study(cfg)
    target = 2.0**-0.5
    two_sided = abs(rep["measured_ratio"] - target) <= 0.2 * target
    ok = rep["classification"] == "convergent" and two_sided

    cfg_ll = ExperimentConfig(name="pwll", dim=2, profile_kind="loglog",
                              radii=[10.0**-k for k in range(1, 13)])
    rep_ll = run_pointwise_limit_study(cfg_ll)
    last_avg = rep_ll["rows"][-1][1]
    ok = ok and rep_ll["classification"] == "divergent" and last_avg > 3.0
    _verdict(10, f"pointwise limit (ratio {rep['measured_ratio']:.3f} vs {target:.3f}, "
                 f"loglog avg {last_avg:.2f})", ok)


def test_criterion_11_determinism(tmp_path):
    runs = {}
    for tag in ("first", "second"):
        out = tmp_path / tag
        run_convergence_study(ExperimentConfig(
            name="det", dim=1, n=64, r=0.5, H_sweep=[1 / 2, 1 / 4, 1 / 8], seed=9),
            out_dir=out)
        run_pointwise_limit_study(ExperimentConfig(
            name="detpw", dim=2, profile_kind="loglog", seed=9,
            radii=[10.0**-k for k in range(1, 13)]), out_dir=out)
        runs[tag] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    ok = runs["first"] == runs["second"] and len(runs["first"]) == 4
    _verdict(11, "determinism (byte-identical reruns)", ok)
