import json

import numpy as np
import pytest

from msrecover.elliptic import assemble, constant_coefficient, lognormal_coefficient
from msrecover.grid import (DomainSpec, GridFunction, build_partition, build_subsample,
                            lp_norm)
from msrecover.measurements import (MeasurementVector, build_functionals, measure,
                                    measure_all)
from msrecover.recovery import (build_theta, load_basis, ms_recover, multiscale_basis,
                                pc_recover, recovery_error_report, save_basis,
                                sharp_constant_estimate)
from msrecover.elliptic import energy_inner


def _pipeline(dim, n, m, kind, r, a=None, tol=1e-10):
    spec = DomainSpec(dim, n)
    part = build_partition(spec, m)
    sub = build_subsample(part, kind, r) if kind != "point" else build_subsample(part, kind)
    functionals = build_functionals(sub)
    coeff = a if a is not None else constant_coefficient(spec)
    op = assemble(spec, coeff)
    theta = build_theta(functionals, op, tol)
    basis = multiscale_basis(theta)
    return spec, part, sub, functionals, op, theta, basis


def test_pc_constant_reproduced():
    spec = DomainSpec(2, 16)
    part = build_partition(spec, 4)
    sub = build_subsample(part, "cube", 1.0)
    u = GridFunction.constant(spec, 3.5)
    data = measure_all(u, build_functionals(sub))
    rec = pc_recover(data, part)
    np.testing.assert_allclose(rec.values, 3.5, rtol=1e-12)


def test_pc_linear_values_and_error():
    spec = DomainSpec(1, 256)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 1.0)
    u = GridFunction.from_callable(spec, lambda x: x)
    data = measure_all(u, build_functionals(sub))
    np.testing.assert_allclose(data.values, [0.25, 0.75], rtol=1e-12)
    rec = pc_recover(data, part)
    # interior of each patch carries the patch average; shared node the mean
    assert rec.values[10] == pytest.approx(0.25)
    assert rec.values[128] == pytest.approx(0.5)
    err = lp_norm(u - rec, 2.0)
    # exact error: (2 * int_0^{1/2} (x-1/4)^2 dx)^{1/2} = sqrt(1/48)
    assert err == pytest.approx(np.sqrt(1.0 / 48.0), rel=2e-2)


def test_pc_error_rate_halves():
    spec = DomainSpec(1, 256)
    u = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
    errs = []
    for m in (4, 8):
        part = build_partition(spec, m)
        sub = build_subsample(part, "cube", 1.0)
        data = measure_all(u, build_functionals(sub))
        errs.append(lp_norm(u - pc_recover(data, part), 2.0))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.25)


def test_theta_single_patch_value():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 64, 1, "cube", 1.0)
    assert theta.matrix[0, 0] == pytest.approx(1.0 / 12.0, abs=3e-5)


def test_theta_scales_inversely_with_coefficient():
    spec = DomainSpec(1, 32)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 0.5)
    functionals = build_functionals(sub)
    t1 = build_theta(functionals, assemble(spec, constant_coefficient(spec, 1.0)))
    t5 = build_theta(functionals, assemble(spec, constant_coefficient(spec, 5.0)))
    np.testing.assert_allclose(t5.matrix, t1.matrix / 5.0, rtol=1e-10)


def test_theta_matches_dense_oracle():
    # independent dense reimplementation of the 1D pipeline
    n, m, r = 64, 2, 0.5
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, n, m, "cube", r)
    h = 1.0 / n
    K = (np.diag(np.full(n - 1, 2.0)) + np.diag(np.full(n - 2, -1.0), 1)
         + np.diag(np.full(n - 2, -1.0), -1)) / h
    W = np.stack([phi.dense_weights() for phi in functionals])
    G = np.zeros((m, n + 1))
    G[:, 1:-1] = np.linalg.solve(K, W[:, 1:-1].T).T
    theta_dense = G @ W.T
    np.testing.assert_allclose(theta.matrix, 0.5 * (theta_dense + theta_dense.T),
                               rtol=1e-8)
    psi_dense = np.linalg.solve(theta_dense, G)
    np.testing.assert_allclose(basis.stack, psi_dense, rtol=0, atol=1e-8)


def test_single_patch_basis_is_parabola():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 128, 1, "cube", 1.0)
    x = np.linspace(0, 1, 129)
    psi = basis[0]
    assert np.abs(psi.values - 6 * x * (1 - x)).max() <= 5e-3
    assert measure(psi, functionals[0]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim,n,m,kind,r", [
    (1, 32, 2, "cube", 0.5),
    (1, 32, 4, "point", 1.0),
    (2, 32, 4, "cube", 0.5),
    (2, 32, 2, "slice", 0.5),
    (2, 32, 2, "point", 1.0),
])
def test_biorthogonality(dim, n, m, kind, r):
    spec, part, sub, functionals, op, theta, basis = _pipeline(dim, n, m, kind, r)
    nfun = len(functionals)
    gram = np.empty((nfun, nfun))
    for i in range(nfun):
        psi = basis[i]
        for j, phi in enumerate(functionals):
            gram[i, j] = measure(psi, phi)
    assert np.abs(gram - np.eye(nfun)).max() <= 1e-8


def test_basis_vanishes_on_boundary():
    spec, part, sub, functionals, op, theta, basis = _pipeline(2, 16, 2, "cube", 0.5)
    for i in range(len(basis)):
        v = basis[i].values
        assert np.all(v[0, :] == 0) and np.all(v[-1, :] == 0)
        assert np.all(v[:, 0] == 0) and np.all(v[:, -1] == 0)


def test_energy_minimality_under_admissible_perturbations():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 64, 2, "cube", 0.5)
    psi = basis[0]
    e0 = energy_inner(psi, psi, op)
    rng = np.random.default_rng(10)
    for _ in range(10):
        raw = np.zeros(spec.node_shape)
        raw[1:-1] = rng.standard_normal(spec.n - 1)
        pert = GridFunction(spec, raw)
        # project onto the admissible set: zero measurement in every functional
        coeffs = np.array([measure(pert, phi) for phi in functionals])
        admissible = pert - GridFunction(spec, (coeffs @ basis.stack).reshape(spec.node_shape))
        cand = psi + admissible
        assert energy_inner(cand, cand, op) >= e0 - 1e-10


def test_ms_recover_zero_and_span():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 64, 1, "cube", 1.0)
    zero = ms_recover(MeasurementVector(np.zeros(1), "cube", 1.0, 1.0, 1), basis)
    assert np.all(zero.values == 0.0)
    u = GridFunction.from_callable(spec, lambda x: x * (1 - x))
    data = measure_all(u, functionals)
    assert data.values[0] == pytest.approx(1.0 / 6.0, abs=1e-4)
    rec = ms_recover(data, basis)
    assert np.abs(rec.values - u.values).max() <= 5e-3


def test_ms_data_reproduction_and_orthogonality():
    spec, part, sub, functionals, op, theta, basis = _pipeline(2, 32, 2, "cube", 0.5)
    u = GridFunction.from_callable(spec, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    data = measure_all(u, functionals)
    rec = ms_recover(data, basis)
    for j, phi in enumerate(functionals):
        assert measure(rec, phi) == pytest.approx(data.values[j], abs=1e-8)
    diff = u - rec
    for i in range(len(basis)):
        assert abs(energy_inner(diff, basis[i], op)) <= 1e-7


def test_recovery_linearity():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 32, 2, "cube", 0.5)
    rng = np.random.default_rng(11)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    v = GridFunction(spec, rng.standard_normal(spec.node_shape))
    du = measure_all(u, functionals)
    dv = measure_all(v, functionals)
    combo = measure_all(2.0 * u + (-1.5) * v, functionals)
    rec = ms_recover(combo, basis)
    expected = 2.0 * ms_recover(du, basis) + (-1.5) * ms_recover(dv, basis)
    assert np.abs(rec.values - expected.values).max() <= 1e-10
    pc = pc_recover(combo, part)
    pc_expected = 2.0 * pc_recover(du, part) + (-1.5) * pc_recover(dv, part)
    assert np.abs(pc.values - pc_expected.values).max() <= 1e-10


def test_energy_projection_beats_alternatives():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 64, 4, "cube", 0.5)
    u = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
    data = measure_all(u, functionals)
    rec = ms_recover(data, basis)
    best = energy_inner(u - rec, u - rec, op)
    rng = np.random.default_rng(12)
    for _ in range(20):
        c = data.values + 0.5 * rng.standard_normal(len(data.values))
        alt = GridFunction(spec, (c @ basis.stack).reshape(spec.node_shape))
        alt_err = energy_inner(u - alt, u - alt, op)
        assert alt_err >= best - 1e-10


def test_report_flags_and_errors():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 128, 4, "cube", 1.0)
    u = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
    data = measure_all(u, functionals)
    ms = ms_recover(data, basis)
    rep = recovery_error_report(u, ms, {"basis": "ms"}, a=op, partition=part)
    assert rep.l2_error >= 0.0 and rep.energy_error >= 0.0
    assert rep.energy_stable is True
    assert len(rep.per_patch_l2) == part.num_patches
    total = sum(e**2 for e in rep.per_patch_l2)
    assert total == pytest.approx(rep.l2_error**2, rel=1e-10)
    pc = pc_recover(data, part)
    rep_pc = recovery_error_report(u, pc, {"basis": "pc"}, a=op)
    assert rep_pc.energy_stable is None
    same = recovery_error_report(u, u, {"basis": "ms"}, a=op)
    assert same.l2_error == pytest.approx(0.0, abs=1e-14)
    assert "l2_error" in same.to_json()


def test_sharp_constant_classical():
    spec = DomainSpec(1, 512)
    part = build_partition(spec, 1)
    sub = build_subsample(part, "cube", 1.0)
    op = assemble(spec, constant_coefficient(spec))
    est = sharp_constant_estimate(part, sub, op)
    assert est == pytest.approx(1.0 / np.pi, rel=0.02)


def test_sharp_constant_monotone_in_subsample():
    spec = DomainSpec(2, 64)
    part = build_partition(spec, 1)
    op = assemble(spec, constant_coefficient(spec))
    ests = []
    for r in (1.0, 0.5, 0.25):
        sub = build_subsample(part, "cube", r)
        ests.append(sharp_constant_estimate(part, sub, op))
    assert ests[0] <= ests[1] + 1e-8 <= ests[2] + 2e-8


def test_sharp_constant_rejects_multi_patch():
    spec = DomainSpec(1, 16)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 1.0)
    op = assemble(spec, constant_coefficient(spec))
    with pytest.raises(ValueError):
        sharp_constant_estimate(part, sub, op)


def test_basis_container_roundtrip(tmp_path):
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 16, 2, "cube", 0.5)
    cpath = tmp_path / "basis.bin"
    mpath = tmp_path / "basis.json"
    save_basis(basis, cpath, mpath)
    back = load_basis(cpath, mpath)
    np.testing.assert_array_equal(back.stack, basis.stack)
    assert back.spec == basis.spec


def test_basis_container_rejects_a_short_blob(tmp_path):
    basis = _pipeline(1, 16, 2, "cube", 0.5)[-1]
    cpath = tmp_path / "basis.bin"
    mpath = tmp_path / "basis.json"
    save_basis(basis, cpath, mpath)
    cpath.write_bytes(cpath.read_bytes()[:-8])
    with pytest.raises(ValueError, match="corrupt basis container"):
        load_basis(cpath, mpath)


@pytest.mark.parametrize("grid", [{"n": 40}, {"dim": 2, "n": 8}], ids=["n", "dim"])
def test_basis_container_rejects_a_header_for_another_grid(tmp_path, grid):
    # blobs of a 1D n=80 grid; 2D n=8 has as many nodes, 1D n=40 fits inside a blob
    basis = _pipeline(1, 80, 2, "cube", 0.5)[-1]
    cpath = tmp_path / "basis.bin"
    mpath = tmp_path / "basis.json"
    save_basis(basis, cpath, mpath)
    manifest = json.loads(mpath.read_text())
    manifest.update(grid)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="corrupt basis container"):
        load_basis(cpath, mpath)
