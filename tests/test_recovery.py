import functools

import numpy as np
import pytest
from scipy.linalg import eigh

from msrecover import elliptic, recovery
from msrecover.elliptic import (CoefficientField, assemble, checkerboard_coefficient,
                                constant_coefficient, energy_inner, layered_coefficient,
                                lognormal_coefficient)
from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            cell_center_values, lp_norm, midpoint_lp)
from msrecover.errors import SolverError
from msrecover.measurements import (MeasurementOperator, MeasurementVector,
                                    build_functionals, measure, measure_all)
from msrecover.recovery import (build_theta, constrained_minimizer, ms_recover, multiscale_basis,
                                pc_recover, recover, recovery_error_report,
                                sharp_constant_estimate)
from msrecover.testfuncs import fourier_h01
from msrecover.weights import build_weight, distance_field


def _pipeline(dim, n, m, kind, r, a=None):
    spec = DomainSpec(dim, n)
    part = CoarsePartition(spec, m)
    sub = SubsampleSpec(part, kind, r)
    functionals = build_functionals(sub)
    coeff = a if a is not None else constant_coefficient(spec)
    op = assemble(spec, coeff)
    theta = build_theta(functionals, op)
    basis = multiscale_basis(theta)
    return spec, part, sub, functionals, op, theta, basis


def test_pc_linear_values_and_error():
    spec = DomainSpec(1, 256)
    part = CoarsePartition(spec, 2)
    sub = SubsampleSpec(part, "cube", 1.0)
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
        part = CoarsePartition(spec, m)
        sub = SubsampleSpec(part, "cube", 1.0)
        data = measure_all(u, build_functionals(sub))
        errs.append(lp_norm(u - pc_recover(data, part), 2.0))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.25)


def test_theta_single_patch_value():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 64, 1, "cube", 1.0)
    assert theta.matrix[0, 0] == pytest.approx(1.0 / 12.0, abs=3e-5)


def test_theta_scales_inversely_with_coefficient():
    spec = DomainSpec(1, 32)
    part = CoarsePartition(spec, 2)
    sub = SubsampleSpec(part, "cube", 0.5)
    functionals = build_functionals(sub)
    t1 = build_theta(functionals, assemble(spec, constant_coefficient(spec, 1.0)))
    t5 = build_theta(functionals, assemble(spec, constant_coefficient(spec, 5.0)))
    np.testing.assert_allclose(t5.matrix, t1.matrix / 5.0, rtol=1e-10)


def test_build_theta_rejects_dependent_functionals():
    spec = DomainSpec(1, 16)
    op = assemble(spec, constant_coefficient(spec))
    (w,) = build_functionals(SubsampleSpec(CoarsePartition(spec, 2), "cube", 0.5)).factors
    (whole,) = build_functionals(SubsampleSpec(CoarsePartition(spec, 1), "cube", 0.5)).factors
    # pairs of functionals -> the refusal's cause, or None for any LinAlgError
    cases = [
        # a zero copy of a functional: its row and column of the coupling matrix are
        # exactly 0, and LAPACK refuses the pivot
        (np.stack([w[0], 0.0 * w[0]]), None),
        # a repeated functional: LAPACK refuses the pivot rounding left at or below 0
        (np.stack([whole[0], whole[0]]), None),
        # functional 0 and functional 0 plus 1e-8 functional 1: Cholesky ends on a pivot
        # that rounding left positive, which build_theta's own guard refuses (1e-7
        # passes, LAPACK refuses 1e-9)
        (np.stack([w[0], w[0] + 1e-8 * w[1]]), "pivot at the rounding level"),
    ]
    for rows, cause in cases:
        with pytest.raises(SolverError, match="not numerically positive definite") as caught:
            build_theta(MeasurementOperator([rows]), op)
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)
        assert cause is None or str(caught.value.__cause__) == cause


def test_single_patch_basis_is_parabola():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 128, 1, "cube", 1.0)
    x = np.linspace(0, 1, 129)
    psi = basis[0]
    assert np.abs(psi.values - 6 * x * (1 - x)).max() <= 5e-3
    assert measure(psi, functionals[0]) == pytest.approx(1.0, abs=1e-10)


_PIPELINE_CASES = [
    (1, 32, 2, "cube", 0.5),
    (1, 32, 4, "point", 1.0),
    (2, 32, 4, "cube", 0.5),
    (2, 32, 2, "slice", 0.5),
    (2, 32, 2, "point", 1.0),
]


@pytest.mark.parametrize("basis", ["pc", "ms"])
@pytest.mark.parametrize("dim,n,m,kind,r", _PIPELINE_CASES + [
    (3, 8, 2, "cube", 0.5),
    (3, 8, 2, "slice", 0.5),
    (3, 8, 2, "point", 1.0),
])
def test_recover_is_the_step_by_step_chain(dim, n, m, kind, r, basis):
    """``recover`` is pc_recover without an operator and the constrained minimizer
    with one, which is the Theta chain bit for bit."""
    spec, part, sub, functionals, op, theta, ms_basis = _pipeline(dim, n, m, kind, r)
    u = fourier_h01(spec, 7)
    data = measure_all(u, functionals)
    if basis == "pc":
        chain, rec = pc_recover(data, part), recover(u, sub)
    else:
        chain, rec = constrained_minimizer(op, functionals, data), recover(u, sub, op)
        assert np.array_equal(chain.values, ms_recover(data, ms_basis).values)
    assert rec.spec == spec and np.array_equal(rec.values, chain.values)


# each solver path of `recover`, one line each: name -> (setup on pytest's
# monkeypatch, relative tolerance of the properties below); the battery runs every
# case, coefficient and property on a new line's path
RECOVERY_PATHS = {
    "splu": (lambda mp: None, 1e-12),
    "cg": (lambda mp: mp.setattr(elliptic, "DIRECT_SOLVE_MAX_NODES", 0), elliptic.BACKWARD_TOL),
}
# each coefficient of the battery on a subsample's grid; the weight is p = 1's,
# so it varies in 1D too
BATTERY_COEFFICIENTS = {
    "constant": lambda sub, spec: constant_coefficient(spec, 2.0),
    "checkerboard": lambda sub, spec: checkerboard_coefficient(spec, 10.0),
    "layered": lambda sub, spec: layered_coefficient(spec, 10.0, axis=spec.dim - 1),
    "lognormal": lambda sub, spec: lognormal_coefficient(spec, 1.0, seed=3),
    "weight": lambda sub, spec: build_weight(distance_field(sub), "polynomial", 1.0, beta=1.0),
}


@pytest.mark.parametrize("coeff", BATTERY_COEFFICIENTS)
@pytest.mark.parametrize("dim,n,m,kind", [(1, 32, 4, "cube"), (1, 32, 4, "point"),
                                          (2, 16, 2, "cube"), (2, 16, 2, "slice"),
                                          (2, 16, 4, "point"), (3, 8, 2, "cube"),
                                          (3, 8, 2, "slice"), (3, 8, 2, "point")])
@pytest.mark.parametrize("path", RECOVERY_PATHS)
def test_recovery_is_the_energy_projection_onto_the_data(monkeypatch, path, dim, n, m, kind,
                                                          coeff):
    """Only ``recover`` runs; measure_all, energy_inner and the matrix K are the oracle."""
    setup, tol = RECOVERY_PATHS[path]
    setup(monkeypatch)
    spec = DomainSpec(dim, n)
    sub = SubsampleSpec(CoarsePartition(spec, m), kind, 0.5)
    a = BATTERY_COEFFICIENTS[coeff](sub, spec)
    op = assemble(spec, a)
    functionals = build_functionals(sub)

    def R(f, op=op):
        return recover(f, sub, op).values

    def close(x, y):  # relative to y's largest entry
        return np.abs(x - y).max() <= tol * np.abs(y).max()

    def norm(f):
        return np.sqrt(energy_inner(f, f, op))

    u, v = fourier_h01(spec, 1), fourier_h01(spec, 2)
    Ru, Rv = (GridFunction(spec, R(f)) for f in (u, v))
    data = measure_all(u, functionals).values
    assert close(measure_all(Ru, functionals).values, data)  # W Ru = W u
    assert close(R(Ru), Ru.values)  # a projection
    assert abs(energy_inner(u - Ru, Rv, op)) <= tol * norm(u) * norm(Rv)  # K-orthogonal
    assert norm(Ru) <= norm(u)  # of least energy
    assert close(R(2.0 * u + (-1.5) * v), (2.0 * Ru + (-1.5) * Rv).values)
    assert close(R(u, assemble(spec, CoefficientField(spec, 7.0 * a.values))), Ru.values)
    # the dense KKT system [[K, W^T], [W, 0]] [x; lambda] = [0; W u] on interior nodes
    w = functools.reduce(np.kron, [f[:, 1:-1] for f in functionals.factors])
    K = op.matrix.toarray()
    kkt = np.block([[K, w.T], [w, np.zeros((len(w), len(w)))]])
    x = np.linalg.solve(kkt, np.r_[np.zeros(len(K)), data])[:len(K)]
    assert close(Ru.values.reshape(-1)[op.interior_indices], x)


def test_basis_vanishes_on_boundary():
    spec, part, sub, functionals, op, theta, basis = _pipeline(2, 16, 2, "cube", 0.5)
    for i in range(len(basis)):
        v = basis[i].values
        assert np.all(v[0, :] == 0) and np.all(v[-1, :] == 0)
        assert np.all(v[:, 0] == 0) and np.all(v[:, -1] == 0)


def test_ms_recover_zero_and_span():
    spec, part, sub, functionals, op, theta, basis = _pipeline(1, 64, 1, "cube", 1.0)
    zero = ms_recover(MeasurementVector(np.zeros(1)), basis)
    assert np.all(zero.values == 0.0)
    u = GridFunction.from_callable(spec, lambda x: x * (1 - x))
    data = measure_all(u, functionals)
    assert data.values[0] == pytest.approx(1.0 / 6.0, abs=1e-4)
    rec = ms_recover(data, basis)
    assert np.abs(rec.values - u.values).max() <= 5e-3


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


@pytest.mark.parametrize("dim,n,m", [(1, 64, 8), (2, 32, 4), (3, 16, 4)])
def test_per_patch_l2_equals_the_region_norms(monkeypatch, dim, n, m):
    spec = DomainSpec(dim, n)
    part = CoarsePartition(spec, m)
    u = fourier_h01(spec, 3)
    rec = pc_recover(measure_all(u, build_functionals(SubsampleSpec(part, "cube", 0.5))), part)
    cells = cell_center_values(u - rec)
    # each patch's cells: its node slices less the last node
    patches = [tuple(slice(s.start, s.stop - 1) for s in part.patch_nodes(i))
               for i in range(part.num_patches)]
    expected = [float(midpoint_lp(cells[c], 2.0, spec.cell_volume)) for c in patches]
    calls = []
    monkeypatch.setattr(recovery, "lp_norm", lambda *a, **k: calls.append(1) or lp_norm(*a, **k))
    op = assemble(spec, constant_coefficient(spec))
    rep = recovery_error_report(u, rec, {"basis": "pc"}, a=op, partition=part)
    assert rep.per_patch_l2 == expected  # bit for bit
    assert len(calls) == 1  # the global L2 error; the patches share one cell pass


def test_sharp_constant_classical():
    spec = DomainSpec(1, 512)
    part = CoarsePartition(spec, 1)
    sub = SubsampleSpec(part, "cube", 1.0)
    est = sharp_constant_estimate(sub)
    assert est == pytest.approx(1.0 / np.pi, rel=0.02)


def test_sharp_constant_monotone_in_subsample():
    spec = DomainSpec(2, 64)
    part = CoarsePartition(spec, 1)
    ests = []
    for r in (1.0, 0.5, 0.25):
        sub = SubsampleSpec(part, "cube", r)
        ests.append(sharp_constant_estimate(sub))
    assert ests[0] <= ests[1] + 1e-8 <= ests[2] + 2e-8


def _dense_sharp_constant(sub):
    """Square root of the top eigenvalue of the centered midpoint mass against
    the natural stiffness, by dense eigh."""
    spec = sub.partition.spec
    n = spec.n
    avg = np.zeros((n, n + 1))  # 1D nodes to cell centers
    avg[np.arange(n), np.arange(n)] = avg[np.arange(n), np.arange(n) + 1] = 0.5
    mass = functools.reduce(np.kron, [avg.T @ avg / n] * spec.dim)
    phi = build_functionals(sub)[0]
    w = np.bincount(phi.node_indices, phi.node_weights, spec.num_nodes)
    center = np.eye(spec.num_nodes) - np.outer(np.ones(spec.num_nodes), w)
    num = center.T @ mass @ center
    den = assemble(spec, constant_coefficient(spec)).full_matrix.toarray()
    # both forms vanish on the constants; the fields with v[0] = 0 complement them
    return float(np.sqrt(eigh(num[1:, 1:], den[1:, 1:], eigvals_only=True)[-1]))


@pytest.mark.parametrize("dim,n,kind,r", [
    (1, 16, "cube", 1.0), (1, 16, "cube", 0.25), (1, 16, "point", None), (1, 15, "point", None),
    (2, 8, "cube", 1.0), (2, 8, "cube", 0.5), (2, 8, "cube", 0.25), (2, 8, "slice", 1.0),
    (2, 8, "slice", 0.5), (2, 8, "point", None), (2, 9, "point", None),
    (3, 4, "cube", 1.0), (3, 4, "cube", 0.5), (3, 4, "slice", 0.5), (3, 4, "point", None),
    (3, 6, "cube", 1 / 3),
])
def test_sharp_constant_matches_dense_eigh(dim, n, kind, r):
    part = CoarsePartition(DomainSpec(dim, n), 1)
    sub = SubsampleSpec(part, kind) if r is None else SubsampleSpec(part, kind, r)
    assert sharp_constant_estimate(sub) == pytest.approx(_dense_sharp_constant(sub), rel=1e-12)


@pytest.mark.parametrize("z", [np.zeros(4), np.full(4, 1e-160)], ids=["zero", "subnormal"])
def test_rank_one_top_with_every_z_counted_as_zero_is_the_largest_delta(z):
    # 1e-160 squared is positive but below the normal range, so it counts as 0 too
    assert recovery._rank_one_top(np.array([0.5, 2.0, 0.25, 1.0]), z) == 2.0


# each set of an m-partition: (kind, ratio or None, cells per patch q)
PATCH_SETS = [("cube", 0.5, 8), ("cube", 0.25, 8), ("slice", 0.5, 8), ("slice", 0.25, 8),
              ("point", None, 7), ("point", None, 8)]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sharp_constant_of_a_partition_is_that_of_its_patch_grid(dim, m):
    # the patches are congruent: the constant of patch 0 of the n = m q grid is the
    # constant of the same set on the one-patch grid of q cells, bit for bit
    for kind, r, q in PATCH_SETS:
        if kind == "slice" and dim < 2:
            continue
        args = (kind,) if r is None else (kind, r)
        sub = SubsampleSpec(CoarsePartition(DomainSpec(dim, m * q), m), *args)
        alone = SubsampleSpec(CoarsePartition(DomainSpec(dim, q), 1), *args)
        assert sharp_constant_estimate(sub) == sharp_constant_estimate(alone), (kind, r, q)
