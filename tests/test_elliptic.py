import numpy as np
import pytest

from msrecover import elliptic
from msrecover.elliptic import (CoefficientField, assemble, checkerboard_coefficient,
                                coefficient_from_csv, constant_coefficient, energy_inner,
                                l2_inner, layered_coefficient, load_vector,
                                lognormal_coefficient, solve)
from msrecover.errors import SolverError
from msrecover.grid import DomainSpec, GridFunction, build_partition, build_subsample
from msrecover.measurements import build_functionals, measure


def test_coefficient_validation():
    spec = DomainSpec(1, 4)
    with pytest.raises(ValueError):
        CoefficientField(spec, np.zeros(spec.cell_shape))
    with pytest.raises(ValueError):
        CoefficientField(spec, np.full(spec.cell_shape, -1.0))
    a = CoefficientField(spec, np.array([1.0, 2.0, 3.0, 4.0]))
    assert a.a_min == 1.0 and a.a_max == 4.0


def test_stiffness_1d_tridiagonal():
    spec = DomainSpec(1, 4)
    K = assemble(spec, constant_coefficient(spec)).matrix.toarray()
    expected = 4.0 * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    np.testing.assert_allclose(K, expected, rtol=1e-14)


def test_stiffness_scales_with_coefficient():
    spec = DomainSpec(2, 8)
    K1 = assemble(spec, constant_coefficient(spec, 1.0)).matrix
    K3 = assemble(spec, constant_coefficient(spec, 3.0)).matrix
    np.testing.assert_allclose(K3.toarray(), 3.0 * K1.toarray(), rtol=1e-14)


def test_stiffness_2d_single_interior_node():
    spec = DomainSpec(2, 2)
    K = assemble(spec, constant_coefficient(spec)).matrix.toarray()
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_stiffness_symmetry_and_definiteness():
    spec = DomainSpec(2, 8)
    op = assemble(spec, lognormal_coefficient(spec, sigma=0.5, seed=1))
    K = op.matrix.toarray()
    assert np.max(np.abs(K - K.T)) <= 1e-14 * np.max(np.abs(K))
    np.linalg.cholesky(K)  # raises if not SPD
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(K.shape[0])
        assert v @ K @ v > 0.0


def test_solve_zero_source():
    spec = DomainSpec(1, 16)
    op = assemble(spec, constant_coefficient(spec))
    u = solve(op, GridFunction.constant(spec, 0.0))
    assert np.all(u.values == 0.0)


def test_solve_poisson_parabola():
    spec = DomainSpec(1, 64)
    op = assemble(spec, constant_coefficient(spec))
    u = solve(op, GridFunction.constant(spec, 1.0))
    x = np.linspace(0, 1, 65)
    assert np.abs(u.values - x * (1 - x) / 2).max() <= 2.0 / 64**2
    assert u.values[32] == pytest.approx(0.125, abs=1e-4)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_solve_eigenfunction_refinement():
    errs = {}
    for n in (32, 64, 128):
        spec = DomainSpec(1, n)
        op = assemble(spec, constant_coefficient(spec))
        f = GridFunction.from_callable(spec, lambda x: np.pi**2 * np.sin(np.pi * x))
        u = solve(op, f)
        exact = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
        errs[n] = np.abs(u.values - exact.values).max()
    assert 3.0 <= errs[32] / errs[64] <= 5.0
    assert 3.0 <= errs[64] / errs[128] <= 5.0


def test_solve_2d_manufactured():
    spec = DomainSpec(2, 32)
    op = assemble(spec, constant_coefficient(spec))
    f = GridFunction.from_callable(
        spec, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    u = solve(op, f)
    exact = GridFunction.from_callable(spec, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert np.abs(u.values - exact.values).max() <= 0.01


def test_energy_inner_symmetry_and_positivity():
    spec = DomainSpec(2, 8)
    a = constant_coefficient(spec)
    op = assemble(spec, a)
    rng = np.random.default_rng(2)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    v = GridFunction(spec, rng.standard_normal(spec.node_shape))
    assert energy_inner(u, v, op) == pytest.approx(energy_inner(v, u, op), rel=1e-14)
    assert energy_inner(u, u, op) > 0.0
    z = GridFunction.constant(spec, 5.0)
    assert energy_inner(z, z, op) == pytest.approx(0.0, abs=1e-10)


def test_energy_inner_parabola_value():
    spec = DomainSpec(1, 128)
    op = assemble(spec, constant_coefficient(spec))
    u = GridFunction.from_callable(spec, lambda x: x * (1 - x) / 2)
    # int (1/2 - x)^2 dx = 1/12
    assert energy_inner(u, u, op) == pytest.approx(1.0 / 12.0, abs=2e-4)


def test_galerkin_consistency():
    spec = DomainSpec(2, 16)
    a = lognormal_coefficient(spec, sigma=0.4, seed=3)
    op = assemble(spec, a)
    f = GridFunction.from_callable(spec, lambda x, y: np.cos(np.pi * x) + y)
    u = solve(op, f, tol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vv = np.zeros(spec.node_shape)
        vv[1:-1, 1:-1] = rng.standard_normal((spec.n - 1, spec.n - 1))
        v = GridFunction(spec, vv)
        assert energy_inner(u, v, op) == pytest.approx(l2_inner(f, v), abs=1e-9)


def test_coefficient_monotonicity():
    spec = DomainSpec(2, 8)
    a = checkerboard_coefficient(spec, 10.0)
    op_a = assemble(spec, a)
    op_1 = assemble(spec, constant_coefficient(spec))
    rng = np.random.default_rng(6)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    e1 = energy_inner(u, u, op_1)
    ea = energy_inner(u, u, op_a)
    assert a.a_min * e1 - 1e-12 <= ea <= a.a_max * e1 + 1e-12


def test_maximum_principle_1d():
    spec = DomainSpec(1, 32)
    op = assemble(spec, lognormal_coefficient(spec, sigma=0.5, seed=7))
    rng = np.random.default_rng(8)
    f = GridFunction(spec, rng.random(spec.node_shape))
    u = solve(op, f)
    assert np.all(u.values >= -1e-12)


def test_l2_inner_values():
    spec = DomainSpec(1, 256)
    one = GridFunction.constant(spec, 1.0)
    assert l2_inner(one, one) == pytest.approx(1.0, rel=1e-13)
    s = GridFunction.from_callable(spec, lambda x: np.sin(np.pi * x))
    assert l2_inner(s, s) == pytest.approx(0.5, abs=1e-4)


def test_l2_inner_reproduces_measurement():
    # the measurement equals integrating against the normalized indicator density
    spec = DomainSpec(2, 16)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 0.5)
    phi = build_functionals(sub)[2]
    rng = np.random.default_rng(9)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    lo, hi = sub.support_box(2)
    centers = np.meshgrid(*spec.cell_center_coordinates(), indexing="ij")
    inside = np.ones(spec.cell_shape, dtype=bool)
    for axis in range(2):
        inside &= (centers[axis] > lo[axis]) & (centers[axis] < hi[axis])
    density_cells = inside / sub.h**2
    # evaluate sum over cells of u_c * density * vol, the midpoint pairing
    from msrecover.grid import cell_center_values

    val = float(np.sum(cell_center_values(u) * density_cells) * spec.cell_volume)
    assert measure(u, phi) == pytest.approx(val, abs=1e-12)


def test_high_contrast_solve():
    spec = DomainSpec(1, 64)
    op = assemble(spec, layered_coefficient(spec, 1e6))
    f = GridFunction.constant(spec, 1.0)
    u = solve(op, f, tol=1e-10)
    b = load_vector(spec, f)[op.interior_indices]
    x = u.values[1:-1]
    res = np.linalg.norm(op.matrix @ x - b)
    backward = res / (np.linalg.norm(b) + op.matrix_norm * np.linalg.norm(x))
    assert backward <= 1e-10


@pytest.mark.parametrize("dim,n", [(1, 512), (2, 48), (3, 12)])
@pytest.mark.parametrize("coefficient", [
    lambda spec: checkerboard_coefficient(spec, 1e12),
    lambda spec: lognormal_coefficient(spec, sigma=10.0, seed=1),
], ids=["checkerboard-1e12", "lognormal-10"])
def test_extreme_contrast_direct_solve_needs_no_refinement(dim, n, coefficient):
    # one splu solve meets the normwise backward-error bound 1000x over, so
    # solve_interior carries no iterative-refinement loop
    spec = DomainSpec(dim, n)
    op = assemble(spec, coefficient(spec))
    rng = np.random.default_rng(dim)
    scales = np.exp(10.0 * rng.standard_normal(op.num_interior))  # badly scaled too
    for b in (rng.standard_normal(op.num_interior), scales * rng.standard_normal(op.num_interior)):
        x = op.solve_interior(b)
        res = np.linalg.norm(op.matrix @ x - b)
        assert res / (np.linalg.norm(b) + op.matrix_norm * np.linalg.norm(x)) <= 1e-13


@pytest.mark.parametrize("coefficient", [
    constant_coefficient,
    lambda spec: checkerboard_coefficient(spec, 100.0),
    lambda spec: lognormal_coefficient(spec, sigma=1.0, seed=3),
], ids=["constant", "checkerboard", "lognormal"])
def test_cg_fallback_agrees_with_direct_solve(monkeypatch, coefficient):
    spec = DomainSpec(2, 16)
    a = coefficient(spec)
    f = GridFunction.from_callable(spec, lambda x, y: np.exp(x) * (1.0 + y * y))
    direct_op = assemble(spec, a)
    b = load_vector(spec, f)[direct_op.interior_indices]
    direct = direct_op.solve_interior(b)
    monkeypatch.setattr(elliptic, "DIRECT_SOLVE_MAX_NODES", 0)
    op = assemble(spec, a)
    x = op.solve_interior(b)
    assert op._lu is None  # the conjugate-gradient path ran
    res = np.linalg.norm(op.matrix @ x - b)
    assert res / (np.linalg.norm(b) + op.matrix_norm * np.linalg.norm(x)) <= 1e-10
    assert np.linalg.norm(x - direct) <= 1e-8 * np.linalg.norm(direct)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (3, 8)])
def test_neumann_solve_zero_sum_rhs(dim, n):
    spec = DomainSpec(dim, n)
    op = assemble(spec, lognormal_coefficient(spec, sigma=1.0, seed=3))
    rng = np.random.default_rng(4)
    b = rng.standard_normal(spec.num_nodes)
    b -= b.mean()
    x = op.solve_neumann(b)
    K = op.full_matrix
    res = np.linalg.norm(K @ x - b)
    norm_k = np.abs(K).sum(axis=1).max()
    assert res / (np.linalg.norm(b) + norm_k * np.linalg.norm(x)) <= 1e-10
    assert abs(x[0]) <= 1e-10 * np.linalg.norm(x)  # the pinned node, up to sum(b) rounding
    assert res <= 1e-8 * np.linalg.norm(b)


def test_neumann_solve_rejects_incompatible_rhs():
    spec = DomainSpec(2, 8)
    op = assemble(spec, constant_coefficient(spec))
    b = np.zeros(spec.num_nodes)
    b[5] = 1.0  # nonzero sum: no solution exists
    with pytest.raises(SolverError, match="Neumann"):
        op.solve_neumann(b)


def test_coefficient_csv_roundtrip(tmp_path):
    spec = DomainSpec(2, 4)
    a = lognormal_coefficient(spec, sigma=0.3, seed=11)
    path = tmp_path / "a.csv"
    with open(path, "w") as fh:
        fh.write("cell_index,value\n")
        for i, v in enumerate(a.values.reshape(-1)):
            fh.write(f"{i},{float(v)!r}\n")
    back = coefficient_from_csv(spec, path)
    np.testing.assert_array_equal(back.values, a.values)


@pytest.mark.parametrize("row,match", [("-1,9.0", "outside"), ("16,9.0", "outside"),
                                       ("0,7.0", "duplicate")],
                         ids=["negative", "past-the-end", "duplicate"])
def test_coefficient_csv_rejects_bad_cell_index(tmp_path, row, match):
    spec = DomainSpec(2, 4)
    path = tmp_path / "a.csv"
    path.write_text("cell_index,value\n" + "".join(f"{i},1.0\n" for i in range(16)) + row + "\n")
    with pytest.raises(ValueError, match=match):
        coefficient_from_csv(spec, path)
