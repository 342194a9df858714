import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from msrecover.elliptic import assemble, constant_coefficient
from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            cell_center_values)
from msrecover.measurements import build_functionals, measure, measure_all
from msrecover.recovery import build_theta, pc_recover, recovery_error_report


@pytest.mark.parametrize("dim,n,m", [(1, 12, 4), (2, 12, 4), (3, 6, 2)])
def test_point_functional_between_nodes_is_multilinear_interpolation(dim, n, m):
    # three cells per patch put every patch center midway between two nodes
    spec = DomainSpec(dim, n)
    sub = SubsampleSpec(CoarsePartition(spec, m), "point")
    phis = build_functionals(sub)
    assert all(len(phi.node_indices) == 2**dim for phi in phis)
    coef = np.random.default_rng(dim).standard_normal(2**dim)

    def multilinear(*xs):
        # sum over subsets S of the axes of c_S * prod_{i in S} x_i
        return sum(c * np.prod([xs[i] for i in range(dim) if (s >> i) & 1], axis=0)
                   for s, c in enumerate(coef))

    vals = measure_all(GridFunction.from_callable(spec, multilinear), phis).values
    # the centers in patch (row-major) order
    centers = itertools.product(*(sub.axis_intervals(axis)[0] for axis in range(dim)))
    exact = np.array([multilinear(*c) for c in centers])
    np.testing.assert_allclose(vals, exact, rtol=0.0, atol=1e-14)


def _turned(sub, axis):
    """``sub`` with its last axis swapped onto ``axis``: a slice normal to ``axis``,
    an orientation the library never builds but its per-axis code must handle."""
    last = sub.partition.spec.dim - 1
    if axis == last:
        return sub
    swap = {axis: last, last: axis}
    turned = SimpleNamespace(partition=sub.partition,
                             extents=[sub.extents[swap.get(a, a)] for a in range(last + 1)],
                             axis_intervals=lambda a: sub.axis_intervals(swap.get(a, a)))
    turned.distance = lambda coords: SubsampleSpec.distance(turned, coords)
    return turned


def _dense_node_weights(sub):
    """Node weights of every functional, one row per patch in row-major order, by
    brute force: per axis, linear interpolation at a flat interval and, over a
    grid-line one, each cell's average of its two end nodes, multiplied over a
    meshgrid."""
    n = sub.partition.spec.n
    per_axis = []
    for axis in range(sub.partition.spec.dim):
        rows = []
        for lo, hi in zip(*np.round(np.multiply(sub.axis_intervals(axis), n), 9)):
            row = np.zeros(n + 1)
            j = min(int(lo), n - 1)
            if lo == hi:
                row[j], row[j + 1] = 1.0 - (lo - j), lo - j
            for cell in range(int(lo), int(hi)):
                row[cell] += 0.5 / (hi - lo)
                row[cell + 1] += 0.5 / (hi - lo)
            rows.append(row)
        per_axis.append(rows)
    return np.array([np.prod(np.meshgrid(*rows, indexing="ij"), axis=0).reshape(-1)
                     for rows in itertools.product(*per_axis)])


@pytest.mark.parametrize("dim,n,m,kind,r,normal", [
    (1, 16, 4, "cube", 0.5, None), (1, 12, 4, "point", None, None),
    (2, 16, 2, "cube", 1.0, None), (2, 16, 2, "cube", 0.25, None),
    (2, 12, 4, "slice", 1 / 3, None),
    (2, 12, 4, "point", None, None), (2, 10, 5, "point", None, None),  # centers off nodes by ulps
    (3, 8, 2, "cube", 0.5, None),
    (3, 12, 2, "slice", 1 / 3, 0), (3, 6, 2, "point", None, None),
])
def test_operator_matches_the_dense_node_weights(dim, n, m, kind, r, normal):
    """A brute-force dense matrix of node weights is the oracle of every consumer."""
    spec = DomainSpec(dim, n)
    part = CoarsePartition(spec, m)
    sub = SubsampleSpec(part, kind, r)
    if normal is not None:
        sub = _turned(sub, normal)
    dense = _dense_node_weights(sub)
    # unit mass: each set's weights are nonnegative and sum to 1
    assert np.all(dense >= 0.0)
    np.testing.assert_allclose(dense.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    phis = build_functionals(sub)
    assert len(phis) == len(dense) == m**dim
    for i, phi in enumerate(phis):
        support = np.flatnonzero(dense[i])
        np.testing.assert_array_equal(phi.node_indices, support)
        np.testing.assert_array_equal(phi.node_weights, dense[i][support])
        np.testing.assert_array_equal(phis[i - len(phis)].node_indices, support)

    # positive fields and data, so every comparison is free of cancellation
    rng = np.random.default_rng(dim)
    u = GridFunction(spec, 1.0 + rng.random(spec.node_shape))
    np.testing.assert_allclose(measure_all(u, phis).values, dense @ u.values.reshape(-1),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose([measure(u, phi) for phi in phis],
                               dense @ u.values.reshape(-1), rtol=1e-13, atol=0.0)
    # symmetry: the average of x_a over a set is coordinate a of its patch's center
    centers = (np.indices((m,) * dim).reshape(dim, -1).T + 0.5) * part.H
    for axis in range(dim):
        x_a = GridFunction.from_callable(spec, lambda *xs: xs[axis])
        np.testing.assert_allclose(measure_all(x_a, phis).values, centers[:, axis],
                                   rtol=1e-12, atol=0.0)

    data = measure_all(u, phis)
    acc, cnt = np.zeros(spec.node_shape), np.zeros(spec.node_shape)
    for i in range(part.num_patches):
        acc[part.patch_nodes(i)] += data.values[i]
        cnt[part.patch_nodes(i)] += 1.0
    rec = pc_recover(data, part)
    np.testing.assert_allclose(rec.values, acc / cnt, rtol=1e-13, atol=0.0)

    # the loads are the dense rows, bit for bit; the pairing measures the solves
    op = assemble(spec, constant_coefficient(spec))
    theta = build_theta(phis, op)
    for row, solve in zip(dense, theta.solves):
        np.testing.assert_array_equal(
            solve, op.embed_interior(op.solve_interior(row[op.interior_indices])))
    pairing = theta.solves @ dense.T
    np.testing.assert_allclose(theta.matrix, 0.5 * (pairing + pairing.T), rtol=1e-13, atol=0.0)

    cells = cell_center_values(u - rec)
    owner = np.ravel_multi_index(np.indices(spec.cell_shape) // part.cells_per_patch,
                                 (m,) * dim)
    per_patch = np.sqrt(np.bincount(owner.reshape(-1), cells.reshape(-1) ** 2) * spec.cell_volume)
    report = recovery_error_report(u, rec, {"basis": "pc"}, a=op, partition=part)
    np.testing.assert_allclose(report.per_patch_l2, per_patch, rtol=1e-13, atol=0.0)
