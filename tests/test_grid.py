import numpy as np
import pytest

from msrecover.grid import (DomainSpec, GridFunction, build_partition, build_subsample,
                            cell_center_values, load_grid_function, lp_norm, save_grid_function)


def test_partition_uniform_bisection():
    spec = DomainSpec(1, 8)
    part = build_partition(spec, 2)
    assert part.H == 0.5
    assert part.num_patches == 2
    centers, _ = build_subsample(part, "point").axis_intervals(0)
    assert np.allclose(centers, [0.25, 0.75])
    lo, hi = build_subsample(part, "cube", 1.0).axis_intervals(0)
    assert lo[0] == 0.0 and hi[0] == 0.5


def test_partition_cardinality_2d():
    spec = DomainSpec(2, 16)
    assert spec.num_nodes == 17**2
    assert spec.cell_volume == (1 / 16) ** 2
    part = build_partition(spec, 4)
    assert part.num_patches == 16
    assert part.num_patches == round(1.0 / part.H**2)


def test_partition_tiling_volume():
    for dim, n, m in [(1, 12, 3), (2, 12, 3), (3, 8, 2)]:
        part = build_partition(DomainSpec(dim, n), m)
        total = sum(part.H**dim for _ in range(part.num_patches))
        assert abs(total - 1.0) <= 1e-13


def test_subsample_full_patch():
    part = build_partition(DomainSpec(1, 8), 2)
    lo, hi = build_subsample(part, "cube", 1.0).axis_intervals(0)
    k = np.arange(part.m)
    assert np.allclose(lo, k * part.H) and np.allclose(hi, (k + 1) * part.H)


def test_subsample_concentric_squares():
    part = build_partition(DomainSpec(2, 16), 4)
    sub = build_subsample(part, "cube", 0.5)
    assert sub.h == pytest.approx(0.125)
    sides = [np.subtract(*sub.axis_intervals(axis)[::-1]) for axis in range(2)]
    assert np.allclose(sides, 0.125)
    area = sides[0][1] * sides[1][1]  # patch 5 is (1, 1)
    assert area == pytest.approx(0.125**2, rel=1e-12)


def test_subsample_slice_segments():
    part = build_partition(DomainSpec(2, 16), 4)
    sub = build_subsample(part, "slice", 0.5)
    (lo0, hi0), (lo1, hi1) = sub.axis_intervals(0), sub.axis_intervals(1)
    assert np.allclose(hi1 - lo1, 0.0)  # degenerate along the normal
    assert np.allclose(hi0 - lo0, 0.125)
    centers = (np.arange(part.m) + 0.5) * part.H
    assert np.allclose(0.5 * (lo0 + hi0), centers) and np.allclose(lo1, centers)


@pytest.mark.parametrize("dim", [2, 3])
def test_slice_is_normal_to_the_last_axis(dim):
    sub = build_subsample(build_partition(DomainSpec(dim, 8), 2), "slice", 0.5)
    flat = [np.array_equal(*sub.axis_intervals(axis)) for axis in range(dim)]
    assert flat == [False] * (dim - 1) + [True]


def test_point_subsample():
    part = build_partition(DomainSpec(1, 8), 2)
    sub = build_subsample(part, "point")
    assert sub.h == 0.0
    lo, hi = sub.axis_intervals(0)
    assert np.array_equal(lo, hi) and lo[1] == pytest.approx(0.75)


@pytest.mark.parametrize("dim,n,m", [(1, 32, 4), (2, 16, 4), (3, 8, 2)])
def test_lp_norm_is_a_norm_summed_patch_by_patch(dim, n, m):
    spec = DomainSpec(dim, n)
    part = build_partition(spec, m)
    rng = np.random.default_rng(dim)
    u, v = (GridFunction(spec, rng.standard_normal(spec.num_nodes)) for _ in range(2))
    cells = cell_center_values(u)
    # a patch's cells: its node slices less the last node on each axis
    patches = [tuple(slice(s.start, s.stop - 1) for s in part.patch_nodes(i))
               for i in range(part.num_patches)]
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(2.5 * u, p) == pytest.approx(2.5 * lp_norm(u, p), rel=1e-13)
        assert lp_norm(u + v, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12
        total = sum(np.sum(np.abs(cells[c]) ** p) * spec.cell_volume for c in patches)
        assert total == pytest.approx(lp_norm(u, p) ** p, rel=1e-12)


def test_serialization_roundtrip(tmp_path):
    spec = DomainSpec(2, 6)
    rng = np.random.default_rng(3)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    path = tmp_path / "u.csv"
    save_grid_function(u, path)
    v = load_grid_function(path)
    assert v.spec == spec
    np.testing.assert_array_equal(v.values, u.values)
