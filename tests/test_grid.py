import numpy as np
import pytest

from msrecover.analytic import alpha_envelope
from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            build_partition, build_subsample, cell_center_values,
                            gradient_lp_norm, load_grid_function, lp_norm, save_grid_function)


def test_partition_uniform_bisection():
    part = build_partition(DomainSpec(1, 8), 2)
    assert part.H == 0.5
    assert part.num_patches == 2
    # numpy integers are sizes too (LIBRARY_REFUSALS holds the bools and floats refused)
    assert build_partition(DomainSpec(np.int64(1), np.int32(8)), np.int64(2)) == part


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


# One row per kind and dim: grid (n, m), ratio, and the set's extent on each axis, "thin"
# (width h centred in the patch) or "flat" (the patch centre); the 1D slice is refused.
SUBSAMPLE_SETS = {
    "cube-1d": ("cube", 8, 2, 1.0, ("thin",)),
    "cube-2d": ("cube", 16, 4, 0.5, ("thin", "thin")),
    "cube-3d": ("cube", 8, 2, 0.5, ("thin", "thin", "thin")),
    "slice-2d": ("slice", 16, 4, 0.5, ("thin", "flat")),
    "slice-3d": ("slice", 8, 2, 0.5, ("thin", "thin", "flat")),
    "point-1d": ("point", 8, 2, 0.5, ("flat",)),
    "point-2d": ("point", 16, 4, 0.5, ("flat", "flat")),
    "point-3d": ("point", 8, 2, 0.5, ("flat", "flat", "flat")),
    # numpy sizes build the same set, and a grid stores and prints them as Python ints
    "cube-2d-numpy-sizes": ("cube", np.int64(16), np.int32(4), 0.5, ("thin", "thin")),
}


@pytest.mark.parametrize("kind,n,m,ratio,extents", SUBSAMPLE_SETS.values(), ids=SUBSAMPLE_SETS)
def test_subsample_is_the_product_of_its_axis_extents(kind, n, m, ratio, extents):
    dim, thin = len(extents), extents.count("thin")
    sub = build_subsample(build_partition(DomainSpec(dim, n), m), kind, ratio)
    assert repr(sub.partition) == f"CoarsePartition(spec=DomainSpec(dim={dim}, n={n}), m={m})"
    assert sub.extents == extents == ("thin",) * thin + ("flat",) * (dim - thin)  # flat last
    h = ratio / m if thin else 0.0
    assert sub.h == h
    centres = (np.arange(m) + 0.5) / m
    for axis, extent in enumerate(extents):
        half = 0.5 * h if extent == "thin" else 0.0
        np.testing.assert_array_equal(sub.axis_intervals(axis), [centres - half, centres + half])
    # the envelope's exponent is the number of thin axes; a set with none has no envelope
    if thin:
        assert alpha_envelope(kind, dim, 1.0, 0.5, 0.1) == pytest.approx(
            (2.0 * 0.1 / 0.9) ** thin, rel=1e-13)
    else:
        with pytest.raises(ValueError, match="alpha envelope defined for cube and slice kinds"):
            alpha_envelope(kind, dim, 1.0, 0.5, 0.1)


def test_the_builders_are_the_checked_constructors():
    spec = DomainSpec(1, 8)
    part = CoarsePartition(spec, np.int64(2))
    assert type(part.m) is int
    # a set with no thin axis stores ratio 0, whatever ratio it was given
    point = SubsampleSpec(part, "point", 0.7)
    assert point == build_subsample(part, "point") and point.ratio == 0.0
    assert build_partition is CoarsePartition and build_subsample is SubsampleSpec


@pytest.mark.parametrize("dim,n,m", [(1, 32, 4), (2, 16, 4), (3, 8, 2)])
def test_lp_norm_is_a_norm_summed_patch_by_patch(dim, n, m):
    spec = DomainSpec(dim, n)
    part = build_partition(spec, m)
    rng = np.random.default_rng(dim)
    u, v = (GridFunction(spec, rng.standard_normal(spec.node_shape)) for _ in range(2))
    cells = cell_center_values(u)
    # a patch's cells: its node slices less the last node on each axis
    patches = [tuple(slice(s.start, s.stop - 1) for s in part.patch_nodes(i))
               for i in range(part.num_patches)]
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(2.5 * u, p) == pytest.approx(2.5 * lp_norm(u, p), rel=1e-13)
        assert lp_norm(u + v, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12
        total = sum(np.sum(np.abs(cells[c]) ** p) * spec.cell_volume for c in patches)
        assert total == pytest.approx(lp_norm(u, p) ** p, rel=1e-12)


# |c|^p leaves the float range: the norms used to read 0.0 (c = 0.5, p = 2000) or
# inf (c = 2, p = 1100, with an overflow warning)
@pytest.mark.parametrize("p", [600.0, 2000.0, 1e4])
@pytest.mark.parametrize("c", [1e-3, 0.5, 2.0, 1e3])
def test_norms_of_a_constant_and_a_ramp_hold_at_large_p(c, p):
    spec = DomainSpec(2, 8)
    assert lp_norm(GridFunction.constant(spec, c), p) == pytest.approx(c, rel=1e-12)
    ramp = GridFunction.from_callable(spec, lambda x, _: c * x)  # gradient (c, 0) on every cell
    assert gradient_lp_norm(ramp, p) == pytest.approx(c, rel=1e-12)


def test_serialization_roundtrip(tmp_path):
    spec = DomainSpec(2, 6)
    rng = np.random.default_rng(3)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    path = tmp_path / "u.csv"
    save_grid_function(u, path)
    v = load_grid_function(path)
    assert v.spec == spec
    np.testing.assert_array_equal(v.values, u.values)
