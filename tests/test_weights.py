import numpy as np
import pytest

from msrecover.errors import AlignmentError
from msrecover.grid import (DomainSpec, GridFunction, build_partition, build_subsample,
                            gradient_lp_norm, lp_norm)
from msrecover.measurements import build_functionals, measure, measure_all
from msrecover.recovery import build_theta, ms_recover, multiscale_basis
from msrecover.elliptic import assemble, constant_coefficient
from msrecover.weights import (build_weight, distance_field, weight_condition_check,
                               weighted_basis, load_weight_field, save_weight_field)


def test_distance_zero_inside_support():
    part = build_partition(DomainSpec(2, 16), 2)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    lo, hi = sub.support_box(0)
    centers = np.meshgrid(*part.spec.cell_center_coordinates(), indexing="ij")
    inside = np.ones(part.spec.cell_shape, dtype=bool)
    for axis in range(2):
        inside &= (centers[axis] > lo[axis]) & (centers[axis] < hi[axis])
    assert np.all(dist.values[inside] == 0.0)
    assert np.all(dist.values[~inside] >= 0.0)


def test_distance_to_point_1d():
    part = build_partition(DomainSpec(1, 16), 1)
    sub = build_subsample(part, "point")
    dist = distance_field(part, sub)
    centers = part.spec.cell_center_coordinates()[0]
    np.testing.assert_allclose(dist.values, np.abs(centers - 0.5), atol=1e-14)


def test_distance_corner_formula():
    # query point diagonal from a box corner
    from msrecover.weights import _box_distance

    d = _box_distance(np.array([[0.7, 0.7]]), np.array([0.4, 0.4]), np.array([0.6, 0.6]))
    assert d[0] == pytest.approx(np.sqrt(2) * 0.1, rel=1e-12)


def test_distance_lipschitz():
    part = build_partition(DomainSpec(2, 32), 4)
    sub = build_subsample(part, "cube", 0.25)
    dist = distance_field(part, sub)
    step = part.spec.spacing
    dx = np.abs(np.diff(dist.values, axis=0))
    dy = np.abs(np.diff(dist.values, axis=1))
    assert dx.max() <= step + 1e-12
    assert dy.max() <= step + 1e-12


def test_weight_formula_values():
    # polynomial profile, dim=2, p=2, beta=1, H=1: w = 1/max{h, dist}
    spec = DomainSpec(2, 16)

    class FakeDist:
        def __init__(self, values):
            self.spec = spec
            self.values = values
            self.kind = "cube"

    vals = np.full(spec.cell_shape, 0.5)
    w = build_weight(FakeDist(vals), "polynomial", 2.0, 1.0, 0.1, beta=1.0)
    assert w.values[0, 0] == pytest.approx(2.0, rel=1e-12)
    inside = np.zeros(spec.cell_shape)
    w2 = build_weight(FakeDist(inside), "polynomial", 2.0, 1.0, 0.1, beta=1.0)
    assert w2.values[0, 0] == pytest.approx(10.0, rel=1e-12)
    w3 = build_weight(FakeDist(np.full(spec.cell_shape, 0.25)), "polynomial",
                      2.0, 1.0, 0.0, beta=1.0)
    assert w3.is_limit
    assert w3.values[0, 0] == pytest.approx(4.0, rel=1e-12)


def test_weight_parameter_validation():
    part = build_partition(DomainSpec(2, 16), 2)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    with pytest.raises(ValueError):
        build_weight(dist, "polynomial", 2.0, part.H, sub.h, beta=0.0)
    with pytest.raises(ValueError):
        build_weight(dist, "logarithmic", 2.0, part.H, sub.h, gamma=1.0)
    with pytest.raises(ValueError):
        build_weight(dist, "pow", 2.0, part.H, sub.h)
    # bypass admits the invalid exponent
    w = build_weight(dist, "polynomial", 2.0, part.H, sub.h, beta=0.0, validate=False)
    assert np.all(w.values > 0.0)


def test_limit_weight_parity_enforced():
    # odd cells per patch put a cell center exactly on a patch center
    part = build_partition(DomainSpec(2, 12), 4)  # 3 cells per patch
    sub = build_subsample(part, "point")
    dist = distance_field(part, sub)
    with pytest.raises(AlignmentError):
        build_weight(dist, "polynomial", 2.0, part.H, 0.0, beta=1.0, partition=part)
    part_ok = build_partition(DomainSpec(2, 16), 4)
    sub_ok = build_subsample(part_ok, "point")
    dist_ok = distance_field(part_ok, sub_ok)
    w = build_weight(dist_ok, "polynomial", 2.0, part_ok.H, 0.0, beta=1.0,
                     partition=part_ok)
    assert np.all(np.isfinite(w.values))


def test_weight_lower_bound():
    part = build_partition(DomainSpec(2, 32), 2)
    beta, p = 1.0, 2.0
    for r in (1.0, 0.5, 0.25, 0.125):
        sub = build_subsample(part, "cube", r)
        dist = distance_field(part, sub)
        w = build_weight(dist, "polynomial", p, part.H, sub.h, beta=beta)
        lower = (part.H / np.sqrt(2.0)) ** (2 - p + beta)
        assert np.all(w.values >= lower - 1e-12)


def test_weight_monotone_limit():
    # with the distance argument held at the limit point set, max{h, dist} is
    # nonincreasing in h, so the weight grows cellwise to its limit field
    part = build_partition(DomainSpec(2, 32), 2)
    sub = build_subsample(part, "point")
    dist = distance_field(part, sub)
    w_h = [build_weight(dist, "polynomial", 2.0, part.H, h, beta=1.0,
                        partition=part).values
           for h in (0.25, 0.125, 0.0625, 0.03125, 0.0)]
    for a, b in zip(w_h, w_h[1:]):
        assert np.all(b >= a - 1e-12)
    # the h = 0 field is the limit: equality wherever dist >= the last finite h
    far = dist.values >= 0.03125
    np.testing.assert_allclose(w_h[-1][far], w_h[-2][far], rtol=1e-12)


def test_weighted_norm_sandwich():
    spec = DomainSpec(2, 16)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    w = build_weight(dist, "polynomial", 2.0, part.H, sub.h, beta=1.0)
    rng = np.random.default_rng(0)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    for p in (1.0, 2.0):
        plain = gradient_lp_norm(u, p)
        weighted = gradient_lp_norm(u, p, weight=w)
        assert w.values.min() * plain**p <= weighted**p + 1e-12
        assert weighted**p <= w.values.max() * plain**p + 1e-12


def test_condition_check_p1_rejected():
    part = build_partition(DomainSpec(2, 16), 1)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    w = build_weight(dist, "w11", 1.0, part.H, sub.h)
    with pytest.raises(ValueError):
        weight_condition_check(w, dist, 1.0, part.H, sub.h)


def test_condition_bounded_vs_divergent():
    spec = DomainSpec(2, 128)
    part = build_partition(spec, 1)
    res = {}
    for beta in (1.0, 0.0):
        vals = []
        for r in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625):
            sub = build_subsample(part, "cube", r)
            dist = distance_field(part, sub)
            w = build_weight(dist, "polynomial", 2.0, part.H, sub.h, beta=beta,
                             validate=False)
            vals.append(weight_condition_check(w, dist, 2.0, part.H, sub.h)["normalized"])
        res[beta] = vals
    assert res[1.0][-1] / res[1.0][2] <= 1.6  # admissible profile saturates
    assert res[0.0][-1] / res[0.0][2] >= 2.0  # exponent at the integrability edge


def test_condition_logarithmic_bounded():
    spec = DomainSpec(2, 64)
    part = build_partition(spec, 1)
    vals = []
    for r in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
        sub = build_subsample(part, "cube", r)
        dist = distance_field(part, sub)
        w = build_weight(dist, "logarithmic", 2.0, part.H, sub.h, gamma=2.0)
        vals.append(weight_condition_check(w, dist, 2.0, part.H, sub.h)["normalized"])
    assert vals[-1] / vals[2] <= 1.6


def test_weighted_recovery_reduces_to_unweighted():
    spec = DomainSpec(2, 16)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 0.5)
    functionals = build_functionals(sub)
    u = GridFunction.from_callable(spec, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    data = measure_all(u, functionals)

    from msrecover.weights import WeightField

    w_unit = WeightField(spec, np.ones(spec.cell_shape), "polynomial",
                         {"profile": "polynomial", "beta": 1.0, "p": 2.0,
                          "dim": 2, "h": sub.h, "H": part.H}, False)
    rec_w = ms_recover(data, weighted_basis(part, sub, w_unit)[0])
    op = assemble(spec, constant_coefficient(spec))
    theta = build_theta(functionals, op)
    rec = ms_recover(data, multiscale_basis(theta))
    np.testing.assert_allclose(rec_w.values, rec.values, atol=1e-9)


def test_weighted_recovery_constants_exact():
    spec = DomainSpec(2, 16)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    w = build_weight(dist, "polynomial", 2.0, part.H, sub.h, beta=1.0)
    u = GridFunction.constant(spec, 2.0)
    data = measure_all(u, build_functionals(sub))
    rec = ms_recover(data, weighted_basis(part, sub, w)[0])
    # constants are reproduced on the measurements, hence recovered exactly
    # in the measured averages (not pointwise: the basis is not a partition of unity)
    for phi, d in zip(build_functionals(sub), data.values):
        assert measure(rec, phi) == pytest.approx(d, abs=1e-8)


def test_weighted_biorthogonality():
    spec = DomainSpec(2, 32)
    part = build_partition(spec, 2)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    w = build_weight(dist, "polynomial", 2.0, part.H, sub.h, beta=1.0)
    basis, op = weighted_basis(part, sub, w)
    functionals = build_functionals(sub)
    gram = np.array([[measure(basis[i], phi) for phi in functionals]
                     for i in range(len(basis))])
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-8


def test_weight_field_roundtrip(tmp_path):
    part = build_partition(DomainSpec(2, 16), 2)
    sub = build_subsample(part, "cube", 0.5)
    dist = distance_field(part, sub)
    w = build_weight(dist, "logarithmic", 2.0, part.H, sub.h, gamma=2.0)
    path = tmp_path / "w.csv"
    save_weight_field(w, path)
    back = load_weight_field(part.spec, path)
    np.testing.assert_array_equal(back.values, w.values)
    assert back.profile == "logarithmic"
    assert back.params["gamma"] == 2.0


@pytest.mark.parametrize("edit,match", [
    (lambda vals: vals[:-1], "cell values"),
    (lambda vals: vals[:3] + ["nan"] + vals[4:], "finite and positive"),
    (lambda vals: vals[:3] + ["-1.0"] + vals[4:], "finite and positive"),
], ids=["short", "nan", "negative"])
def test_weight_field_load_rejects_bad_values(tmp_path, edit, match):
    part = build_partition(DomainSpec(2, 4), 1)
    sub = build_subsample(part, "cube", 0.5)
    w = build_weight(distance_field(part, sub), "polynomial", 2.0, part.H, sub.h)
    path = tmp_path / "w.csv"
    save_weight_field(w, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + edit(lines[3:])) + "\n")
    with pytest.raises(ValueError, match=match):
        load_weight_field(part.spec, path)
