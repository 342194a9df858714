import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            gradient_lp_norm)
from msrecover.measurements import build_functionals, measure, measure_all
from msrecover.recovery import ms_recover, recover
from msrecover.elliptic import assemble
from msrecover.testfuncs import fourier_h01
from msrecover.weights import (DistanceField, build_weight, distance_field,
                               weight_condition_check, weighted_basis)
from test_measurements import _turned


def _subsample_cases():
    # (dim, n, m, kind, ratio, slice normal axis): cube, slice and point, m = 1..4
    for dim in (1, 2, 3):
        for m in (1, 2, 3, 4):
            q = 6 if m == 3 else 4
            for r in ((1.0, 1 / 3, 2 / 3) if q == 6 else (1.0, 0.5)):
                yield dim, q * m, m, "cube", r, None
                for axis in sorted({0, dim - 1}) if dim >= 2 else ():
                    yield dim, q * m, m, "slice", r, axis
            yield dim, q * m, m, "point", 0.0, None


@pytest.mark.parametrize("dim,n,m,kind,r,axis", list(_subsample_cases()))
def test_distance_equals_brute_force_box_minimum(dim, n, m, kind, r, axis):
    part = CoarsePartition(DomainSpec(dim, n), m)
    sub = SubsampleSpec(part, kind, r)
    if axis is not None:
        sub = _turned(sub, axis)
    # at the cell centers through distance_field, and at the nodes
    for coords, got in ((part.spec.cell_center_coordinates(), distance_field(sub).values),
                        (part.spec.node_coordinates(), sub.distance(part.spec.node_coordinates()))):
        grids = np.meshgrid(*coords, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        best = np.full(len(pts), np.inf)
        # every set is the product of one (lo, hi) interval per axis
        for box in itertools.product(*(zip(*sub.axis_intervals(a)) for a in range(dim))):
            lo, hi = np.array(box).T
            excess = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
            best = np.minimum(best, np.sqrt(np.sum(excess * excess, axis=1)))
        assert got.shape == grids[0].shape
        assert np.array_equal(got.reshape(-1), best)


def _at(sub, h):
    """A stand-in for ``sub`` with its patch size H but the subsample size h, which
    lets a test vary h over fixed distances (or pick an h off the fine grid)."""
    return SimpleNamespace(partition=sub.partition, H=sub.H, h=h)


def test_weight_formula_values():
    # polynomial profile, dim=2, p=2, beta=1, H=1: w = 1/max{h, dist}
    spec = DomainSpec(2, 16)
    one_patch = SubsampleSpec(CoarsePartition(spec, 1), "point")  # H = 1

    def weight(values, h):
        return build_weight(DistanceField(_at(one_patch, h), values), "polynomial", 2.0,
                            beta=1.0)

    w = weight(np.full(spec.cell_shape, 0.5), 0.1)
    assert w.values[0, 0] == pytest.approx(2.0, rel=1e-12)
    w2 = weight(np.zeros(spec.cell_shape), 0.1)
    assert w2.values[0, 0] == pytest.approx(10.0, rel=1e-12)
    w3 = weight(np.full(spec.cell_shape, 0.25), 0.0)
    assert w3.values[0, 0] == pytest.approx(4.0, rel=1e-12)
    # logarithmic profile, dim=p=2, gamma=3, at H = 1/2: at H = 1 the normalization
    # (log(1/H)+1)^(gamma-p+1) is 1 whatever its exponent.  A cell in the set has
    # s = h = 1/4: w = (log 4 + 1)^3 / (log 2 + 1)^2
    sub = SubsampleSpec(CoarsePartition(spec, 2), "cube", 0.5)
    dist = distance_field(sub)
    inside = dist.values == 0.0
    assert sub.h == 0.25 and inside.any()
    w4 = build_weight(dist, "logarithmic", 2.0, gamma=3.0)
    assert w4.values[inside] == pytest.approx((np.log(4.0) + 1.0) ** 3 / (np.log(2.0) + 1.0) ** 2,
                                              rel=1e-12)


def test_weight_lower_bound():
    part = CoarsePartition(DomainSpec(2, 32), 2)
    p = 2.0
    # validate=False admits the beta = 0 that build_weight's check refuses
    for beta, validate in ((1.0, True), (0.0, False)):
        for r in (1.0, 0.5, 0.25, 0.125):
            sub = SubsampleSpec(part, "cube", r)
            dist = distance_field(sub)
            w = build_weight(dist, "polynomial", p, beta=beta, validate=validate)
            lower = (part.H / np.sqrt(2.0)) ** (2 - p + beta)
            assert np.all(w.values >= lower - 1e-12)


def test_weight_monotone_limit():
    # with the distance argument held at the limit point set, max{h, dist} is
    # nonincreasing in h, so the weight grows cellwise to its limit field
    part = CoarsePartition(DomainSpec(2, 32), 2)
    sub = SubsampleSpec(part, "point")
    dist = distance_field(sub)
    w_h = [build_weight(DistanceField(_at(sub, h), dist.values), "polynomial", 2.0,
                        beta=1.0).values
           for h in (0.25, 0.125, 0.0625, 0.03125, 0.0)]
    for a, b in zip(w_h, w_h[1:]):
        assert np.all(b >= a - 1e-12)
        assert np.any(b > a)  # h reaches the weight: the sequence is not constant
    # the h = 0 field is the limit: equality wherever dist >= the last finite h
    far = dist.values >= 0.03125
    np.testing.assert_allclose(w_h[-1][far], w_h[-2][far], rtol=1e-12)
    # 16 cells per patch, an even count, keep the cell centers off the patch centers
    assert np.all(np.isfinite(w_h[-1]))


def test_weighted_norm_sandwich():
    spec = DomainSpec(2, 16)
    part = CoarsePartition(spec, 2)
    sub = SubsampleSpec(part, "cube", 0.5)
    dist = distance_field(sub)
    w = build_weight(dist, "polynomial", 2.0, beta=1.0)
    rng = np.random.default_rng(0)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    for p in (1.0, 2.0):
        plain = gradient_lp_norm(u, p)
        weighted = gradient_lp_norm(u, p, weight=w)
        assert w.values.min() * plain**p <= weighted**p + 1e-12
        assert weighted**p <= w.values.max() * plain**p + 1e-12


def test_condition_bounded_vs_divergent():
    spec = DomainSpec(2, 128)
    part = CoarsePartition(spec, 1)
    res = {}
    for beta in (1.0, 0.0):
        vals = []
        for r in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625):
            sub = SubsampleSpec(part, "cube", r)
            dist = distance_field(sub)
            w = build_weight(dist, "polynomial", 2.0, beta=beta,
                             validate=False)
            vals.append(weight_condition_check(w, dist, 2.0)["normalized"])
        res[beta] = vals
    assert res[1.0][-1] / res[1.0][2] <= 1.6  # admissible profile saturates
    assert res[0.0][-1] / res[0.0][2] >= 2.0  # exponent at the integrability edge


def test_condition_logarithmic_bounded():
    spec = DomainSpec(2, 64)
    part = CoarsePartition(spec, 1)
    vals = []
    for r in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
        sub = SubsampleSpec(part, "cube", r)
        dist = distance_field(sub)
        w = build_weight(dist, "logarithmic", 2.0, gamma=2.0)
        vals.append(weight_condition_check(w, dist, 2.0)["normalized"])
    assert vals[-1] / vals[2] <= 1.6


def test_recover_with_a_weight_is_the_weighted_basis_recovery():
    spec = DomainSpec(2, 16)
    part = CoarsePartition(spec, 2)
    sub = SubsampleSpec(part, "cube", 0.25)
    w = build_weight(distance_field(sub), "polynomial", 2.0, beta=1.0)
    assert w.a_min < w.a_max
    u = fourier_h01(spec, 5)
    data = measure_all(u, build_functionals(sub))
    expected = ms_recover(data, weighted_basis(sub, w)[0])
    assert np.array_equal(recover(u, sub, assemble(spec, w)).values, expected.values)


def test_weighted_biorthogonality():
    spec = DomainSpec(2, 32)
    part = CoarsePartition(spec, 2)
    sub = SubsampleSpec(part, "cube", 0.5)
    dist = distance_field(sub)
    w = build_weight(dist, "polynomial", 2.0, beta=1.0)
    basis, op = weighted_basis(sub, w)
    functionals = build_functionals(sub)
    gram = np.array([[measure(basis[i], phi) for phi in functionals]
                     for i in range(len(basis))])
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-8

