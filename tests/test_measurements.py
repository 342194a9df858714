import numpy as np
import pytest

from msrecover.grid import DomainSpec, GridFunction, build_partition, build_subsample
from msrecover.measurements import (alpha_envelope, bound_integral, build_functionals,
                                    load_measurements, measure, measure_all,
                                    save_measurements)


def _functionals(dim, n, m, kind, r):
    part = build_partition(DomainSpec(dim, n), m)
    sub = build_subsample(part, kind, r) if kind != "point" else build_subsample(part, kind)
    return part, sub, build_functionals(sub)


@pytest.mark.parametrize("kind,r", [("cube", 1.0), ("cube", 0.5), ("point", 1.0)])
def test_unit_mass_1d(kind, r):
    _, _, phis = _functionals(1, 16, 2, kind, r)
    u = GridFunction.constant(DomainSpec(1, 16), 7.0)
    for phi in phis:
        assert measure(u, phi) == pytest.approx(7.0, abs=1e-12)


@pytest.mark.parametrize("kind,r", [("cube", 0.5), ("slice", 0.5), ("point", 1.0)])
def test_unit_mass_2d(kind, r):
    _, _, phis = _functionals(2, 16, 2, kind, r)
    u = GridFunction.constant(DomainSpec(2, 16), 1.0)
    for phi in phis:
        assert measure(u, phi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim,n,m,kind,r", [
    (1, 16, 2, "cube", 0.5), (1, 16, 2, "point", 1.0),
    (2, 16, 2, "cube", 0.5), (2, 16, 2, "slice", 0.5), (2, 16, 2, "point", 1.0),
    # mass**(1/3) is one ulp off sub.h for this cube, so h must come from the subsample
    (3, 32, 4, "cube", 0.25), (3, 16, 2, "slice", 0.5), (3, 16, 2, "point", 1.0),
])
def test_provenance_is_the_subsample_scales(dim, n, m, kind, r):
    part, sub, phis = _functionals(dim, n, m, kind, r)
    for phi in phis:
        assert (phi.kind, phi.h, phi.H) == (sub.kind, sub.h, sub.H)
    vec = measure_all(GridFunction.constant(part.spec, 1.0), phis)
    assert (vec.kind, vec.h, vec.H, vec.dim) == (sub.kind, sub.h, sub.H, dim)


@pytest.mark.parametrize("dim,n,m", [(1, 12, 4), (2, 12, 4), (3, 6, 2)])
def test_point_functional_between_nodes_is_multilinear_interpolation(dim, n, m):
    # three cells per patch put every patch center midway between two nodes
    spec = DomainSpec(dim, n)
    part, _, phis = _functionals(dim, n, m, "point", 1.0)
    assert all(len(phi.node_indices) == 2**dim for phi in phis)
    coef = np.random.default_rng(dim).standard_normal(2**dim)

    def multilinear(*xs):
        # sum over subsets S of the axes of c_S * prod_{i in S} x_i
        return sum(c * np.prod([xs[i] for i in range(dim) if (s >> i) & 1], axis=0)
                   for s, c in enumerate(coef))

    vals = measure_all(GridFunction.from_callable(spec, multilinear), phis).values
    exact = np.array([multilinear(*c) for c in part.centers()])
    np.testing.assert_allclose(vals, exact, rtol=0.0, atol=1e-14)


def test_measure_symmetry_midpoint():
    # average of x over [0.25, 0.75] is 0.5
    part = build_partition(DomainSpec(1, 16), 1)
    sub = build_subsample(part, "cube", 0.5)
    phi = build_functionals(sub)[0]
    u = GridFunction.from_callable(DomainSpec(1, 16), lambda x: x)
    assert measure(u, phi) == pytest.approx(0.5, rel=1e-12)


def test_measure_slice_symmetry():
    part = build_partition(DomainSpec(2, 16), 1)
    sub = build_subsample(part, "slice", 0.5, normal_axis=1)
    phi = build_functionals(sub)[0]
    u = GridFunction.from_callable(DomainSpec(2, 16), lambda x, y: x)
    assert measure(u, phi) == pytest.approx(0.5, rel=1e-12)


def test_measure_all_orders_and_values():
    part, sub, phis = _functionals(1, 16, 2, "cube", 1.0)
    spec = part.spec
    assert measure_all(GridFunction.constant(spec, 1.0), phis).values == pytest.approx([1, 1])
    u = GridFunction.from_callable(spec, lambda x: x)
    np.testing.assert_allclose(measure_all(u, phis).values, [0.25, 0.75], rtol=1e-12)
    _, _, pts = _functionals(1, 16, 2, "point", 1.0)
    np.testing.assert_allclose(measure_all(u, pts).values, [0.25, 0.75], rtol=1e-12)


def test_measure_linearity_and_range():
    part, sub, phis = _functionals(2, 16, 4, "cube", 0.5)
    spec = part.spec
    rng = np.random.default_rng(0)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    v = GridFunction(spec, rng.standard_normal(spec.node_shape))
    for phi in phis:
        left = measure(2.0 * u + (-3.0) * v, phi)
        assert left == pytest.approx(2 * measure(u, phi) - 3 * measure(v, phi), abs=1e-12)
        assert u.values.min() - 1e-12 <= measure(u, phi) <= u.values.max() + 1e-12


def test_cube_full_ratio_is_patch_average():
    part, sub, phis = _functionals(2, 16, 2, "cube", 1.0)
    spec = part.spec
    rng = np.random.default_rng(4)
    u = GridFunction(spec, rng.standard_normal(spec.node_shape))
    from msrecover.grid import cell_center_values

    cc = cell_center_values(u)
    for i, phi in enumerate(phis):
        patch_avg = cc[part.patch_cells(i)].mean()
        assert measure(u, phi) == pytest.approx(patch_avg, rel=1e-12)


def test_alpha_envelope_values():
    # breakpoint: both branches meet at 1
    t_star = 0.1 / 1.1
    assert alpha_envelope("cube", 2, 1.0, 0.1, t_star) == pytest.approx(1.0, rel=1e-9)
    assert alpha_envelope("cube", 2, 1.0, 0.1, 0.0) == 0.0
    val = alpha_envelope("cube", 2, 1.0, 0.1, 0.05)
    assert val == pytest.approx(min(1.0, 100 * (0.05 / 0.95) ** 2), rel=1e-12)
    assert val == pytest.approx(0.2770, abs=5e-5)
    assert alpha_envelope("cube", 2, 1.0, 0.1, 1.0) == 1.0


def test_alpha_envelope_monotonicity():
    ts = np.linspace(0.0, 1.0, 101)
    vals = [alpha_envelope("cube", 2, 1.0, 0.25, t) for t in ts]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    # smaller subsample concentrates the measure: envelope grows as h shrinks
    for t in (0.05, 0.2, 0.7):
        v_small = alpha_envelope("cube", 2, 1.0, 0.1, t)
        v_large = alpha_envelope("cube", 2, 1.0, 0.5, t)
        assert v_small >= v_large - 1e-15


def test_alpha_envelope_domain_errors():
    with pytest.raises(ValueError):
        alpha_envelope("cube", 2, 1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        alpha_envelope("cube", 2, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        alpha_envelope("point", 2, 1.0, 0.5, 0.5)


def _closed_form_cube(p, d, H, h):
    """Exact envelope integral for the cube kind, by regime."""
    x = H / h
    if d < p:
        return (p / (p - d)) * (x ** (d / p) * (1 - (H / (H + h)) ** (1 - d / p))
                                + 1 - (h / (H + h)) ** (1 - d / p))
    if d == p:
        return x * np.log(1 + 1 / x) + np.log(1 + x)
    return (p / (d - p)) * (x ** (d / p) * ((1 + h / H) ** ((d - p) / p) - 1)
                            + (1 + x) ** ((d - p) / p) - 1)


@pytest.mark.parametrize("d,p,ratio", [
    (1, 2, 2), (1, 2, 10), (1, 3, 4),
    (2, 2, 2), (2, 2, 10), (3, 3, 8),
    (3, 2, 4), (3, 2, 16), (2, 1, 8),
])
def test_bound_integral_matches_closed_form(d, p, ratio):
    H, h = 1.0, 1.0 / ratio
    num = bound_integral("cube", p, d, H, h)
    ref = _closed_form_cube(p, d, H, h)
    assert num == pytest.approx(ref, rel=1e-6)


def test_bound_integral_exact_value():
    assert bound_integral("cube", 2, 2, 1.0, 0.1) == pytest.approx(
        10 * np.log(1.1) + np.log(11.0), rel=1e-9)


def test_bound_integral_equal_scales_finite():
    val = bound_integral("cube", 2, 1, 1.0, 1.0)
    assert val == pytest.approx(_closed_form_cube(2, 1, 1.0, 1.0), rel=1e-8)
    assert val < 4.0


def test_bound_integral_growth_rate_d3p2():
    # grows like (H/h)^{1/2} with a stable prefactor
    vals = {x: bound_integral("cube", 2, 3, 1.0, 1.0 / x) for x in (4, 16, 64)}
    normalized = [vals[x] / np.sqrt(x) for x in (4, 16, 64)]
    center = np.mean(normalized)
    assert all(abs(v - center) <= 0.2 * center for v in normalized)


def test_bound_integral_slice_p1_rejected():
    with pytest.raises(ValueError):
        bound_integral("slice", 1.0, 2, 1.0, 0.5)


def test_bound_integral_vs_rate_function():
    from msrecover.analytic import rho

    for d, p in [(1, 2), (2, 2), (3, 2), (2, 1)]:
        ratios = []
        for x in (2, 4, 8, 16, 32, 64, 128):
            val = bound_integral("cube", p, d, 1.0, 1.0 / x)
            ratios.append(val / rho("tilde", p, d, x))
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 4.0


def test_measurement_vector_csv_roundtrip(tmp_path):
    part, sub, phis = _functionals(2, 16, 2, "cube", 0.5)
    u = GridFunction.from_callable(part.spec, lambda x, y: x * y)
    vec = measure_all(u, phis)
    path = tmp_path / "m.csv"
    save_measurements(vec, path)
    back = load_measurements(path)
    assert back.kind == vec.kind
    assert back.h == vec.h
    assert back.H == vec.H
    np.testing.assert_array_equal(back.values, vec.values)


def _write_measurement_rows(path, indices):
    with open(path, "w") as fh:
        fh.write("kind,h,H,dim\ncube,0.25,0.5,2\npatch_index,value\n")
        for k, i in enumerate(indices):
            fh.write(f"{i},{float(k)!r}\n")


def test_load_measurements_accepts_any_row_order(tmp_path):
    path = tmp_path / "m.csv"
    _write_measurement_rows(path, [2, 0, 3, 1])
    np.testing.assert_array_equal(load_measurements(path).values, [1.0, 3.0, 0.0, 2.0])


def test_load_measurements_rejects_duplicate_index(tmp_path):
    path = tmp_path / "m.csv"
    _write_measurement_rows(path, [0, 1, 1, 2])
    with pytest.raises(ValueError, match="duplicate patch index 1"):
        load_measurements(path)


@pytest.mark.parametrize("indices", [[0, 1, 3], [1, 2, 3], [-1, 0, 1]])
def test_load_measurements_rejects_index_gaps(tmp_path, indices):
    path = tmp_path / "m.csv"
    _write_measurement_rows(path, indices)
    with pytest.raises(ValueError, match="not exactly 0..2"):
        load_measurements(path)
