import numpy as np
import pytest

from msrecover.analytic import (ball_average_sequence, critical_ratio, eval_radial,
                                eval_radial_deriv, power_profile, radial_function, rho)


def test_rho_branch_values():
    assert rho("sharp", 2, 1, 17.0) == 1.0
    assert rho("tilde", 2, 2, 3.0) == pytest.approx(np.log(4.0), rel=1e-14)
    assert rho("sharp", 2, 2, 3.0) == pytest.approx(np.sqrt(np.log(4.0)), rel=1e-14)
    assert rho("sharp", 2, 3, 4.0) == pytest.approx(2.0, rel=1e-14)
    assert rho("tilde", 2, 3, 4.0) == pytest.approx(2.0, rel=1e-14)
    assert rho("sharp", 1, 2, 5.0) == pytest.approx(5.0, rel=1e-14)


def test_rho_sharp_below_tilde_critical_branch():
    for x in (np.e - 1.0, 3.0, 10.0, 100.0):
        assert rho("sharp", 2, 2, x) <= rho("tilde", 2, 2, x) + 1e-14
    for d, p in [(1, 2), (3, 2)]:
        for x in (2.0, 8.0):
            assert rho("sharp", p, d, x) == rho("tilde", p, d, x)


def test_radial_kind_values():
    ramp = radial_function("critical_ramp", 0.1)
    assert eval_radial(ramp, 0.05) == 0.0
    assert eval_radial(ramp, 0.15) == pytest.approx(0.5, rel=1e-14)
    assert eval_radial(ramp, 0.5) == 1.0
    log = radial_function("critical_log", 0.1)
    assert eval_radial(log, 0.05) == 0.0  # vanishes on the sampled ball
    assert eval_radial(log, 0.1) == 0.0
    assert eval_radial(log, 1.0) == pytest.approx(
        (np.log(11.0) - np.log(2.0)) / np.log(11.0), rel=1e-14)
    ll = radial_function("loglog")
    assert eval_radial(ll, 0.1) == pytest.approx(np.log(np.log(11.0)), rel=1e-12)
    assert eval_radial(ll, 0.1) == pytest.approx(0.87459, abs=1e-5)


@pytest.mark.parametrize("kind,h", [("critical_log", 0.1), ("critical_ramp", 0.1),
                                    ("loglog", None)])
def test_derivative_rule_matches_finite_differences(kind, h):
    fn = radial_function(kind, h) if h else radial_function(kind)
    rs = np.linspace(0.02, 0.95, 100)
    if h:
        # keep clear of the kink radii where one-sided derivatives differ
        rs = rs[(np.abs(rs - h) > 5e-3) & (np.abs(rs - 2 * h) > 5e-3)]
    eps = 1e-7
    for r in rs:
        fd = (fn.f(r + eps) - fn.f(r - eps)) / (2 * eps)
        an = eval_radial_deriv(fn, r)
        assert fd == pytest.approx(an, rel=1e-6, abs=1e-8)


def test_ramp_gradient_norm_closed_form():
    # int_h^{2h} h^-p r^{d-1} dr = (2^d - 1)/d * h^{d-p}
    d, p, h = 3, 2, 0.1
    fn = radial_function("critical_ramp", h)
    from msrecover.analytic import _radial_integral

    val = _radial_integral(lambda r: np.abs(fn.df(r)) ** p, d, kinks=fn.kinks)
    assert val == pytest.approx((2**d - 1) / d * h ** (d - p), rel=1e-8)


def test_critical_ratio_rates():
    hs = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    # balanced regime: ratio tracks sqrt(log(1 + 1/h))
    vals = [critical_ratio(2, 2, h) / np.sqrt(np.log(1 + 1 / h))
            for h in hs]
    center = np.mean(vals)
    assert all(abs(v - center) <= 0.25 * center for v in vals)
    # d=2, p=1: ratio grows like 1/h
    vals2 = [critical_ratio(2, 1, h) * h for h in hs]
    center2 = np.mean(vals2)
    assert all(abs(v - center2) <= 0.25 * center2 for v in vals2)


def test_critical_ratio_monotone_as_h_shrinks():
    for d, p in [(2, 2), (3, 2)]:
        vals = [critical_ratio(d, p, h) for h in (1 / 4, 1 / 8, 1 / 16, 1 / 32)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_radial_constant_profile_has_every_ball_average_one():
    fn = radial_function("constant")
    assert eval_radial(fn, 0.3) == 1.0 and eval_radial_deriv(fn, 0.3) == 0.0
    seq = ball_average_sequence(fn, [2.0**-k for k in range(1, 8)], 3)
    assert seq["averages"] == [1.0] * 7  # the same integral at every radius
    assert seq["differences"] == [0.0] * 6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_average_power_closed_form_down_to_tiny_radii(dim):
    # averaged in t = s/r, the accuracy does not depend on r: d/(d+q) r^q to the
    # quadrature's requested 1e-10, which q = 0.55 meets to 1e-13 (q = 0.9 in 3D: 2.3e-13)
    radii = [2.0**-k for k in range(1, 11)] + [1e-100, 1e-200, 1e-300]
    for q, rel in ((0.55, 1e-13), (0.9, 1e-10)):
        seq = ball_average_sequence(power_profile(q), radii, dim)
        for r, avg in zip(radii, seq["averages"]):
            assert avg == pytest.approx(dim / (dim + q) * r**q, rel=rel, abs=0.0)

