import numpy as np
import pytest

from msrecover.analytic import (_unit_integral, alpha_envelope, ball_average_sequence,
                                bound_integral, critical_ratio, eval_radial, eval_radial_deriv,
                                power_profile, radial_function, rho)


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


def test_bound_integral_exact_value():
    assert bound_integral("cube", 2, 2, 1.0, 0.1) == pytest.approx(
        10 * np.log(1.1) + np.log(11.0), rel=1e-9)


def test_bound_integral_equal_scales_finite():
    val = bound_integral("cube", 2, 1, 1.0, 1.0)
    # int_0^1/2 (1-t)^(-1/2) dt + int_1/2^1 t^(-1/2) dt, the d < p closed form at H = h
    assert val == pytest.approx(4.0 - 2.0 * np.sqrt(2.0), rel=1e-8)
    assert val < 4.0


def test_bound_integral_growth_rate_d3p2():
    # grows like (H/h)^{1/2} with a stable prefactor
    vals = {x: bound_integral("cube", 2, 3, 1.0, 1.0 / x) for x in (4, 16, 64)}
    normalized = [vals[x] / np.sqrt(x) for x in (4, 16, 64)]
    center = np.mean(normalized)
    assert all(abs(v - center) <= 0.2 * center for v in normalized)


def test_bound_integral_vs_rate_function():
    for d, p in [(1, 2), (2, 2), (3, 2), (2, 1)]:
        ratios = []
        for x in (2, 4, 8, 16, 32, 64, 128):
            val = bound_integral("cube", p, d, 1.0, 1.0 / x)
            ratios.append(val / rho("tilde", p, d, x))
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 4.0


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


@pytest.mark.parametrize("profile", [
    lambda: radial_function("critical_log", 0.1), lambda: radial_function("critical_ramp", 0.1),
    lambda: radial_function("loglog"), lambda: radial_function("constant"),
    lambda: power_profile(0.55)], ids=["critical_log-0.1", "critical_ramp-0.1", "loglog-None",
                                       "constant-None", "power-0.55"])
def test_derivative_rule_matches_finite_differences(profile):
    fn = profile()
    rs = np.linspace(0.02, 0.95, 100)
    for k in fn.kinks:  # keep clear of the kink radii where one-sided derivatives differ
        rs = rs[np.abs(rs - k) > 5e-3]
    eps = 1e-7
    for r in rs:
        fd = (fn.f(r + eps) - fn.f(r - eps)) / (2 * eps)
        an = eval_radial_deriv(fn, r)
        assert fd == pytest.approx(an, rel=1e-6, abs=1e-8)


def test_ramp_gradient_norm_closed_form():
    # int_h^{2h} h^-p r^{d-1} dr = (2^d - 1)/d * h^{d-p}
    d, p, h = 3, 2, 0.1
    fn = radial_function("critical_ramp", h)
    val = _unit_integral(lambda r: np.abs(fn.df(r)) ** p * r ** (d - 1), fn.kinks)
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

