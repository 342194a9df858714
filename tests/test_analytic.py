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


def test_rho_validation_and_class():
    with pytest.raises(ValueError):
        rho("bogus", 2, 2, 1.0)
    with pytest.raises(ValueError):
        rho("sharp", 2, 2, -1.0)


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


def test_radial_singularities_raise():
    for kind in ("loglog", "logloglog"):
        fn = radial_function(kind)
        with pytest.raises(ValueError):
            eval_radial(fn, 0.0)
    with pytest.raises(ValueError):
        eval_radial(radial_function("logloglog"), 0.9)  # outside validity range
    with pytest.raises(ValueError):
        radial_function("critical_log", 0.3)  # h must stay <= 1/4
    with pytest.raises(ValueError):
        radial_function("nope")


@pytest.mark.parametrize("kind,h", [("critical_log", 0.1), ("critical_ramp", 0.1),
                                    ("loglog", None), ("logloglog", None)])
def test_derivative_rule_matches_finite_differences(kind, h):
    fn = radial_function(kind, h) if h else radial_function(kind)
    upper = 0.5 if kind == "logloglog" else 0.95
    rs = np.linspace(0.02, upper, 100)
    if h:
        # keep clear of the kink radii where one-sided derivatives differ
        rs = rs[(np.abs(rs - h) > 5e-3) & (np.abs(rs - 2 * h) > 5e-3)]
    eps = 1e-7
    for r in rs:
        fd = (fn.f(r + eps) - fn.f(r - eps)) / (2 * eps)
        an = eval_radial_deriv(fn, r)
        assert fd == pytest.approx(an, rel=1e-6, abs=1e-8)


def test_critical_ratio_regime_checks():
    with pytest.raises(ValueError):
        critical_ratio("critical_log", 3, 2, 0.1)
    with pytest.raises(ValueError):
        critical_ratio("critical_ramp", 2, 2, 0.1)
    with pytest.raises(ValueError):
        critical_ratio("critical_ramp", 3, 2, 0.3)
    with pytest.raises(ValueError):
        critical_ratio("critical_log", 1, 2, 0.1)


def test_ramp_gradient_norm_closed_form():
    # int_h^{2h} h^-p r^{d-1} dr = (2^d - 1)/d * h^{d-p}
    d, p, h = 3, 2, 0.1
    fn = radial_function("critical_ramp", h)
    from msrecover.analytic import _radial_integral

    val = _radial_integral(lambda r: np.abs(fn.df(r)) ** p, d, 0.0, 1.0, kinks=fn.kinks)
    assert val == pytest.approx((2**d - 1) / d * h ** (d - p), rel=1e-8)


def test_critical_ratio_rates():
    hs = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    # balanced regime: ratio tracks sqrt(log(1 + 1/h))
    vals = [critical_ratio("critical_log", 2, 2, h) / np.sqrt(np.log(1 + 1 / h))
            for h in hs]
    center = np.mean(vals)
    assert all(abs(v - center) <= 0.25 * center for v in vals)
    # d=2, p=1: ratio grows like 1/h
    vals2 = [critical_ratio("critical_ramp", 2, 1, h) * h for h in hs]
    center2 = np.mean(vals2)
    assert all(abs(v - center2) <= 0.25 * center2 for v in vals2)


def test_critical_ratio_monotone_as_h_shrinks():
    for kind, d, p in [("critical_log", 2, 2), ("critical_ramp", 3, 2)]:
        vals = [critical_ratio(kind, d, p, h) for h in (1 / 4, 1 / 8, 1 / 16, 1 / 32)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_ball_average_constant():
    from msrecover.analytic import RadialFunction

    fn = RadialFunction("custom", None,
                        lambda r: 3.0 * np.ones_like(np.asarray(r, float)),
                        lambda r: np.zeros_like(np.asarray(r, float)))
    seq = ball_average_sequence(fn, [0.5, 0.25, 0.125, 0.0625], 2)
    np.testing.assert_allclose(seq["averages"], 3.0, rtol=1e-9)
    assert max(seq["differences"]) <= 1e-9


def test_ball_average_power_rate():
    # averages of r^q scale like h^q: difference ratio per halving is 2^-q
    fn = power_profile(0.9)
    radii = [2.0**-k for k in range(1, 10)]
    seq = ball_average_sequence(fn, radii, 2)
    ratios = [b / a for a, b in zip(seq["differences"], seq["differences"][1:])]
    for rr in ratios:
        assert rr == pytest.approx(2.0**-0.9, rel=1e-6)
    # exact average: d/(d+q) h^q
    for h, avg in zip(radii, seq["averages"]):
        assert avg == pytest.approx(2.0 / 2.9 * h**0.9, rel=1e-9)


def test_ball_average_loglog_divergence():
    fn = radial_function("loglog")
    seq = ball_average_sequence(fn, [10.0**-k for k in range(1, 13)], 2)
    avgs = seq["averages"]
    assert all(b > a for a, b in zip(avgs, avgs[1:]))
    assert avgs[-1] > 3.0


def test_ball_average_input_validation():
    fn = power_profile(0.5)
    with pytest.raises(ValueError):
        ball_average_sequence(fn, [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        ball_average_sequence(fn, [2.0, 1.0], 2)
    with pytest.raises(ValueError):
        ball_average_sequence(fn, [], 2)
