"""Tests of span self time, the per-layer aggregation and the wrappers."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from tracing import LAYER_METRICS, Span, Tracer, install, layer_metrics, self_times  # noqa: E402


def tree():
    """op [0,20] > theta [1,11] > solves [2,4] [4,9]; theta also holds a gap;
    op > sharp [12,19] > neumann [13,14] [15,17] > (nothing)."""
    return [
        Span("op", 0.0, 20.0, None, 0),
        Span("recovery.build_theta", 1.0, 11.0, 0, 0),
        Span("elliptic.solve_interior", 2.0, 4.0, 1, 0, {"dofs": 10, "first": True}),
        Span("elliptic.solve_interior", 4.0, 9.0, 1, 0, {"dofs": 10}),
        Span("recovery.sharp_constant_estimate", 12.0, 19.0, 0, 0),
        Span("elliptic.solve_neumann", 13.0, 14.0, 4, 0),
        Span("elliptic.solve_neumann", 15.0, 17.0, 4, 0),
    ]


def test_self_time_subtracts_only_direct_children():
    assert self_times(tree()) == [20.0 - 10.0 - 7.0, 10.0 - 7.0, 2.0, 5.0, 7.0 - 3.0, 1.0, 2.0]


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [Span("p", 0.0, 10.0, None, 0), Span("a", 1.0, 3.0, 0, 0),
             Span("b", 2.0, 5.0, 0, 0), Span("c", 9.0, 12.0, 0, 0)]
    # covered: [1,5] and [9,10]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_of_one_op():
    values, per_op, unstable = layer_metrics(tree())
    assert values["elliptic.dirichlet_calls"] == 2
    assert values["elliptic.dirichlet_s"] == 7.0
    assert values["elliptic.dirichlet_first_s"] == 2.0
    assert values["elliptic.dirichlet_dofs_per_s"] == pytest.approx(20 / 7.0)
    assert values["recovery.theta_self_s"] == 3.0
    assert values["recovery.sharp_self_s"] == 4.0
    assert values["recovery.power_iterations"] == 2.0
    assert values["elliptic.neumann_calls"] == 2
    assert values["grid.norm_calls"] == 0 and values["harness.rates_s"] == 0
    assert set(values) == {m.name for m in LAYER_METRICS} and unstable == []


def test_exact_count_that_differs_between_ops_is_flagged():
    spans = tree() + [Span("op", 30.0, 40.0, None, 1),
                      Span("elliptic.solve_interior", 31.0, 32.0, 7, 1, {"dofs": 10})]
    values, per_op, unstable = layer_metrics(spans)
    assert per_op["elliptic.dirichlet_calls"] == [2, 1]
    assert "elliptic.dirichlet_calls" in unstable


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import msrecover
    from msrecover import elliptic, harness, measurements

    original = measurements.build_functionals
    solve = elliptic.StiffnessOperator.solve_interior
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        wrapped = measurements.build_functionals
        assert wrapped is not original
        assert harness.build_functionals is wrapped and msrecover.build_functionals is wrapped
        assert elliptic.StiffnessOperator.solve_interior is not solve
        spec = msrecover.DomainSpec(1, 8)
        op = elliptic.assemble(spec, elliptic.constant_coefficient(spec))  # outside an op
        with tracer.scope(0):
            op2 = elliptic.assemble(spec, elliptic.constant_coefficient(spec))
            x = op2.solve_interior(op2.matrix @ op2.matrix.diagonal())
            op2.solve_interior(x)
    finally:
        uninstall()
    assert measurements.build_functionals is original and harness.build_functionals is original
    assert elliptic.StiffnessOperator.solve_interior is solve
    assert op is not None
    names = [(s.name, s.attrs.get("first", False)) for s in tracer.spans]
    assert names == [("op", False), ("elliptic.assemble", False),
                     ("elliptic.solve_interior", True), ("elliptic.solve_interior", False)]
