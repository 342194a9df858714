"""Every call the library refuses, with its exact exception class and message.

Each guard checks a hypothesis of the paper or a shape the grid fixes, and is
False for NaN too (``not p >= 1.0``, never ``p < 1.0``): a NaN argument is
refused, never computed with.
"""

import ast
import functools
import inspect
import math
import pathlib
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from msrecover import analytic, elliptic, grid, harness, measurements, recovery, weights
from msrecover.analytic import (alpha_envelope, ball_average_sequence, bound_integral,
                                critical_ratio, eval_radial, power_profile, radial_function, rho)
from msrecover.elliptic import (CoefficientField, assemble, checkerboard_coefficient,
                                constant_coefficient, energy_inner, l2_inner,
                                layered_coefficient, solve)
from msrecover.errors import AlignmentError, ConfigError
from msrecover.grid import (CoarsePartition, DomainSpec, GridFunction, SubsampleSpec,
                            check_dim, check_integer, check_p, check_same_grid,
                            gradient_lp_norm, lp_norm)
from msrecover.harness import ExperimentConfig, fit_loglog
from msrecover.measurements import (MeasurementVector, build_functionals, contract, measure,
                                    measure_all)
from msrecover.recovery import (build_theta, ms_recover, multiscale_basis, pc_recover, recover,
                                recovery_error_report)
from msrecover.testfuncs import fourier_h01
from msrecover.weights import build_weight, distance_field, weight_condition_check

nan, inf = math.nan, math.inf


class Refusal(NamedTuple):
    """``call()`` raises exactly ``error`` with a message that starts with ``start``;
    ``name`` is the public callable it exercises."""

    name: str
    call: Callable
    error: type
    start: str


def _rows(name, start, error=ValueError, **calls):
    """One row per keyword ``case=call``, keyed ``<name>-<case>`` with ``_`` read as ``-``."""
    return {f"{name}-{case.replace('_', '-')}": Refusal(name, call, error, start)
            for case, call in calls.items()}


def _sub(dim, n, m, kind="cube", ratio=1.0):
    return SubsampleSpec(CoarsePartition(DomainSpec(dim, n), m), kind, ratio)


PART_1D = CoarsePartition(DomainSpec(1, 8), 2)  # two 4-cell patches


def _op(dim, n):
    return assemble(DomainSpec(dim, n), constant_coefficient(DomainSpec(dim, n)))


def _ramp(dim, n):  # u = 2x on the first axis
    return GridFunction.from_callable(DomainSpec(dim, n), lambda x, *_: 2.0 * x)


def _weight(profile, n=16, m=2, kind="cube", p=2.0, **params):
    dist = distance_field(_sub(2, n, m, kind, 0.5))
    return build_weight(dist, profile, p, **params), dist


def _radii(*radii, dim=2):
    return ball_average_sequence(power_profile(0.5), radii, dim)


def _grids(role, grid, other_role, other_grid):
    """The same-grid rule's refusal for two ``(dim, n)`` grids."""
    return (f"{role} grid {DomainSpec(*grid)} does not match the {other_role} grid "
            f"{DomainSpec(*other_grid)}")


SCALE = "coefficient must be strictly positive and finite on every cell"
FINITE = "p must be a finite number >= 1, got "
KINDS = "defined for cube and slice kinds, got "

LIBRARY_REFUSALS = {
    # grid
    **_rows("check_dim", "dim must be 1, 2 or 3, got 0", zero=lambda: check_dim(0)),
    **_rows("check_dim", "dim must be 1, 2 or 3, got nan", nan=lambda: check_dim(nan)),
    # an integer-valued float and a bool used to pass the `in (1, 2, 3)` test
    **_rows("check_dim", "dim must be 1, 2 or 3, got 2.0", float=lambda: check_dim(2.0)),
    **_rows("check_dim", "dim must be 1, 2 or 3, got True", bool=lambda: check_dim(True)),
    # a bool, an integer-valued float and NaN are no integer; a bool and inf no exponent
    **{f"check_integer-{case}": Refusal("check_integer", lambda v=v: check_integer(
        "size", v, 2), ValueError, f"size must be an integer >= 2, got {v!r}")
       for case, v in [("below", 1), ("float", 2.0), ("bool", True), ("nan", nan),
                       ("string", "3"), ("numpy-below", np.int64(1))]},
    **{f"check_p-{case}": Refusal("check_p", lambda p=p: check_p(p), ValueError, FINITE + f"{p}")
       for case, p in [("below", 0.5), ("inf", inf), ("nan", nan), ("bool", True)]},
    **_rows("check_same_grid", _grids("field", (1, 8), "operator", (2, 8)), dim=lambda:
            check_same_grid("field", DomainSpec(1, 8), "operator", DomainSpec(2, 8))),
    **_rows("DomainSpec", "dim must be 1, 2 or 3, got 4", dim=lambda: DomainSpec(4, 8)),
    **_rows("DomainSpec", "dim must be 1, 2 or 3, got 2.0", dim_float=lambda: DomainSpec(2.0, 8)),
    **_rows("DomainSpec", "n must be an integer >= 2, got 1", n=lambda: DomainSpec(1, 1)),
    # each used to construct a grid that raised a bare TypeError at its first field
    **{f"DomainSpec-n-{case}": Refusal("DomainSpec", lambda n=n: DomainSpec(1, n), ValueError,
                                       f"n must be an integer >= 2, got {n}")
       for case, n in [("float", 8.5), ("nan", nan), ("bool", True)]},
    **_rows("GridFunction", "values shape (4,) does not match node shape (5,)",
            shape=lambda: GridFunction(DomainSpec(1, 4), np.zeros(4))),
    # a flat array of the node count used to be reshaped to the grid
    **_rows("GridFunction", "values shape (25,) does not match node shape (5, 5)",
            flat=lambda: GridFunction(DomainSpec(2, 4), np.zeros(25))),
    # a 1D operand used to broadcast along the last axis of the 2D field
    **_rows("GridFunction.__add__", _grids("operand", (1, 8), "field", (2, 8)),
            dim=lambda: _ramp(2, 8) + _ramp(1, 8)),
    **_rows("GridFunction.__sub__", _grids("operand", (1, 8), "field", (2, 8)),
            dim=lambda: _ramp(2, 8) - _ramp(1, 8)),
    **_rows("CoarsePartition", "m must be an integer >= 1, got 0",
            m=lambda: CoarsePartition(DomainSpec(1, 8), 0)),
    # m = 2.5 divides n = 10 as a float: 3 functionals, the last set spanning [0.8, 1.2]
    **_rows("CoarsePartition", "m must be an integer >= 1, got 2.5",
            m_float=lambda: CoarsePartition(DomainSpec(1, 10), 2.5)),
    **_rows("CoarsePartition", "m must be an integer >= 1, got True",
            m_bool=lambda: CoarsePartition(DomainSpec(1, 8), True)),
    # three 2-cell patches used to leave the last two nodes of a recovery NaN
    **_rows("CoarsePartition", "patch count m=3 does not divide fine resolution n=8",
            AlignmentError, divides=lambda: CoarsePartition(DomainSpec(1, 8), 3)),
    **_rows("SubsampleSpec", "unknown subsample kind 'disk'",
            kind=lambda: SubsampleSpec(PART_1D, "disk")),
    # a 0.3*H cube used to be measured on 2 cells, r = 1/2's set, while reporting h = 0.15
    **_rows("SubsampleSpec", "subsample side h = 0.3333333333333333*H is not a whole number",
            AlignmentError, whole_cells=lambda: SubsampleSpec(PART_1D, "cube", 1 / 3)),
    **_rows("SubsampleSpec", "subsample side h = 0.3*H is not a whole number",
            AlignmentError, tenths=lambda: SubsampleSpec(PART_1D, "cube", 0.3)),
    # one cell inside four
    **_rows("SubsampleSpec", "concentric subsample of 1 cells inside a 4-cell patch has corners",
            AlignmentError, parity=lambda: SubsampleSpec(PART_1D, "cube", 0.25)),
    **{f"SubsampleSpec-ratio-{r}": Refusal("SubsampleSpec", lambda r=r: SubsampleSpec(
        PART_1D, "cube", r), ValueError, f"ratio must lie in (0, 1], got {r}")
       for r in (0.0, 1.5, nan)},
    # a 1D slice used to be a point set
    **_rows("SubsampleSpec", "slice kind needs dim >= 2",
            slice_1d=lambda: SubsampleSpec(PART_1D, "slice", 0.5)),
    # the midpoint formulas would give |x|**inf ** (1/inf) = 1, for any u and for |grad 2x| = 2
    **_rows("lp_norm", FINITE + "inf",
            p_inf=lambda: lp_norm(GridFunction.constant(DomainSpec(2, 8), 0.3), inf)),
    **_rows("lp_norm", FINITE + "nan",
            p_nan=lambda: lp_norm(GridFunction.constant(DomainSpec(2, 8), 2.0), nan)),
    # True used to be read as p = 1: the mean of |u|, 0.3
    **_rows("lp_norm", FINITE + "True",
            p_bool=lambda: lp_norm(GridFunction.constant(DomainSpec(2, 8), 0.3), True)),
    **_rows("gradient_lp_norm", FINITE + "inf", p_inf=lambda: gradient_lp_norm(_ramp(2, 8), inf)),
    **_rows("gradient_lp_norm", FINITE + "nan", p_nan=lambda: gradient_lp_norm(_ramp(2, 8), nan)),
    **{f"gradient_lp_norm-weight-{dim}d-n{n}": Refusal(
        "gradient_lp_norm", lambda s=DomainSpec(dim, n): gradient_lp_norm(
            _ramp(1, 8), 2.0, weight=constant_coefficient(s)), ValueError,
        f"weight grid DomainSpec(dim={dim}, n={n}) does not match the field grid")
       for dim, n in [(1, 16), (1, 4), (2, 8)]},
    # measurements
    # read without the check, the n = 4 functionals take a prefix of each n = 8 axis:
    # u = 2x gives [0.25, 0.25, 0.75, 0.75], not the patch averages [0.5, 0.5, 1.5, 1.5]
    **_rows("contract", "axis 1: the matrix has 5 columns, the values 9 entries",
            columns=lambda: contract(np.zeros((9, 9)), [np.ones((2, 5))] * 2)),
    **_rows("MeasurementOperator.__getitem__", "functional 4 out of range for 4 functionals",
            IndexError, range=lambda: build_functionals(_sub(2, 4, 2))[4]),
    # functionals on another n, or on another dim with the same n: 1D functionals used to
    # contract the last axis of a 2D field alone, 18 values from measure_all
    **{f"{name}-{case}": Refusal(name, call, ValueError,
                                 _grids("field", (2, 8), "functional", other))
       for case, other in [("grid", (2, 4)), ("dim", (1, 8))] for name, call in [
           ("measure_all", lambda o=other: measure_all(_ramp(2, 8), build_functionals(
               _sub(*o, 2)))),
           ("measure", lambda o=other: measure(_ramp(2, 8), build_functionals(
               _sub(*o, 2))[0]))]},
    **{f"alpha_envelope-h-{what}": Refusal(
        "alpha_envelope", lambda h=h: alpha_envelope("cube", 2, 1.0, h, 0.5), ValueError,
        f"need 0 < h <= H, got h={h}, H=1.0")
       for what, h in [("above-H", 2.0), ("zero", 0.0), ("nan", nan)]},
    **_rows("alpha_envelope", f"alpha envelope {KINDS}'point' at dim 2",
            kind=lambda: alpha_envelope("point", 2, 1.0, 0.5, 0.5)),
    # a 1D slice is flat on its one axis, the set SubsampleSpec refuses
    **_rows("alpha_envelope", f"alpha envelope {KINDS}'slice' at dim 1",
            slice_1d=lambda: alpha_envelope("slice", 1, 0.5, 0.25, 0.1)),
    # a dim no grid has
    **{f"{name}-dim-{dim}": Refusal(name, call, ValueError, f"dim must be 1, 2 or 3, got {dim}")
       for dim in (5, 2.5) for name, call in [
           ("alpha_envelope", lambda dim=dim: alpha_envelope("cube", dim, 1.0, 0.5, 0.1)),
           ("bound_integral", lambda dim=dim: bound_integral("cube", 6.0, dim, 1.0, 0.5))]},
    **{f"alpha_envelope-t-{t}": Refusal("alpha_envelope", lambda t=t: alpha_envelope(
        "cube", 2, 1.0, 0.5, t), ValueError, f"t must lie in [0,1], got {t}") for t in (1.5, nan)},
    **_rows("bound_integral",
            "sliced measurements need p > 1: the envelope integral diverges at t=0 for p=1",
            slice_p1=lambda: bound_integral("slice", 1.0, 2, 1.0, 0.5)),
    **_rows("bound_integral", f"bound integral {KINDS}'slice' at dim 1",
            slice_1d=lambda: bound_integral("slice", 2.0, 1, 0.5, 0.25)),
    **_rows("bound_integral", FINITE + "nan",
            p_nan=lambda: bound_integral("cube", nan, 2, 1.0, 0.5)),
    # it used to return 1.0, the integral of t^0
    **_rows("bound_integral", FINITE + "inf",
            p_inf=lambda: bound_integral("cube", inf, 2, 1.0, 0.5)),
    # elliptic
    **_rows("CoefficientField", SCALE, zero=lambda: CoefficientField(DomainSpec(1, 4), [0.0] * 4),
            negative=lambda: CoefficientField(DomainSpec(1, 4), [-1.0] * 4),
            nan=lambda: CoefficientField(DomainSpec(1, 4), [1.0, nan, 1.0, 1.0])),
    **_rows("CoefficientField", "coefficient shape (3,) does not match cell shape (4,)",
            shape=lambda: CoefficientField(DomainSpec(1, 4), [1.0] * 3)),
    # a flat 2D array used to be reshaped to the cells; it must come in their shape
    **_rows("CoefficientField", "coefficient shape (16,) does not match cell shape (4, 4)",
            flat=lambda: CoefficientField(DomainSpec(2, 4), np.ones(16))),
    # the element scale a h^-1 overflows, a h underflows to 0
    **_rows("constant_coefficient", SCALE + ", and so must a h^(d-2)",
            scale_overflow=lambda: constant_coefficient(DomainSpec(1, 256), 1e308),
            scale_underflow=lambda: constant_coefficient(DomainSpec(3, 16), 5e-324)),
    **_rows("layered_coefficient", "layered axis must lie in 0..1, got 2",
            axis=lambda: layered_coefficient(DomainSpec(2, 4), 10.0, axis=2)),
    # assemble keeps its check of the coefficient against the grid it is given
    **_rows("assemble", _grids("coefficient", (2, 6), "domain", (2, 3)), grid=lambda: assemble(
        DomainSpec(2, 3), checkerboard_coefficient(DomainSpec(2, 6), 10.0))),
    **_rows("assemble", _grids("coefficient", (2, 8), "domain", (1, 8)), dim=lambda: assemble(
        DomainSpec(1, 8), constant_coefficient(DomainSpec(2, 8)))),
    # a finer source used to give a wrong field from its first load entries, a coarser one
    # an IndexError
    **{f"solve-source-n{n}": Refusal(
        "solve", lambda n=n: solve(_op(2, 8), fourier_h01(DomainSpec(2, n), 7)), ValueError,
        f"source grid DomainSpec(dim=2, n={n}) does not match the operator grid "
        "DomainSpec(dim=2, n=8)") for n in (16, 4)},
    # off the operator's grid, numpy used to refuse the shapes (n) or the product (dim)
    **_rows("energy_inner", _grids("field", (2, 8), "operator", (2, 16)),
            grid=lambda: energy_inner(_ramp(2, 8), _ramp(2, 8), _op(2, 16))),
    **_rows("energy_inner", _grids("field", (1, 8), "operator", (2, 8)),
            dim=lambda: energy_inner(_ramp(1, 8), _ramp(1, 8), _op(2, 8))),
    # it used to return a number, from the 1D cell values broadcast along the last axis
    **_rows("l2_inner", _grids("operand", (1, 8), "field", (2, 8)),
            dim=lambda: l2_inner(_ramp(2, 8), _ramp(1, 8))),
    # recovery
    # a field, or an operator, off the subsample's grid: measure_all's and build_theta's
    # refusals
    **_rows("recover", _grids("field", (2, 8), "functional", (2, 4)),
            ms_grid=lambda: recover(_ramp(2, 8), _sub(2, 4, 2), _op(2, 4)),
            pc_grid=lambda: recover(_ramp(2, 8), _sub(2, 4, 2)),
            subsample_grid=lambda: recover(_ramp(2, 8), _sub(2, 4, 2), _op(2, 8))),
    **_rows("recover", _grids("operator", (2, 8), "functional", (2, 4)),
            operator_grid=lambda: recover(_ramp(2, 4), _sub(2, 4, 2), _op(2, 8))),
    # SuperLU used to refuse the n = 8 loads against the n = 16 operator
    **_rows("build_theta", _grids("operator", (2, 16), "functional", (2, 8)),
            grid=lambda: build_theta(build_functionals(_sub(2, 8, 2)), _op(2, 16))),
    **_rows("build_theta", _grids("operator", (2, 8), "functional", (1, 8)),
            dim=lambda: build_theta(build_functionals(_sub(1, 8, 2)), _op(2, 8))),
    # numpy used to refuse the reshape of 4 values into 2 patches
    **_rows("pc_recover", "data and patch index sets do not match: 4 values, 2 patches",
            length=lambda: pc_recover(MeasurementVector(np.ones(4)), PART_1D)),
    **_rows("ms_recover", "data and basis index sets do not match", length=lambda: ms_recover(
        MeasurementVector(np.zeros(3)),
        multiscale_basis(build_theta(build_functionals(_sub(1, 8, 2)), _op(1, 8))))),
    **_rows("recovery_error_report", _grids("operand", (1, 4), "field", (1, 8)),
            grid=lambda: recovery_error_report(_ramp(1, 8), _ramp(1, 4), {}, _op(1, 8))),
    # a 1D partition used to cut the 2D field into 4 patches it does not have
    **_rows("recovery_error_report", _grids("partition", (1, 8), "field", (2, 8)),
            partition=lambda: recovery_error_report(_ramp(2, 8), _ramp(2, 8), {}, _op(2, 8),
                                                    PART_1D)),
    # weights
    **_rows("build_weight", "polynomial profile needs beta > 0",
            beta_zero=lambda: _weight("polynomial", beta=0.0),
            beta_nan=lambda: _weight("polynomial", beta=nan)),
    **_rows("build_weight", "logarithmic profile needs gamma > p - 1",
            gamma_one=lambda: _weight("logarithmic", gamma=1.0),
            gamma_nan=lambda: _weight("logarithmic", gamma=nan)),
    **_rows("build_weight", "unknown weight profile 'pow'", profile=lambda: _weight("pow")),
    **_rows("build_weight", FINITE + "0.5", p_below_one=lambda: _weight("w11", p=0.5)),
    **_rows("build_weight", FINITE + "nan", p_nan=lambda: _weight("polynomial", p=nan)),
    # it used to fail on the coefficient's positivity, (H/s)^-inf being 0
    **_rows("build_weight", FINITE + "inf", p_inf=lambda: _weight("polynomial", p=inf)),
    # three cells per patch put a cell center exactly on a patch center
    **_rows("build_weight", "limit weight (h=0) needs an even cell count", AlignmentError,
            parity=lambda: _weight("polynomial", n=12, m=4, kind="point")),
    **_rows("weight_condition_check", "the weight condition applies to p > 1 only",
            p_one=lambda: weight_condition_check(*_weight("w11", m=1, p=1.0), 1.0)),
    # p = inf used to give a NaN integral, its exponent reading inf/inf
    **{f"weight_condition_check-p-{p}": Refusal("weight_condition_check", lambda p=p:
       weight_condition_check(*_weight("w11", m=1, p=1.0), p), ValueError, FINITE + f"{p}")
       for p in (nan, inf)},
    # it used to return an integral of the 1D distances broadcast over the 2D weight
    **_rows("weight_condition_check", _grids("weight", (2, 8), "distance", (1, 8)),
            dim=lambda: weight_condition_check(constant_coefficient(DomainSpec(2, 8)),
                                               distance_field(_sub(1, 8, 2)), 2.0)),
    # analytic
    **_rows("rho", "variant must be 'sharp' or 'tilde', got 'bogus'",
            variant=lambda: rho("bogus", 2, 2, 1.0)),
    **_rows("rho", "x must be >= 0", x_negative=lambda: rho("sharp", 2, 2, -1.0),
            x_nan=lambda: rho("sharp", 2, 2, nan)),
    **_rows("rho", FINITE + "0.5", p_below_one=lambda: rho("sharp", 0.5, 2, 3.0)),
    **_rows("rho", FINITE + "nan", p_nan=lambda: rho("sharp", nan, 2, 3.0)),
    # it used to return 1.0, dim < p
    **_rows("rho", FINITE + "inf", p_inf=lambda: rho("sharp", inf, 2, 3.0)),
    # h must lie in (0, 1/4]; critical_ratio's h is radial_function's
    **{f"radial_function-{kind}-h-{h}": Refusal(
        "radial_function", lambda kind=kind, h=h: radial_function(kind, h), ValueError,
        f"{kind} needs h in (0, 1/4]") for kind in ("critical_log", "critical_ramp")
       for h in (None, 0.0, 0.3, nan)},
    **_rows("critical_ratio", "critical_ramp needs h in (0, 1/4]",
            h=lambda: critical_ratio(3, 2, 0.3)),
    **_rows("radial_function", "unknown radial kind 'nope'", kind=lambda: radial_function("nope")),
    **_rows("eval_radial", "loglog diverges at r = 0",
            loglog_at_zero=lambda: eval_radial(radial_function("loglog"), 0.0),
            loglog_nan=lambda: eval_radial(radial_function("loglog"), nan)),
    **_rows("power_profile", "power profile needs q > 0", q_zero=lambda: power_profile(0.0),
            q_nan=lambda: power_profile(nan)),
    **_rows("critical_ratio", "critical profiles exist for dim >= p only",
            dim_below_p=lambda: critical_ratio(1, 2, 0.1)),
    **_rows("critical_ratio", FINITE + "nan", p_nan=lambda: critical_ratio(2, nan, 0.1)),
    **_rows("critical_ratio", FINITE + "0.5", p_below_one=lambda: critical_ratio(1, 0.5, 0.25)),
    # a ball's dimension is an integer >= 1 of any size (criterion 04 runs dim 4); dim 0
    # used to give rho 1 and ball averages 0, dim 2.5 a ball of fractional dimension,
    # and dim 2.0 and True computed, True as dim 1
    **{f"{name}-dim-{dim}": Refusal(name, call, ValueError,
                                    f"dim must be an integer >= 1, got {dim}")
       for dim in (0, 2.5, nan, 2.0, True) for name, call in [
           ("rho", lambda dim=dim: rho("sharp", 2, dim, 3.0)),
           ("critical_ratio", lambda dim=dim: critical_ratio(dim, 1, 0.1)),
           ("ball_average_sequence", lambda dim=dim: _radii(0.5, 0.25, dim=dim))]},
    **_rows("ball_average_sequence", "radii must be strictly decreasing",
            repeated=lambda: _radii(0.5, 0.5)),
    **_rows("ball_average_sequence", "radii must lie in [2.2250738585072014e-308, 1], the normal",
            above_one=lambda: _radii(2.0, 1.0), empty=lambda: _radii(),
            nan=lambda: _radii(0.5, nan)),
    # harness
    **_rows("fit_loglog", "need at least 3 distinct x values to fit",
            two_points=lambda: fit_loglog([(1.0, 1.0), (2.0, 4.0)]),
            repeated_x=lambda: fit_loglog([(0.5, 1.0), (0.5, 1.0), (0.25, 0.25)])),
    **_rows("fit_loglog", "log-log fit needs strictly positive data",
            nonpositive=lambda: fit_loglog([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)]),
            nan=lambda: fit_loglog([(1.0, 1.0), (2.0, nan), (3.0, 9.0)])),
    **_rows("ExperimentConfig", "profile_kind must be one of", ConfigError,
            profile_kind=lambda: ExperimentConfig(profile_kind="bogus")),
}

# refusing callables whose refusals another table or test holds: (test module, its name)
REFUSED_ELSEWHERE = {
    "StiffnessOperator.solve_interior": ("test_elliptic.py", "SOLVE_FAILURES"),
    "StiffnessOperator.solve_neumann": ("test_elliptic.py", "SOLVE_FAILURES"),
    "load_grid_function": ("test_harness.py", "REFUSALS"),  # its rows with --input bytes
}


@pytest.mark.parametrize("row_id", LIBRARY_REFUSALS)
def test_library_refusal_raises_its_error(row_id):
    row = LIBRARY_REFUSALS[row_id]
    with pytest.raises(Exception) as caught:
        row.call()
    # the exact class: an AlignmentError or a ConfigError is not a plain ValueError
    assert type(caught.value) is row.error, repr(caught.value)
    assert str(caught.value).startswith(row.start), str(caught.value)


LIBRARY = (grid, measurements, elliptic, recovery, weights, analytic)
# grid's four rules: a call to one refuses like a raise
GRID_RULES = {"check_dim", "check_integer", "check_p", "check_same_grid"}


def _refusing_callables(module) -> set:
    """The public functions, methods (``Class.method``) and classes (by ``__init__``
    or ``__post_init__``) of ``module`` whose source holds a ``raise`` or a call
    to one of ``GRID_RULES``, nested functions included, or reaches one through a
    private function of the module or a private ``self`` member."""
    defs = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update({f"{node.name}.{m.name}": m for m in node.body
                         if isinstance(m, ast.FunctionDef)})

    def private_refs(name):
        cls = name.rpartition(".")[0]
        return {n.id if isinstance(n, ast.Name) else f"{cls}.{n.attr}" for n in ast.walk(defs[name])
                if isinstance(n, ast.Name) and n.id.startswith("_") or isinstance(n, ast.Attribute)
                and n.attr.startswith("_") and getattr(n.value, "id", None) == "self"}

    refs = {name: private_refs(name) for name in defs}
    raising = {name for name, node in defs.items()
               if any(isinstance(n, ast.Raise) or isinstance(n, ast.Call)
                      and getattr(n.func, "id", None) in GRID_RULES for n in ast.walk(node))}
    for _ in defs:  # each pass reaches one helper deeper
        raising |= {name for name in defs if refs[name] & raising}
    named = {name.removesuffix(".__init__").removesuffix(".__post_init__") for name in raising}
    return {name for name in named if not re.search(r"(^|\.)_(?!_)", name)}


def test_every_refusing_callable_has_a_row_or_names_where_its_refusals_are_tested():
    refusing = set().union(*map(_refusing_callables, LIBRARY))
    rowed = {row.name for row in LIBRARY_REFUSALS.values()}
    assert rowed & set(REFUSED_ELSEWHERE) == set()
    assert refusing - rowed - set(REFUSED_ELSEWHERE) == set()
    assert set(REFUSED_ELSEWHERE) - refusing == set()
    for name in rowed:  # a public callable of the library
        owner = next(m for m in (*LIBRARY, harness) if hasattr(m, name.split(".")[0]))
        assert callable(functools.reduce(getattr, name.split("."), owner)), name
    here = pathlib.Path(__file__).parent
    for module, name in REFUSED_ELSEWHERE.values():  # a table or test of that module
        assert re.search(rf"^({name} = |def {name}\()", (here / module).read_text(), re.M), name


# the message of each of GRID_RULES, as its f-string reads in the source
RULE_MESSAGES = ["must be 1, 2 or 3, got", "must be an integer >= {",
                 "must be a finite number >= 1", "grid {spec} does not match the"]


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_grid_rule_message_is_formatted_once_in_grid(message):
    sources = {path.name: path.read_text()
               for path in pathlib.Path(grid.__file__).parent.glob("*.py")}
    assert {name: text.count(message) for name, text in sources.items()
            if message in text} == {"grid.py": 1}
