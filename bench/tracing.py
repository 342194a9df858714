"""Spans around msrecover's public functions, and the per-layer metrics.

The traced run wraps module-level functions on every name binding inside the
``msrecover`` package (so ``harness.build_functionals`` and
``measurements.build_functionals`` both report), plus the two solve methods
of ``StiffnessOperator`` at class level.  Nothing under ``src/`` is edited:
the wrappers are installed on the imported modules and removed afterwards.

A span records name, start, end, parent and op id.  Spans are kept in memory
and written out when the run ends.  Recording happens only inside an op's
timed region, so output checks made after the clock stops leave no spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the tracer's span list, or None
        self.op = op
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


class Tracer:
    """In-memory span recorder for one single-threaded closed loop."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        # operators returned by assemble whose first solve of each kind has
        # not happened yet; keyed by id(), cleared at the end of every op
        self._unsolved = {"elliptic.solve_interior": set(), "elliptic.solve_neumann": set()}

    def open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), None, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        if self.op is None:
            yield
            return
        s = self.open(name)
        try:
            yield
        finally:
            self.close(s)

    @contextmanager
    def scope(self, k):
        """Record spans for op k, under one root span named ``op``."""
        self.op = k
        root = self.open("op")
        try:
            yield
        finally:
            self.close(root)
            self.op = None
            for ids in self._unsolved.values():
                ids.clear()


# span name -> (module, attribute) of the module-level functions traced
FUNCTIONS = {
    "elliptic.assemble": ("msrecover.elliptic", "assemble"),
    "elliptic.energy_inner": ("msrecover.elliptic", "energy_inner"),
    "recovery.build_theta": ("msrecover.recovery", "build_theta"),
    "recovery.multiscale_basis": ("msrecover.recovery", "multiscale_basis"),
    "recovery.ms_recover": ("msrecover.recovery", "ms_recover"),
    "recovery.pc_recover": ("msrecover.recovery", "pc_recover"),
    "recovery.recovery_error_report": ("msrecover.recovery", "recovery_error_report"),
    "recovery.sharp_constant_estimate": ("msrecover.recovery", "sharp_constant_estimate"),
    "grid.lp_norm": ("msrecover.grid", "lp_norm"),
    "grid.gradient_lp_norm": ("msrecover.grid", "gradient_lp_norm"),
    "measurements.build_functionals": ("msrecover.measurements", "build_functionals"),
    "measurements.measure_all": ("msrecover.measurements", "measure_all"),
    "measurements.measure": ("msrecover.measurements", "measure"),
    "weights.distance_field": ("msrecover.weights", "distance_field"),
    "weights.build_weight": ("msrecover.weights", "build_weight"),
    "weights.weighted_basis": ("msrecover.weights", "weighted_basis"),
    "weights.weight_condition_check": ("msrecover.weights", "weight_condition_check"),
    **{f"analytic.{fn}": ("msrecover.analytic", fn)
       for fn in ("rho", "radial_function", "power_profile", "eval_radial",
                  "eval_radial_deriv", "critical_ratio", "ball_average_sequence")},
}
# span name -> method of msrecover.elliptic.StiffnessOperator traced at class level
METHODS = {
    "elliptic.solve_interior": "solve_interior",
    "elliptic.solve_neumann": "solve_neumann",
}


def _attrs(tracer, name, args, result) -> dict:
    """Counts taken from a traced call's arguments and result."""
    if name == "elliptic.assemble":
        for ids in tracer._unsolved.values():
            ids.add(id(result))
        return {"nnz": int(result.matrix.nnz)}
    if name == "elliptic.solve_interior":
        return {"dofs": int(args[0].num_interior)}
    if name == "measurements.build_functionals":
        return {"functionals": len(result)}
    if name == "recovery.build_theta":
        return {"size": int(result.size)}
    if name == "recovery.multiscale_basis":
        # computed, not measured: patches x nodes x 8 bytes of the dense stack
        return {"bytes": len(result) * result.spec.num_nodes * 8}
    return {}


def _wrap(tracer, name, fn):
    unsolved = tracer._unsolved.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        first = unsolved is not None and id(args[0]) in unsolved
        if first:
            unsolved.discard(id(args[0]))
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        span.attrs = _attrs(tracer, name, args, result)
        if first:
            span.attrs["first"] = True
        return result

    return traced


def install(tracer):
    """Wrap the traced functions and methods; returns an undo callable."""
    undo = []
    packages = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "msrecover" or n.startswith("msrecover."))]
    for name, (module, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(tracer, name, original)
        for mod in packages:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, binding, original))
                    setattr(mod, binding, wrapper)
    cls = sys.modules["msrecover.elliptic"].StiffnessOperator
    for name, attr in METHODS.items():
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, name, original))

    def uninstall():
        for owner, binding, original in reversed(undo):
            setattr(owner, binding, original)

    return uninstall


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    how: str  # calls | total | self | first | attr:<key> | dofs_rate | per_call
    spans: tuple
    moves: str  # the end-to-end metric this should move, and on which workload
    exact: bool = False
    computed: bool = False


def _m(name, unit, how, spans, moves, better="lower", **kw):
    return LayerMetric(name, unit, better, how, tuple(spans), moves, **kw)


DIRICHLET = ("elliptic.solve_interior",)
NEUMANN = ("elliptic.solve_neumann",)
STUDIES = ("converge", "rates", "critical", "degeneracy", "weighted", "pointwise")

LAYER_METRICS = [
    _m("elliptic.dirichlet_calls", "count", "calls", DIRICHLET,
       "op_p50_s on ms-2d; ~0 on pc-3d", exact=True),
    _m("elliptic.dirichlet_s", "s", "total", DIRICHLET, "op_p50_s on ms-2d; ~0 on pc-3d"),
    _m("elliptic.dirichlet_dofs_per_s", "dof/s", "dofs_rate", DIRICHLET,
       "op_p50_s on ms-2d; ~0 on pc-3d", better="higher"),
    _m("elliptic.dirichlet_first_s", "s", "first", DIRICHLET, "op_p50_s on ms-2d"),
    _m("elliptic.neumann_calls", "count", "calls", NEUMANN, "op_p50_s on studies", exact=True),
    _m("elliptic.neumann_s", "s", "total", NEUMANN, "op_p50_s on studies"),
    _m("elliptic.neumann_first_s", "s", "first", NEUMANN, "op_p50_s on studies"),
    _m("elliptic.assemble_s", "s", "total", ("elliptic.assemble",), "op_p50_s on pc-3d"),
    _m("elliptic.nnz", "count", "attr:nnz", ("elliptic.assemble",), "op_p50_s on pc-3d",
       exact=True),
    _m("elliptic.energy_s", "s", "total", ("elliptic.energy_inner",), "op_p50_s on pc-3d"),
    _m("recovery.theta_self_s", "s", "self", ("recovery.build_theta",), "op_p50_s on ms-2d"),
    _m("recovery.theta_size", "count", "attr:size", ("recovery.build_theta",),
       "op_p50_s on ms-2d", exact=True),
    _m("recovery.basis_s", "s", "total", ("recovery.multiscale_basis",),
       "op_p50_s and peak_rss_mb on ms-2d"),
    _m("recovery.basis_bytes", "bytes", "attr:bytes", ("recovery.multiscale_basis",),
       "op_p50_s and peak_rss_mb on ms-2d", exact=True, computed=True),
    _m("recovery.recover_s", "s", "total", ("recovery.ms_recover", "recovery.pc_recover"),
       "op_p50_s on ms-2d and pc-3d"),
    _m("recovery.report_self_s", "s", "self", ("recovery.recovery_error_report",),
       "op_p50_s on pc-3d"),
    _m("recovery.sharp_self_s", "s", "self", ("recovery.sharp_constant_estimate",),
       "op_p50_s on studies"),
    _m("recovery.power_iterations", "count", "per_call", ("recovery.sharp_constant_estimate",),
       "op_p50_s on studies", exact=True),
    _m("grid.norm_calls", "count", "calls", ("grid.lp_norm", "grid.gradient_lp_norm"),
       "op_p50_s on pc-3d", exact=True),
    _m("grid.norm_s", "s", "total", ("grid.lp_norm", "grid.gradient_lp_norm"),
       "op_p50_s on pc-3d"),
    _m("measurements.functionals", "count", "attr:functionals",
       ("measurements.build_functionals",), "op_p50_s on pc-3d", exact=True),
    _m("measurements.build_s", "s", "total", ("measurements.build_functionals",),
       "op_p50_s on pc-3d; negligible on ms-2d"),
    _m("measurements.measure_s", "s", "total",
       ("measurements.measure_all", "measurements.measure"),
       "op_p50_s on pc-3d; negligible on ms-2d"),
    _m("weights.distance_s", "s", "total", ("weights.distance_field",), "op_p50_s on studies"),
    _m("weights.weight_s", "s", "total", ("weights.build_weight",), "op_p50_s on studies"),
    _m("weights.basis_self_s", "s", "self", ("weights.weighted_basis",), "op_p50_s on studies"),
    _m("weights.condition_s", "s", "total", ("weights.weight_condition_check",),
       "op_p50_s on studies"),
    _m("analytic.s", "s", "total", tuple(n for n in FUNCTIONS if n.startswith("analytic.")),
       "op_p50_s on studies (expected small)"),
    *[_m(f"harness.{study}_s", "s", "total", (f"harness.{study}",), "op_p50_s on studies")
      for study in STUDIES],
]


def _under(spans, i, names) -> bool:
    """Whether span i has an ancestor named in ``names``."""
    p = spans[i].parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def _op_value(metric, spans, selfs, idx):
    names = set(metric.spans)
    mine = [i for i in idx if spans[i].name in names]
    how = metric.how
    if how == "calls":
        return len(mine)
    if how == "total":
        return sum(spans[i].seconds for i in mine if not _under(spans, i, names))
    if how == "self":
        return sum(selfs[i] for i in mine)
    if how == "first":
        return sum(spans[i].seconds for i in mine if spans[i].attrs.get("first"))
    if how.startswith("attr:"):
        return sum(spans[i].attrs.get(how[5:], 0) for i in mine)
    if how == "per_call":  # Neumann solves per sharp_constant_estimate call
        solves = sum(1 for i in idx if spans[i].name in NEUMANN and _under(spans, i, names))
        return solves / len(mine) if mine else 0.0
    raise ValueError(f"unknown aggregation {how!r}")


def layer_metrics(spans) -> tuple:
    """Per-layer metrics of one traced phase, plus their per-op values.

    Times are the median over ops of each op's total; exact counts are the
    per-op value, which must be the same for every op (the third return
    value lists the counts that were not).  The dof rate is taken over the
    whole phase.  A layer an op never entered reads 0.
    """
    selfs = self_times(spans)
    by_op = defaultdict(list)
    for i, s in enumerate(spans):
        by_op[s.op].append(i)
    values, per_op, unstable = {}, {}, []
    for metric in LAYER_METRICS:
        if metric.how == "dofs_rate":
            solves = [s for s in spans if s.name in metric.spans]
            busy = sum(s.seconds for s in solves)
            dofs = sum(s.attrs.get("dofs", 0) for s in solves)
            values[metric.name] = dofs / busy if busy else 0.0
            continue
        series = [_op_value(metric, spans, selfs, by_op[k]) for k in sorted(by_op)]
        per_op[metric.name] = series
        if metric.exact and len(set(series)) == 1:
            values[metric.name] = series[0]
            continue
        if metric.exact:
            unstable.append(metric.name)
        values[metric.name] = statistics.median(series) if series else 0.0
    return values, per_op, unstable
