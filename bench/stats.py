"""Closed-loop op driver and the summary statistics the benchmark reports.

One client runs ops back to back: the next op starts when the previous one
ends.  Each op's inputs are made before its clock starts and its outputs are
checked after the clock stops.  An op that raises, or whose output fails its
check, counts as failed and the loop goes on.
"""

from __future__ import annotations

import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

TAIL_MIN_BEYOND = 10


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's output check."""


class OpFailures(Exception):
    """An op ran several independent steps and some of them raised.

    ``causes`` holds the exception type name of every step that raised, so a
    failure is recorded by its real cause rather than as this wrapper.
    """

    def __init__(self, causes, message):
        super().__init__(message)
        self.causes = list(causes)


@dataclass
class OpRecord:
    index: int
    seconds: float  # wall time of the op, up to its return or its exception
    ok: bool
    causes: list = field(default_factory=list)
    check_failed: bool = False
    output: dict = field(default_factory=dict)  # l2_error, exact counts, ...


def _null_span(name):
    return nullcontext()


def closed_loop(workload, seed, seconds, scope=None, span=_null_span,
                clock=time.perf_counter):
    """Run ops of ``workload`` until ``seconds`` have passed; at least one op.

    ``workload`` provides ``prepare(seed, k)``, ``run(inputs, span)``,
    ``check(inputs, output) -> dict`` and ``release(inputs)``.  ``scope(k)``
    is a context manager entered around op k's timed region (the tracer's
    op span); ``span(name)`` is handed to the op for spans of its own.
    Returns the op records, the loop's wall time, and the first traceback
    seen for each failure cause.
    """
    scope = scope or (lambda k: nullcontext())
    records = []
    tracebacks = {}
    start = clock()
    deadline = start + seconds
    k = 0
    while k == 0 or clock() < deadline:
        inputs = workload.prepare(seed, k)
        try:
            out = exc = None
            with scope(k):
                t0 = clock()
                try:
                    out = workload.run(inputs, span)
                except Exception as e:  # the op's failure is data, not an abort
                    exc = e
                t1 = clock()
            if exc is None:
                try:
                    rec = OpRecord(k, t1 - t0, True, output=workload.check(inputs, out))
                except Exception as e:
                    exc = e
                    rec = OpRecord(k, t1 - t0, False, _causes(e), check_failed=True)
            else:
                rec = OpRecord(k, t1 - t0, False, _causes(exc))
            if exc is not None:
                for cause in rec.causes:
                    tracebacks.setdefault(cause, "".join(traceback.format_exception(exc)))
            del out, exc  # drop the op's arrays (and any traceback frames) now
        finally:
            workload.release(inputs)
        records.append(rec)
        k += 1
    return records, clock() - start, tracebacks


def _causes(exc) -> list:
    return list(getattr(exc, "causes", None) or [type(exc).__name__])


def tail_percentile(samples):
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Uses the nearest-rank percentile: the sample of rank n - TAIL_MIN_BEYOND
    is the 100 * rank / n percentile.  Returns (percentile, value, sample
    count), or None below 2 * TAIL_MIN_BEYOND samples, where the tail would
    fall under the median.
    """
    n = len(samples)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    rank = n - TAIL_MIN_BEYOND
    return 100 * rank / n, sorted(samples)[rank - 1], n


def summarize(records, wall_seconds) -> dict:
    """End-to-end op metrics of one closed-loop phase.

    Op timings cover successful ops only and are None when no op succeeded.
    """
    ok_times = [r.seconds for r in records if r.ok]
    l2 = [r.output["l2_error"] for r in records if r.ok and "l2_error" in r.output]
    tail = tail_percentile(ok_times)
    failed = sum(not r.ok for r in records)
    return {
        "attempted": len(records),
        "failed": failed,
        "check_failed": sum(r.check_failed for r in records),
        "succeeded": len(ok_times),
        "fail_share": failed / len(records),
        "fail_causes": dict(Counter(c for r in records for c in r.causes)),
        "op_p50_s": statistics.median(ok_times) if ok_times else None,
        "op_tail_s": tail[1] if tail else None,
        "op_tail_percentile": tail[0] if tail else None,
        "op_samples": len(ok_times),
        "ops_per_s": len(ok_times) / wall_seconds,
        "l2_error": statistics.median(l2) if l2 else None,
        "wall_s": wall_seconds,
        "op_seconds": [r.seconds for r in records],
    }
