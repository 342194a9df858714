"""Tests of the benchmark's closed loop and tail-percentile rule."""

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import CheckFailed, OpFailures, closed_loop, summarize, tail_percentile  # noqa: E402


@pytest.mark.parametrize("n, percentile", [
    (20, 50.0),         # the smallest sample with a tail: 10 beyond the median
    (39, 100 * 29 / 39),
    (60, 100 * 50 / 60),
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_exactly_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # unsorted on purpose; value == rank when sorted
    p, value, count = tail_percentile(samples)
    assert p == pytest.approx(percentile) and (value, count) == (n - 10, n)
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [0, 1, 19])
def test_tail_percentile_absent_below_twenty_samples(n):
    assert tail_percentile([1.0] * n) is None


class FakeClock:
    """Advances one second per reading, so each op takes exactly one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class Flaky:
    """Op k raises on k % 3 == 1 and returns a wrong answer on k % 3 == 2."""

    def __init__(self):
        self.released = []

    def prepare(self, seed, k):
        return k

    def run(self, k, span):
        if k % 3 == 1:
            raise ZeroDivisionError("boom")
        return k

    def check(self, k, out):
        if k % 3 == 2:
            raise CheckFailed("wrong")
        return {"l2_error": float(k)}

    def release(self, k):
        self.released.append(k)


def test_failures_are_counted_and_the_loop_continues():
    w = Flaky()
    records, wall, tracebacks = closed_loop(w, seed=0, seconds=20, clock=FakeClock())
    s = summarize(records, wall)
    assert s["attempted"] == len(records) > 6
    assert w.released == list(range(len(records)))
    assert s["failed"] == sum(k % 3 != 0 for k in range(len(records)))
    assert s["check_failed"] == sum(k % 3 == 2 for k in range(len(records)))
    assert s["fail_causes"] == {"ZeroDivisionError": sum(k % 3 == 1 for k in range(len(records))),
                                "CheckFailed": s["check_failed"]}
    assert s["fail_share"] == s["failed"] / s["attempted"]
    assert s["op_p50_s"] == 1.0 and s["op_samples"] == s["attempted"] - s["failed"]
    assert s["l2_error"] == statistics.median(k for k in range(len(records)) if k % 3 == 0)
    assert "ZeroDivisionError: boom" in tracebacks["ZeroDivisionError"]


def test_a_workload_with_no_successful_op_reports_absent_timings():
    class Broken(Flaky):
        def run(self, k, span):
            raise OpFailures(["TypeError", "TypeError"], "two steps raised")

    records, wall, _ = closed_loop(Broken(), seed=0, seconds=5, clock=FakeClock())
    s = summarize(records, wall)
    assert s["fail_share"] == 1.0
    assert s["fail_causes"] == {"TypeError": 2 * s["attempted"]}
    assert s["op_p50_s"] is None and s["op_tail_s"] is None and s["l2_error"] is None
    assert s["ops_per_s"] == 0.0


def test_at_least_one_op_runs():
    records, _, _ = closed_loop(Flaky(), seed=0, seconds=0, clock=FakeClock())
    assert len(records) == 1 and records[0].ok
