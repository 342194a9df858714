"""BENCHMARK.json agrees with the metrics and workloads the benchmark code has."""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def load():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_per_layer_metrics_match_the_trace_table():
    assert load()["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                   for m in LAYER_METRICS]


def test_workloads_and_setup_metric():
    doc = load()
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in doc["end_to_end"]
