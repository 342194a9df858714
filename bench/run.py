"""msrecover benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload {ms-2d,pc-3d,studies,all} --seed N \
        --seconds S --trace {0,1}

Each workload is one process running a closed loop with one client: the next
op starts when the previous one ends.  BLAS/OpenMP threads are capped at the
CPUs this process may use.  The program is imported from ``src/`` of the
checkout this file sits in; it is timed from the outside and never edited.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the same ops
untraced and then traced, prints the per-layer metrics and the tracing
overhead, and checks that tracing changed no output and no count.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, and in a traced
run the spans, are written under ``bench/results/``.

``failed`` counts ops that raised or whose output failed its check.
``correct`` is false when an op returned an output that failed its check, or
when the benchmark's own consistency checks fail (tracing changed an output
or a count, or an exact count differed between ops or between runs of the
same source).  An op that raises produced no output: it counts in ``failed``
and its exception type is recorded, but it does not make ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("ms-2d", "pc-3d", "studies")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fresh processes timed for setup_s; one more runs first to warm caches
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (no program to load, a probe failed)."""


def cap_threads() -> int:
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= cpus):
            os.environ[var] = str(cpus)
    return cpus


def load_program():
    """Import msrecover from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "msrecover", "__init__.py")):
        raise BenchError(f"no msrecover sources under {SRC}")
    sys.path.insert(0, SRC)
    import msrecover

    if not os.path.abspath(msrecover.__file__).startswith(SRC + os.sep):
        raise BenchError(f"msrecover was imported from {msrecover.__file__}, not {SRC}")


def git_commit():
    """Commit of the checkout; None where it is not a git repository or git is missing."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(top) -> str:
    """sha256 over the .py files under ``top``, to tell code versions apart."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(seed) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(SRC),
        "bench_sha256": source_digest(BENCH),
        "seed": seed,
    }


def setup_probe(args) -> int:
    """Child process of measure_setup: import, make op 0's inputs, report ready."""
    import workloads

    w = workloads.make(args.workload, os.path.join(RESULTS, "tmp"))
    w.release(w.prepare(args.seed, 0))
    print("ready", flush=True)
    return 0


def measure_setup(workload, seed) -> list:
    """Seconds from starting a fresh process to its first op being ready to run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("setup probe timed out")
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"setup probe failed: {err.strip()[-2000:]}")
        if i:
            times.append(t1 - t0)
    return times


def verify_trace(plain, traced, per_op) -> list:
    """Differences tracing made: op outcomes, outputs and counts, op by op."""
    problems = []
    for a, b in zip(plain, traced):
        if (a.ok, a.causes, a.check_failed, a.output) != (b.ok, b.causes, b.check_failed,
                                                          b.output):
            problems.append(f"op {a.index}: untraced {a.ok, a.causes, a.output} "
                            f"!= traced {b.ok, b.causes, b.output}")
        for name, value in b.output.get("counts", {}).items():
            if per_op[name][b.index] != value:
                problems.append(f"op {b.index}: {name} from spans {per_op[name][b.index]} "
                                f"!= from outputs {value}")
    return problems


def count_drift(workload, env, counts) -> list:
    """Exact counts that differ from the last traced run of the same program and benchmark.

    The saved counts are keyed on both digests, so a change to a workload's
    size in the benchmark starts a new baseline instead of being flagged.
    """
    path = os.path.join(RESULTS, f"counts-{workload}.json")
    key = {k: env[k] for k in ("source_sha256", "bench_sha256")}
    drift = []
    if os.path.isfile(path):
        with open(path) as fh:
            last = json.load(fh)
        if last.get("key") == key:
            drift = [name for name, value in counts.items() if last["counts"].get(name) != value]
    with open(path, "w") as fh:
        json.dump({"key": key, "counts": counts}, fh, sort_keys=True, indent=1)
    return drift


def _fmt(value, unit=""):
    if value is None:
        return "absent"
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{text} {unit}".rstrip()


def print_end_to_end(title, summary, setup=None, peak_rss_mb=None):
    print(title)
    rows = []
    if setup is not None:
        rows.append(("setup_s", _fmt(statistics.median(setup), "s"),
                     f"median of {len(setup)} fresh processes"))
    tail = ("" if summary["op_tail_s"] is None else
            f"p{summary['op_tail_percentile']:g} of {summary['op_samples']} ops")
    rows += [
        ("op_p50_s", _fmt(summary["op_p50_s"], "s"),
         f"median of {summary['op_samples']} successful ops"),
        ("op_tail_s", _fmt(summary["op_tail_s"], "s"),
         tail or f"needs >= 20 successful ops, have {summary['op_samples']}"),
        ("ops_per_s", _fmt(summary["ops_per_s"], "1/s"),
         f"over {summary['wall_s']:.3f} s"),
        ("fail_share", _fmt(summary["fail_share"]),
         f"{summary['failed']} of {summary['attempted']} ops; causes "
         + (", ".join(f"{c} x{n}" for c, n in summary["fail_causes"].items()) or "none")),
    ]
    if peak_rss_mb is not None:
        rows.append(("peak_rss_mb", _fmt(peak_rss_mb, "MB"), "whole process"))
    rows.append(("l2_error", _fmt(summary["l2_error"]), "median over successful ops"))
    for name, value, note in rows:
        print(f"  {name:<32} {value:<20} {note}")


def run_workload(args) -> dict:
    load_program()
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    import stats
    import tracing
    import workloads

    env = environment(args.seed)
    w = workloads.make(args.workload, os.path.join(RESULTS, "tmp"))
    plain, wall, tracebacks = stats.closed_loop(w, args.seed, args.seconds)
    plain_summary = stats.summarize(plain, wall)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_s_samples": setup, "untraced": plain_summary,
              "tracebacks": tracebacks}
    correct = plain_summary["check_failed"] == 0
    head = f"{args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}"

    if args.trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced, t_wall, t_tracebacks = stats.closed_loop(
                w, args.seed, args.seconds, scope=tracer.scope, span=tracer.span)
        finally:
            uninstall()
        traced_summary = stats.summarize(traced, t_wall)
        layers, per_op, unstable = tracing.layer_metrics(tracer.spans)
        exact = {m.name: layers[m.name] for m in tracing.LAYER_METRICS if m.exact}
        problems = verify_trace(plain, traced, per_op)
        drift = count_drift(args.workload, env, exact)
        overhead = (None if None in (traced_summary["op_p50_s"], plain_summary["op_p50_s"])
                    else traced_summary["op_p50_s"] - plain_summary["op_p50_s"])
        correct = (correct and traced_summary["check_failed"] == 0
                   and not problems and not unstable and not drift)
        report.update(traced=traced_summary, per_layer=layers, trace_overhead_s=overhead,
                      trace_mismatches=problems, unstable_counts=unstable,
                      count_drift=drift, traced_tracebacks=t_tracebacks)
        spans_path = os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}-trace1-spans.jsonl")
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        summary, metrics = traced_summary, {
            m.name: {"value": layers[m.name], "unit": m.unit} for m in tracing.LAYER_METRICS}
    else:
        summary = plain_summary
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["peak_rss_mb"] = peak_rss_mb
    report["correct"] = correct
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print_end_to_end(head + "  (untraced)", plain_summary, setup, peak_rss_mb)
    if args.trace:
        print_end_to_end(head + "  (traced)", traced_summary)
        print("per layer (traced; median over attempted ops of each op's value)")
        for m in tracing.LAYER_METRICS:
            note = m.moves + ("; exact count" if m.exact else "") + (
                "; computed" if m.computed else "")
            print(f"  {m.name:<32} {_fmt(layers[m.name], m.unit):<20} -> {note}")
        print(f"  {'trace_overhead_s':<32} {_fmt(overhead, 's'):<20} "
              "traced op_p50_s minus untraced op_p50_s")
        for label, items in (("tracing changed", problems),
                             ("count differs between ops", unstable),
                             ("count differs from last run", drift)):
            for item in items:
                print(f"  FLAG {label}: {item}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"report: {os.path.relpath(path, ROOT)}")
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return {"workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_threads()
    try:
        if args.setup_probe:
            load_program()
            return setup_probe(args)
        if args.workload == "all":
            result = run_all(args)
        else:
            os.makedirs(RESULTS, exist_ok=True)
            result = run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
