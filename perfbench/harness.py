"""Set-up timing, timed phases, metric computation and output for
``perfbench/run.py``, which only puts the program on ``sys.path``.

Metric names and units are read from ``BENCHMARK.json``; a run whose
computed metrics differ from the names listed there fails."""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from perfbench.layers import ENTRY_POINTS, per_layer_metrics
from perfbench.spans import Tracer
from perfbench.stopwatch import REFERENCE_S, Calibrator, Stopwatch, nearest_rank
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 5


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric in one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return {metric["name"]: metric["unit"]
                for metric in json.load(spec)[section]}


def as_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, extra "
            f"{sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(base, calibrator: Calibrator, tracer=None):
    """Fresh set-up of ``base``'s generated inputs, one timed phase,
    drain and oracle.  Returns (instance, result, slowdown, problems),
    ``slowdown`` being the timed phase's raw over calibrated seconds.
    A failed op is a problem like an oracle mismatch."""
    instance = copy.copy(base)
    instance.setup()
    gc.collect()
    watch = Stopwatch(calibrator)
    if tracer is None:
        result = instance.run(watch)
    else:
        tracer.install(ENTRY_POINTS)
        try:
            result = instance.run(watch, tracer)
        finally:
            tracer.restore()
    instance.finish()
    problems = instance.check()
    if instance.failed():
        problems.append(f"{instance.failed()} of {instance.attempted()} "
                        "ops failed")
    return instance, result, watch.wall / result.seconds, problems


def timed_setup(base, calibrator: Calibrator) -> float:
    """One fresh set-up, in calibrated seconds (a calibration slice on
    each side gives the speed the set-up ran at)."""
    instance = copy.copy(base)
    gc.collect()
    before = calibrator.slice()
    started = time.perf_counter()
    instance.setup()
    raw = time.perf_counter() - started
    slowdown = (before + calibrator.slice()) / 2 / REFERENCE_S
    return raw / slowdown


def end_to_end(base, calibrator: Calibrator) -> dict:
    setups = [timed_setup(base, calibrator) for _ in range(SETUP_REPEATS)]
    instance, result, slowdown, problems = measure(base, calibrator)
    attempted, failed = instance.attempted(), instance.failed()
    op_latency, visible_latency = result.op_latency, result.visible_latency
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result.ops / result.seconds,
        "op_p50_us": op_latency.percentile(50) * 1e6,
        "op_p99_us": op_latency.percentile(99) * 1e6,
        "visible_p50_ms": visible_latency.percentile(50) * 1e3,
        "visible_p95_ms": visible_latency.percentile(95) * 1e3,
        "sim_p50_ms": nearest_rank(result.sim_latency_s, 50) * 1e3,
        "sim_p99_ms": nearest_rank(result.sim_latency_s, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"# {base.name}: {result.ops} ops in {result.seconds:.2f} "
          f"calibrated s; host slowdown {slowdown:.3f}; samples: op "
          f"{len(op_latency)}, visible {len(visible_latency)}, sim "
          f"{len(result.sim_latency_s)}")
    units = metric_units("end_to_end")
    rows = dict(metrics, error_rate=failed / max(attempted, 1))
    for name, value in rows.items():
        print(f"{base.name:16s} {name:16s} {value:14.4f} "
              f"{units.get(name, 'fraction')}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems,
            "metrics": as_metrics(metrics, units)}


def traced(base, calibrator: Calibrator) -> dict:
    plain, plain_result, _, plain_problems = measure(base, calibrator)
    attempted, failed = plain.attempted(), plain.failed()
    del plain
    gc.collect()
    tracer = Tracer()
    instance, result, slowdown, problems = measure(base, calibrator, tracer)
    attempted += instance.attempted()
    failed += instance.failed()
    tracer.add("user_bytes", result.user_bytes)
    # self times are wall seconds: calibrate them like the phase itself
    tracer.self_s = [value / slowdown for value in tracer.self_s]
    untraced_rate = plain_result.ops / plain_result.seconds
    traced_rate = result.ops / result.seconds
    values = {
        "trace.overhead_ratio": untraced_rate / traced_rate - 1.0,
        "trace.unattributed_share": max(
            0.0, 1.0 - tracer.total_self_seconds() / result.seconds),
    }
    units = metric_units("per_layer")
    values.update(per_layer_metrics(
        tracer, result.ops, [name for name in units if name not in values]))
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"{base.name}.spans.tsv")
    rows = tracer.write_spans(span_file)
    print(f"# {base.name}: traced {result.ops} ops at {traced_rate:.1f} "
          f"ops/s vs untraced {untraced_rate:.1f} ops/s (calibrated); "
          f"{rows} spans in {os.path.relpath(span_file, ROOT)}")
    packages: dict[str, float] = {}
    for name, seconds_self in zip(tracer.names, tracer.self_s):
        package = name.split(".")[0]
        packages[package] = packages.get(package, 0.0) + seconds_self
    for package, seconds_self in sorted(packages.items(),
                                        key=lambda item: -item[1]):
        print(f"# self time {package:12s} "
              f"{100 * seconds_self / result.seconds:5.1f}%")
    for name, value in values.items():
        print(f"{base.name:16s} {name:52s} {value:14.4f} {units[name]}")
    return {"correct": not (problems or plain_problems),
            "attempted": attempted, "failed": failed,
            "problems": plain_problems + problems,
            "metrics": as_metrics(values, units)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="The repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that each peak_rss_mb is its own
        status = 0
        for name in WORKLOADS:
            sys.stdout.flush()
            child = subprocess.run([
                sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)])
            status = max(status, child.returncode)
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    name = args.workload
    base = WORKLOADS[name]()
    started = time.perf_counter()
    base.generate(args.seed, args.seconds)
    print(f"# {name}: inputs for seed {args.seed} generated in "
          f"{time.perf_counter() - started:.2f} s")
    calibrator = Calibrator()
    if args.trace:
        outcome = traced(base, calibrator)
    else:
        outcome = end_to_end(base, calibrator)
    for problem in outcome.pop("problems"):
        print(f"# PROBLEM {name}: {problem}")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1

