"""treeradon benchmark: closed loop, one client, one process, no threads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload recon --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25   # each workload in a fresh interpreter

A run sets up its workload ``SETUP_REPEATS`` times (imports included) and
reports the median as ``setup_s``. It then runs a fixed number of jobs
back to back: the workload's ``JOBS_PER_S`` times ``--seconds``, and at
least ``MIN_JOBS``, so that every run at one seed and one ``--seconds``
covers the same jobs however fast the machine is. Job ``j``'s inputs
depend only on ``(seed, j)``. Only the job itself is timed; making its
inputs and checking its outputs exactly happen outside the timed region.
A job that raises or fails a check counts as failed and the run goes on.
Times are reported in reference seconds (see ``speed.py``); the unscaled
wall-time p50 and p90 are printed in the table.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half as
many jobs, each twice, untraced and traced in alternating order, so that
it lasts about as long as an untraced run, and prints the per-layer
metrics: for every span, its calls and its median self time per job and
its share of traced job time, plus exact counts and the tracing overhead.
The spans are written to ``.bench_work/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Before it come a
readable table and ``outputs_sha256``, a digest of the exact values of the
first ``COUNT_JOBS`` jobs. At ``DEFAULT_SEED`` the digest must equal the
one recorded in ``EXPECTED_SHA256``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer, untraced_inner_span
from speed import SpeedMeter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

WORKLOAD_NAMES = ("recon", "transport", "large-tree", "cli-verify")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# Jobs a run holds per second of --seconds: about the rate at which the
# loop, making and checking included, runs at the reference speed.
JOBS_PER_S = {"recon": 4.0, "transport": 5.0, "large-tree": 4.0, "cli-verify": 12.0}
# At least 10 samples beyond the p90.
MIN_JOBS = 100
# Exact counts and outputs_sha256 cover the first COUNT_JOBS jobs, which
# every run completes, so they repeat exactly for a given seed.
COUNT_JOBS = 16
EXPECTED_SHA256 = {
    "recon": "12bedb5a70bd6d13fc0b02d8ad45c94d2aff9bfeda437154b0092be2e8e78335",
    "transport": "2b39a20795c58b05572a3658dfeda483fbde89fc5767ba0454d054ae34efbd90",
    "large-tree": "e48315e6daf441d0bbce5d1e4b1e3842f27c1198da6a8db789cd7dff3c26c158",
    "cli-verify": "de824b6cd76e4063cf3c866b9e9819a070beec7d01183dc0cf92e480cc0b7207",
}
# Re-imported on every set-up repetition, so that setup_s includes imports.
RELOADED = ("treeradon", "gen", "workloads")
# Summed over the first COUNT_JOBS jobs, except those taken as a maximum.
COUNT_METRICS = ("radon.oracle_queries", "tree.distinct_sources", "transport.couplings",
                 "out.max_den_bits")
MAX_COUNTS = ("out.max_den_bits",)


def set_up(name, seed, work_dir):
    """Import the library and build the workload's shared state.

    Returns the wall-time interval it took, the workloads module and the state.
    """
    started = perf_counter()
    for module in list(sys.modules):
        if module.split(".")[0] in RELOADED:
            del sys.modules[module]
    workloads = importlib.import_module("workloads")
    state = workloads.WORKLOADS[name].setup(seed, work_dir)
    return (started, perf_counter()), workloads, state


def make_calls(layers, tracer=None):
    if tracer is None:
        table = {attr: fn for attr, (_, fn) in layers.items()}
        table["inner_span"] = untraced_inner_span
    else:
        table = {attr: tracer.wrap(span, fn) for attr, (span, fn) in layers.items()}
        table["inner_span"] = tracer.inner_span
    return SimpleNamespace(**table)


def execute(workload, run, calls, job):
    """Run one job; only the call itself is timed.

    Returns the timed wall-time interval, the output and the failures.
    """
    started = perf_counter()
    try:
        out = run(calls, job)
    except Exception as exc:
        return (started, perf_counter()), None, [f"raised {exc!r}"]
    interval = (started, perf_counter())
    try:
        failures = workload.check(job, out)
    except Exception as exc:
        failures = [f"check raised {exc!r}"]
    return interval, out, failures


def job_count(name, seconds, traced):
    jobs = max(MIN_JOBS, round(JOBS_PER_S[name] * seconds))
    return jobs // 2 if traced else jobs


def measure(workload, layers, state, jobs, traced):
    """The job loop: jobs ``0 .. jobs - 1``.

    Returns the timed intervals of every job, untraced (``plain``) and
    traced, the failures, the digest and the exact counts.
    """
    tracer = Tracer() if traced else None
    variants = [("plain", workload.run, make_calls(layers))]
    if traced:
        variants.append(("traced", tracer.wrap("bench.job", workload.run),
                         make_calls(layers, tracer)))
    intervals = {kind: [] for kind, _, _ in variants}
    attempted = correct = 0
    failures_seen: list[str] = []
    digest = hashlib.sha256()
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for j in range(jobs):
        job = workload.make_job(state, j)
        order = variants if j % 2 == 0 else variants[::-1]
        outputs = {}
        for kind, run, calls in order:
            if tracer is not None:
                tracer.job = j
            interval, out, failures = execute(workload, run, calls, job)
            intervals[kind].append(interval)
            outputs[kind] = out
            attempted += 1
            if failures:
                failures_seen.extend(f"job {j} ({kind}): {f}" for f in failures)
            else:
                correct += 1
        if j < COUNT_JOBS:
            reference = outputs["plain"]
            values = None if reference is None else workload.exact_values(reference)
            digest.update(json.dumps(values).encode())
            if traced and outputs["traced"] is not None and reference is not None:
                if workload.exact_values(outputs["traced"]) != values:
                    failures_seen.append(f"job {j}: traced and untraced outputs differ")
                    correct -= 1
            counted = outputs["traced" if traced else "plain"]
            if counted is not None:
                for key, value in workload.counts(job, counted).items():
                    counts[key] = (max(counts[key], value) if key in MAX_COUNTS
                                   else counts[key] + value)
    return {"intervals": intervals, "attempted": attempted, "correct": correct,
            "failures": failures_seen, "digest": digest.hexdigest(), "counts": counts,
            "tracer": tracer}


def span_counts(raw, span_names):
    """Exact counts over the first COUNT_JOBS jobs: calls per span, oracle queries."""
    tracer = raw["tracer"]
    counts = {f"{name}.calls": 0 for name in span_names}
    counts["radon.oracle_queries"] = 0
    for name, _, _, parent, job in tracer.spans:
        if job < COUNT_JOBS:
            counts[f"{name}.calls"] += 1
            if (name == "measures.pushforward_projection" and parent is not None
                    and tracer.spans[parent][0] == "radon.reconstruct_measure"):
                counts["radon.oracle_queries"] += 1
    return counts


def end_to_end_metrics(raw, times, setup_times):
    times = times["plain"]
    return {
        "jobs_per_s": (raw["correct"] / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10)[-1], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (raw["correct"] / raw["attempted"], "ratio"),
    }


def per_layer_metrics(raw, times, span_names):
    """Per-span self time and share, exact counts, and the tracing overhead.

    A span's self time is scaled by the factor of the traced job it ran in.
    """
    scale = [t / (b - a) for t, (a, b) in zip(times["traced"], raw["intervals"]["traced"])]
    self_by_job = [dict.fromkeys(span_names, 0.0) for _ in scale]
    total_self = dict.fromkeys(span_names, 0.0)
    for (name, _, _, _, job), self_s in raw["tracer"].self_times():
        self_s *= scale[job]
        self_by_job[job][name] += self_s
        total_self[name] += self_s
    counts = dict(raw["counts"], **span_counts(raw, span_names))
    traced_time = sum(times["traced"])
    metrics = {}
    for name in span_names:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(t[name] for t in self_by_job), "s")
        metrics[f"{name}.share"] = (total_self[name] / traced_time, "ratio")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], "count")
    traced_p50 = statistics.median(times["traced"])
    metrics["trace.job_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - statistics.median(times["plain"]), "s")
    return metrics


def run_workload(name, seed, seconds, traced) -> int:
    work_dir = os.path.join(WORK_DIR, name)
    os.makedirs(work_dir, exist_ok=True)
    with SpeedMeter() as meter:
        setup_intervals = []
        for _ in range(SETUP_REPEATS):
            interval, workloads, state = set_up(name, seed, work_dir)
            setup_intervals.append(interval)
        workload = workloads.WORKLOADS[name]
        raw = measure(workload, workloads.LAYERS, state, job_count(name, seconds, traced),
                      traced)
    setup_times = [meter.scaled(*interval) for interval in setup_intervals]
    times = {kind: [meter.scaled(*interval) for interval in intervals]
             for kind, intervals in raw["intervals"].items()}

    failed = raw["attempted"] - raw["correct"]
    ok = failed == 0
    expected = EXPECTED_SHA256.get(name) if seed == DEFAULT_SEED else None
    if expected is not None and raw["digest"] != expected:
        raw["failures"].append(f"outputs_sha256 {raw['digest']} != recorded {expected}")
        ok = False
    for message in raw["failures"][:10]:
        print(f"FAILED {message}", file=sys.stderr)

    if traced:
        span_names = (["bench.job"] + [span for span, _ in workloads.LAYERS.values()]
                      + list(workloads.INNER_SPANS))
        metrics = per_layer_metrics(raw, times, span_names)
        raw["tracer"].write(os.path.join(WORK_DIR, f"trace-{name}.json"))
    else:
        metrics = end_to_end_metrics(raw, times, setup_times)

    wall = [b - a for a, b in raw["intervals"]["plain"]]
    print(f"workload {name}  seed {seed}  trace {int(traced)}  jobs {len(wall)}  "
          f"attempted {raw['attempted']}  failed {failed}  "
          f"error_rate {failed / raw['attempted']:.6g}")
    print(f"  unscaled wall time: job p50 {statistics.median(wall):.6g} s, "
          f"p90 {statistics.quantiles(wall, n=10)[-1]:.6g} s; "
          f"{len(meter.durations)} speed probes, median {statistics.median(meter.durations):.4g} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:45s} {value:>14.6g} {unit}")
    print(f"outputs_sha256 {raw['digest']}")
    print(json.dumps({
        "correct": ok,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the run's job count; see JOBS_PER_S")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treeradon", "__init__.py")):
        print(f"error: no treeradon sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
