"""Self-checks of the benchmark, at smoke sizes.

Run with ``python3 -m pytest bench``.
"""

import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from treeradon import build_tree  # noqa: E402

SMOKE_SIZES = {
    "recon": {"vertices": 10},
    "transport": {"vertices": 12, "atoms": 4},
    "large-tree": {"vertices": 40},
    "cli-verify": {},
}


def _traced_run(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed, str(tmp_path), **SMOKE_SIZES[name])
    return run.measure(workload, workloads.LAYERS, state, jobs=run.COUNT_JOBS, traced=True)


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_smoke_run_has_no_failures(name, tmp_path):
    raw = _traced_run(name, 3, tmp_path)
    assert raw["failures"] == []
    assert raw["correct"] == raw["attempted"] == 2 * run.COUNT_JOBS


@pytest.mark.parametrize("name", sorted(SMOKE_SIZES))
def test_same_seed_repeats_counts_and_digest(name, tmp_path):
    first = _traced_run(name, 5, tmp_path)
    second = _traced_run(name, 5, tmp_path)
    assert first["digest"] == second["digest"]
    assert first["counts"] == second["counts"]
    span_names = (["bench.job"] + [span for span, _ in workloads.LAYERS.values()]
                  + list(workloads.INNER_SPANS))
    assert run.span_counts(first, span_names) == run.span_counts(second, span_names)


def test_cli_outputs_keep_their_own_report(tmp_path):
    workload = workloads.WORKLOADS["cli-verify"]
    state = workload.setup(5, str(tmp_path))
    calls = run.make_calls(workloads.LAYERS)
    first = workload.run(calls, workload.make_job(state, 0))
    second = workload.run(calls, workload.make_job(state, 1))
    assert workload.exact_values(first) != workload.exact_values(second)


def test_job_count_is_fixed_and_at_least_min_jobs():
    assert run.job_count("cli-verify", 1, traced=False) == run.MIN_JOBS
    assert run.job_count("cli-verify", 25, traced=False) == 300
    assert run.job_count("cli-verify", 25, traced=True) == 150


def test_other_seed_changes_digest(tmp_path):
    assert _traced_run("recon", 5, tmp_path)["digest"] != _traced_run("recon", 6, tmp_path)["digest"]


@pytest.mark.parametrize("vertices", [1, 2, 7, 300])
def test_leafless_tree_has_exact_size(vertices):
    tree = build_tree(gen.leafless_tree_description(random.Random(vertices), vertices))
    valencies = tree.valency_profile.values()
    assert len(tree.vertices) == vertices
    assert tree.geodesically_complete
    assert 3 <= min(valencies) and max(valencies) <= gen.MAX_VALENCY


def test_masses_are_exact_with_small_denominators():
    rng = random.Random(0)
    for count in (1, 6, 16, 30):
        masses = gen.masses(rng, count)
        assert len(masses) == count and sum(masses) == 1
        assert all(m > 0 and m.denominator <= gen.MAX_MASS_DEN for m in masses)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.job = 0
    outer()
    tracer.inner_span("reported", 0.0)
    self_times = {span[0]: s for span, s in tracer.self_times()}
    by_name = {span[0]: span for span in tracer.spans}
    outer_span = by_name["outer"]
    children = sum(span[2] - span[1] for span in tracer.spans if span[3] == 0)
    assert self_times["outer"] == pytest.approx(outer_span[2] - outer_span[1] - children)
    assert by_name["reported"][3] == 0
    assert all(span[4] == 0 for span in tracer.spans)


def test_speed_meter_scales_by_probe_time():
    meter = SpeedMeter()
    meter.starts = [0.0, 1.0, 2.0, 3.0]
    meter.durations = [2e-4, 2e-4, 1e-4, 1e-4]
    assert meter.scaled(0.5, 2.5) == pytest.approx(2.0 * 1e-4 / 1.5e-4)
    assert meter.scaled(3.1, 3.2) == pytest.approx(0.1)
    meter.durations = [1e-4, 1e-4, 5e-3, 1e-4]
    assert meter.scaled(0.5, 3.5) == pytest.approx(3.0)
