"""The four benchmark workloads: inputs, the timed job, and exact checks.

Each workload is a :class:`Workload` of these functions:

- ``setup(seed, work_dir)`` builds what every job shares (the large-tree
  file pool); it is timed as part of ``setup_s``;
- ``make_job(state, j)`` derives job ``j``'s inputs from ``(seed, j)``
  alone, outside the timed region, so a run's first jobs are the same
  whatever its length;
- ``run(calls, job)`` is the timed job. Every library call it makes goes
  through ``calls`` (see :data:`LAYERS`), which the runner fills with the
  raw functions, or with span-recording wrappers in a traced run;
- ``check(job, out)`` verifies the outputs exactly, outside the timed
  region, and returns the failures; ``exact_values(out)`` lists the values
  the mathematics makes unique, which feed ``outputs_sha256``;
- ``counts(job, out)`` gives the job's exact counts: the largest
  denominator bit length in its outputs, the distinct points it hands the
  library as query points, and for transport the couplings.

Every job builds or loads its own ``Tree``, so no distance cache carries
over from one job to the next.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from treeradon import (
    Geodesic,
    Measure,
    Tree,
    build_tree,
    check_cat0_triangle,
    double_count_check,
    geodesic_through_flag,
    interpolate,
    is_cyclically_monotone,
    make_measure,
    midpoint,
    optimal_plan,
    pushforward_projection,
    radon_forward,
    radon_invert,
    reconstruct_measure,
    vertex_function,
)
from treeradon import cli
from treeradon import io as tio
from treeradon.measures import RadonSample

import gen

# Attribute name on ``calls`` -> (span name, library function). The span
# names are the per-layer metric prefixes; ``optimal_plan_slice`` is the
# same function as ``optimal_plan``, kept apart because a 1-D fast path
# would move only the slice plan.
LAYERS: dict[str, tuple[str, Callable]] = {
    "build_tree": ("tree.build_tree", build_tree),
    "load_tree": ("io.load_tree", tio.load_tree),
    "distance": ("tree.distance", Tree.distance),
    "midpoint": ("geodesics.midpoint", midpoint),
    "check_cat0_triangle": ("geodesics.check_cat0_triangle", check_cat0_triangle),
    "project": ("geodesics.Geodesic.project", Geodesic.project),
    "geodesic_through_flag": ("geodesics.geodesic_through_flag", geodesic_through_flag),
    "pushforward_projection": ("measures.pushforward_projection", pushforward_projection),
    "to_measure": ("measures.RadonSample.to_measure", RadonSample.to_measure),
    "radon_forward": ("radon.radon_forward", radon_forward),
    "radon_invert": ("radon.radon_invert", radon_invert),
    "double_count_check": ("radon.double_count_check", double_count_check),
    "reconstruct_measure": ("radon.reconstruct_measure", reconstruct_measure),
    "optimal_plan": ("transport.optimal_plan", optimal_plan),
    "optimal_plan_slice": ("transport.optimal_plan_slice", optimal_plan),
    "interpolate": ("transport.interpolate", interpolate),
    "cli_main": ("cli.main", cli.main),
}

# Spans the benchmark cannot wrap itself: the suite time inside ``cli.main``
# is read from the CLI's stderr duration line.
INNER_SPANS = ("verify.run_suite",)

HALF = Fraction(1, 2)


def _rng(seed: int, workload: str, j: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{j}")


def _point_key(point):
    if point.is_vertex:
        return ("v", str(point.vertex))
    return ("e", point.edge, str(point.offset))


def _measure_values(measure: Measure) -> list:
    return [(_point_key(p), str(m)) for p, m in measure.atoms]


def _measure_rationals(measure: Measure):
    for point, mass in measure.atoms:
        yield mass
        if point.offset is not None:
            yield point.offset


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    make_job: Callable
    run: Callable
    check: Callable
    exact_values: Callable
    counts: Callable


# ---------------------------------------------------------------------- #
# recon: reconstruct_measure through the projection oracle                  #
# ---------------------------------------------------------------------- #

RECON_VERTICES = 40
RECON_ATOMS = 6


def recon_setup(seed, work_dir, vertices=RECON_VERTICES):
    return {"seed": seed, "vertices": vertices}


def recon_make_job(state, j):
    rng = _rng(state["seed"], "recon", j)
    description = gen.leafless_tree_description(rng, state["vertices"])
    tree = build_tree(description)
    hidden = make_measure(tree, gen.measure_atoms(tree, rng, RECON_ATOMS))
    return {"description": description, "hidden": hidden}


def recon_run(calls, job):
    tree = calls.build_tree(job["description"])
    hidden = job["hidden"]

    def oracle(geodesic):
        return calls.pushforward_projection(tree, geodesic, hidden)

    return calls.reconstruct_measure(tree, oracle)


def recon_check(job, result):
    if result.measure != job["hidden"]:
        return ["recovered measure differs from the hidden one"]
    return []


RECON = Workload(
    name="recon",
    setup=recon_setup,
    make_job=recon_make_job,
    run=recon_run,
    check=recon_check,
    exact_values=lambda result: _measure_values(result.measure),
    counts=lambda job, result: {
        "out.max_den_bits": _den_bits(_measure_rationals(result.measure)),
        "tree.distinct_sources": len(job["hidden"].atoms),
    },
)


# ---------------------------------------------------------------------- #
# transport: general plan, interpolation, and a Radon-slice plan             #
# ---------------------------------------------------------------------- #

TRANSPORT_VERTICES = 64
TRANSPORT_ATOMS = 16


def transport_setup(seed, work_dir, vertices=TRANSPORT_VERTICES, atoms=TRANSPORT_ATOMS):
    return {"seed": seed, "vertices": vertices, "atoms": atoms}


def transport_make_job(state, j):
    rng = _rng(state["seed"], "transport", j)
    description = gen.leafless_tree_description(rng, state["vertices"])
    tree = build_tree(description)
    mu = make_measure(tree, gen.measure_atoms(tree, rng, state["atoms"]))
    nu = make_measure(tree, gen.measure_atoms(tree, rng, state["atoms"]))
    return {"description": description, "mu": mu, "nu": nu,
            "flag": gen.random_flag(tree, rng)}


def transport_run(calls, job):
    tree = calls.build_tree(job["description"])
    mu, nu = job["mu"], job["nu"]
    plan = calls.optimal_plan(tree, mu, nu)
    middle = calls.interpolate(tree, plan, HALF)
    geodesic = calls.geodesic_through_flag(tree, job["flag"])
    mu_slice = calls.to_measure(calls.pushforward_projection(tree, geodesic, mu), tree)
    nu_slice = calls.to_measure(calls.pushforward_projection(tree, geodesic, nu), tree)
    slice_plan = calls.optimal_plan_slice(tree, mu_slice, nu_slice)
    return {"tree": tree, "plan": plan, "middle": middle, "slice_plan": slice_plan}


def _plan_failures(tree, plan, label):
    failures = []
    cost = sum((mass * tree.distance(p, q) ** 2 for p, q, mass in plan.couplings), Fraction(0))
    if cost != plan.squared_cost:
        failures.append(f"{label}: recomputed cost {cost} != squared_cost {plan.squared_cost}")
    if is_cyclically_monotone(tree, plan) is not True:
        failures.append(f"{label}: a 2-cycle improves the plan")
    return failures


def transport_check(job, out):
    tree = out["tree"]
    failures = _plan_failures(tree, out["plan"], "plan")
    failures += _plan_failures(tree, out["slice_plan"], "slice plan")
    # Projection onto a geodesic is 1-Lipschitz, so slicing cannot increase W2.
    if out["slice_plan"].squared_cost > out["plan"].squared_cost:
        failures.append("slice W2^2 exceeds the W2^2 of the measures")
    if out["middle"].total_mass != 1:
        failures.append("interpolated measure does not have mass 1")
    return failures


def transport_counts(job, out):
    plans = (out["plan"], out["slice_plan"])
    rationals = [plan.squared_cost for plan in plans]
    rationals += [mass for plan in plans for _, _, mass in plan.couplings]
    rationals += _measure_rationals(out["middle"])
    return {
        "out.max_den_bits": _den_bits(rationals),
        "tree.distinct_sources": len({p for m in (job["mu"], job["nu"]) for p, _ in m.atoms}),
        "transport.couplings": sum(len(plan.couplings) for plan in plans),
    }


TRANSPORT = Workload(
    name="transport",
    setup=transport_setup,
    make_job=transport_make_job,
    run=transport_run,
    check=transport_check,
    # Couplings and interpolated measures are left out: an optimal plan
    # need not be unique, and another pivot rule may pick another one.
    exact_values=lambda out: [str(out["plan"].squared_cost),
                              str(out["slice_plan"].squared_cost)],
    counts=transport_counts,
)


# ---------------------------------------------------------------------- #
# large-tree: load, Radon round trip, double counting, point geometry        #
# ---------------------------------------------------------------------- #

LARGE_VERTICES = 800
LARGE_FILES = 4
LARGE_CHECK_VERTICES = 16
LARGE_TRIPLES = 8


def large_setup(seed, work_dir, vertices=LARGE_VERTICES):
    rng = random.Random(f"{seed}:large-tree:files")
    files = []
    for k in range(LARGE_FILES):
        tree = build_tree(gen.leafless_tree_description(rng, vertices))
        path = os.path.join(work_dir, f"tree-{k}.json")
        tio.save_tree(tree, path)
        files.append((path, tree))
    return {"seed": seed, "files": files}


def large_make_job(state, j):
    path, tree = state["files"][j % len(state["files"])]
    rng = _rng(state["seed"], "large-tree", j)
    h = vertex_function(tree, gen.vertex_values(tree, rng))
    triples = [
        (*gen.distinct_points(tree, rng, 3), Fraction(rng.randint(1, 11), 12))
        for _ in range(LARGE_TRIPLES)
    ]
    return {
        "path": path,
        "h": h,
        "total": h.total,
        "check_vertices": rng.sample(tree.vertices, LARGE_CHECK_VERTICES),
        "triples": triples,
        "flag": gen.random_flag(tree, rng),
    }


def large_run(calls, job):
    tree = calls.load_tree(job["path"])
    h = job["h"]
    table = calls.radon_forward(tree, h)
    inverted = calls.radon_invert(tree, table, job["total"])
    identities = [calls.double_count_check(tree, h, x, table) for x in job["check_vertices"]]
    geodesic = calls.geodesic_through_flag(tree, job["flag"])
    triples = []
    for x, y, z, t in job["triples"]:
        distances = (calls.distance(tree, x, y), calls.distance(tree, y, z),
                     calls.distance(tree, x, z))
        mid = calls.midpoint(tree, x, z)
        comparison = calls.check_cat0_triangle(tree, x, y, z, t)
        foot = calls.project(geodesic, y)
        triples.append((distances, mid, comparison, foot))
    return {"tree": tree, "inverted": inverted, "identities": identities,
            "geodesic": geodesic, "triples": triples}


def large_check(job, out):
    tree = out["tree"]
    failures = []
    if out["inverted"] != job["h"]:
        failures.append("radon_invert(radon_forward(h)) != h")
    failures += [f"double counting fails at {d.vertex!r}" for d in out["identities"]
                 if not d.holds]
    for (x, _, z, _), (distances, mid, comparison, foot) in zip(job["triples"], out["triples"]):
        half = distances[2] / 2
        if tree.distance(x, mid) != half or tree.distance(mid, z) != half:
            failures.append(f"midpoint of {x!r}, {z!r} is not at half the distance")
        if not comparison.holds:
            failures.append(f"comparison inequality fails at t={comparison.t}")
        if not out["geodesic"].contains(foot):
            failures.append("projection is off the geodesic")
    return failures


def large_exact_values(out):
    values = sorted((str(v), str(x)) for v, x in out["inverted"].values.items())
    values += [(str(d.lhs), str(d.rhs)) for d in out["identities"]]
    for distances, _, comparison, _ in out["triples"]:
        values.append(tuple(str(d) for d in distances))
        values.append((str(comparison.lhs), str(comparison.rhs)))
    return values


def large_counts(job, out):
    rationals = list(out["inverted"].values.values())
    rationals += [side for d in out["identities"] for side in (d.lhs, d.rhs)]
    for distances, _, comparison, _ in out["triples"]:
        rationals += [*distances, comparison.lhs, comparison.rhs]
    return {
        "out.max_den_bits": _den_bits(rationals),
        "tree.distinct_sources": len({p for x, y, z, _ in job["triples"] for p in (x, y, z)}),
    }


LARGE_TREE = Workload(
    name="large-tree",
    setup=large_setup,
    make_job=large_make_job,
    run=large_run,
    check=large_check,
    exact_values=large_exact_values,
    counts=large_counts,
)


# ---------------------------------------------------------------------- #
# cli-verify: the verify subcommand, in process                             #
# ---------------------------------------------------------------------- #

VERIFY_TRIALS = 2
_DURATION = re.compile(r"^suite \w+ in (\d+(?:\.\d+)?)s$", re.MULTILINE)


def cli_setup(seed, work_dir):
    return {"seed": seed, "out": os.path.join(work_dir, "verify-report.json")}


def cli_make_job(state, j):
    suite_seed = _rng(state["seed"], "cli-verify", j).randrange(10 ** 6)
    return {"argv": ["verify", "--seed", str(suite_seed), "--trials", str(VERIFY_TRIALS),
                     "--out", state["out"]],
            "out": state["out"]}


def cli_run(calls, job):
    stdout, stderr = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = calls.cli_main(job["argv"])
    match = _DURATION.search(stderr.getvalue())
    if match:
        calls.inner_span("verify.run_suite", float(match.group(1)))
    # Read back now: a traced run's other variant overwrites the same file.
    with open(job["out"], "rb") as handle:
        report = handle.read()
    return {"code": code, "stderr": stderr.getvalue(), "report": report}


def cli_check(job, out):
    failures = []
    if out["code"] != 0:
        failures.append(f"exit code {out['code']}: {out['stderr'].strip()}")
    if json.loads(out["report"]).get("ok") is not True:
        failures.append("verify report is not ok")
    if not _DURATION.search(out["stderr"]):
        failures.append("no duration line on stderr")
    return failures


CLI_VERIFY = Workload(
    name="cli-verify",
    setup=cli_setup,
    make_job=cli_make_job,
    run=cli_run,
    check=cli_check,
    exact_values=lambda out: [out["report"].decode()],
    counts=lambda job, out: {},
)


WORKLOADS = {w.name: w for w in (RECON, TRANSPORT, LARGE_TREE, CLI_VERIFY)}
