"""Closed-form transport oracles at sizes the enumeration oracle never reaches.

- On one geodesic the distance is a difference of coordinates, and the
  cost |x − y|² is strictly convex, so the monotone coupling (the
  north-west corner on sorted coordinates) is the unique optimal plan
  (Santambrogio, *Optimal Transport for Applied Mathematicians*, 2015,
  ch. 2). Plans between two Radon slices on a flag geodesic must equal it,
  coupling for coupling. The 100×100 stall instance, on which Bland's
  rule runs past its pivot limit, is one such plan; its variant with one
  atom off the geodesic is checked against networkx's min-cost flow.
- For μ and its projection p#μ onto a geodesic γ, the path from an atom y
  to any point z of γ passes through p(y), so
  d(y, z)² ≥ d(y, p(y))² + d(p(y), z)². Hence the map y ↦ p(y) is the
  unique optimal plan, at cost Σ m·d(y, γ)², and
  W2²(μ, ν) ≥ W2²(μ, p#μ) + W2²(p#μ, ν) for every ν on γ.
- From a Dirac at x the only coupling is the trivial one, at cost
  ``second_moment(·, x)``.

The one-geodesic property draws 16 to 24 atoms per measure in tier-1 and
up to 40 under ``TREERADON_SOLVER_PROFILE=solver-deep``.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from common import leafless_tree, monotone_coupling, random_masses
from conftest import DEEP, profile_settings
from treeradon import (
    SuiteConfig,
    TreePoint,
    dirac,
    enumerate_flags,
    gen_point,
    gen_tree,
    geodesic_through_flag,
    make_measure,
    optimal_plan,
    pushforward_projection,
    second_moment,
)
from treeradon import transport

pytestmark = pytest.mark.deep

ATOMS = st.integers(16, 40 if DEEP else 24)


def test_monotone_coupling_by_hand():
    xs = [(F(0), F(1, 2)), (F(3), F(1, 2))]
    ys = [(F(1), F(1, 4)), (F(2), F(3, 4))]
    assert monotone_coupling(xs, ys) == [
        (F(0), F(1), F(1, 4)), (F(0), F(2), F(1, 4)), (F(3), F(2), F(1, 2))]


def _complete_tree(seed, rng):
    return gen_tree(SuiteConfig(seed=seed, max_vertices=12, max_denominator=6),
                    "complete", rng)


@given(st.integers(0, 2**32 - 1), ATOMS, ATOMS, st.booleans())
@profile_settings(12)
def test_plan_on_one_geodesic_is_the_monotone_coupling(seed, n, m, equal):
    """Each measure has ``n`` (``m``) atoms at distinct coordinates of a
    flag geodesic and up to four off it, projected onto it and placed back
    on the tree; masses are equal (many degenerate pivots) or random."""
    rng = random.Random(seed)
    tree = _complete_tree(seed, rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))

    def slice_of(count):
        coordinates = set()
        while len(coordinates) < count:
            coordinates.add(F(rng.randint(-60, 60), rng.randint(1, 4)))
        points = [geodesic.point_at(c) for c in sorted(coordinates)]
        points += [gen_point(tree, rng, 6) for _ in range(rng.randint(0, 4))]
        masses = [F(1, len(points))] * len(points) if equal else random_masses(rng, len(points))
        mu = make_measure(tree, zip(points, masses))
        return pushforward_projection(tree, geodesic, mu)

    mu_slice, nu_slice = slice_of(n), slice_of(m)
    plan = optimal_plan(tree, mu_slice.to_measure(tree), nu_slice.to_measure(tree))
    expected = monotone_coupling(mu_slice.atoms, nu_slice.atoms)
    assert {(p, q): mass for p, q, mass in plan.couplings} == {
        (geodesic.point_at(x), geodesic.point_at(y)): mass for x, y, mass in expected}
    assert len(plan.couplings) == len(expected)
    assert plan.squared_cost == sum((mass * (x - y) ** 2 for x, y, mass in expected), F(0))


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.booleans())
@profile_settings(20)
def test_plan_to_a_projection_is_the_projection_map(seed, count, equal):
    rng = random.Random(seed)
    tree = _complete_tree(seed, rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
    points = list(dict.fromkeys(gen_point(tree, rng, 6) for _ in range(count)))
    masses = [F(1, len(points))] * len(points) if equal else random_masses(rng, len(points))
    mu = make_measure(tree, zip(points, masses))
    projected = pushforward_projection(tree, geodesic, mu).to_measure(tree)
    plan = optimal_plan(tree, mu, projected)
    expected = sum((mass * tree.distance(y, geodesic.project(y)) ** 2 for y, mass in mu.atoms),
                   F(0))
    assert plan.squared_cost == expected
    assert {(p, q): mass for p, q, mass in plan.couplings} == {
        (y, geodesic.project(y)): mass for y, mass in mu.atoms}


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
@profile_settings(20)
def test_projection_is_the_nearest_measure_on_the_geodesic(seed, count, on):
    rng = random.Random(seed)
    tree = _complete_tree(seed, rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
    points = list(dict.fromkeys(gen_point(tree, rng, 6) for _ in range(count)))
    mu = make_measure(tree, zip(points, random_masses(rng, len(points))))
    projected = pushforward_projection(tree, geodesic, mu).to_measure(tree)
    spots = {F(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(on)}
    nu = make_measure(tree, zip((geodesic.point_at(c) for c in spots),
                                random_masses(rng, len(spots))))

    def w2(a, b):
        return optimal_plan(tree, a, b).squared_cost

    assert w2(mu, nu) >= w2(mu, projected) + w2(projected, nu)


@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.sampled_from(["finite", "complete"]))
@profile_settings(20)
def test_plan_from_a_dirac_costs_the_second_moment(seed, count, mode):
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=12, max_denominator=6), mode, rng)
    x = gen_point(tree, rng, 6)
    points = list(dict.fromkeys(gen_point(tree, rng, 6) for _ in range(count)))
    nu = make_measure(tree, zip(points, random_masses(rng, len(points))))
    moment = second_moment(tree, nu, x)
    assert optimal_plan(tree, dirac(tree, x), nu).squared_cost == moment
    assert optimal_plan(tree, nu, dirac(tree, x)).squared_cost == moment


def _stall_instance(move_one):
    """100 atoms of mass 1/100 per measure, at distinct coordinates p/q
    (|p| ≤ 600, q ≤ 4) of one flag geodesic of a 256-vertex leafless tree.
    Bland's rule stops at its limit of 1,001,000 pivots on it with
    ``SolverError``; the first solve takes 646 and proves the optimum
    unique. ``move_one`` moves one source atom to a vertex off the
    geodesic. Returns the tree, the geodesic, both coordinate lists and
    the two measures."""
    rng = random.Random(1)
    tree = leafless_tree(rng, 256)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))

    def coordinates():
        found = set()
        while len(found) < 100:
            found.add(F(rng.randint(-600, 600), rng.randint(1, 4)))
        return sorted(found)

    xs, ys = coordinates(), coordinates()
    sources = [geodesic.point_at(x) for x in xs]
    if move_one:
        sources[rng.randrange(100)] = next(
            p for p in map(TreePoint, tree.vertices) if not geodesic.contains(p))
    mu = make_measure(tree, ((p, F(1, 100)) for p in sources))
    nu = make_measure(tree, ((geodesic.point_at(y), F(1, 100)) for y in ys))
    return tree, geodesic, xs, ys, mu, nu


def _no_bland(*args):
    raise AssertionError("the first solve did not prove the optimum unique")


def test_the_stall_instance_is_the_monotone_coupling(monkeypatch):
    tree, geodesic, xs, ys, mu, nu = _stall_instance(move_one=False)
    monkeypatch.setattr(transport, "_bland_simplex", _no_bland)
    plan = optimal_plan(tree, mu, nu)
    expected = monotone_coupling([(x, F(1, 100)) for x in xs], [(y, F(1, 100)) for y in ys])
    assert {(p, q): mass for p, q, mass in plan.couplings} == {
        (geodesic.point_at(x), geodesic.point_at(y)): mass for x, y, mass in expected}
    assert len(plan.couplings) == len(expected)


def test_the_stall_instance_with_one_atom_off_the_geodesic_costs_the_least(monkeypatch):
    # off the geodesic there is no closed form; the cost is checked against
    # networkx's min-cost flow on squared distances from tree.distance
    nx = pytest.importorskip("networkx")
    tree, _, _, _, mu, nu = _stall_instance(move_one=True)
    monkeypatch.setattr(transport, "_bland_simplex", _no_bland)
    plan = optimal_plan(tree, mu, nu)
    squares = [[tree.distance(p, q) ** 2 for q, _ in nu.atoms] for p, _ in mu.atoms]
    scale = math.lcm(*(c.denominator for row in squares for c in row))
    graph = nx.DiGraph()
    graph.add_nodes_from((("s", i) for i in range(100)), demand=-1)
    graph.add_nodes_from((("t", j) for j in range(100)), demand=1)
    graph.add_weighted_edges_from((("s", i), ("t", j), int(c * scale))
                                  for i, row in enumerate(squares) for j, c in enumerate(row))
    flow_cost, _ = nx.network_simplex(graph)
    assert plan.squared_cost * 100 * scale == flow_cost
