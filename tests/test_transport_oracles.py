"""Closed-form transport oracles at sizes the enumeration oracle never reaches.

- On one geodesic the distance is a difference of coordinates, and the
  cost |x − y|² is strictly convex, so the monotone coupling (the
  north-west corner on sorted coordinates) is the unique optimal plan
  (Santambrogio, *Optimal Transport for Applied Mathematicians*, 2015,
  ch. 2). Plans between two Radon slices on a flag geodesic must equal it,
  coupling for coupling.
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

import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

from conftest import DEEP, profile_settings
from treeradon import (
    SuiteConfig,
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

ATOMS = st.integers(16, 40 if DEEP else 24)


def monotone_coupling(xs, ys):
    """The north-west corner on sorted coordinates: ``xs`` and ``ys`` are
    ``(coordinate, mass)`` pairs in increasing coordinate order with equal
    total mass; returns ``[(x, y, mass), ...]``."""
    couplings = []
    i = j = 0
    left, right = xs[0][1], ys[0][1]
    while True:
        q = min(left, right)
        couplings.append((xs[i][0], ys[j][0], q))
        left -= q
        right -= q
        if left == 0:
            i += 1
            if i == len(xs):
                return couplings
            left = xs[i][1]
        if right == 0:
            j += 1
            right = ys[j][1]


def test_monotone_coupling_by_hand():
    xs = [(F(0), F(1, 2)), (F(3), F(1, 2))]
    ys = [(F(1), F(1, 4)), (F(2), F(3, 4))]
    assert monotone_coupling(xs, ys) == [
        (F(0), F(1), F(1, 4)), (F(0), F(2), F(1, 4)), (F(3), F(2), F(1, 2))]


def _masses(rng, count, equal):
    if equal:
        return [F(1, count)] * count
    weights = [rng.randint(1, 9) for _ in range(count)]
    return [F(w, sum(weights)) for w in weights]


def _leafless_tree(seed, rng):
    return gen_tree(SuiteConfig(seed=seed, max_vertices=12, max_denominator=6),
                    "complete", rng)


@given(st.integers(0, 2**32 - 1), ATOMS, ATOMS, st.booleans())
@profile_settings(12)
def test_plan_on_one_geodesic_is_the_monotone_coupling(seed, n, m, equal):
    """Each measure has ``n`` (``m``) atoms at distinct coordinates of a
    flag geodesic and up to four off it, projected onto it and placed back
    on the tree; masses are equal (many degenerate pivots) or random."""
    rng = random.Random(seed)
    tree = _leafless_tree(seed, rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))

    def slice_of(count):
        coordinates = set()
        while len(coordinates) < count:
            coordinates.add(F(rng.randint(-60, 60), rng.randint(1, 4)))
        points = [geodesic.point_at(c) for c in sorted(coordinates)]
        points += [gen_point(tree, rng, 6) for _ in range(rng.randint(0, 4))]
        mu = make_measure(tree, zip(points, _masses(rng, len(points), equal)))
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
    tree = _leafless_tree(seed, rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
    points = list(dict.fromkeys(gen_point(tree, rng, 6) for _ in range(count)))
    mu = make_measure(tree, zip(points, _masses(rng, len(points), equal)))
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
    tree = _leafless_tree(seed, rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
    points = list(dict.fromkeys(gen_point(tree, rng, 6) for _ in range(count)))
    mu = make_measure(tree, zip(points, _masses(rng, len(points), False)))
    projected = pushforward_projection(tree, geodesic, mu).to_measure(tree)
    spots = {F(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(on)}
    nu = make_measure(tree, zip((geodesic.point_at(c) for c in spots),
                                _masses(rng, len(spots), False)))

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
    nu = make_measure(tree, zip(points, _masses(rng, len(points), False)))
    moment = second_moment(tree, nu, x)
    assert optimal_plan(tree, dirac(tree, x), nu).squared_cost == moment
    assert optimal_plan(tree, nu, dirac(tree, x)).squared_cost == moment
