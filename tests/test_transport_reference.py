"""Transport certificates and plans against the code they replaced.

``reference_is_cyclically_monotone`` is the earlier certificate, which took
``tree.distance`` afresh inside every permutation; the library's version
builds the table of squared distances once. On hand-built, mostly
non-optimal plans the two must return the same verdict, down to each
violation's pairs and costs, or raise the same error.

``optimal_plan`` once paired identical measures atom by atom without the
solver. The solver must give that same plan: the identity coupling in
atom order, at cost 0.
"""

import itertools
import random
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from common import distinct_points, random_masses
from treeradon import (
    SuiteConfig,
    TransportPlan,
    gen_point,
    gen_tree,
    is_cyclically_monotone,
    make_measure,
    optimal_plan,
)
from treeradon.transport import CycleViolation


def reference_is_cyclically_monotone(tree, plan, max_cycle_len=2, exhaustive=False):
    pairs = [(p, q) for p, q, _ in plan.couplings]
    n = len(pairs)
    if exhaustive:
        if n > 8:
            raise ValueError("exhaustive mode is bounded to supports of size 8")
        top = n
    else:
        top = min(max_cycle_len, n)

    def d2(a, b):
        d = tree.distance(a, b)
        return d * d

    own = [d2(p, q) for p, q in pairs]
    for length in range(2, top + 1):
        for combo in itertools.combinations(range(n), length):
            base = sum(own[k] for k in combo)
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                order = (first,) + rest
                shifted = sum(
                    d2(pairs[order[k]][0], pairs[order[(k + 1) % length]][1])
                    for k in range(length)
                )
                if shifted < base:
                    return CycleViolation(
                        tuple(pairs[k] for k in order), base, shifted
                    )
    return True


def outcome(call, *args, **kwargs):
    """A call's value, or the class and message of the ValueError it raised."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _hand_built_plan(tree, rng, n):
    """n couplings between random points, sources and targets drawn
    independently, so the pairing is almost never optimal. A source or
    target may repeat, as in a plan that splits an atom's mass."""
    sources = [gen_point(tree, rng, 6) for _ in range(n)]
    targets = [gen_point(tree, rng, 6) for _ in range(n)]
    masses = random_masses(rng, n)
    couplings = tuple(zip(sources, targets, masses))
    cost = sum((m * tree.distance(p, q) ** 2 for p, q, m in couplings), F(0))
    return TransportPlan(make_measure(tree, zip(sources, masses)),
                         make_measure(tree, zip(targets, masses)), couplings, cost)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["finite", "complete"]),
       st.integers(1, 10), st.integers(0, 3))
# hand-built plans that no 2-cycle improves but a 3-cycle does, found by a
# search over seeds; a random plan is almost always beaten by a 2-cycle
@example(861, "finite", 3, 1)
@example(1988, "complete", 3, 1)
@example(2989, "finite", 4, 1)
@settings(max_examples=100, deadline=None)
def test_cyclical_monotonicity_matches_reference(seed, mode, n, kind):
    """Three times in four a hand-built plan; otherwise an optimal plan
    between two measures of up to four atoms, whose certificate runs
    through every cycle and returns True."""
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=10, max_denominator=6), mode, rng)
    if kind:
        plan = _hand_built_plan(tree, rng, n)
    else:
        supports = [distinct_points(rng.randint(1, 4), lambda: gen_point(tree, rng, 6))
                    for _ in range(2)]
        mu, nu = (make_measure(tree, zip(points, random_masses(rng, len(points))))
                  for points in supports)
        plan = optimal_plan(tree, mu, nu)
    for max_cycle_len in (2, 3):
        assert (outcome(is_cyclically_monotone, tree, plan, max_cycle_len)
                == outcome(reference_is_cyclically_monotone, tree, plan, max_cycle_len))
    # n > 8 checks that both refuse exhaustive mode alike
    assert (outcome(is_cyclically_monotone, tree, plan, exhaustive=True)
            == outcome(reference_is_cyclically_monotone, tree, plan, exhaustive=True))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["finite", "complete"]),
       st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_identical_measures_get_the_identity_plan(seed, mode, extra):
    """Atoms on a vertex, inside a finite edge, on a ray (complete trees
    only), and ``extra`` random spots; a Dirac when only the vertex is
    drawn."""
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=10, max_denominator=6), mode, rng)
    points = [tree.vertex_point(rng.choice(tree.vertices))]
    finite = [rec for rec in tree.edges if not rec.is_ray]
    rays = [rec for rec in tree.edges if rec.is_ray]
    if finite:
        rec = rng.choice(finite)
        points.append(tree.point(rec.id, rec.length * F(rng.randint(1, 5), 6)))
    if rays:
        points.append(tree.point(rng.choice(rays).id, F(rng.randint(1, 12), rng.randint(1, 6))))
    points += distinct_points(extra, lambda: gen_point(tree, rng, 6))
    points = list(dict.fromkeys(points))
    if extra == 0:
        points = points[:1]
    mu = make_measure(tree, zip(points, random_masses(rng, len(points))))
    plan = optimal_plan(tree, mu, mu)
    assert plan == TransportPlan(mu, mu, tuple((p, p, m) for p, m in mu.atoms), F(0))
    assert type(plan.squared_cost) is F
