"""Exact transport: solver, interpolation, dilation, extension, certificates."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import simplex_reference as reference
from common import (STAR3, count_calls, distinct_points, fraction_calls, inside, leafless_tree,
                    pivots_per_solve, random_masses, random_point, solver_masses)
from conftest import DEEP, profile_settings
from treeradon import (
    CompletenessError,
    Measure,
    MeasureError,
    SolverError,
    SuiteConfig,
    TransportPlan,
    TreePoint,
    WassersteinGeodesic,
    build_tree,
    check_nonextendable,
    dilate,
    dirac,
    enumerate_flags,
    extend_from_dirac,
    gen_measure,
    gen_point,
    gen_tree,
    geodesic_through_flag,
    interpolate,
    is_cyclically_monotone,
    make_measure,
    optimal_plan,
    w2_squared,
    w2_squared_enumerated,
)
from treeradon import transport
from treeradon.geodesics import _travel


class TestW2:
    def test_from_dirac(self, tripod):
        mu = dirac(tripod, tripod.vertex_point("x"))
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        assert w2_squared(tripod, mu, nu) == 4

    def test_to_dirac(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert w2_squared(tripod, mu, dirac(tripod, tripod.vertex_point("o"))) == 1

    def test_identity(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.point(1, F(1, 3)), F(1, 2)),
        ])
        assert w2_squared(tripod, mu, mu) == 0


class TestOptimalPlan:
    def test_dirac_source_pairs_everything(self, tripod):
        x = tripod.vertex_point("x")
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 3)),
            (tripod.vertex_point("z"), F(2, 3)),
        ])
        plan = optimal_plan(tripod, dirac(tripod, x), nu)
        assert plan.couplings == (
            (x, tripod.vertex_point("y"), F(1, 3)),
            (x, tripod.vertex_point("z"), F(2, 3)),
        )

    def test_identity_plan(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        plan = optimal_plan(tripod, mu, mu)
        assert plan.squared_cost == 0
        assert all(p == q for p, q, _ in plan.couplings)

    def test_matches_enumeration_on_spec_case(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        plan = optimal_plan(tripod, mu, nu)
        assert plan.squared_cost == w2_squared_enumerated(tripod, mu, nu) == 2
        assert (tripod.vertex_point("y"), tripod.vertex_point("y"), F(1, 2)) in plan.couplings


class TestInterpolate:
    def test_endpoints(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        plan = optimal_plan(tripod, mu, nu)
        assert interpolate(tripod, plan, 0) == mu
        assert interpolate(tripod, plan, 1) == nu

    def test_dirac_to_dirac_midpoint(self, tripod):
        plan = optimal_plan(tripod, dirac(tripod, tripod.vertex_point("x")),
                            dirac(tripod, tripod.vertex_point("y")))
        assert interpolate(tripod, plan, F(1, 2)) == dirac(tripod, tripod.vertex_point("o"))

    def test_midpoints_coincide(self, tripod):
        # both halves land at o, so the interpolant merges to a single Dirac
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        plan = optimal_plan(tripod, dirac(tripod, tripod.vertex_point("x")), nu)
        assert interpolate(tripod, plan, F(1, 2)) == dirac(tripod, tripod.vertex_point("o"))

    def test_parameter_range(self, tripod):
        plan = optimal_plan(tripod, dirac(tripod, tripod.vertex_point("x")),
                            dirac(tripod, tripod.vertex_point("y")))
        with pytest.raises(ValueError):
            interpolate(tripod, plan, F(3, 2))

    def test_a_hand_built_plan_is_checked_at_the_boundary(self, tripod):
        """A hand-built plan is outside input: non-canonical points and
        string masses interpolate as the canonical plan does, a zero mass
        and a bool mass are refused."""
        o, x, y = (tripod.vertex_point(v) for v in "oxy")
        half_z = tripod.point(2, F(1, 2))
        mu = make_measure(tripod, [(o, F(1, 2)), (x, F(1, 2))])
        nu = make_measure(tripod, [(y, F(1, 2)), (half_z, F(1, 2))])

        def plan(*couplings):
            return TransportPlan(mu, nu, couplings, F(13, 8))

        canonical = plan((o, y, F(1, 2)), (x, half_z, F(1, 2)))
        # o at offset 0 of edge 0, y at the far end of edge 1, a str offset
        by_hand = plan((TreePoint(edge=0, offset=F(0)), TreePoint(edge=1, offset=F(1)), "1/2"),
                       (x, TreePoint(edge=2, offset="1/2"), "1/2"))
        for t in (0, F(1, 4), F(1, 2), 1):
            assert interpolate(tripod, by_hand, t) == interpolate(tripod, canonical, t)
        with pytest.raises(MeasureError, match="^nonpositive mass 0 at "):
            interpolate(tripod, plan((o, y, 0), (x, half_z, 1)), F(1, 2))
        with pytest.raises(TypeError, match="^booleans are not rationals$"):
            interpolate(tripod, plan((o, y, True), (x, half_z, F(1, 2))), F(1, 2))


def test_travel_at_time_one_is_the_target():
    """``_travel`` walks past time 1 only, so at time 1 it stays at the
    target, as ``check_nonextendable`` with ε = 0 asks it to."""
    rng = random.Random(12)
    for _ in range(20):
        tree = leafless_tree(rng, rng.randint(1, 30))
        p, q = random_point(tree, rng), random_point(tree, rng)
        eid = rng.randrange(len(tree.edges))
        a, b = distinct_points(2, lambda: inside(tree, rng, eid))
        for x, y in ((p, q), (p, p), (a, b), (b, a)):
            assert _travel(tree, x, y, F(1)) == y
        if p != q:
            mu = make_measure(tree, [(p, F(1, 2)), (q, F(1, 2))])
            assert check_nonextendable(tree, mu, q, 0).y_continued == q


@pytest.mark.parametrize("count", (10, 30))
def test_evaluation_compares_its_time_once(count):
    """``at`` compares t with its interval and with 1 once, and so makes
    at most three ``Fraction`` comparisons whatever the coupling count: on
    a star of rays, each coupling from its ray to the hub, so the
    midpoints lie on distinct edges and the measure core's sort compares
    no offset."""
    star = build_tree({"vertices": ["c"], "edges": [("c", None, "inf")] * count})
    mu = make_measure(star, [(star.point(eid, 2), F(1, count)) for eid in range(count)])
    family = WassersteinGeodesic(star, optimal_plan(star, mu, dirac(star, TreePoint("c"))))
    assert len(family.plan.couplings) == count
    with fraction_calls("__eq__", "__lt__", "__le__", "__gt__", "__ge__") as calls:
        half = family.at(F(1, 2))
    assert len(calls) <= 3
    assert half == make_measure(star, [(star.point(eid, 1), F(1, count)) for eid in range(count)])


class TestDilate:
    def test_extended_tips_meet_at_hub(self, star3):
        # x two units out past a, target two units out past d; the
        # midpoint oracle puts the half-dilation at the hub c.
        x = star3.point(3, 1)
        g = star3.point(7, 1)
        assert dilate(star3, x, dirac(star3, g), F(1, 2)) == dirac(star3, star3.vertex_point("c"))

    def test_time_zero_is_dirac(self, star3):
        x = star3.vertex_point("a")
        mu = make_measure(star3, [
            (star3.vertex_point("b"), F(1, 2)),
            (star3.vertex_point("d"), F(1, 2)),
        ])
        assert dilate(star3, x, mu, 0) == dirac(star3, x)

    def test_time_one_is_target(self, star3):
        x = star3.vertex_point("a")
        mu = make_measure(star3, [
            (star3.vertex_point("b"), F(1, 2)),
            (star3.point(7, 3), F(1, 2)),
        ])
        assert dilate(star3, x, mu, 1) == mu


class TestCyclicalMonotonicity:
    def test_two_cycle_violation(self, tripod):
        # a line inside the tree: y' = x, y = o, y'' = y-tip; moving the
        # far pair while holding (o, o) costs (1+1)^2 = 4 against 1^2+1^2 = 2
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("o"), F(1, 2)),
        ])
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("o"), F(1, 2)),
        ])
        bad = TransportPlan(
            source=mu, target=nu,
            couplings=(
                (tripod.vertex_point("x"), tripod.vertex_point("y"), F(1, 2)),
                (tripod.vertex_point("o"), tripod.vertex_point("o"), F(1, 2)),
            ),
            squared_cost=F(2),
        )
        verdict = is_cyclically_monotone(tripod, bad)
        assert not verdict
        assert verdict.base_cost == 4 and verdict.shifted_cost == 2

    def test_optimal_plan_is_monotone(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        assert is_cyclically_monotone(tripod, optimal_plan(tripod, mu, nu),
                                      exhaustive=True) is True

    def test_exhaustive_mode_refuses_more_than_eight_pairs(self, star3):
        # one atom inside each of star3's nine edges, coupled to itself
        mu = make_measure(star3, [(star3.point(eid, F(1, 2)), F(1, 9)) for eid in range(9)])
        plan = optimal_plan(star3, mu, mu)
        assert len(plan.couplings) == 9
        with pytest.raises(ValueError, match="bounded to supports of size 8"):
            is_cyclically_monotone(star3, plan, exhaustive=True)

    def test_identity_plan_is_monotone(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert is_cyclically_monotone(tripod, optimal_plan(tripod, mu, mu)) is True


class TestExtendFromDirac:
    def test_star3_extension_to_time_two(self, star3):
        c = star3.vertex_point("c")
        mu = make_measure(star3, [
            (star3.vertex_point("a"), F(1, 2)),
            (star3.vertex_point("b"), F(1, 2)),
        ])
        ext = extend_from_dirac(star3, c, mu, 2)
        # continuation picks the smallest-id ray at each spoke tip
        assert ext == make_measure(star3, [
            (star3.point(3, 1), F(1, 2)),
            (star3.point(5, 1), F(1, 2)),
        ])
        # geodesic-property oracle: the travel distances double
        assert w2_squared(star3, dirac(star3, c), ext) == 4 * w2_squared(star3, dirac(star3, c), mu)

    def test_time_one_returns_target(self, star3):
        c = star3.vertex_point("c")
        mu = make_measure(star3, [
            (star3.vertex_point("a"), F(1, 3)),
            (star3.point(7, F(5, 2)), F(2, 3)),
        ])
        assert extend_from_dirac(star3, c, mu, 1) == mu

    def test_single_dirac_constant_speed(self, star3):
        c = star3.vertex_point("c")
        g = star3.vertex_point("a")
        for t in (F(1, 2), F(3, 2), F(5, 2)):
            out = extend_from_dirac(star3, c, dirac(star3, g), t)
            (point, mass), = out.atoms
            assert mass == 1
            assert star3.distance(c, point) == t

    def test_incomplete_tree_rejected(self, tripod):
        mu = dirac(tripod, tripod.vertex_point("y"))
        with pytest.raises(CompletenessError):
            extend_from_dirac(tripod, tripod.vertex_point("x"), mu, 2)

    def test_wasserstein_geodesic_wrapper(self, star3):
        c = star3.vertex_point("c")
        mu = make_measure(star3, [
            (star3.vertex_point("a"), F(1, 2)),
            (star3.vertex_point("d"), F(1, 2)),
        ])
        family = WassersteinGeodesic.from_dirac(star3, c, mu, horizon=3)
        base = w2_squared(star3, family.at(0), family.at(1))
        s, t = F(1, 2), F(5, 2)
        assert w2_squared(star3, family.at(s), family.at(t)) == (t - s) ** 2 * base
        with pytest.raises(ValueError):
            family.at(4)

    def test_extension_needs_a_dirac_source(self, star3):
        # a geodesic from a non-Dirac measure does not extend past time 1
        mu = make_measure(star3, [
            (star3.vertex_point("a"), F(1, 2)),
            (star3.vertex_point("b"), F(1, 2)),
        ])
        plan = optimal_plan(star3, mu, dirac(star3, star3.vertex_point("d")))
        assert WassersteinGeodesic(star3, plan).at(1) == plan.target
        with pytest.raises(MeasureError, match="plan from a Dirac mass"):
            WassersteinGeodesic(star3, plan, horizon=2)


class TestNonextendability:
    def test_tripod_witness(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        wit = check_nonextendable(tripod, mu, tripod.vertex_point("y"), 1)
        assert wit.violated
        assert wit.continued_cost == 16 and wit.swapped_cost == 8
        assert wit.cycle == ((wit.y_prime, wit.y_continued), (wit.y, wit.y))

    def test_witness_matches_monotonicity_oracle(self, star3):
        # straight continuation: the static two-cycle itself must violate
        mu = make_measure(star3, [
            (star3.vertex_point("a"), F(1, 2)),
            (star3.vertex_point("b"), F(1, 2)),
        ])
        y = star3.vertex_point("b")
        wit = check_nonextendable(star3, mu, y, 1)
        assert wit.violated
        assert star3.distance(wit.y, wit.y_continued) == wit.epsilon * star3.distance(wit.y_prime, wit.y)
        static = TransportPlan(
            source=mu, target=mu,  # marginals irrelevant for the cycle check
            couplings=(
                (wit.y_prime, wit.y_continued, F(1, 2)),
                (wit.y, wit.y, F(1, 2)),
            ),
            squared_cost=wit.continued_cost / 2,
        )
        verdict = is_cyclically_monotone(star3, static)
        assert not verdict
        assert verdict.base_cost == wit.continued_cost
        assert verdict.shifted_cost == wit.swapped_cost

    def test_proposed_continuation(self, tripod):
        # "toward z": bending the continued path at o lands the atom on z
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        wit = check_nonextendable(tripod, mu, tripod.vertex_point("y"), 1,
                                  proposed_continuation=tripod.vertex_point("z"))
        assert wit.violated and wit.y_continued == tripod.vertex_point("z")

    def test_dirac_rejected(self, tripod):
        y = tripod.vertex_point("y")
        with pytest.raises(MeasureError, match="Dirac"):
            check_nonextendable(tripod, dirac(tripod, y), y, 1)

    def test_point_outside_support_rejected(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        with pytest.raises(MeasureError, match="support"):
            check_nonextendable(tripod, mu, tripod.vertex_point("z"), 1)

    def test_zero_extension_no_violation(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        wit = check_nonextendable(tripod, mu, tripod.vertex_point("y"), 0)
        assert not wit.violated
        assert wit.y_continued == wit.y


@st.composite
def measure_pair(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    cfg = SuiteConfig(seed=seed, max_vertices=6, max_atoms=4, max_denominator=8)
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng)
    nu = gen_measure(cfg, tree, rng)
    return tree, mu, nu


@given(measure_pair())
@settings(max_examples=50, deadline=None)
def test_solver_matches_enumeration(data):
    tree, mu, nu = data
    assert w2_squared(tree, mu, nu) == w2_squared_enumerated(tree, mu, nu)


@given(measure_pair())
@settings(max_examples=40, deadline=None)
def test_plan_marginals_exact(data):
    tree, mu, nu = data
    plan = optimal_plan(tree, mu, nu)
    left, right = {}, {}
    for p, q, m in plan.couplings:
        left[p] = left.get(p, F(0)) + m
        right[q] = right.get(q, F(0)) + m
    assert left == dict(mu.atoms)
    assert right == dict(nu.atoms)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_equal_mass_case_matches_assignment_oracle(seed):
    # With five atoms of mass 1/5 on each side an optimal plan is a
    # permutation (Birkhoff), so the minimum over all 120 assignments is an
    # independent oracle for supports beyond the enumeration-oracle range.
    import itertools

    from treeradon import gen_point

    rng = random.Random(seed)
    cfg = SuiteConfig(seed=seed, max_vertices=7, max_denominator=8)
    tree = gen_tree(cfg, "complete", rng)
    fifth = F(1, 5)

    def five_points():
        points = []
        while len({str(p) for p in points}) < 5:
            points = [gen_point(tree, rng, 8) for _ in range(5)]
        return points

    src, dst = five_points(), five_points()
    mu = make_measure(tree, ((p, fifth) for p in src))
    nu = make_measure(tree, ((q, fifth) for q in dst))
    best = min(
        sum(fifth * tree.distance(p, q) ** 2 for p, q in zip(src, perm))
        for perm in itertools.permutations(dst)
    )
    assert w2_squared(tree, mu, nu) == best


# ---------------------------------------------------------------------- #
# The solver against the simplex it replaced                               #
# ---------------------------------------------------------------------- #
#
# The library solver takes the masses as ints over one scale M and
# returns its flows as ints over M. ``simplex_reference`` keeps an
# earlier solver verbatim: north-west corner start, Bland's first
# negative reduced cost in row-major order, lexicographically smallest
# leaving cell among the minimum-theta cells, with Fraction masses.
# Equal allocations (the library's flows over M against the reference's
# Fractions), not just equal costs, pin the plan files byte for byte.

def _solver_instance(tree, src, dst, src_mass, dst_mass):
    mu = make_measure(tree, zip(src, src_mass))
    nu = make_measure(tree, zip(dst, dst_mass))
    cost, _ = transport._cost_matrix(tree, mu.atoms, nu.atoms)
    _, supply, demand = solver_masses([m for _, m in mu.atoms], [m for _, m in nu.atoms])
    return supply, demand, cost


def _assert_flows_are_the_reference_allocation(supply, demand, cost):
    """The solver's int flows, over the masses' scale M, against the
    reference's Fractions given the masses over M. Every instance's masses
    sum to 1, so M is the supply's sum."""
    scale = sum(supply)
    flows = transport._transportation_simplex(supply, demand, cost)
    assert all(type(f) is int for f in flows.values())
    assert {cell: F(f, scale) for cell, f in flows.items()} == reference._transportation_simplex(
        [F(s, scale) for s in supply], [F(d, scale) for d in demand], cost)


@st.composite
def random_instance(draw):
    """Distinct random atoms with random masses on a seeded leafless tree."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, m = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=10, max_denominator=8),
                    "complete", rng)
    src = distinct_points(n, lambda: gen_point(tree, rng, 8))
    dst = distinct_points(m, lambda: gen_point(tree, rng, 8))
    return _solver_instance(tree, src, dst, random_masses(rng, n), random_masses(rng, m))


@st.composite
def symmetric_tie_instance(draw):
    """Equal masses on a grid of half-unit spots of the symmetric star3
    tree: many equal costs, many equal allocations, many degenerate
    pivots."""
    star3 = build_tree(STAR3)
    spots = sorted({star3.point(eid, F(k, 2)) for eid in range(9) for k in range(4)
                    if eid >= 3 or k <= 2}, key=repr)
    n, m = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    src = draw(st.permutations(spots))[:n]
    dst = draw(st.permutations(spots))[:m]
    return _solver_instance(star3, src, dst, [F(1, n)] * n, [F(1, m)] * m)


@given(random_instance())
@profile_settings(40)
def test_integer_solver_matches_reference_allocation(instance):
    _assert_flows_are_the_reference_allocation(*instance)


@given(symmetric_tie_instance())
@profile_settings(40)
def test_integer_solver_matches_reference_on_ties(instance):
    _assert_flows_are_the_reference_allocation(*instance)


def test_integer_solver_matches_reference_16x16():
    rng = random.Random(1616)
    tree = gen_tree(SuiteConfig(seed=1616, max_vertices=12, max_denominator=8),
                    "complete", rng)
    src = distinct_points(16, lambda: gen_point(tree, rng, 8))
    dst = distinct_points(16, lambda: gen_point(tree, rng, 8))
    instance = _solver_instance(tree, src, dst, random_masses(rng, 16), random_masses(rng, 16))
    _assert_flows_are_the_reference_allocation(*instance)


@st.composite
def thin_instance(draw):
    """A 1×1, 1×m or n×1 instance (m, n ≤ 16): every cell is a basis cell,
    so the solver only builds its basis tree and reads the plan off it."""
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 16))
    n, m = draw(st.sampled_from(((1, 1), (1, count), (count, 1))))
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=10, max_denominator=8),
                    "complete", rng)
    src = distinct_points(n, lambda: gen_point(tree, rng, 8))
    dst = distinct_points(m, lambda: gen_point(tree, rng, 8))
    return _solver_instance(tree, src, dst, random_masses(rng, n), random_masses(rng, m))


@given(thin_instance())
@profile_settings(20)
def test_integer_solver_matches_reference_on_one_row_or_column(instance):
    _assert_flows_are_the_reference_allocation(*instance)


def test_scan_enters_a_reduced_cost_of_minus_one():
    # the north-west corner start leaves cell (0, 1) at reduced cost
    # 0 - u_0 - v_1 = -1, the least negative an int cost allows; a scan that
    # skipped it would stop at cost 1/2; the masses are 1/2 each, as ints
    # over their scale 2
    half = [1, 1]
    assert transport._transportation_simplex(half, half, [[1, 0], [0, 0]]) == {
        (0, 1): 1, (1, 0): 1}


# ---------------------------------------------------------------------- #
# Uniqueness first: the first solve against Bland's rule                   #
# ---------------------------------------------------------------------- #


@st.composite
def geodesic_instance(draw):
    """Atoms at coordinates of halves and wholes on one flag geodesic, all
    of them or about seven in eight, the rest anywhere on the tree, with
    equal or random masses: on the line the optimum is unique, equal masses
    make many pivots degenerate, and equal distances off it make ties."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, m = draw(st.integers(2, 16)), draw(st.integers(2, 16))
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=10, max_denominator=2),
                    "complete", rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
    off = draw(st.sampled_from((0, F(1, 8))))

    def atoms(count):
        return distinct_points(count, lambda: gen_point(tree, rng, 2) if rng.random() < off
                               else geodesic.point_at(F(rng.randint(-12, 12), rng.randint(1, 2))))

    equal = draw(st.booleans())
    masses = ([F(1, n)] * n, [F(1, m)] * m) if equal else (random_masses(rng, n),
                                                              random_masses(rng, m))
    return _solver_instance(tree, atoms(n), atoms(m), *masses)


@given(st.one_of(random_instance(), symmetric_tie_instance(), geodesic_instance()))
@profile_settings(60)
def test_first_solve_returns_blands_allocation(instance):
    assert transport._transportation_simplex(*instance) == transport._bland_simplex(*instance)


def _unique_16x16():
    """A 16×16 instance whose optimum the tight-cell count proves unique."""
    rng = random.Random(1)
    tree = gen_tree(SuiteConfig(seed=1, max_vertices=12, max_denominator=8), "complete", rng)
    src = distinct_points(16, lambda: gen_point(tree, rng, 8))
    dst = distinct_points(16, lambda: gen_point(tree, rng, 8))
    return _solver_instance(tree, src, dst, random_masses(rng, 16), random_masses(rng, 16))


def test_a_unique_optimum_skips_bland_and_a_tie_runs_it_once(monkeypatch):
    unique = _unique_16x16()
    star3 = build_tree(STAR3)
    spots = [star3.point(eid, F(k, 2)) for eid in range(3, 9) for k in (1, 2, 3)]
    tied = _solver_instance(star3, spots[:16], spots[2:], [F(1, 16)] * 16, [F(1, 16)] * 16)
    expected = [transport._bland_simplex(*unique), transport._bland_simplex(*tied)]
    pivots = count_calls(monkeypatch, transport, "_pivot")
    blands = count_calls(monkeypatch, transport, "_bland_simplex")
    assert transport._transportation_simplex(*unique) == expected[0]
    assert pivots and blands == []
    assert transport._transportation_simplex(*tied) == expected[1]
    assert len(blands) == 1


def test_a_first_solve_past_its_cap_hands_over_to_bland(monkeypatch):
    instance = _unique_16x16()
    expected = transport._bland_simplex(*instance)
    pivots = count_calls(monkeypatch, transport, "_pivot")
    blands = count_calls(monkeypatch, transport, "_bland_simplex")
    monkeypatch.setattr(transport, "_first_solve_cap", lambda n, m: 5)
    assert transport._transportation_simplex(*instance) == expected
    assert len(blands) == 1 and pivots_per_solve(pivots)[0] == 5


# 48×48 and 100×100 under TREERADON_SOLVER_PROFILE=solver-deep
SIDES = (48, 100) if DEEP else (16, 32)


@pytest.mark.deep
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("equal", [True, False], ids=["masses_1_over_n", "random_masses"])
def test_first_solve_returns_blands_allocation_on_a_bench_tree(side, equal):
    rng = random.Random(side)
    tree = leafless_tree(rng, 256)
    src = distinct_points(side, lambda: random_point(tree, rng))
    dst = distinct_points(side, lambda: random_point(tree, rng))
    masses = ([F(1, side)] * side,) * 2 if equal else (random_masses(rng, side),
                                                        random_masses(rng, side))
    instance = _solver_instance(tree, src, dst, *masses)
    assert transport._transportation_simplex(*instance) == transport._bland_simplex(*instance)


def _assert_basis_is_the_reference_corner(supply, demand, cost):
    n, m = len(supply), len(demand)
    children, parent, pot, flow = transport._northwest_basis(supply, demand, cost)
    alloc = reference._northwest_corner(supply, demand)
    # each non-root node's parent link is one basis cell, with its flow
    assert {(c, parent[c] - n) if c < n else (parent[c], c - n): flow[c]
            for c in range(1, n + m)} == alloc
    # each node lists exactly the nodes whose parent it is, once each
    assert [sorted(below) for below in children] == [
        [c for c in range(1, n + m) if parent[c] == a] for a in range(n + m)]
    assert parent[0] == pot[0] == 0
    # every parent chain reaches row 0 within n+m-1 steps
    for c in range(n + m):
        for _ in range(n + m - 1):
            c = parent[c]
        assert c == 0
    assert all(pot[i] + pot[n + j] == cost[i][j] for i, j in alloc)
    return children, parent, flow


@given(st.one_of(random_instance(), symmetric_tie_instance()))
@profile_settings(40)
def test_northwest_basis_is_the_reference_corner_as_a_tree(instance):
    _assert_basis_is_the_reference_corner(*instance)


def test_northwest_basis_keeps_a_zero_cell_where_row_and_column_run_out():
    # row 0 and column 0 run out together at (0, 0); the staircase steps
    # down to the zero cell (1, 0), which hangs row 1 below column 0
    # (node 2), and then right to (1, 1); the masses are 1/2 each, as ints
    # over their scale 2
    half = [1, 1]
    assert _assert_basis_is_the_reference_corner(half, half, [[1, 0], [0, 0]]) == (
        [[2], [3], [1], []], [0, 2, 0, 1], [0, 0, 1, 1])


def test_plan_with_wrong_marginals_raises_solver_error(tripod, monkeypatch):
    mu = make_measure(tripod, [(tripod.vertex_point("x"), F(1, 2)),
                               (tripod.vertex_point("y"), F(1, 2))])
    nu = make_measure(tripod, [(tripod.vertex_point("x"), F(1, 2)),
                               (tripod.vertex_point("z"), F(1, 2))])
    solve = transport._transportation_simplex

    def skewed(supply, demand, cost):
        # half of the first cell's flow, rounded up, moves to another column
        # of its row: the row sums stay right, two column sums do not
        alloc = solve(supply, demand, cost)
        (i, j), q = min(alloc.items())
        half = q - q // 2
        alloc[(i, j)] = q - half
        other = (i, 1 - j)
        alloc[other] = alloc.get(other, 0) + half
        return alloc

    monkeypatch.setattr(transport, "_transportation_simplex", skewed)
    with pytest.raises(SolverError, match="^plan marginals do not match the measures$"):
        optimal_plan(tripod, mu, nu)


@pytest.mark.parametrize("masses", [(F(1), F(1)), (F(1, 4), F(1, 4)),
                                    (F(-1, 2), F(3, 2)), (F(3, 2), F(-1, 2))],
                         ids=["total 2", "total 1/2", "negative first", "negative last"])
def test_hand_built_measure_of_wrong_mass_raises_solver_error(tripod, masses):
    # a Measure built by hand skips make_measure's checks; whichever side
    # it is on, the solver runs to an allocation that the marginal check
    # refuses, with no IndexError or hang on the way
    x, y, z = (tripod.vertex_point(name) for name in "xyz")
    good = make_measure(tripod, [(x, F(1, 2)), (z, F(1, 2))])
    bad = Measure(tuple(zip((x, y), masses)))
    for mu, nu in ((bad, good), (good, bad)):
        with pytest.raises(SolverError, match="^plan marginals do not match the measures$"):
            optimal_plan(tripod, mu, nu)


@pytest.mark.parametrize("shift", ["one cell up", "half across rows", "a hair across rows",
                                   "half across columns", "a hair across columns"])
def test_a_perturbed_allocation_raises_solver_error(monkeypatch, shift):
    """The integer marginal check sees every row and column: one cell made
    heavier throws off its row and its column; mass moved from the largest
    cell to the next row (column) of its column (row) throws off two rows
    (columns) alone, by half that cell or by one unit of the masses' scale.
    The flows are ints over that scale, so each shift is an int."""
    solve = transport._transportation_simplex

    def perturbed(supply, demand, cost):
        alloc = solve(supply, demand, cost)
        (i, j), q = max(alloc.items(), key=lambda item: item[1])
        if shift == "one cell up":
            alloc[(i, j)] = q + 1
            return alloc
        amount = q // 2 if shift.startswith("half") else 1
        other = ((i + 1) % len(supply), j) if shift.endswith("rows") else (i, (j + 1) % len(demand))
        alloc[(i, j)] = q - amount
        alloc[other] = alloc.get(other, 0) + amount
        return alloc

    monkeypatch.setattr(transport, "_transportation_simplex", perturbed)
    cfg = SuiteConfig(max_vertices=10, max_atoms=5, max_denominator=9)
    rng = random.Random(38)
    checked = 0
    for mode in ("finite", "complete") * 6:
        tree = gen_tree(cfg, mode, rng)
        mu, nu = gen_measure(cfg, tree, rng), gen_measure(cfg, tree, rng)
        if len(mu) < 2 or len(nu) < 2:
            continue
        with pytest.raises(SolverError, match="^plan marginals do not match the measures$"):
            optimal_plan(tree, mu, nu)
        checked += 1
    assert checked >= 4


@st.composite
def tree_and_measures(draw):
    """Two measures on a seeded ``gen_tree`` tree whose atoms include the
    same vertex, two spots on one finite edge (one in each measure), and on
    complete trees two spots on one ray, plus random points."""
    seed = draw(st.integers(0, 2**32 - 1))
    mode = draw(st.sampled_from(("complete", "finite")))
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=12, max_denominator=6), mode, rng)
    finite = [rec for rec in tree.edges if not rec.is_ray]
    rays = [rec for rec in tree.edges if rec.is_ray]
    shared = [tree.vertex_point(rng.choice(tree.vertices))]
    mine, theirs = [], []
    if finite:
        rec = rng.choice(finite)
        mine.append(tree.point(rec.id, rec.length / 3))
        theirs.append(tree.point(rec.id, rec.length / 2))
    if rays:
        rec = rng.choice(rays)
        shared.append(tree.point(rec.id, F(rng.randint(1, 6), rng.randint(1, 6))))
        mine.append(tree.point(rec.id, F(7)))
    mine += [gen_point(tree, rng, 6) for _ in range(draw(st.integers(0, 5)))]
    theirs += [gen_point(tree, rng, 6) for _ in range(draw(st.integers(0, 5)))]
    mu = make_measure(tree, ((p, F(1, len(shared + mine))) for p in shared + mine))
    nu = make_measure(tree, ((q, F(1, len(shared + theirs))) for q in shared + theirs))
    return tree, mu, nu


def _assert_squared_cost_matches_distances(tree, plan):
    expected = sum((m * tree.distance(p, q) ** 2 for p, q, m in plan.couplings), F(0))
    assert plan.squared_cost == expected


@given(tree_and_measures())
@settings(max_examples=60, deadline=None)
def test_cost_matrix_and_squared_cost_match_tree_distance(case):
    tree, mu, nu = case
    cost, scale = transport._cost_matrix(tree, mu.atoms, nu.atoms)
    assert [[F(c, scale) for c in row] for row in cost] == [
        [tree.distance(p, q) ** 2 for q, _ in nu.atoms] for p, _ in mu.atoms]
    _assert_squared_cost_matches_distances(tree, optimal_plan(tree, mu, nu))
    x = mu.atoms[-1][0]
    _assert_squared_cost_matches_distances(tree, optimal_plan(tree, dirac(tree, x), nu))
    _assert_squared_cost_matches_distances(tree, optimal_plan(tree, mu, dirac(tree, x)))
    same = optimal_plan(tree, mu, mu)
    assert same.squared_cost == 0
    _assert_squared_cost_matches_distances(tree, same)


@given(st.one_of(measure_pair(), tree_and_measures()))
@profile_settings(40)
def test_plan_sums_are_the_fraction_sums(case):
    """``optimal_plan`` sums its cost and its marginals as ints: the cost
    equals the ``Fraction`` sum of each coupling's mass times its entry of
    the solver's cost matrix over its scale, and each row and column's
    ``Fraction`` sum is its measure's mass. Also from a Dirac, and from a
    measure to itself."""
    tree, mu, nu = case
    x = mu.atoms[-1][0]
    for source, target in ((mu, nu), (dirac(tree, x), nu), (mu, mu)):
        plan = optimal_plan(tree, source, target)
        cost, scale = transport._cost_matrix(tree, source.atoms, target.atoms)
        row = {p: i for i, (p, _) in enumerate(source.atoms)}
        column = {q: j for j, (q, _) in enumerate(target.atoms)}
        expected = sum((m * cost[row[p]][column[q]] for p, q, m in plan.couplings), F(0)) / scale
        assert type(plan.squared_cost) is F and plan.squared_cost == expected
        left, right = {}, {}
        for p, q, m in plan.couplings:
            left[p] = left.get(p, F(0)) + m
            right[q] = right.get(q, F(0)) + m
        assert left == dict(source.atoms) and right == dict(target.atoms)


@given(tree_and_measures())
@settings(max_examples=60, deadline=None)
def test_cost_matrix_is_the_least_integer_scaling(case):
    """Every entry is an int and ``scale`` is the lcm of the reduced
    denominators of the d², the scale the solver took when it was given
    Fractions; given the d² as Fractions, it returns the same allocation."""
    tree, mu, nu = case
    cost, scale = transport._cost_matrix(tree, mu.atoms, nu.atoms)
    squares = [[tree.distance(p, q) ** 2 for q, _ in nu.atoms] for p, _ in mu.atoms]
    assert all(type(c) is int for row in cost for c in row)
    assert scale == math.lcm(*(d.denominator for row in squares for d in row))
    _, supply, demand = solver_masses([m for _, m in mu.atoms], [m for _, m in nu.atoms])
    assert (transport._transportation_simplex(supply, demand, cost)
            == transport._transportation_simplex(supply, demand, squares))


@pytest.mark.parametrize("seed", range(6))
def test_w2_matches_networkx_beyond_enumeration(seed):
    # The integer-scaled instance (masses times M, costs times L) is fed
    # to an independent min-cost-flow solver, so the comparison is exact:
    # its integer optimum must equal W2^2 * M * L.
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=12, max_denominator=8),
                    "complete", rng)
    n, m = rng.randint(12, 20), rng.randint(12, 20)
    src = distinct_points(n, lambda: gen_point(tree, rng, 8))
    dst = distinct_points(m, lambda: gen_point(tree, rng, 8))
    mu = make_measure(tree, zip(src, random_masses(rng, n)))
    nu = make_measure(tree, zip(dst, random_masses(rng, m)))
    cost = [[tree.distance(p, q) ** 2 for q, _ in nu.atoms] for p, _ in mu.atoms]
    mass_scale = math.lcm(*(x.denominator for _, x in mu.atoms + nu.atoms))
    cost_scale = math.lcm(*(c.denominator for row in cost for c in row))
    graph = nx.DiGraph()
    for i, (_, mass) in enumerate(mu.atoms):
        graph.add_node(("s", i), demand=-int(mass * mass_scale))
    for j, (_, mass) in enumerate(nu.atoms):
        graph.add_node(("t", j), demand=int(mass * mass_scale))
    for i, row in enumerate(cost):
        for j, c in enumerate(row):
            graph.add_edge(("s", i), ("t", j), weight=int(c * cost_scale))
    flow_cost, _ = nx.network_simplex(graph)
    assert w2_squared(tree, mu, nu) * mass_scale * cost_scale == flow_cost
