"""Measures, pushforwards, second moments, and which code checks a
measure's atoms."""

import pickle
import random
import re
from collections import Counter
from fractions import Fraction as F
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from common import (count_calls, fraction_calls, hidden_measure, leafless_tree, tree_and_measure,
                    twin)
from conftest import profile_settings
from treeradon import (
    Geodesic,
    GeodesicError,
    Measure,
    MeasureError,
    RadonSample,
    SuiteConfig,
    Tree,
    TreePoint,
    WassersteinGeodesic,
    build_tree,
    check_nonextendable,
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
    path,
    pushforward_projection,
    radon_oracle,
    reconstruct_measure,
    second_moment,
    supported_on,
    w2_squared,
)
from treeradon.geodesics import _travel
from treeradon.measures import _measure


class TestMakeMeasure:
    def test_two_atoms(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert len(mu) == 2 and mu.total_mass == 1

    def test_duplicates_merge(self, tripod):
        x = tripod.vertex_point("x")
        mu = make_measure(tripod, [(x, F(1, 2)), (x, F(1, 2))])
        assert mu == dirac(tripod, x)
        assert mu.is_dirac

    def test_wrong_total_rejected(self, tripod):
        with pytest.raises(MeasureError, match="2/3"):
            make_measure(tripod, [
                (tripod.vertex_point("x"), F(1, 3)),
                (tripod.vertex_point("y"), F(1, 3)),
            ])

    def test_nonpositive_mass_rejected(self, tripod):
        with pytest.raises(MeasureError, match="nonpositive"):
            make_measure(tripod, [
                (tripod.vertex_point("x"), F(3, 2)),
                (tripod.vertex_point("y"), F(-1, 2)),
            ])

    def test_empty_rejected(self, tripod):
        with pytest.raises(MeasureError, match="at least one atom"):
            make_measure(tripod, [])

    def test_the_core_adds_one_mass_object_given_twice(self, tripod):
        # the core hashes each point once and tells a repeated point by the
        # dict's size: two atoms holding the very same Fraction at one point
        # merge to twice it, at a vertex and inside an edge
        half, quarter = F(1, 2), F(1, 4)
        x, inner = tripod.vertex_point("x"), tripod.point(1, half)
        assert _measure([(x, half), (x, half)]).atoms == ((x, 1),)
        mu = _measure([(inner, quarter), (x, half), (inner, quarter)])
        assert mu.atoms == ((x, half), (inner, half))
        for mass in (F(0), F(-1, 2)):
            with pytest.raises(MeasureError, match="^nonpositive mass"):
                _measure([(x, F(3, 2)), (inner, mass)])

    def test_equivalent_locations_merge(self, tripod):
        # offset 0 on edge (o,x) is the vertex o itself
        mu = make_measure(tripod, [
            (tripod.point(0, 0), F(1, 2)),
            (tripod.vertex_point("o"), F(1, 2)),
        ])
        assert mu.is_dirac


class TestPushforward:
    def test_tripod_split_measure(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        sample = pushforward_projection(tripod, geo, mu)
        # z projects to o, which sits at coordinate 1 from the start x
        assert sample.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_supported_measure_unchanged(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        mu = make_measure(tripod, [
            (tripod.point(0, F(1, 2)), F(1, 3)),
            (tripod.vertex_point("y"), F(2, 3)),
        ])
        assert supported_on(mu, geo)
        sample = pushforward_projection(tripod, geo, mu)
        assert sample.atoms == ((F(1, 2), F(1, 3)), (F(2), F(2, 3)))
        assert sample.to_measure(tripod) == mu

    def test_dirac_off_geodesic(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        sample = pushforward_projection(tripod, geo, dirac(tripod, tripod.vertex_point("z")))
        assert sample.atoms == ((F(1), F(1)),)

    def test_mass_is_preserved(self, star3):
        from treeradon import geodesic_through_flag
        geo = geodesic_through_flag(star3, star3.flag("c", 0, 1))
        mu = make_measure(star3, [
            (star3.point(7, 3), F(1, 7)),
            (star3.vertex_point("a"), F(2, 7)),
            (star3.point(2, F(1, 2)), F(4, 7)),
        ])
        assert pushforward_projection(star3, geo, mu).total_mass == 1

    def test_geodesic_of_another_tree_rejected(self, tripod):
        other = twin(tripod)
        geo = path(other, other.vertex_point("x"), other.vertex_point("y"))
        with pytest.raises(GeodesicError, match="different tree"):
            pushforward_projection(tripod, geo, dirac(tripod, tripod.vertex_point("z")))

    def test_sample_placed_on_another_tree_rejected(self, tripod):
        # same ids, edge 0 twice as long: A's coordinates would be read as
        # points of another metric
        longer = build_tree({**tripod.describe(), "edges": [
            (e.u, e.v, e.length * 2 if e.id == 0 else e.length) for e in tripod.edges]})
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        sample = pushforward_projection(tripod, geo, dirac(tripod, tripod.point(0, F(1, 2))))
        for other in (longer, twin(tripod)):
            with pytest.raises(GeodesicError, match="different tree"):
                sample.to_measure(other)

    def test_non_maximal_geodesic_rejected(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("o"))
        with pytest.raises(GeodesicError, match="maximal"):
            pushforward_projection(tripod, geo, dirac(tripod, tripod.vertex_point("z")))


class TestSecondMoment:
    def test_dirac_at_base(self, tripod):
        x = tripod.vertex_point("x")
        assert second_moment(tripod, dirac(tripod, x), x) == 0

    def test_from_center(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert second_moment(tripod, mu, tripod.vertex_point("o")) == 1

    def test_from_tip(self, tripod):
        # oracle: 0*(1/2) + d(x,y)^2*(1/2) = 4/2 = 2
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert second_moment(tripod, mu, tripod.vertex_point("x")) == 2


# ---------------------------------------------------------------------- #
# Who checks the atoms                                                      #
# ---------------------------------------------------------------------- #
#
# make_measure and the WassersteinGeodesic constructor take atoms from
# outside and check each once. Interpolation, reconstruction and
# generation make canonical atoms with Fraction masses themselves and hand
# them to the measure core unchecked.

CONFIG = SuiteConfig(max_vertices=14, max_atoms=5, max_denominator=9)


def assert_canonical(tree, measure):
    for point, mass in measure.atoms:
        assert tree.canonical_point(point) is point
        assert type(mass) is F


@given(st.integers(0, 2**32 - 1))
@profile_settings(40)
def test_library_made_atoms_are_canonical(seed):
    """Generated measures, their interpolants at t in [0, 1], a Dirac
    plan's extension to t in (1, 2] on a leafless tree, and reconstructions
    hold canonical points of their tree and Fraction masses."""
    rng = random.Random(seed)
    tree = gen_tree(CONFIG, rng.choice(("finite", "complete")), rng)
    mu, nu = gen_measure(CONFIG, tree, rng), gen_measure(CONFIG, tree, rng)
    geodesic = WassersteinGeodesic(tree, optimal_plan(tree, mu, nu))
    for measure in (mu, nu, *(geodesic.at(t) for t in (0, F(rng.randint(1, 8), 9), 1))):
        assert_canonical(tree, measure)

    leafless = leafless_tree(rng, rng.randint(1, 30))
    hidden = gen_measure(CONFIG, leafless, rng)
    x = gen_point(leafless, rng, CONFIG.max_denominator)
    extension = WassersteinGeodesic.from_dirac(leafless, x, hidden, horizon=2)
    for t in (F(rng.randint(1, 9), 9) + 1, 2):
        assert_canonical(leafless, extension.at(t))
    assert_canonical(leafless, reconstruct_measure(leafless, radon_oracle(leafless, hidden)).measure)


@pytest.fixture
def canonical_calls(monkeypatch):
    """Every call of ``Tree.canonical_point``, in call order."""
    return count_calls(monkeypatch, Tree, "canonical_point")


def test_a_wasserstein_geodesic_checks_its_couplings_once(canonical_calls):
    """Its constructor checks both points of each coupling; evaluation up
    to time 1 checks nothing, so interpolation checks 2 points a coupling."""
    rng = random.Random(31)
    for mode in ("finite", "complete") * 8:
        tree = gen_tree(CONFIG, mode, rng)
        plan = optimal_plan(tree, gen_measure(CONFIG, tree, rng), gen_measure(CONFIG, tree, rng))
        checked = 2 * len(plan.couplings)
        for t in (0, F(1, 3), F(1, 2), 1):
            canonical_calls.clear()
            geodesic = WassersteinGeodesic(tree, plan)
            assert len(canonical_calls) == checked
            canonical_calls.clear()
            geodesic.at(t)
            assert canonical_calls == []
            interpolate(tree, plan, t)
            assert len(canonical_calls) == checked


def test_placing_a_sample_checks_no_atom(canonical_calls):
    """to_measure hands the geodesic's own points to the measure core, and
    parses a hand-built sample's string masses."""
    rng = random.Random(35)
    for _ in range(8):
        tree = leafless_tree(rng, rng.randint(1, 30))
        mu = hidden_measure(tree, rng, rng.randint(1, 6))
        geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
        sample = pushforward_projection(tree, geodesic, mu)
        by_hand = RadonSample(geodesic, tuple((c, str(m)) for c, m in sample.atoms))
        canonical_calls.clear()
        placed = sample.to_measure(tree)
        assert by_hand.to_measure(tree) == placed
        assert canonical_calls == []
        assert pushforward_projection(tree, geodesic, placed) == sample


def test_generation_checks_no_atom(canonical_calls):
    rng = random.Random(32)
    for mode in ("finite", "complete") * 8:
        tree = gen_tree(CONFIG, mode, rng)
        for _ in range(4):
            gen_measure(CONFIG, tree, rng)
    assert canonical_calls == []


def test_reconstruction_checks_no_atom(canonical_calls):
    rng = random.Random(33)
    for _ in range(8):
        tree = leafless_tree(rng, rng.randint(1, 30))
        mu = hidden_measure(tree, rng, rng.randint(1, 6))
        canonical_calls.clear()
        assert reconstruct_measure(tree, radon_oracle(tree, mu)).measure == mu
        assert canonical_calls == []


@given(tree_and_measure())
@profile_settings(20)
def test_a_measure_goes_with_a_twin_of_its_tree(drawn):
    """A tree built from the same description, with vertex ids that are
    other objects, gives a measure made on the first tree the same plans,
    interpolants, projections and reconstruction, and the same extension
    past time 1 and continuation of a geodesic to one of its atoms."""
    tree, mu, rng = drawn
    nu = hidden_measure(tree, rng, rng.randint(1, 6))
    other = twin(tree)
    assert all(a == b and a is not b for a, b in zip(tree.vertices, other.vertices))
    plan = optimal_plan(tree, mu, nu)
    assert optimal_plan(other, mu, nu) == plan
    t = F(rng.randint(0, 6), 6)
    assert interpolate(other, optimal_plan(other, mu, nu), t) == interpolate(tree, plan, t)
    flag = rng.choice(enumerate_flags(tree))
    assert (pushforward_projection(other, geodesic_through_flag(other, flag), mu).atoms
            == pushforward_projection(tree, geodesic_through_flag(tree, flag), mu).atoms)
    assert (reconstruct_measure(other, radon_oracle(other, mu)).measure
            == reconstruct_measure(tree, radon_oracle(tree, mu)).measure == mu)
    x, s = rng.choice(nu.support), 1 + F(rng.randint(1, 6), 6)
    assert extend_from_dirac(other, x, mu, s) == extend_from_dirac(tree, x, mu, s)
    if not mu.is_dirac:
        y = rng.choice(mu.support)
        assert check_nonextendable(other, mu, y) == check_nonextendable(tree, mu, y)


# A 5-vertex tree and a 4-vertex tree that lacks its vertex 'e' and its
# edges past id 8: a measure of the first is foreign to the second.
FIVE = {"vertices": ["a", "b", "c", "d", "e"],
        "edges": [("a", "b", 1), ("a", "c", 1), ("a", "d", 1),
                  ("b", None, "inf"), ("c", None, "inf"), ("c", None, "inf"),
                  ("d", None, "inf"), ("d", None, "inf"), ("b", "e", 1),
                  ("e", None, "inf"), ("e", None, "inf")]}
FOUR = {"vertices": ["a", "b", "c", "d"], "edges": FIVE["edges"][:8] + [("b", None, "inf")]}


@pytest.mark.parametrize("entry", ["w2_squared", "optimal_plan", "pushforward_projection",
                                   "reconstruct_measure"])
@pytest.mark.parametrize("atom, named", [
    (TreePoint("e"), "TreePoint('e')"),
    (TreePoint(edge=10, offset=F(1, 2)), "TreePoint(edge=10, offset=1/2)"),
], ids=["vertex", "edge"])
def test_an_atom_the_tree_lacks_is_named(entry, atom, named):
    # the lookup that fails raises a MeasureError naming the atom, not a
    # bare KeyError (a vertex) or IndexError (an edge id past the tree's)
    five, four = build_tree(FIVE), build_tree(FOUR)
    mu = make_measure(five, [(five.vertex_point("c"), F(1, 2)), (atom, F(1, 2))])
    nu = dirac(four, four.vertex_point("d"))
    calls = {
        "w2_squared": lambda: w2_squared(four, mu, nu),
        "optimal_plan": lambda: optimal_plan(four, nu, mu),
        "pushforward_projection": lambda: pushforward_projection(
            four, geodesic_through_flag(four, four.flag("a", 0, 1)), mu),
        "reconstruct_measure": lambda: reconstruct_measure(four, radon_oracle(four, mu)),
    }
    message = rf"^atom {re.escape(named)} is not a point of this tree$"
    with pytest.raises(MeasureError, match=message):
        calls[entry]()


@pytest.mark.parametrize("atom", [TreePoint("e"), TreePoint(edge=10, offset=F(1, 2))],
                         ids=["vertex", "edge"])
def test_supported_on_names_an_atom_the_tree_lacks(atom):
    five, four = build_tree(FIVE), build_tree(FOUR)
    mu = make_measure(five, [(five.vertex_point("c"), F(1, 2)), (atom, F(1, 2))])
    geodesic = geodesic_through_flag(four, four.flag("a", 0, 1))
    message = rf"^atom {re.escape(repr(atom))} is not a point of this tree$"
    with pytest.raises(MeasureError, match=message):
        supported_on(mu, geodesic)


def test_travel_past_time_one_checks_no_point(canonical_calls):
    """Past time 1, ``_travel`` takes the distance it has to go between its
    two canonical points from ``Tree._distance``, which checks neither."""
    rng = random.Random(36)
    for _ in range(8):
        tree = leafless_tree(rng, rng.randint(1, 30))
        p, q = gen_point(tree, rng, 9), gen_point(tree, rng, 9)
        canonical_calls.clear()
        for t in (F(5, 4), 2, F(5, 2)):
            _travel(tree, p, q, t)
            _travel(tree, p, p, t)
        assert canonical_calls == []
        assert tree.distance(p, q) == tree._distance(p, q)


# ---------------------------------------------------------------------- #
# The merge over integer masses                                             #
# ---------------------------------------------------------------------- #
#
# pushforward_projection adds the ints of the measure's integer view. The
# reference below is the merge it replaced, which adds the masses as they
# are held.

def fraction_merge(geodesic, measure):
    """The projection's atoms, merged by adding the masses themselves."""
    merged = {}
    for point, mass in measure.atoms:
        near, coord = geodesic._project(point)
        known = merged.get(near)
        merged[near] = (coord, mass) if known is None else (coord, known[1] + mass)
    return tuple(sorted(merged.values(), key=itemgetter(0)))


def assert_merge_is_the_fraction_merge(tree, geodesic, measure):
    got = pushforward_projection(tree, geodesic, measure).atoms
    expected = fraction_merge(geodesic, measure)
    assert got == expected
    assert [str(m) for _, m in got] == [str(m) for _, m in expected]
    # a point that received one atom holds that atom's very mass object
    projected = [(geodesic._project(point), mass) for point, mass in measure.atoms]
    landed = Counter(near for (near, _), _ in projected)
    lone = {coord: mass for (near, coord), mass in projected if landed[near] == 1}
    for coord, mass in got:
        if coord in lone:
            assert mass is lone[coord]
        else:
            assert type(mass) is F


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@given(tree_and_measure())
@profile_settings(40)
def test_pushforward_is_the_fraction_merge(drawn):
    """On generated measures, and on hand-built ones the measure core would
    refuse: masses over distinct prime denominators with either sign (so a
    total other than 1), and int masses with either sign, which can cancel
    to 0 at a point."""
    tree, mu, rng = drawn
    flags = enumerate_flags(tree)
    geodesics = [geodesic_through_flag(tree, flag) for flag in rng.sample(flags, min(8, len(flags)))]
    primed = Measure(tuple((point, F(rng.choice((-1, 1)) * rng.randint(1, p - 1), p))
                           for (point, _), p in zip(mu.atoms, PRIMES)))
    ints = Measure(tuple((point, rng.choice((-2, -1, 1, 2))) for point, _ in mu.atoms))
    for measure in (mu, primed, ints):
        for geodesic in geodesics:
            assert_merge_is_the_fraction_merge(tree, geodesic, measure)


def test_pushforward_adds_no_fraction(monkeypatch):
    """Over every flag geodesic of a 40-vertex tree, the merge makes no
    ``Fraction`` addition; the geodesic's own chart, which places an atom
    on one of its edges, is not counted. The reference merge, under the
    same spy, adds."""
    rng = random.Random(40)
    tree = leafless_tree(rng, 40)
    mu = hidden_measure(tree, rng, 6)
    geodesics = [geodesic_through_flag(tree, flag) for flag in enumerate_flags(tree)]
    project = Geodesic._project
    with fraction_calls("__add__", "__radd__") as added:

        def uncounted_project(self, point):
            start = len(added)
            try:
                return project(self, point)
            finally:
                del added[start:]

        monkeypatch.setattr(Geodesic, "_project", uncounted_project)
        samples = [pushforward_projection(tree, geodesic, mu) for geodesic in geodesics]
        assert added == []
        assert [sample.atoms for sample in samples] == [fraction_merge(g, mu) for g in geodesics]
        assert added


def test_cached_integer_masses_keep_equality_hashing_and_pickling(tripod):
    """The core keeps the view it checked the total with; a measure built
    by hand makes it on first use. Neither changes equality, hashing or a
    pickle's round trip."""
    mu = make_measure(tripod, [(tripod.vertex_point("x"), F(1, 2)),
                               (tripod.vertex_point("y"), F(1, 3)),
                               (tripod.point(2, F(1, 2)), F(1, 6))])
    assert "_integer_masses" in vars(mu)
    by_hand = Measure(mu.atoms)
    assert "_integer_masses" not in vars(by_hand)
    assert by_hand == mu and hash(by_hand) == hash(mu)
    restored = pickle.loads(pickle.dumps(by_hand))
    assert restored == mu and hash(restored) == hash(mu)
    assert by_hand._integer_masses == mu._integer_masses == (6, (3, 2, 1))
    assert by_hand == mu and hash(by_hand) == hash(mu)
    restored = pickle.loads(pickle.dumps(mu))
    assert restored == mu and hash(restored) == hash(mu)
    assert restored._integer_masses == (6, (3, 2, 1))
    assert dirac(tripod, tripod.vertex_point("o"))._integer_masses == (1, (1,))


@pytest.mark.parametrize("entry", ["pushforward_projection", "optimal_plan", "w2_squared"])
@pytest.mark.parametrize("mass", ["1/2", 0.5, True], ids=["string", "float", "bool"])
def test_a_mass_that_is_not_a_rational_is_named(star3, entry, mass):
    a, b = star3.vertex_point("a"), star3.vertex_point("b")
    mu = Measure(((a, F(1, 2)), (b, mass)))
    nu = dirac(star3, star3.vertex_point("d"))
    geodesic = geodesic_through_flag(star3, star3.flag("c", 0, 1))
    calls = {
        "pushforward_projection": lambda: pushforward_projection(star3, geodesic, mu),
        "optimal_plan": lambda: optimal_plan(star3, nu, mu),
        "w2_squared": lambda: w2_squared(star3, mu, nu),
    }
    message = rf"^mass {re.escape(repr(mass))} at TreePoint\('b'\) is not a rational$"
    with pytest.raises(MeasureError, match=message):
        calls[entry]()


@pytest.mark.parametrize("entry, message", [
    ("optimal_plan", "the source measure is a str, not a Measure"),
    ("w2_squared", "the target measure is a NoneType, not a Measure"),
    ("interpolate", "the plan is a str, not a TransportPlan"),
    ("pushforward_projection", "the measure is a str, not a Measure"),
    ("second_moment", "the measure is a str, not a Measure"),
    ("supported_on", "the measure is a str, not a Measure"),
    ("check_nonextendable", "the measure is a str, not a Measure"),
    ("is_cyclically_monotone", "the plan is a str, not a TransportPlan"),
    ("pushforward_projection_geodesic", "the geodesic is a str, not a Geodesic"),
], ids=["optimal_plan", "w2_squared", "interpolate", "pushforward_projection", "second_moment",
        "supported_on", "check_nonextendable", "is_cyclically_monotone",
        "pushforward_projection_geodesic"])
def test_an_argument_of_the_wrong_kind_is_named(star3, entry, message):
    # named by its type in a MeasureError (a GeodesicError for the
    # geodesic), not met as a missing attribute
    a = star3.vertex_point("a")
    mu = dirac(star3, a)
    geodesic = geodesic_through_flag(star3, star3.flag("c", 0, 1))
    calls = {
        "optimal_plan": lambda: optimal_plan(star3, "x", mu),
        "w2_squared": lambda: w2_squared(star3, mu, None),
        "interpolate": lambda: interpolate(star3, "plan", 0),
        "pushforward_projection": lambda: pushforward_projection(star3, geodesic, "x"),
        "second_moment": lambda: second_moment(star3, "x", a),
        "supported_on": lambda: supported_on("x", geodesic),
        "check_nonextendable": lambda: check_nonextendable(star3, "x", a),
        "is_cyclically_monotone": lambda: is_cyclically_monotone(star3, "plan"),
        "pushforward_projection_geodesic": lambda: pushforward_projection(star3, "g", mu),
    }
    error = GeodesicError if entry.endswith("geodesic") else MeasureError
    with pytest.raises(error) as info:
        calls[entry]()
    assert str(info.value) == message


def test_an_int_mass_is_accepted(star3):
    """A hand-built Dirac's ``1`` counts as 1/1 everywhere, and a lone int
    mass passes through a projection as itself."""
    a, b = star3.vertex_point("a"), star3.vertex_point("b")
    by_hand, made = Measure(((a, 1),)), dirac(star3, a)
    geodesic = geodesic_through_flag(star3, star3.flag("c", 0, 1))
    projected = pushforward_projection(star3, geodesic, by_hand)
    assert projected == pushforward_projection(star3, geodesic, made)
    assert projected.atoms[0][1] is by_hand.atoms[0][1]
    nu = make_measure(star3, [(a, F(1, 2)), (b, F(1, 2))])
    assert optimal_plan(star3, by_hand, nu).squared_cost == optimal_plan(star3, made, nu).squared_cost
    assert w2_squared(star3, nu, by_hand) == w2_squared(star3, nu, made) == 2
