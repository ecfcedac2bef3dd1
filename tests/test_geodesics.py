"""Paths, projections, perpendiculars, flag geodesics, triangle comparison."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from common import (PRIMES, deep_caterpillar, distinct_points, fraction_calls, inside,
                    leafless_description, leafless_tree, random_point)
from conftest import profile_settings
from geodesic_reference import geodesic_through_edge
from treeradon import (
    CompletenessError,
    Geodesic,
    GeodesicError,
    SuiteConfig,
    TreePoint,
    build_tree,
    check_cat0_triangle,
    enumerate_flags,
    gen_point,
    gen_tree,
    geodesic_through_flag,
    midpoint,
    path,
    perpendicular,
    points_aligned,
)
from treeradon.geodesics import _flag_geodesic
from treeradon.radon import _router
from treeradon.transport import _cost_matrix


class TestPath:
    def test_length_equals_distance(self, tripod):
        p = tripod.point(0, F(3, 10))
        q = tripod.point(1, F(1, 2))
        seg = path(tripod, p, q)
        assert seg.length == tripod.distance(p, q)
        assert seg.coordinate_of(p) == 0
        assert seg.coordinate_of(q) == seg.length

    def test_degenerate(self, tripod):
        p = tripod.vertex_point("x")
        seg = path(tripod, p, p)
        assert seg.length == 0
        assert seg.point_at(0) == p

    def test_point_at_walks_junctions(self, tripod):
        seg = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        assert seg.point_at(1) == tripod.vertex_point("o")
        assert seg.point_at(F(3, 2)) == tripod.point(1, F(1, 2))
        with pytest.raises(GeodesicError):
            seg.point_at(3)

    def test_ray_between_two_joints_rejected(self, star3):
        # a ray has one vertex, so both joints around it are that vertex
        with pytest.raises(GeodesicError, match="revisit"):
            Geodesic(star3, [0, 3, 4], star3.vertex_point("c"), None)

    def test_contains(self, tripod):
        seg = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        assert seg.contains(tripod.point(0, F(1, 4)))
        assert not seg.contains(tripod.point(2, F(1, 4)))


# (edges, start, end, origin) for star3, with the message each raises
# (a revisited vertex is TestPath.test_ray_between_two_joints_rejected):
# spokes 0: c-a, 1: c-b, 2: c-d; rays 3, 4 at a, 5, 6 at b, 7, 8 at d
BAD_GEODESICS = [
    (([], "c", "c", None), "at least one edge"),
    (([0, 0], "a", "a", None), "cannot traverse an edge twice"),
    (([3, 5], None, None, None), "edges 3 and 5 do not meet"),
    (([0, 1], None, "b", None), "an infinite end requires a ray edge"),
    (([0, 1], "a", None, None), "an infinite end requires a ray edge"),
    (([3], None, None, None), "a single-edge geodesic needs both endpoints"),
    (([3], "a", None, None), "a single-edge geodesic needs both endpoints"),
    (([0, 1], (2, F(1, 2)), "b", None), "is not on edge 0"),
    (([0, 1], "a", "b", "d"), "origin must lie on the geodesic"),
    # the start sits halfway along spoke 0, so a and the points past the
    # start on that spoke are off the geodesic, though their edge is on it
    (([0, 1], (0, F(1, 2)), "b", "a"), "origin must lie on the geodesic"),
    (([0, 1], (0, F(1, 2)), "b", (0, F(3, 4))), "origin must lie on the geodesic"),
    (([0], (0, F(1, 4)), (0, F(1, 2)), "c"), "origin must lie on the geodesic"),
    # a vertex end that is not an end of its edge
    (([0], "b", "a", None), r"point TreePoint\('b'\) is not on edge 0"),
]


@pytest.mark.parametrize("args, message", BAD_GEODESICS)
def test_geodesic_constructor_rejects(star3, args, message):
    def point(spec):
        if spec is None:
            return None
        return star3.vertex_point(spec) if isinstance(spec, str) else star3.point(*spec)

    edges, start, end, origin = args
    with pytest.raises(GeodesicError, match=message):
        Geodesic(star3, edges, point(start), point(end), origin=point(origin))


def test_flag_geodesic_length_and_equality(star3):
    geo = geodesic_through_flag(star3, star3.flag("c", 0, 1))
    assert geo.length is None
    assert geo.__eq__("c") is NotImplemented
    assert geo != "c" and geo == geodesic_through_flag(star3, star3.flag("c", 0, 1))


def test_geodesic_state_is_fixed_at_construction(star3):
    geo = geodesic_through_flag(star3, star3.flag("c", 0, 2))
    before = {name: getattr(geo, name) for name in Geodesic.__slots__}
    points = [star3.vertex_point(v) for v in "cabd"]
    points += [star3.point(eid, F(1, 3)) for eid in range(len(star3.edges))]
    for point in points:
        near = geo.project(point)
        assert geo.contains(near)
        assert geo.contains(point) == (near == point)
        geo.coordinate_of(near)
    assert all(getattr(geo, name) is value for name, value in before.items())


class TestMidpoint:
    def test_symmetric_tips(self, tripod):
        assert midpoint(tripod, tripod.vertex_point("x"), tripod.vertex_point("y")) \
            == tripod.vertex_point("o")

    def test_half_edge(self, tripod):
        assert midpoint(tripod, tripod.vertex_point("x"), tripod.vertex_point("o")) \
            == tripod.point(0, F(1, 2))

    def test_star3_spokes(self, star3):
        assert midpoint(star3, star3.vertex_point("a"), star3.vertex_point("d")) \
            == star3.vertex_point("c")


class TestProjection:
    def test_opposite_leg_projects_to_center(self, tripod):
        seg = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        assert seg.project(tripod.vertex_point("z")) == tripod.vertex_point("o")

    def test_interior_off_leg(self, tripod):
        seg = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        assert seg.project(tripod.point(2, F(2, 5))) == tripod.vertex_point("o")

    def test_on_geodesic_is_fixed(self, tripod):
        seg = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        p = tripod.point(0, F(1, 4))
        assert seg.project(p) == p


class TestPerpendicular:
    # Expected sets are enumerated by hand from the component split at the
    # flag vertex; see the STAR3 edge-id map in common.py.

    def test_hub_pair(self, star3):
        perp = perpendicular(star3, star3.flag("c", 0, 1))
        assert perp.vertices == frozenset({"c", "d"})
        assert perp.edges == frozenset({2, 7, 8})

    def test_two_rays_at_spoke(self, star3):
        perp = perpendicular(star3, star3.flag("a", 3, 4))
        assert perp.vertices == frozenset({"a", "b", "c", "d"})

    def test_spoke_edge_and_ray(self, star3):
        perp = perpendicular(star3, star3.flag("a", 0, 3))
        assert perp.vertices == frozenset({"a"})
        assert perp.edges == frozenset({4})

    def test_membership_of_interior_points(self, star3):
        perp = perpendicular(star3, star3.flag("c", 0, 1))
        assert perp.contains(star3.point(2, F(1, 2)))
        assert perp.contains(star3.point(7, 5))
        assert not perp.contains(star3.point(0, F(1, 2)))


class TestFlagGeodesic:
    def test_contains_flag_and_is_complete(self, star3):
        flag = star3.flag("c", 0, 1)
        geo = geodesic_through_flag(star3, flag)
        assert geo.is_complete
        assert 0 in geo.edges and 1 in geo.edges
        assert "c" in geo.joints

    def test_origin_and_orientation(self, star3):
        geo = geodesic_through_flag(star3, star3.flag("c", 0, 1))
        assert geo.coordinate_of(star3.vertex_point("c")) == 0
        # positive direction heads into the smaller edge id (0, toward a)
        assert geo.coordinate_of(star3.vertex_point("a")) == 1
        assert geo.coordinate_of(star3.vertex_point("b")) == -1

    def test_deterministic_smallest_edge(self, star3):
        geo = geodesic_through_flag(star3, star3.flag("c", 0, 1))
        # beyond a the walk picks ray 3 (smallest id at a besides 0)
        assert geo.edges == (5, 1, 0, 3)

    def test_incomplete_tree_rejected(self, tripod):
        with pytest.raises(CompletenessError):
            geodesic_through_flag(tripod, tripod.flag("o", 0, 1))

    def test_through_edge_is_maximal(self, star3):
        geo = geodesic_through_edge(star3, 2)
        assert geo.is_maximal and 2 in geo.edges

    def test_level_set_matches_perpendicular(self, star3):
        flag = star3.flag("c", 0, 2)
        geo = geodesic_through_flag(star3, flag)
        perp = perpendicular(star3, flag)
        root = star3.vertex_point("c")
        for point in [star3.vertex_point("b"), star3.point(1, F(1, 3)),
                      star3.point(5, 2), star3.vertex_point("a"),
                      star3.point(2, F(1, 3))]:
            assert perp.contains(point) == (geo.project(point) == root)


class TestCat0:
    def test_tripod_tips_strict(self, tripod):
        x, y, z = (tripod.vertex_point(v) for v in "xyz")
        res = check_cat0_triangle(tripod, x, y, z, F(1, 2))
        assert (res.lhs, res.rhs) == (1, 3)
        assert res.holds and res.strict

    def test_aligned_equality(self, tripod):
        x = tripod.vertex_point("x")
        z = tripod.vertex_point("y")
        y = tripod.point(0, F(1, 3))  # on the x-y segment
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            res = check_cat0_triangle(tripod, x, y, z, t)
            assert res.lhs == res.rhs

    def test_endpoint_parameter(self, tripod):
        x, y, z = (tripod.vertex_point(v) for v in "xyz")
        res = check_cat0_triangle(tripod, x, y, z, 0)
        assert res.lhs == res.rhs == tripod.distance(y, x) ** 2

    def test_aligned_predicate(self, tripod):
        x, y, z = (tripod.vertex_point(v) for v in "xyz")
        assert not points_aligned(tripod, x, y, z)
        assert points_aligned(tripod, x, tripod.point(0, F(1, 2)), tripod.vertex_point("o"))


@st.composite
def complete_tree_case(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    cfg = SuiteConfig(seed=seed, max_vertices=7, max_denominator=9)
    tree = gen_tree(cfg, "complete", rng)
    flag = rng.choice(enumerate_flags(tree))
    points = [gen_point(tree, rng, 9) for _ in range(2)]
    return tree, flag, points


@given(complete_tree_case())
@settings(max_examples=50, deadline=None)
def test_projection_is_one_lipschitz(data):
    tree, flag, (p, q) = data
    geo = geodesic_through_flag(tree, flag)
    pp, qq = geo.project(p), geo.project(q)
    assert geo.project(pp) == pp
    assert tree.distance(pp, qq) <= tree.distance(p, q)


@given(complete_tree_case())
@settings(max_examples=50, deadline=None)
def test_perpendicular_is_projection_level_set(data):
    tree, flag, points = data
    geo = geodesic_through_flag(tree, flag)
    perp = perpendicular(tree, flag)
    root = tree.vertex_point(flag.vertex)
    for point in list(points) + [tree.vertex_point(v) for v in perp.vertices]:
        assert perp.contains(point) == (geo.project(point) == root)


# ---------------------------------------------------------------------- #
# The locator behind midpoints, the CAT(0) check and interpolation          #
# ---------------------------------------------------------------------- #

LOCATOR_TREES = ("finite", "complete", "leafless", "prime", "caterpillar", "leafy caterpillar")


def locator_tree(kind, rng):
    """A ``gen_tree`` tree of up to 30 vertices, a leafless tree of up to
    60, the same with a prime denominator of its own on every finite edge
    ("prime"), so that every vertex depth has a scale of its own, or a
    ``deep_caterpillar``, whose parent chains run 200 hops or more."""
    if kind in ("finite", "complete"):
        return gen_tree(SuiteConfig(max_vertices=30, max_valency=5), kind, rng)
    if kind == "leafless":
        return leafless_tree(rng, rng.randint(1, 60))
    if kind == "prime":
        description = leafless_description(rng, rng.randint(1, 60))
        primes = iter(rng.sample(PRIMES, len(description["edges"])))

        def length(p):
            # a numerator p·k + r with 0 < r < p keeps the denominator p
            return F(p * rng.randint(0, 3) + rng.randint(1, p - 1), p)

        description["edges"] = [(u, v, given if v is None else length(next(primes)))
                                for u, v, given in description["edges"]]
        return build_tree(description)
    return deep_caterpillar(rng, kind == "leafy caterpillar")


def locator_pairs(tree, rng):
    """Pairs of canonical points for each way a path can run: a point to
    itself, two points of one edge in both orders, ray points, a vertex
    and an ancestor any number of hops above it, a point inside the edge
    just above the meeting vertex with a point below that vertex, and
    random pairs."""
    vertex = tree._vertex
    p = random_point(tree, rng)
    pairs = [(p, p)]
    eid = rng.randrange(len(tree.edges))
    a, b = inside(tree, rng, eid), inside(tree, rng, eid)
    pairs += [(a, b), (b, a)]
    rays = [rec.id for rec in tree.edges if rec.is_ray]
    if rays:
        r = inside(tree, rng, rng.choice(rays))
        pairs += [(r, random_point(tree, rng)), (random_point(tree, rng), r),
                  (r, inside(tree, rng, rng.choice(rays)))]
    low = high = vertex[rng.choice(tree.vertices)]
    for _ in range(rng.randint(0, low.hops)):
        high = vertex[high.parent]
    pairs += [(TreePoint(low.id), TreePoint(high.id)), (TreePoint(high.id), TreePoint(low.id))]
    if high.parent is not None:
        above = inside(tree, rng, high.parent_edge)
        down = [e for e in low.incident if e != low.parent_edge]
        below = inside(tree, rng, rng.choice(down)) if down else TreePoint(low.id)
        pairs += [(above, below), (below, above), (above, TreePoint(low.id))]
    return pairs + [(random_point(tree, rng), random_point(tree, rng)) for _ in range(4)]


@given(st.integers(0, 2**32 - 1), st.sampled_from(LOCATOR_TREES))
@profile_settings(40)
def test_point_along_matches_path_point_at(seed, kind):
    rng = random.Random(seed)
    tree = locator_tree(kind, rng)
    if "caterpillar" in kind:
        assert max(rec.hops for rec in tree._vertex.values()) >= 200
    for p, q in locator_pairs(tree, rng):
        segment = path(tree, p, q)
        den = rng.randint(2, 40)
        for t in (F(0), F(1, 2), F(1), F(rng.randint(1, den - 1), den)):
            found = tree._point_along(p, q, t)
            assert found == segment.point_at(t * segment.length), (p, q, t)
            assert tree.canonical_point(found) is found


@given(st.integers(0, 2**32 - 1), st.sampled_from(("prime", "caterpillar", "leafy caterpillar")))
@profile_settings(20)
def test_depth_pairs_give_the_summed_path_lengths(seed, kind):
    # the distance and the cost matrix read depths as int pairs; the path
    # sums edge lengths and reads no depth. On the "prime" kind every
    # depth has its own scale, and the caterpillars climb 200 hops or more
    rng = random.Random(seed)
    tree = locator_tree(kind, rng)
    pairs = locator_pairs(tree, rng)
    for p, q in pairs:
        assert tree.distance(p, q) == path(tree, p, q).length, (p, q)
    sources, targets = [(p, None) for p, _ in pairs], [(q, None) for _, q in pairs]
    matrix, scale = _cost_matrix(tree, sources, targets)
    for (p, _), row in zip(sources, matrix):
        for (q, _), cost in zip(targets, row):
            assert F(cost, scale) == path(tree, p, q).length ** 2, (p, q)


@given(st.integers(0, 2**32 - 1), st.booleans())
@profile_settings(20)
def test_one_edge_pairs_meet_at_the_shallower_point(seed, leaves):
    # two points of one edge or ray, in both orders, against the closed
    # forms the metric once wrote for them apart: they meet at the shallower
    # point, their distance is the offsets' difference, and the point t of
    # the way from p to q sits at offset p + t·(q − p). The caterpillars
    # write finite edges child end first and parent end first, and the
    # leafless one holds rays
    rng = random.Random(seed)
    tree = deep_caterpillar(rng, leaves)
    vertex, root = tree._vertex, TreePoint(tree.vertices[0])
    kinds = {"ray": [], "u": [], "v": []}  # a finite edge by its child end
    for rec in tree.edges:
        kind = "ray" if rec.is_ray else "u" if vertex[rec.u].parent_edge == rec.id else "v"
        kinds[kind].append(rec.id)
    assert [bool(edges) for edges in kinds.values()] == [not leaves, True, True]
    for edges in kinds.values():
        for eid in rng.sample(edges, min(4, len(edges))):
            p, q = distinct_points(2, lambda: inside(tree, rng, eid))
            for a, b in ((p, q), (q, p)):
                shallower = min(a, b, key=lambda point: path(tree, root, point).length)
                meet = tree._meet(tree._foot(a), tree._foot(b))
                assert meet == tree._foot(shallower)[1:3], (a, b)
                assert F(*meet) == path(tree, root, shallower).length
                assert tree._distance(a, b) == abs(a.offset - b.offset)
                for t in (F(0), F(1, 3), F(1, 2), F(1)):
                    offset = a.offset + t * (b.offset - a.offset)
                    assert tree._point_along(a, b, t) == TreePoint(edge=eid, offset=offset)


def test_locating_makes_no_fraction_arithmetic():
    # _point_along and _distance work on int pairs and build each answer's
    # one Fraction from ints; every pair of locator_pairs, two points of
    # one edge included, on every kind of locator tree
    rng = random.Random(42)
    cases = [(tree, p, q, t) for tree in (locator_tree(kind, rng) for kind in LOCATOR_TREES)
             for p, q in locator_pairs(tree, rng) for t in (F(0), F(1, 3), F(1, 2), F(1))]
    assert any(p.edge is not None and p.edge == q.edge for _, p, q, _ in cases)
    with fraction_calls("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                        "__truediv__", "__rtruediv__", "__neg__", "__abs__",
                        "__eq__", "__lt__", "__le__", "__gt__", "__ge__") as calls:
        found = [(tree._point_along(p, q, t), tree._distance(p, q)) for tree, p, q, t in cases]
    assert calls == []
    for (tree, p, q, t), (point, distance) in zip(cases, found):
        segment = path(tree, p, q)
        assert (point, distance) == (segment.point_at(t * segment.length), segment.length)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("leaves", (False, True))
def test_point_along_lands_on_every_vertex_depth(seed, leaves):
    # a random fraction rarely lands on a vertex, so every vertex depth
    # and every edge midpoint on a deepest vertex's path to the root is
    # asked for in turn, in both directions; the caterpillar writes its
    # edges child first and parent first
    tree = deep_caterpillar(random.Random(seed), leaves)
    vertex = tree._vertex
    chain = [max(vertex.values(), key=lambda rec: rec.hops)]
    while chain[-1].parent is not None:
        chain.append(vertex[chain[-1].parent])
    assert len(chain) > 200
    bottom, root = chain[0], chain[-1]
    length = F(*bottom.depth)
    pairs = ((TreePoint(bottom.id), TreePoint(root.id), lambda depth: (length - depth) / length),
             (TreePoint(root.id), TreePoint(bottom.id), lambda depth: depth / length))
    for p, q, at in pairs:
        for rec in chain:
            found = tree._point_along(p, q, at(F(*rec.depth)))
            assert found == TreePoint(rec.id) and found.vertex is rec.id, (p, q, rec.id)
        for rec in chain[:-1]:
            edge = tree.edges[rec.parent_edge]
            found = tree._point_along(p, q, at(F(*rec.depth) - edge.length / 2))
            assert found == tree.point(edge.id, edge.length / 2), (p, q, edge.id)
            assert tree.canonical_point(found) is found
    assert {tree.edges[rec.parent_edge].u == rec.id for rec in chain[:-1]} == {False, True}


# ---------------------------------------------------------------------- #
# Reconstruction's routing and the flag positions it records                #
# ---------------------------------------------------------------------- #

@given(st.integers(0, 2**32 - 1), st.sampled_from(("complete", "leafless", "caterpillar")))
@profile_settings(40)
def test_routed_positions_are_the_flag_positions(seed, kind):
    # a random next-edge rule: before each step, the flags at the vertex
    # are drawn read or unread, and the routing takes the first other edge
    # whose flag with the incoming one is unread, else the first other edge
    rng = random.Random(seed)
    tree = locator_tree(kind, rng)
    raw = [None] * tree._flag_count
    position_at = {}
    routed = _router(tree, raw, position_at)

    def rule(tree, vertex, via):
        record = tree._vertex[vertex]
        k = len(record.incident)
        for at in range(record.first_flag, record.first_flag + k * (k - 1) // 2):
            raw[at] = rng.choice((None, F(0)))
        taken = routed(tree, vertex, via)
        others = [eid for eid in record.incident if eid != via]
        unread = [eid for eid in others if raw[tree._flag_position(vertex, via, eid)] is None]
        assert taken == (unread or others)[0]
        return taken

    flags = enumerate_flags(tree)
    for flag in rng.sample(flags, min(12, len(flags))):
        position_at.clear()
        geodesic = _flag_geodesic(tree, flag, rule)
        edges = geodesic.edges
        walked = {}
        for i, joint in enumerate(geodesic.joints):
            if joint != flag.vertex:
                walked[joint] = tree._flag_position(joint, edges[i], edges[i + 1])
        assert position_at == walked
