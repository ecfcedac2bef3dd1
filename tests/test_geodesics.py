"""Paths, projections, perpendiculars, flag geodesics, triangle comparison."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from geodesic_reference import geodesic_through_edge
from treeradon import (
    CompletenessError,
    Geodesic,
    GeodesicError,
    SuiteConfig,
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
