"""The per-edge coordinate chart against the code it replaced.

Each ``Geodesic`` reads raw coordinates through one chart ``(base, sign)``
per edge. ``ParentCoordinates`` is the earlier code, with its single-edge
direction and its ``abs()`` about a joint; on every geodesic the two must
agree on the raw coordinates, ``point_at``, ``coordinate_of``, the
projection anchors and ``project``.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from geodesic_reference import ParentCoordinates, geodesic_through_edge
from test_metric_reference import (
    probe_points,
    random_caterpillar,
    random_point,
    random_tree,
    segment_cases,
)
from treeradon import Geodesic, GeodesicError, geodesic_through_flag, path


def outcome(call, *args):
    """A call's value, or the GeodesicError class when it raises one."""
    try:
        return call(*args)
    except GeodesicError:
        return GeodesicError


def probe_coordinates(ref):
    """Coordinates at and between the joints and finite ends, and past
    each end: before the start, past the end, or far along a ray."""
    raws = sorted(set(ref._joint_raw) | {r for r in (ref._start_raw, ref._end_raw)
                                         if r is not None})
    raws += [(a + b) / 2 for a, b in zip(raws, raws[1:])]
    raws += [raws[0] - F(1, 3), raws[-1] + F(7, 2)]
    return [raw - ref._origin_raw for raw in raws]


def assert_matches_parent(geodesic, points):
    tree = geodesic.tree
    ref = ParentCoordinates(geodesic)
    assert (geodesic._joint_raw, geodesic._start_raw, geodesic._end_raw, geodesic._origin_raw) \
        == (ref._joint_raw, ref._start_raw, ref._end_raw, ref._origin_raw)
    for i, eid in enumerate(geodesic.edges):
        length = tree.edge(eid).length
        for offset in ((F(0), F(1), F(5, 2)) if length is None else (F(0), length / 3, length)):
            assert geodesic._edge_raw(offset, i) == ref._edge_raw(offset, i)
    coordinates = probe_coordinates(ref)
    for c in coordinates:
        assert outcome(geodesic.point_at, c) == outcome(ref.point_at, c)
    on_line = [ref.point_at(c) for c in coordinates if outcome(ref.point_at, c) is not GeodesicError]
    for x in points + on_line:
        assert outcome(geodesic.coordinate_of, x) == outcome(ref.coordinate_of, x)
        assert geodesic.project(x) == ref.project(x)
        assert geodesic._project(tree.canonical_point(x)) == ref._project(tree.canonical_point(x))
    assert (geodesic._anchors, geodesic._apex) == ref._anchor_table()


def inside(tree, rng, eid):
    """A point strictly inside an edge (at some distance along a ray)."""
    length = tree.edge(eid).length
    top = F(rng.randint(2, 12)) if length is None else length
    return tree.point(eid, top * F(rng.randint(1, 7), 8))


def hand_built(tree, rng, base):
    """A geodesic on a run of ``base``'s edges, built directly, whose ends
    lie inside its end edges (or at the joint next to one, or at infinity
    when the run keeps an infinite end of ``base``), with its origin
    anywhere on it."""
    a = rng.randrange(len(base.edges))
    b = rng.randrange(a, len(base.edges))
    edges, joints = base.edges[a:b + 1], base.joints[a:b]
    start, end = inside(tree, rng, edges[0]), inside(tree, rng, edges[-1])
    if joints:
        if rng.random() < 0.2:
            start = tree.vertex_point(joints[0])
        if rng.random() < 0.2:
            end = tree.vertex_point(joints[-1])
        if a == 0 and base.start is None and rng.random() < 0.5:
            start = None
        if b == len(base.edges) - 1 and base.end is None and rng.random() < 0.5:
            end = None
    origins = [p for p in (start, end) if p is not None]
    origins += [tree.vertex_point(j) for j in joints] + [inside(tree, rng, e) for e in edges[1:-1]]
    return Geodesic(tree, edges, joints, start, end, origin=rng.choice(origins))


def ray_segments(tree, rng):
    """Single-edge segments on one ray, run both ways, and from its vertex."""
    rays = [rec.id for rec in tree.edges if rec.is_ray]
    if not rays:
        return []
    eid = rng.choice(rays)
    p, q = tree.point(eid, F(rng.randint(1, 9), 2)), tree.point(eid, F(rng.randint(10, 19), 2))
    vertex = tree.vertex_point(tree.edge(eid).u)
    return [path(tree, p, q), path(tree, q, p), path(tree, vertex, q), path(tree, q, vertex)]


def chart_cases(tree, rng):
    """Path segments, maximal and flag geodesics, and hand-built ones."""
    maximal = [geodesic_through_edge(tree, rng.randrange(len(tree.edges))) for _ in range(2)]
    if tree.geodesically_complete:
        for _ in range(2):
            x = rng.choice(tree.vertices)
            e, f = rng.sample(tree.incident_edges(x), 2)
            maximal.append(geodesic_through_flag(tree, tree.flag(x, e, f)))
    built = [hand_built(tree, rng, rng.choice(maximal)) for _ in range(3)]
    return segment_cases(tree, rng) + ray_segments(tree, rng) + maximal + built


@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_chart_matches_parent_coordinates(seed, n, leaves, caterpillar):
    rng = random.Random(seed)
    tree = random_caterpillar(rng, n, leaves) if caterpillar else random_tree(rng, max(n, 2), leaves)
    for geodesic in chart_cases(tree, rng):
        points = probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(3)]
        assert_matches_parent(geodesic, points)


def test_one_flipped_chart_sign_is_caught():
    rng = random.Random(7)
    for tree in (random_tree(rng, 12, leaves=False), random_caterpillar(rng, 6, leaves=True)):
        for geodesic in chart_cases(tree, rng):
            points = probe_points(tree, geodesic, rng)
            assert_matches_parent(geodesic, points)
            for k, (base, sign) in enumerate(geodesic._chart):
                flipped = Geodesic(tree, geodesic.edges, geodesic.joints,
                                   geodesic.start, geodesic.end, geodesic.origin)
                flipped._chart = list(geodesic._chart)
                flipped._chart[k] = (base, -sign)
                with pytest.raises(AssertionError):
                    assert_matches_parent(flipped, points)
