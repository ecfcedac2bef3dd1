"""The per-edge coordinate chart against the code it replaced.

Each ``Geodesic`` reads raw coordinates through one chart ``(base, sign)``
per edge, measured from its origin. ``ParentCoordinates`` is the earlier
code, with its single-edge direction and its ``abs()`` about a joint, and
measures raws from the first joint (or the start); on every geodesic the
library's raws must be the reference's less the reference's origin raw,
and the two must agree on ``point_at``, ``coordinate_of``, the projection
anchors and ``project``. Path segments and flag geodesics are built from
their own walks, so each must also equal, slot by slot, the geodesic the
validating constructor builds on the same edges, ends and origin.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from common import probe_points, random_caterpillar, random_point, random_tree, segment_cases
from conftest import profile_settings
from geodesic_reference import ParentCoordinates, geodesic_through_edge
from treeradon import (
    Geodesic,
    GeodesicError,
    geodesic_through_flag,
    make_measure,
    path,
    pushforward_projection,
)
from treeradon.geodesics import _flag_geodesic


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
    origin = ref._origin_raw

    def shifted(raw):
        return None if raw is None else raw - origin

    assert (geodesic._joint_raw, geodesic._start_raw, geodesic._end_raw) \
        == ([shifted(r) for r in ref._joint_raw], shifted(ref._start_raw), shifted(ref._end_raw))
    for i, eid in enumerate(geodesic.edges):
        length = tree.edge(eid).length
        for offset in ((F(0), F(1), F(5, 2)) if length is None else (F(0), length / 3, length)):
            assert geodesic._edge_raw(offset, i) == shifted(ref._edge_raw(offset, i))
    coordinates = probe_coordinates(ref)
    for c in coordinates:
        assert outcome(geodesic.point_at, c) == outcome(ref.point_at, c)
    on_line = [ref.point_at(c) for c in coordinates if outcome(ref.point_at, c) is not GeodesicError]
    for x in points + on_line:
        assert outcome(geodesic.coordinate_of, x) == outcome(ref.coordinate_of, x)
        assert geodesic.project(x) == ref.project(x)
        near, raw = ref._project(tree.canonical_point(x))
        assert geodesic._project(tree.canonical_point(x)) == (near, shifted(raw))
    anchors, apex = ref._anchor_table()
    assert (geodesic._anchors, geodesic._apex) \
        == ({v: (near, shifted(raw)) for v, (near, raw) in anchors.items()}, apex)


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
    return Geodesic(tree, edges, start, end, origin=rng.choice(origins))


def ray_segments(tree, rng):
    """Single-edge segments on one ray, run both ways, and from its vertex."""
    rays = [rec.id for rec in tree.edges if rec.is_ray]
    if not rays:
        return []
    eid = rng.choice(rays)
    p, q = tree.point(eid, F(rng.randint(1, 9), 2)), tree.point(eid, F(rng.randint(10, 19), 2))
    vertex = tree.vertex_point(tree.edge(eid).u)
    return [path(tree, p, q), path(tree, q, p), path(tree, vertex, q), path(tree, q, vertex)]


def any_other_edge(rng):
    """A next-edge rule that takes a random edge other than the one the walk
    came by: a flag geodesic need not follow ``_onward``, and
    reconstruction's own rule does not."""
    return lambda tree, vertex, via: rng.choice(
        [eid for eid in tree.incident_edges(vertex) if eid != via])


def chart_cases(tree, rng):
    """Path segments, maximal and flag geodesics (under the walk rule and
    under a random one), and hand-built ones."""
    maximal = [geodesic_through_edge(tree, rng.randrange(len(tree.edges))) for _ in range(2)]
    if tree.geodesically_complete:
        for _ in range(2):
            x = rng.choice(tree.vertices)
            e, f = rng.sample(tree.incident_edges(x), 2)
            maximal.append(geodesic_through_flag(tree, tree.flag(x, e, f)))
            maximal.append(_flag_geodesic(tree, tree.flag(x, e, f), any_other_edge(rng)))
    built = [hand_built(tree, rng, rng.choice(maximal)) for _ in range(3)]
    return segment_cases(tree, rng) + ray_segments(tree, rng) + maximal + built


def assert_matches_constructor(geodesic):
    """Every slot equals that of the public constructor's geodesic on the
    same edges, ends and origin: a walk that ``path`` or ``_flag_geodesic``
    handed to the core builds what the validating constructor builds."""
    again = Geodesic(geodesic.tree, geodesic.edges, geodesic.start, geodesic.end,
                     origin=geodesic.origin)
    for slot in Geodesic.__slots__:
        assert getattr(geodesic, slot) == getattr(again, slot), slot


@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.booleans(), st.booleans())
@profile_settings(40)
def test_chart_matches_parent_coordinates(seed, n, leaves, caterpillar):
    rng = random.Random(seed)
    tree = random_caterpillar(rng, n, leaves) if caterpillar else random_tree(rng, max(n, 2), leaves)
    for geodesic in chart_cases(tree, rng):
        assert_matches_constructor(geodesic)
        points = probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(3)]
        assert_matches_parent(geodesic, points)


def test_one_flipped_chart_sign_is_caught():
    rng = random.Random(7)
    for tree in (random_tree(rng, 12, leaves=False), random_caterpillar(rng, 6, leaves=True)):
        for geodesic in chart_cases(tree, rng):
            points = probe_points(tree, geodesic, rng)
            assert_matches_parent(geodesic, points)
            for k, (base, sign) in enumerate(geodesic._chart):
                flipped = Geodesic(tree, geodesic.edges, geodesic.start, geodesic.end,
                                   geodesic.origin)
                flipped._chart = list(geodesic._chart)
                flipped._chart[k] = (base, -sign)
                with pytest.raises(AssertionError):
                    assert_matches_parent(flipped, points)


# Where a public ``origin=`` can sit on a maximal geodesic; None is the
# default origin (the start, or the first joint when the start is infinite).
PLACEMENTS = ("joint", "start", "end", "finite edge", "ray", None)


def placed_origins(tree, rng, geodesic, placement):
    """The origins of one placement on a maximal geodesic."""
    records = [tree.edge(eid) for eid in geodesic.edges]
    if placement == "joint":
        return [tree.vertex_point(j) for j in geodesic.joints]
    if placement in ("start", "end"):
        end = getattr(geodesic, placement)
        return [] if end is None else [end]
    if placement == "finite edge":
        return [inside(tree, rng, rec.id) for rec in records if not rec.is_ray]
    if placement == "ray":
        return [inside(tree, rng, rec.id) for rec in records if rec.is_ray]
    return [None]


def reference_pushforward(tree, ref, measure):
    """The projection's sample as the earlier code took it: each atom's raw
    coordinate less the origin's, masses merged from zero."""
    merged = {}
    for point, mass in measure.atoms:
        coord = ref._project(tree.canonical_point(point))[1] - ref._origin_raw
        merged[coord] = merged.get(coord, F(0)) + mass
    return tuple(sorted(merged.items()))


@pytest.mark.parametrize("placement", PLACEMENTS)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
@profile_settings(25)
def test_every_origin_placement_matches_parent(placement, seed, n):
    rng = random.Random(seed)
    tree = random_tree(rng, n, leaves=True)
    bases = [geodesic_through_edge(tree, eid)
             for eid in rng.sample(range(len(tree.edges)), min(8, len(tree.edges)))]
    cases = [(base, origin) for base in bases
             for origin in placed_origins(tree, rng, base, placement)]
    assume(cases)
    base, origin = rng.choice(cases)
    geodesic = Geodesic(tree, base.edges, base.start, base.end, origin=origin)
    ref = ParentCoordinates(geodesic)
    for c in probe_coordinates(ref):
        assert outcome(geodesic.point_at, c) == outcome(ref.point_at, c)
    for x in probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(4)]:
        assert outcome(geodesic.coordinate_of, x) == outcome(ref.coordinate_of, x)
        assert geodesic.project(x) == ref.project(x)
    weights = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
    mu = make_measure(tree, [(random_point(tree, rng), F(w, sum(weights))) for w in weights])
    sample = pushforward_projection(tree, geodesic, mu)
    expected = reference_pushforward(tree, ref, mu)
    assert sample.atoms == expected
    assert sample.to_measure(tree) == make_measure(tree, ((ref.point_at(c), m) for c, m in expected))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
@profile_settings(40)
def test_origin_off_the_geodesic_is_rejected(seed, n, leaves):
    rng = random.Random(seed)
    tree = random_tree(rng, max(n, 2), leaves)
    for geodesic in chart_cases(tree, rng):
        ref = ParentCoordinates(geodesic)
        for x in probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(3)]:
            args = (tree, geodesic.edges, geodesic.start, geodesic.end)
            if ref._raw_of(tree.canonical_point(x)) is None:
                with pytest.raises(GeodesicError, match="origin must lie on the geodesic"):
                    Geodesic(*args, origin=x)
            else:
                moved = Geodesic(*args, origin=x)
                assert moved.coordinate_of(x) == 0
                assert moved.point_at(0) == tree.canonical_point(x)
