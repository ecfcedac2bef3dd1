"""The per-edge coordinate chart against its definition.

Each ``Geodesic`` reads coordinates through one chart ``(base, sign)`` per
edge, measured from its origin. The metric alone fixes what the charts
must give: the coordinate of a point of the geodesic is its distance from
the start side less the origin's, so the origin sits at 0 and coordinates
grow from the start toward the end at unit speed; ``point_at`` and
``coordinate_of`` are inverse, canonical and defined exactly between the
finite ends; and the nearest point is the gate, the point of the geodesic
through which every path to it passes. ``assert_chart_definition`` checks
these with ``Tree.distance`` and the public methods only, with
``far_ends`` standing in for infinite ends. Path segments and flag
geodesics are built from their own walks, so each must also equal, slot
by slot, the geodesic the validating constructor builds on the same edges,
ends and origin.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from common import (
    far_ends, inside, probe_points, random_caterpillar, random_point, random_tree, segment_cases,
)
from conftest import profile_settings
from geodesic_reference import geodesic_through_edge
from treeradon import (
    DomainError,
    Geodesic,
    GeodesicError,
    geodesic_through_flag,
    make_measure,
    path,
    pushforward_projection,
)
from treeradon.geodesics import _flag_geodesic

pytestmark = pytest.mark.deep


def outcome(call, *args):
    """A call's value, or the GeodesicError class when it raises one."""
    try:
        return call(*args)
    except GeodesicError:
        return GeodesicError


def between(tree, a, b, x):
    """Whether ``x`` lies on the path from ``a`` to ``b``."""
    return tree.distance(a, x) + tree.distance(x, b) == tree.distance(a, b)


def is_canonical(tree, point):
    try:
        return tree.canonical_point(point) == point
    except DomainError:
        return False


def probe_coordinates(geodesic, coordinate):
    """Coordinates at and between the origin, the joints and the finite
    ends, and past each end: before the start, past the end, or far along
    a ray."""
    tree = geodesic.tree
    known = {coordinate(tree.vertex_point(j)) for j in geodesic.joints} | {F(0)}
    known |= {coordinate(end) for end in (geodesic.start, geodesic.end) if end is not None}
    known = sorted(known)
    return (known + [(a + b) / 2 for a, b in zip(known, known[1:])]
            + [known[0] - F(1, 3), known[-1] + F(7, 2)])


def assert_chart_definition(geodesic, points):
    tree, origin = geodesic.tree, geodesic.origin
    a, b = far_ends(geodesic)

    def coordinate(x):
        return tree.distance(a, x) - tree.distance(a, origin)

    lo = None if geodesic.start is None else coordinate(geodesic.start)
    hi = None if geodesic.end is None else coordinate(geodesic.end)
    assert outcome(geodesic.point_at, 0) == origin and outcome(geodesic.coordinate_of, origin) == 0
    on_line = []
    for c in probe_coordinates(geodesic, coordinate):
        if (lo is not None and c < lo) or (hi is not None and c > hi):
            assert outcome(geodesic.point_at, c) is GeodesicError, c
            continue
        y = outcome(geodesic.point_at, c)
        assert y is not GeodesicError and is_canonical(tree, y), (c, y)
        assert between(tree, a, b, y) and coordinate(y) == c, (c, y)
        on_line.append(y)
    for x in points + on_line:
        if between(tree, a, b, x):
            assert outcome(geodesic.coordinate_of, x) == coordinate(x), x
        else:
            assert outcome(geodesic.coordinate_of, x) is GeodesicError, x
        near = geodesic.project(x)
        assert is_canonical(tree, near) and between(tree, a, b, near), (x, near)
        # the gate: the paths from x to both ends pass the nearest point
        d = tree.distance(x, near)
        assert tree.distance(x, a) == d + tree.distance(near, a), (x, near)
        assert tree.distance(x, b) == d + tree.distance(near, b), (x, near)


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
def test_chart_matches_its_definition(seed, n, leaves, caterpillar):
    rng = random.Random(seed)
    tree = random_caterpillar(rng, n, leaves) if caterpillar else random_tree(rng, max(n, 2), leaves)
    for geodesic in chart_cases(tree, rng):
        assert_matches_constructor(geodesic)
        points = probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(3)]
        assert_chart_definition(geodesic, points)


def test_one_flipped_chart_sign_is_caught():
    # a segment of length 0 has no point off its one coordinate, so a flip
    # of its chart changes no answer and is not asked for
    rng = random.Random(7)
    for tree in (random_tree(rng, 12, leaves=False), random_caterpillar(rng, 6, leaves=True)):
        for geodesic in chart_cases(tree, rng):
            if geodesic.length == 0:
                continue
            points = probe_points(tree, geodesic, rng)
            assert_chart_definition(geodesic, points)
            for k, (base, sign) in enumerate(geodesic._chart):
                flipped = Geodesic(tree, geodesic.edges, geodesic.start, geodesic.end,
                                   geodesic.origin)
                flipped._chart = list(geodesic._chart)
                flipped._chart[k] = (base, -sign)
                with pytest.raises(AssertionError):
                    assert_chart_definition(flipped, points)


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


@pytest.mark.parametrize("placement", PLACEMENTS)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
@profile_settings(25)
def test_every_origin_placement_matches_parent(placement, seed, n):
    # the parent is the maximal geodesic with its default origin; moving
    # the origin to a point at the parent's coordinate s lowers every
    # coordinate by s and moves no point, nearest point or projected atom
    rng = random.Random(seed)
    tree = random_tree(rng, n, leaves=True)
    bases = [geodesic_through_edge(tree, eid)
             for eid in rng.sample(range(len(tree.edges)), min(8, len(tree.edges)))]
    cases = [(base, origin) for base in bases
             for origin in placed_origins(tree, rng, base, placement)]
    assume(cases)
    base, origin = rng.choice(cases)
    parent = Geodesic(tree, base.edges, base.start, base.end)
    geodesic = Geodesic(tree, base.edges, base.start, base.end, origin=origin)
    shift = parent.coordinate_of(geodesic.origin)
    points = probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(4)]
    assert_chart_definition(geodesic, points)
    for c in probe_coordinates(parent, parent.coordinate_of):
        assert outcome(geodesic.point_at, c - shift) == outcome(parent.point_at, c)
    for x in points:
        got, want = outcome(geodesic.coordinate_of, x), outcome(parent.coordinate_of, x)
        assert got == (want if want is GeodesicError else want - shift)
        assert geodesic.project(x) == parent.project(x)
    weights = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
    mu = make_measure(tree, [(random_point(tree, rng), F(w, sum(weights))) for w in weights])
    sample, expected = (pushforward_projection(tree, geodesic, mu),
                        pushforward_projection(tree, parent, mu))
    assert sample.atoms == tuple((c - shift, m) for c, m in expected.atoms)
    assert sample.to_measure(tree) == expected.to_measure(tree)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
@profile_settings(40)
def test_origin_off_the_geodesic_is_rejected(seed, n, leaves):
    rng = random.Random(seed)
    tree = random_tree(rng, max(n, 2), leaves)
    for geodesic in chart_cases(tree, rng):
        a, b = far_ends(geodesic)
        for x in probe_points(tree, geodesic, rng) + [random_point(tree, rng) for _ in range(3)]:
            args = (tree, geodesic.edges, geodesic.start, geodesic.end)
            if not between(tree, a, b, x):
                with pytest.raises(GeodesicError, match="origin must lie on the geodesic"):
                    Geodesic(*args, origin=x)
            else:
                moved = Geodesic(*args, origin=x)
                assert moved.coordinate_of(x) == 0
                assert moved.point_at(0) == tree.canonical_point(x)
