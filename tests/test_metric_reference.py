"""The rooted metric against the per-source searches it replaced.

``Tree.distance``, ``path``, ``midpoint`` and ``Geodesic.project`` derive
from the parent links a tree records once, at construction. The reference
helpers below are the earlier implementations, kept verbatim apart from
caching: a single-source search from each anchor vertex, the minimum over
anchor pairs for distances and paths, and for projections both the minimum
over junctions and finite ends and the tree median of the point and the
geodesic's finite span. Both projection references tell whether a point
lies on the geodesic with ``ParentCoordinates``, not with the projection
under test.
"""

import functools
import pickle
import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from common import probe_points, random_caterpillar, random_point, random_tree, segment_cases
from conftest import profile_settings
from geodesic_reference import ParentCoordinates, geodesic_through_edge
from treeradon import (
    Geodesic,
    Measure,
    TreePoint,
    geodesic_through_flag,
    midpoint,
    path,
    pushforward_projection,
)

pytestmark = pytest.mark.deep


@functools.lru_cache(maxsize=1024)
def reference_maps_from(tree, source):
    """Single-source vertex distances and parent pointers."""
    dist = {source: F(0)}
    parent = {source: (None, None)}
    stack = [source]
    while stack:
        w = stack.pop()
        for eid in tree.incident_edges(w):
            rec = tree.edge(eid)
            if rec.is_ray:
                continue
            o = rec.other_end(w)
            if o not in dist:
                dist[o] = dist[w] + rec.length
                parent[o] = (w, eid)
                stack.append(o)
    return dist, parent


def reference_anchors(tree, point):
    """A vertex anchors to itself at arm 0; an interior point to the
    endpoint(s) of its carrier edge."""
    if point.is_vertex:
        return {point.vertex: F(0)}
    rec = tree.edge(point.edge)
    anchors = {rec.u: point.offset}
    if rec.v is not None:
        anchors[rec.v] = rec.length - point.offset
    return anchors


def reference_nearest_anchors(tree, p, q):
    """``(distance, a, b)`` minimised over the anchor pairs of p and q."""
    best = None
    q_anchors = reference_anchors(tree, q)
    for a, da in reference_anchors(tree, p).items():
        dist, _ = reference_maps_from(tree, a)
        for b, db in q_anchors.items():
            total = da + dist[b] + db
            if best is None or total < best[0]:
                best = (total, a, b)
    return best


def reference_distance(tree, p, q):
    p = tree.canonical_point(p)
    q = tree.canonical_point(q)
    if p == q:
        return F(0)
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        return abs(p.offset - q.offset)
    return reference_nearest_anchors(tree, p, q)[0]


def reference_path(tree, p, q):
    """The path from p to q and, separately, its joints: the chain's own
    vertices between the ends, not the ones the geodesic derives."""
    p = tree.canonical_point(p)
    q = tree.canonical_point(q)
    if p == q:
        eid = p.edge if not p.is_vertex else tree.incident_edges(p.vertex)[0]
        return Geodesic(tree, [eid], p, p), []
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        return Geodesic(tree, [p.edge], p, q), []
    _, a, b = reference_nearest_anchors(tree, p, q)
    _, parents = reference_maps_from(tree, a)
    chain_vertices = [b]
    chain_edges = []
    w = b
    while w != a:
        pv, pe = parents[w]
        chain_edges.append(pe)
        chain_vertices.append(pv)
        w = pv
    chain_vertices.reverse()
    chain_edges.reverse()
    edges = list(chain_edges)
    lo, hi = 0, len(chain_vertices)
    if p.is_vertex:
        start = tree.vertex_point(a)
        lo = 1
    else:
        edges.insert(0, p.edge)
        start = p
    if q.is_vertex:
        end = tree.vertex_point(b)
        hi -= 1
    else:
        edges.append(q.edge)
        end = q
    return Geodesic(tree, edges, start, end), chain_vertices[lo:hi]


def reference_project(geodesic, point):
    """The nearest of the geodesic's junctions and finite ends."""
    tree = geodesic.tree
    point = tree.canonical_point(point)
    if ParentCoordinates(geodesic)._raw_of(point) is not None:
        return point
    candidates = [tree.vertex_point(j) for j in geodesic.joints]
    candidates += [end for end in (geodesic.start, geodesic.end) if end is not None]
    return min(candidates, key=lambda cand: reference_distance(tree, point, cand))


def reference_project_median(geodesic, point):
    """The tree median of the point and the ends a, b of the geodesic's
    finite span (an infinite end is replaced by the last junction before
    its ray), at coordinate ``c_a + (d(a,x) + (c_b − c_a) − d(x,b))/2``."""
    tree = geodesic.tree
    point = tree.canonical_point(point)
    ref = ParentCoordinates(geodesic)
    if ref._raw_of(point) is not None:
        return point
    a = geodesic.start if geodesic.start is not None else TreePoint(vertex=geodesic.joints[0])
    b = geodesic.end if geodesic.end is not None else TreePoint(vertex=geodesic.joints[-1])
    raw_a, raw_b = ref._raw_of(a), ref._raw_of(b)
    d_a, d_b = tree.distance(a, point), tree.distance(point, b)
    raw = raw_a + (d_a + (raw_b - raw_a) - d_b) / 2
    if raw == raw_a:
        return a
    if raw == raw_b:
        return b
    return TreePoint(vertex=geodesic.joints[bisect_left(ref._joint_raw, raw)])


def random_geodesics(tree, rng):
    """Finite segments, maximal geodesics through edges, and (leafless
    trees only) complete geodesics through flags."""
    geodesics = [path(tree, random_point(tree, rng), random_point(tree, rng)) for _ in range(3)]
    geodesics += [geodesic_through_edge(tree, rng.randrange(len(tree.edges))) for _ in range(2)]
    if tree.geodesically_complete:
        for _ in range(2):
            x = rng.choice(tree.vertices)
            e, f = rng.sample(tree.incident_edges(x), 2)
            geodesics.append(geodesic_through_flag(tree, tree.flag(x, e, f)))
    return geodesics


@given(st.integers(0, 2**32 - 1), st.integers(6, 100), st.booleans())
@profile_settings(40)
def test_rooted_metric_matches_per_source_reference(seed, n, leaves):
    rng = random.Random(seed)
    tree = random_tree(rng, n, leaves)
    for _ in range(12):
        p, q = random_point(tree, rng), random_point(tree, rng)
        assert tree.distance(p, q) == reference_distance(tree, p, q)
        got = path(tree, p, q)
        want, want_joints = reference_path(tree, p, q)
        assert (got.edges, got.joints, got.start, got.end) == \
            (want.edges, tuple(want_joints), want.start, want.end)
        assert midpoint(tree, p, q) == want.point_at(want.length / 2)
    for geodesic in random_geodesics(tree, rng):
        for _ in range(3):
            x = random_point(tree, rng)
            assert geodesic.project(x) == reference_project(geodesic, x)


def test_queries_leave_the_tree_unchanged():
    rng = random.Random(200)
    tree = random_tree(rng, 200, leaves=False)
    size = len(pickle.dumps(tree))
    target = tree.vertex_point(tree.vertices[-1])
    for source in tree.vertices[:50]:
        p = tree.vertex_point(source)
        tree.distance(p, target)
        path(tree, p, target)
    assert len(pickle.dumps(tree)) == size


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.booleans(), st.booleans())
@profile_settings(30)
def test_projection_matches_both_references(seed, n, leaves, caterpillar):
    rng = random.Random(seed)
    tree = random_caterpillar(rng, n, leaves) if caterpillar else random_tree(rng, max(n, 2), leaves)
    geodesics = segment_cases(tree, rng)
    maximal = [geodesic_through_edge(tree, rng.randrange(len(tree.edges))) for _ in range(2)]
    if tree.geodesically_complete:
        for _ in range(2):
            x = rng.choice(tree.vertices)
            e, f = rng.sample(tree.incident_edges(x), 2)
            maximal.append(geodesic_through_flag(tree, tree.flag(x, e, f)))
    for geodesic in geodesics + maximal:
        points = probe_points(tree, geodesic, rng)
        for x in points:
            got = geodesic.project(x)
            assert got == reference_project(geodesic, x) == reference_project_median(geodesic, x)
        if geodesic in maximal:
            mass = F(1, len(points))
            measure = Measure(tuple((p, mass) for p in points))
            sample = pushforward_projection(tree, geodesic, measure)
            want = {}
            for p in points:
                c = geodesic.coordinate_of(reference_project_median(geodesic, p))
                want[c] = want.get(c, F(0)) + mass
            assert sample.atoms == tuple(sorted(want.items()))
