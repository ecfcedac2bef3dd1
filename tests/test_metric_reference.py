"""The rooted metric against the per-source searches it replaced.

``Tree.distance``, ``path``, ``midpoint`` and ``Geodesic.project`` derive
from the parent links a tree records once, at construction. The reference
helpers below are the earlier implementations, kept verbatim apart from
caching: a single-source search from each anchor vertex, the minimum over
anchor pairs for distances and paths, and the minimum over junctions and
finite ends for projections.
"""

import pickle
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from treeradon import (
    Geodesic,
    build_tree,
    geodesic_through_edge,
    geodesic_through_flag,
    midpoint,
    path,
)


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
    p = tree.canonical_point(p)
    q = tree.canonical_point(q)
    if p == q:
        eid = p.edge if not p.is_vertex else tree.incident_edges(p.vertex)[0]
        return Geodesic(tree, [eid], [], p, p)
    if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
        return Geodesic(tree, [p.edge], [], p, q)
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
    return Geodesic(tree, edges, chain_vertices[lo:hi], start, end)


def reference_project(geodesic, point):
    """The nearest of the geodesic's junctions and finite ends."""
    tree = geodesic.tree
    point = tree.canonical_point(point)
    if geodesic.contains(point):
        return point
    candidates = [tree.vertex_point(j) for j in geodesic.joints]
    candidates += [end for end in (geodesic.start, geodesic.end) if end is not None]
    return min(candidates, key=lambda cand: reference_distance(tree, point, cand))


def random_tree(rng, n, leaves):
    """A random tree on n vertices, edges oriented and numbered at random.

    Valency-2 vertices get rays. Without leaves every vertex gets rays up
    to valency 3; with leaves most valency-1 vertices stay leaves. Vertex
    order is shuffled, so the root (the first vertex) can be a leaf or a
    vertex that holds rays.
    """
    edges = []
    valency = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        length = F(rng.randint(1, 12), rng.randint(1, 4))
        edges.append((u, v, length) if rng.random() < 0.5 else (v, u, length))
        valency[u] += 1
        valency[v] += 1
    for v in range(n):
        if leaves and valency[v] == 1 and rng.random() < 0.8:
            continue
        rays = max(0, 3 - valency[v]) + (rng.random() < 0.2)
        edges.extend((v, None, "inf") for _ in range(rays))
    rng.shuffle(edges)
    vertices = list(range(n))
    rng.shuffle(vertices)
    return build_tree({"vertices": vertices, "edges": edges})


def random_point(tree, rng):
    rec = tree.edge(rng.randrange(len(tree.edges)))
    if rec.is_ray:
        offset = F(rng.randint(0, 12), rng.randint(1, 4))
    else:
        offset = rng.choice((F(0), rec.length, rec.length * F(rng.randint(1, 7), 8)))
    return tree.point(rec.id, offset)


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
@settings(max_examples=40, deadline=None)
def test_rooted_metric_matches_per_source_reference(seed, n, leaves):
    rng = random.Random(seed)
    tree = random_tree(rng, n, leaves)
    for _ in range(12):
        p, q = random_point(tree, rng), random_point(tree, rng)
        assert tree.distance(p, q) == reference_distance(tree, p, q)
        got, want = path(tree, p, q), reference_path(tree, p, q)
        assert (got.edges, got.joints, got.start, got.end) == \
            (want.edges, want.joints, want.start, want.end)
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
