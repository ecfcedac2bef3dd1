"""README's memory promise: a tree costs O(V) memory, and answering queries
adds nothing to what it retains.

Memory is read with ``tracemalloc`` after a ``gc.collect()``, so it counts
what is still reachable, not what a query allocated on the way.
"""

import gc
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from common import leafless_description
from treeradon import build_tree, geodesic_through_flag, path

SIZES = (500, 2000)


def query_points(tree, rng, count):
    """Vertices and points inside finite edges and rays."""
    points = []
    for _ in range(count):
        rec = tree.edges[rng.randrange(len(tree.edges))]
        if rng.random() < 0.3:
            points.append(tree.vertex_point(rec.u))
        else:
            top = F(9) if rec.length is None else rec.length
            points.append(tree.point(rec.id, top * F(rng.randint(1, 7), 8)))
    return points


def traced_now():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.fixture
def tracing():
    gc.collect()
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_bytes_per_vertex_do_not_grow_with_size(tracing):
    per_vertex = []
    for n in SIZES:
        description = leafless_description(random.Random(n), n)
        before = traced_now()
        tree = build_tree(description)
        per_vertex.append((traced_now() - before) / n)
        del tree
    # 569 B per vertex at V=500 and 583 at V=2000 (Python 3.11); a
    # per-pair cache would grow fourfold between them
    assert max(per_vertex) <= 1.25 * min(per_vertex), per_vertex


@pytest.mark.parametrize("n", SIZES)
def test_queries_retain_nothing(tracing, n):
    rng = random.Random(n)
    tree = build_tree(leafless_description(rng, n))
    root = tree.vertices[0]
    geodesic = geodesic_through_flag(tree, tree.flag(root, *tree.incident_edges(root)[:2]))
    # a fresh pair each round, so a cache keyed by its queries would grow
    points = query_points(tree, rng, 2000)

    def rounds(start, stop):
        for i in range(start, stop):
            p, q = points[2 * i], points[2 * i + 1]
            tree.distance(p, q)
            path(tree, p, q)
            geodesic.project(p)

    rounds(0, 200)
    after_200 = traced_now()
    rounds(200, 1000)
    after_1000 = traced_now()
    assert after_1000 <= after_200 + 4096, (after_200, after_1000)
