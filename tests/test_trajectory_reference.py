"""Constant-speed travel against its definition.

Up to time 1 travel is ``Tree._point_along``; past it,
``geodesics._travel`` walks past a path's end afresh on every call. What
either must give is fixed by the metric and the one walk rule: at time t
the point is t·d(p, q) from p along the path to q, and past q the walk
finishes q's edge, takes the smallest-id edge other than the one it came
by at each vertex, and turns back along that edge at a leaf. ``rule_walk``
follows that rule by hand, from the tree's edges alone, and the point at
each time must lie on it at the right distance, on small ``gen_tree``
trees and on caterpillars whose parent chains run 200 hops or more, where
the path's last edge lies far below the root. A Wasserstein geodesic must
also come out of any evaluation unchanged.
"""

import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from common import deep_caterpillar
from conftest import profile_settings
from treeradon import (
    SuiteConfig,
    WassersteinGeodesic,
    gen_measure,
    gen_point,
    gen_tree,
    path,
)
from treeradon.geodesics import _travel

pytestmark = pytest.mark.deep


def rule_walk(tree, p, q, reach):
    """The walk past q, ``p != q``, by the rule, as ``(vertex, arc length
    from q, edge it arrived by)`` for each vertex it meets, until its arc
    length reaches ``reach`` or it meets a leaf. When it runs off along a
    ray first, the last entry is ``(None, arc length at the ray's vertex,
    ray)``, negative when q lies on the ray past it."""
    via = path(tree, p, q).edges[-1]
    rec = tree.edge(via)
    if q.is_vertex:
        walk = [(q.vertex, F(0), via)]
    else:
        # finish q's edge at the end away from p, if it has one
        ahead = [v for v in rec.endpoints() if tree.distance(p, tree.vertex_point(v))
                 == tree.distance(p, q) + tree.distance(q, tree.vertex_point(v))]
        if not ahead:
            return [(None, -q.offset, via)]
        walk = [(ahead[0], tree.distance(q, tree.vertex_point(ahead[0])), via)]
    while True:
        vertex, arc, via = walk[-1]
        others = [eid for eid in tree.incident_edges(vertex) if eid != via]
        if arc >= reach or not others:
            return walk
        rec = tree.edge(min(others))
        if rec.is_ray:
            return walk + [(None, arc, rec.id)]
        walk.append((rec.other_end(vertex), arc + rec.length, rec.id))


def assert_travel_definition(tree, p, q, t, found):
    d = tree.distance(p, q)
    if t <= 1 or d == 0:
        assert tree.distance(p, found) == min(t, 1) * d
        assert tree.distance(found, q) == max(1 - t, 0) * d
        return
    s = (t - 1) * d
    walk = rule_walk(tree, p, q, s)
    vertex, arc, via = walk[-1]
    if vertex is None:  # along a ray, offsets counted from its vertex
        assert found == tree.point(via, s - arc)
    elif arc >= s:  # inside the edge it arrived at its last vertex by
        assert found.edge == via or found.vertex in tree.edge(via).endpoints()
        assert tree.distance(found, tree.vertex_point(vertex)) == arc - s
    else:  # at a leaf: back along its one edge, while that edge lasts
        back = s - arc
        if back <= tree.edge(via).length:
            assert found.edge == via or found.vertex in tree.edge(via).endpoints()
            assert tree.distance(found, tree.vertex_point(vertex)) == back
        return
    # before any leaf, the walk runs straight on from p through q
    assert tree.distance(p, found) == d + s


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["finite", "complete", "caterpillar", "leafy caterpillar"]),
    st.lists(st.fractions(min_value=0, max_value=6, max_denominator=12), min_size=1, max_size=12),
)
@profile_settings(60)
def test_travel_matches_its_definition(seed, kind, times):
    rng = random.Random(seed)
    cfg = SuiteConfig(max_vertices=14, max_denominator=8)
    if "caterpillar" in kind:
        tree = deep_caterpillar(rng, kind == "leafy caterpillar")
    else:
        tree = gen_tree(cfg, kind, rng)
    for _ in range(6):
        src = gen_point(tree, rng, cfg.max_denominator)
        dst = src if rng.random() < 0.1 else gen_point(tree, rng, cfg.max_denominator)
        d = tree.distance(src, dst)
        asked = list(times)
        # the times at which the walk past dst lands exactly on a vertex,
        # so that turning back at a leaf is reached as well as passed
        if d:
            asked += [1 + arc / d for vertex, arc, _ in rule_walk(tree, src, dst, 6 * d)
                      if vertex is not None]
            rng.shuffle(asked)
        for t in asked:
            found = tree._point_along(src, dst, t) if t <= 1 else _travel(tree, src, dst, t)
            assert tree.canonical_point(found) == found
            assert_travel_definition(tree, src, dst, t, found)


def test_wasserstein_geodesic_is_unchanged_by_evaluation():
    cfg = SuiteConfig(seed=11, max_vertices=10, max_atoms=4)
    rng = random.Random(cfg.seed)
    for _ in range(20):
        tree = gen_tree(cfg, "complete", rng)
        x = gen_point(tree, rng, cfg.max_denominator)
        family = WassersteinGeodesic.from_dirac(tree, x, gen_measure(cfg, tree, rng), horizon=3)
        before = pickle.dumps(family)
        for t in (3, F(3, 2), 2, F(5, 2), F(7, 5)):
            family.at(t)
        assert pickle.dumps(family) == before
