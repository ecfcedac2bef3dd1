"""Constant-speed travel against the cached walk it replaced.

Up to time 1 travel is ``Tree._point_along``; past it,
``geodesics._travel`` walks past a path's end afresh on every call,
with the geodesics' one walk rule, and turns back at a leaf.
``ParentTrajectory`` is the earlier code, which grew and kept a list of
extension segments; with ``bounce=True`` it turns back at a leaf too. On
finite and complete trees, and at times asked in any order, the two must
give equal points, on small ``gen_tree`` trees and on caterpillars whose
parent chains run 200 hops or more, where the path's last edge lies far
below the root. A Wasserstein geodesic must also come out of any
evaluation unchanged.
"""

import pickle
import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

from common import deep_caterpillar
from conftest import profile_settings
from geodesic_reference import ParentTrajectory
from treeradon import SuiteConfig, WassersteinGeodesic, gen_measure, gen_point, gen_tree
from treeradon.geodesics import _travel


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["finite", "complete", "caterpillar", "leafy caterpillar"]),
    st.lists(st.fractions(min_value=0, max_value=6, max_denominator=12), min_size=1, max_size=12),
)
@profile_settings(60)
def test_position_matches_parent_trajectory(seed, kind, times):
    rng = random.Random(seed)
    cfg = SuiteConfig(max_vertices=14, max_denominator=8)
    if "caterpillar" in kind:
        tree = deep_caterpillar(rng, kind == "leafy caterpillar")
    else:
        tree = gen_tree(cfg, kind, rng)
    for _ in range(6):
        src = gen_point(tree, rng, cfg.max_denominator)
        dst = src if rng.random() < 0.1 else gen_point(tree, rng, cfg.max_denominator)
        reference = ParentTrajectory(tree, src, dst, bounce=True)
        # the times at which the walk past dst would land exactly on a
        # vertex (every vertex of a gen_tree tree, 14 of a caterpillar), so
        # that turning back at a leaf is reached as well as passed
        if reference.unit:
            landings = rng.sample(tree.vertices, min(14, len(tree.vertices)))
            times = times + [1 + tree.distance(dst, tree.vertex_point(v)) / reference.unit
                             for v in landings]
            rng.shuffle(times)
        for t in times:
            found = tree._point_along(src, dst, t) if t <= 1 else _travel(tree, src, dst, t)
            assert found == reference.position(t)


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
