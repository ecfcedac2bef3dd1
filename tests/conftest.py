import pytest
from hypothesis import settings

from treeradon import build_tree

# Properties that check a kernel against its reference implementation run
# 40 examples each in tier-1; TREERADON_SOLVER_PROFILE=solver-deep runs 300
# each (CI does, in its own steps). The geodesic reference properties in
# test_metric_reference.py and test_geodesic_chart.py keep their own tier-1
# counts and scale them by the same factor (profile_settings).
settings.register_profile("solver", max_examples=40, deadline=None)
settings.register_profile("solver-deep", max_examples=300, deadline=None)

# Fixture trees used throughout. Edge ids are list positions.
#
# TRIPOD: center o, tips x, y, z, three unit edges.
#   0: (o,x)  1: (o,y)  2: (o,z)
#
# STAR3: hub c, spokes a, b, d at distance 1, two rays at each spoke tip.
#   0: (c,a)  1: (c,b)  2: (c,d)
#   3,4: rays at a   5,6: rays at b   7,8: rays at d


@pytest.fixture
def tripod():
    return build_tree({
        "vertices": ["o", "x", "y", "z"],
        "edges": [("o", "x", 1), ("o", "y", 1), ("o", "z", 1)],
    })


@pytest.fixture
def star3():
    return build_tree({
        "vertices": ["c", "a", "b", "d"],
        "edges": [
            ("c", "a", 1), ("c", "b", 1), ("c", "d", 1),
            ("a", None, "inf"), ("a", None, "inf"),
            ("b", None, "inf"), ("b", None, "inf"),
            ("d", None, "inf"), ("d", None, "inf"),
        ],
    })
