"""The transportation simplex against the integer simplex it replaced.

``tests/simplex_reference.py`` keeps the solver from before the entering
scan kept a lower bound per row: it tests every row from row 0 after each
pivot. Both follow Bland's rule, so they must return the same allocation,
cell for cell. Equal masses make most pivots degenerate, which is where
the bounds and the pivot rule are stressed hardest: 32×32 in tier-1, and
48×48 under ``TREERADON_SOLVER_PROFILE=solver-deep``, on a leafless tree of
256 vertices built the way ``bench/gen.py`` builds them.
"""

import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

import simplex_reference as reference
from common import leafless_tree
from conftest import DEEP, profile_settings
from treeradon import TreePoint, make_measure
from treeradon import transport

SIZE = 48 if DEEP else 32


def _points(tree, rng, count):
    """``count`` distinct points, vertices and edge interiors alike."""
    points = set()
    while len(points) < count:
        if rng.random() < 0.5:
            points.add(TreePoint(vertex=rng.choice(tree.vertices)))
        else:
            rec = rng.choice(tree.edges)
            length = F(rng.randint(1, 12)) if rec.is_ray else rec.length
            points.add(TreePoint(edge=rec.id, offset=length * F(rng.randint(1, 3), 4)))
    return list(points)


@given(st.integers(0, 2**32 - 1))
@profile_settings(4)
def test_bounded_scan_matches_the_parent_simplex(seed):
    """Equal masses, then random masses on the same atoms."""
    rng = random.Random(seed)
    tree = leafless_tree(rng, 256)
    mu = make_measure(tree, ((p, F(1, SIZE)) for p in _points(tree, rng, SIZE)))
    nu = make_measure(tree, ((q, F(1, SIZE)) for q in _points(tree, rng, SIZE)))
    cost, _ = transport._cost_matrix(tree, mu.atoms, nu.atoms)
    weights = [rng.randint(1, 9) for _ in range(2 * SIZE)]
    for supply, demand in (([m for _, m in mu.atoms], [m for _, m in nu.atoms]),
                           ([F(w, sum(weights[:SIZE])) for w in weights[:SIZE]],
                            [F(w, sum(weights[SIZE:])) for w in weights[SIZE:]])):
        assert (transport._transportation_simplex(supply, demand, cost)
                == reference._transportation_simplex(supply, demand, cost))
