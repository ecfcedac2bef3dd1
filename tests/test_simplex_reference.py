"""The transportation simplex against the integer simplex it replaced.

``tests/simplex_reference.py`` keeps the solver from before the entering
scan kept a lower bound per row: it tests every row from row 0 after each
pivot. Both return the allocation Bland's rule reaches (the library's
first solve proves its own optimum unique or hands over to Bland's rule),
so they must return the same allocation, cell for cell. Equal masses make most pivots degenerate, which is where
the bounds and the pivot rule are stressed hardest: 32×32, 32×16 and
16×32 in tier-1, and 48×48, 48×24 and 24×48 under
``TREERADON_SOLVER_PROFILE=solver-deep``, on a leafless tree of 256
vertices built the way ``bench/gen.py`` builds them.
"""

import random
from fractions import Fraction as F

from hypothesis import given, strategies as st

import simplex_reference as reference
from common import leafless_tree, solver_masses
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


def _assert_matches_the_parent_simplex(seed, rows, columns):
    """Equal masses, then random masses on the same atoms."""
    rng = random.Random(seed)
    tree = leafless_tree(rng, 256)
    mu = make_measure(tree, ((p, F(1, rows)) for p in _points(tree, rng, rows)))
    nu = make_measure(tree, ((q, F(1, columns)) for q in _points(tree, rng, columns)))
    cost, _ = transport._cost_matrix(tree, mu.atoms, nu.atoms)
    weights = [rng.randint(1, 9) for _ in range(rows + columns)]
    for masses in (([m for _, m in mu.atoms], [m for _, m in nu.atoms]),
                   ([F(w, sum(weights[:rows])) for w in weights[:rows]],
                    [F(w, sum(weights[rows:])) for w in weights[rows:]])):
        # the library takes and returns ints over the masses' scale, the
        # reference Fractions
        scale, supply, demand = solver_masses(*masses)
        flows = transport._transportation_simplex(supply, demand, cost)
        assert ({cell: F(f, scale) for cell, f in flows.items()}
                == reference._transportation_simplex(*masses, cost))


@given(st.integers(0, 2**32 - 1))
@profile_settings(4)
def test_bounded_scan_matches_the_parent_simplex(seed):
    _assert_matches_the_parent_simplex(seed, SIZE, SIZE)


@given(st.integers(0, 2**32 - 1), st.sampled_from(((SIZE, SIZE // 2), (SIZE // 2, SIZE))))
@profile_settings(4)
def test_bounded_scan_matches_the_parent_simplex_on_rectangles(seed, shape):
    _assert_matches_the_parent_simplex(seed, *shape)
