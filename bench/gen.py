"""Seeded inputs of exact size for the benchmark.

``treeradon.generate.gen_tree`` draws a random vertex count and contracts
valency-2 vertices, so it never yields more than a few dozen vertices. The
generators here hit a requested size exactly; the library's own generator
and its seeds are left alone so test data does not move.

Every function takes an explicit ``random.Random``: the same seed gives the
same inputs, byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from treeradon import Flag, Tree, TreePoint

MAX_VALENCY = 5
MAX_LENGTH_DEN = 12
MAX_MASS_DEN = 30


def leafless_tree_description(rng: random.Random, vertices: int) -> dict:
    """A leafless tree with exactly ``vertices`` vertices, as a description.

    Vertex ``i`` attaches to a uniformly chosen earlier vertex whose
    valency is still below the cap; rays are then added until every vertex
    has valency at least 3, so there is no leaf and no valency-2 vertex.
    Edge lengths are ``p/q`` with ``p, q <= 12``.
    """
    degree = [0] * vertices
    open_ids = [0]
    edges = []
    for i in range(1, vertices):
        parent = open_ids[rng.randrange(len(open_ids))]
        length = Fraction(rng.randint(1, MAX_LENGTH_DEN), rng.randint(1, MAX_LENGTH_DEN))
        edges.append({"u": f"v{parent}", "v": f"v{i}", "len": str(length)})
        degree[parent] += 1
        degree[i] += 1
        if degree[parent] == MAX_VALENCY:
            open_ids.remove(parent)
        open_ids.append(i)
    for i in range(vertices):
        for _ in range(3 - degree[i]):
            edges.append({"u": f"v{i}", "v": None, "len": "inf"})
    return {"vertices": [f"v{i}" for i in range(vertices)], "edges": edges}


def masses(rng: random.Random, count: int) -> list[Fraction]:
    """``count`` positive masses summing to 1; for ``count <= 30`` every
    denominator is at most 30."""
    total = rng.randint(count, max(count, MAX_MASS_DEN))
    weights = [1] * count
    for _ in range(total - count):
        weights[rng.randrange(count)] += 1
    return [Fraction(w, total) for w in weights]


def interior_point(tree: Tree, rng: random.Random) -> TreePoint:
    """A point strictly inside a random edge (finite edge or ray)."""
    rec = tree.edges[rng.randrange(len(tree.edges))]
    if rec.is_ray:
        offset = Fraction(rng.randint(1, MAX_LENGTH_DEN), rng.randint(1, MAX_LENGTH_DEN))
    else:
        den = rng.randint(2, 4)
        offset = rec.length * Fraction(rng.randint(1, den - 1), den)
    return TreePoint(edge=rec.id, offset=offset)


def distinct_points(tree: Tree, rng: random.Random, count: int) -> list[TreePoint]:
    """``count`` distinct canonical points, at least one vertex and (for
    ``count >= 2``) at least one edge interior point."""
    vertex_count = rng.randint(1, count - 1) if count >= 2 else 1
    points: list[TreePoint] = []
    seen = set()
    while len(points) < count:
        if len(points) < vertex_count:
            point = TreePoint(vertex=tree.vertices[rng.randrange(len(tree.vertices))])
        else:
            point = interior_point(tree, rng)
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points


def measure_atoms(tree: Tree, rng: random.Random, count: int):
    """Atoms ``(point, mass)`` of a measure with exactly ``count`` distinct atoms."""
    return list(zip(distinct_points(tree, rng, count), masses(rng, count)))


def random_flag(tree: Tree, rng: random.Random) -> Flag:
    vertex = tree.vertices[rng.randrange(len(tree.vertices))]
    e, f = rng.sample(tree.incident_edges(vertex), 2)
    return Flag(vertex, frozenset((e, f)))


def vertex_values(tree: Tree, rng: random.Random) -> dict:
    """Signed rational values on every vertex, zeros included."""
    return {
        v: Fraction(rng.randint(-MAX_LENGTH_DEN, MAX_LENGTH_DEN), rng.randint(1, MAX_LENGTH_DEN))
        for v in tree.vertices
    }
