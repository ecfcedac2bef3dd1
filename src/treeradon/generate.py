"""Seeded random generation of trees, points, measures and vertex functions.

Everything is a pure function of the configuration (or an explicitly
passed ``random.Random``), so generated fixtures are reproducible byte for
byte. Trees are grown by random attachment, valency-2 vertices are then
contracted away (merging their two edges), and in complete mode rays are
attached until every vertex reaches the minimum valency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenerationError
from .measures import Measure, make_measure
from .radon import VertexFunction, vertex_function
from .tree import Tree, TreePoint


@dataclass(frozen=True)
class SuiteConfig:
    """Bounds and seed for random generation and the property suite."""

    seed: int = 42
    max_vertices: int = 8
    min_valency: int = 3
    max_valency: int = 5
    max_atoms: int = 4
    max_denominator: int = 12
    trials: int = 25
    inject_fault: bool = False

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise GenerationError("max_vertices must be positive")
        if not 1 <= self.min_valency <= self.max_valency:
            raise GenerationError("valency bounds must satisfy 1 <= min <= max")
        if self.max_atoms < 1:
            raise GenerationError("max_atoms must be positive")
        if self.max_denominator < 2:
            raise GenerationError("max_denominator must be at least 2")
        if self.trials < 0:
            raise GenerationError("trials must be nonnegative")


def random_rational(rng: random.Random, max_denominator: int) -> Fraction:
    """A positive rational with numerator and denominator bounded."""
    return Fraction(rng.randint(1, max_denominator), rng.randint(1, max_denominator))


def random_signed_rational(rng: random.Random, max_denominator: int) -> Fraction:
    """A rational in [-max_den, max_den], zero included."""
    return Fraction(rng.randint(-max_denominator, max_denominator),
                    rng.randint(1, max_denominator))


def gen_tree(config: SuiteConfig, mode: str = "complete",
             rng: random.Random | None = None) -> Tree:
    """A random valid tree honoring the configured bounds.

    ``complete`` mode attaches rays until every vertex has valency at least
    ``max(3, min_valency)``, so the result has no leaves; ``finite`` mode
    produces leafy trees with no rays. Deterministic given the seed.
    """
    if mode not in ("finite", "complete"):
        raise GenerationError(f"unknown mode {mode!r}")
    if mode == "complete" and config.max_valency < 3:
        raise GenerationError(
            "complete mode is unsatisfiable with valency bound < 3 "
            "(valency 2 is banned and leaves are not allowed)"
        )
    if rng is None:
        rng = random.Random(config.seed)
    floor = 2 if mode == "finite" else 1
    if config.max_vertices < floor:
        raise GenerationError(f"{mode} mode needs at least {floor} vertices")
    n = rng.randint(floor, config.max_vertices)

    degree = [0] * n
    finite_edges: list[list] = []  # [endpoint, endpoint, length]
    created = 1
    for i in range(1, n):
        candidates = [j for j in range(created) if degree[j] < config.max_valency]
        if not candidates:
            break
        parent = rng.choice(candidates)
        finite_edges.append([parent, i, random_rational(rng, config.max_denominator)])
        degree[parent] += 1
        degree[i] += 1
        created += 1

    # Contract valency-2 vertices: replace their two edges by one of summed
    # length. Degrees of the neighbours do not change, so bounds survive and
    # ``degree`` stays exact for every live vertex.
    alive = set(range(created))
    while True:
        doomed = next((v for v in alive if degree[v] == 2), None)
        if doomed is None:
            break
        pair = [e for e in finite_edges if doomed in (e[0], e[1])]
        (a1, b1, l1), (a2, b2, l2) = pair
        left = a1 if b1 == doomed else b1
        right = a2 if b2 == doomed else b2
        finite_edges = [e for e in finite_edges if doomed not in (e[0], e[1])]
        finite_edges.append([left, right, l1 + l2])
        alive.discard(doomed)

    labels = {v: f"v{idx}" for idx, v in enumerate(sorted(alive))}
    vertices = [labels[v] for v in sorted(alive)]
    edges: list[tuple] = [
        (labels[a], labels[b], length) for a, b, length in finite_edges
    ]
    if mode == "complete":
        target = max(3, config.min_valency)
        for v in sorted(alive):
            for _ in range(target - degree[v]):
                edges.append((labels[v], None, None))
    return Tree(vertices, edges)


def gen_point(tree: Tree, rng: random.Random, max_denominator: int) -> TreePoint:
    """A random location: a vertex, or an exact rational spot inside an edge."""
    if rng.random() < 0.5 or not tree.edges:
        return tree.vertex_point(rng.choice(tree.vertices))
    rec = rng.choice(tree.edges)
    if rec.is_ray:
        offset = random_rational(rng, max_denominator)
    else:
        den = rng.randint(2, max_denominator)
        offset = rec.length * Fraction(rng.randint(0, den), den)
    return tree.point(rec.id, offset)


def gen_measure(config: SuiteConfig, tree: Tree, rng: random.Random,
                max_atoms: int | None = None) -> Measure:
    """A random probability measure with exact rational masses.

    Masses come from normalizing random positive rationals, so they sum to
    one exactly; duplicate locations merge.
    """
    count = rng.randint(1, max_atoms if max_atoms is not None else config.max_atoms)
    points = [gen_point(tree, rng, config.max_denominator) for _ in range(count)]
    weights = [random_rational(rng, config.max_denominator) for _ in points]
    total = sum(weights)
    return make_measure(tree, ((p, w / total) for p, w in zip(points, weights)))


def gen_vertex_function(config: SuiteConfig, tree: Tree,
                        rng: random.Random) -> VertexFunction:
    """Random rational values on the vertices, negatives and zeros included."""
    return vertex_function(
        tree,
        {v: random_signed_rational(rng, config.max_denominator) for v in tree.vertices},
    )
