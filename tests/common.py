"""Inputs and helpers that several test modules share, each written once.

Test modules import what they draw from here, never from one another.
"""

import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from treeradon import (
    RadonError,
    SuiteConfig,
    TreePoint,
    build_tree,
    enumerate_flags,
    flag_table,
    gen_measure,
    gen_tree,
    make_measure,
    path,
    vertex_function,
)

# ---------------------------------------------------------------------- #
# Fixture trees                                                             #
# ---------------------------------------------------------------------- #
#
# Edge ids are list positions.
#
# TRIPOD: center o, tips x, y, z, three unit edges.
#   0: (o,x)  1: (o,y)  2: (o,z)
#
# STAR3: hub c, spokes a, b, d at distance 1, two rays at each spoke tip.
#   0: (c,a)  1: (c,b)  2: (c,d)
#   3,4: rays at a   5,6: rays at b   7,8: rays at d

TRIPOD = {
    "vertices": ["o", "x", "y", "z"],
    "edges": [("o", "x", 1), ("o", "y", 1), ("o", "z", 1)],
}

STAR3 = {
    "vertices": ["c", "a", "b", "d"],
    "edges": [
        ("c", "a", 1), ("c", "b", 1), ("c", "d", 1),
        ("a", None, "inf"), ("a", None, "inf"),
        ("b", None, "inf"), ("b", None, "inf"),
        ("d", None, "inf"), ("d", None, "inf"),
    ],
}


# ---------------------------------------------------------------------- #
# Random trees                                                              #
# ---------------------------------------------------------------------- #

def leafless_description(rng, n):
    """A leafless tree of exactly n vertices: each vertex attaches to an
    earlier one of valency below 5, then rays lift every vertex to
    valency 3. Lengths are p/q with p, q <= 12."""
    degree = [0] * n
    open_ids = [0]
    edges = []
    for i in range(1, n):
        parent = open_ids[rng.randrange(len(open_ids))]
        edges.append((f"v{parent}", f"v{i}", F(rng.randint(1, 12), rng.randint(1, 12))))
        degree[parent] += 1
        degree[i] += 1
        if degree[parent] == 5:
            open_ids.remove(parent)
        open_ids.append(i)
    edges += [(f"v{i}", None, "inf") for i in range(n) for _ in range(3 - degree[i])]
    return {"vertices": [f"v{i}" for i in range(n)], "edges": edges}


def leafless_tree(rng, n):
    return build_tree(leafless_description(rng, n))


def twin(tree):
    """Another tree object built from the same description, passed through
    JSON as a description read from a file is: its vertex ids are equal,
    and string ids are other objects."""
    return build_tree(json.loads(json.dumps(tree.describe())))


def shuffled_leafless_tree(rng, n):
    """``leafless_tree`` with its vertices, then its edges, shuffled, so the
    root and the edge ids fall anywhere."""
    description = leafless_description(rng, n)
    rng.shuffle(description["vertices"])
    rng.shuffle(description["edges"])
    return build_tree(description)


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


def random_caterpillar(rng, n, leaves):
    """A spine of vertices, each with legs up to valency 3: leaf vertices
    when ``leaves`` (about n vertices in all), rays otherwise. The root is
    a spine end half of the time, so parent chains run the spine's length."""
    spine = max(1, n // 2 if leaves else n)
    edges = [(i, i + 1, F(rng.randint(1, 9), rng.randint(1, 3))) for i in range(spine - 1)]
    vertices = list(range(spine))
    for i in range(spine):
        legs = 1 if 0 < i < spine - 1 else (3 if spine == 1 else 2)
        for _ in range(legs):
            if leaves:
                vertices.append(len(vertices))
                edges.append((i, vertices[-1], F(rng.randint(1, 9), rng.randint(1, 3))))
            else:
                edges.append((i, None, "inf"))
    edges = [e if rng.random() < 0.5 or e[1] is None else (e[1], e[0], e[2]) for e in edges]
    rng.shuffle(edges)
    rng.shuffle(vertices)
    if rng.random() < 0.5:
        vertices.remove(0)
        vertices.insert(0, 0)
    return build_tree({"vertices": vertices, "edges": edges})


def deep_caterpillar(rng, leaves):
    """A caterpillar rooted at one end of its 210-vertex spine, so that its
    parent chains run 200 hops or more."""
    while True:
        tree = random_caterpillar(rng, 420 if leaves else 210, leaves)
        if tree.vertices[0] == 0:
            return tree


# ---------------------------------------------------------------------- #
# Values and measures for the Radon kernels                                 #
# ---------------------------------------------------------------------- #

def _primes(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


# 6,057 primes: more than the flags of any tree drawn here
PRIMES = _primes(60_000)


@st.composite
def trees(draw, kinds=("complete", "finite", "large")):
    """A ``gen_tree`` tree of up to 30 vertices, leafless ("complete") or
    leafy ("finite"), or a shuffled leafless tree of 100 to 400 vertices
    ("large"); with the random source that drew it, for drawing values."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "large":
        return shuffled_leafless_tree(rng, draw(st.integers(100, 400))), rng
    config = SuiteConfig(max_vertices=30, min_valency=draw(st.integers(1, 3)),
                         max_valency=draw(st.integers(3, 6)))
    return gen_tree(config, kind, rng), rng


LEAFLESS = ("complete", "large")


def small_values(tree, rng):
    return vertex_function(tree, {v: F(rng.randint(-12, 12), rng.randint(1, 12))
                                  for v in tree.vertices})


def vertex_prime_values(tree, rng):
    primes = rng.sample(PRIMES, len(tree.vertices))
    return vertex_function(tree, {v: F(rng.randint(-50, 50), p)
                                  for v, p in zip(tree.vertices, primes)})


def flag_prime_table(tree, rng):
    flags = enumerate_flags(tree)
    primes = rng.sample(PRIMES, len(flags))
    return flag_table(tree, {flag: F(rng.randint(-50, 50), p) for flag, p in zip(flags, primes)})


def assert_identical(new, ref):
    """Equal keys in equal order, equal values, and every value a Fraction."""
    assert list(new.items()) == list(ref.items())
    assert all(type(value) is F for value in new.values())


def raised(fn, *args):
    with pytest.raises(RadonError) as info:
        fn(*args)
    return str(info.value)


def hidden_measure(tree, rng, count):
    """``count`` distinct atoms, vertices and edge interiors mixed, with
    positive masses summing to one."""
    points = set()
    while len(points) < count:
        if rng.random() < 0.4:
            points.add(TreePoint(vertex=rng.choice(tree.vertices)))
        else:
            rec = rng.choice(tree.edges)
            scale = F(rng.randint(1, 12)) if rec.is_ray else rec.length
            points.add(TreePoint(edge=rec.id, offset=scale * F(rng.randint(1, 3), 4)))
    weights = [rng.randint(1, 9) for _ in points]
    return make_measure(tree, [(p, F(w, sum(weights)))
                               for p, w in zip(sorted(points, key=repr), weights)])


@st.composite
def tree_and_measure(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    if draw(st.booleans()):
        cfg = SuiteConfig(seed=seed, max_vertices=12, max_valency=6, max_denominator=11)
        tree = gen_tree(cfg, "complete", rng)
        return tree, gen_measure(cfg, tree, rng), rng
    tree = leafless_tree(rng, draw(st.integers(1, 40)))
    return tree, hidden_measure(tree, rng, draw(st.integers(1, 6))), rng


# ---------------------------------------------------------------------- #
# Points, segments and masses                                               #
# ---------------------------------------------------------------------- #

def random_point(tree, rng):
    rec = tree.edge(rng.randrange(len(tree.edges)))
    if rec.is_ray:
        offset = F(rng.randint(0, 12), rng.randint(1, 4))
    else:
        offset = rng.choice((F(0), rec.length, rec.length * F(rng.randint(1, 7), 8)))
    return tree.point(rec.id, offset)


def inside(tree, rng, eid):
    """A point strictly inside an edge (at some distance along a ray)."""
    length = tree.edge(eid).length
    top = F(rng.randint(2, 12)) if length is None else length
    return tree.point(eid, top * F(rng.randint(1, 7), 8))


def segment_cases(tree, rng):
    """Random segments, plus single-edge ones: two points of one edge, the
    two endpoints of one finite edge, and a point to itself."""
    segments = [path(tree, random_point(tree, rng), random_point(tree, rng)) for _ in range(3)]
    rec = tree.edge(rng.randrange(len(tree.edges)))
    top = rec.length if rec.length is not None else F(20)
    a, b = sorted(top * F(rng.randint(1, 15), 16) for _ in range(2))
    segments.append(path(tree, tree.point(rec.id, b), tree.point(rec.id, a)))
    finite = [r for r in tree.edges if not r.is_ray]
    if finite:
        rec = rng.choice(finite)
        segments.append(path(tree, tree.vertex_point(rec.u), tree.vertex_point(rec.v)))
    p = random_point(tree, rng)
    segments.append(path(tree, p, p))
    return segments


def probe_points(tree, geodesic, rng):
    """Points chosen to reach every branch of the projection: joints, points
    of the end edges past a finite end, ray points, and vertices and edge
    points both below the apex (the highest vertex of the geodesic's
    closed vertex path) and outside its subtree."""
    points = [tree.vertex_point(j) for j in geodesic.joints[:4]]
    for end, eid in ((geodesic.start, geodesic.edges[0]), (geodesic.end, geodesic.edges[-1])):
        if end is None:
            continue
        rec = tree.edge(eid)
        off = rec.endpoint_offset(end.vertex) if end.is_vertex else end.offset
        far = [F(0)] if rec.length is None else [F(0), rec.length]
        for bound in far + ([off + 5] if rec.length is None else []):
            if bound != off:
                points.append(tree.point(eid, off + (bound - off) * F(rng.randint(1, 15), 16)))
    rays = [r.id for r in tree.edges if r.is_ray]
    for eid in rng.sample(rays, min(2, len(rays))):
        points.append(tree.point(eid, F(rng.randint(1, 20), rng.randint(1, 3))))

    path_vertices = set(geodesic.joints)
    for i, end in ((0, geodesic.start), (-1, geodesic.end)):
        if end is not None:
            path_vertices.update(tree.edge(geodesic.edges[i]).endpoints())
    apex = min(path_vertices, key=lambda v: tree._vertex[v].hops)

    def below_apex(v):
        while tree._vertex[v].hops > tree._vertex[apex].hops:
            v = tree._vertex[v].parent
        return v == apex

    below, outside = [], []
    for v in tree.vertices:
        if v not in path_vertices:
            (below if below_apex(v) else outside).append(v)
    for group in (below, outside):
        for v in rng.sample(group, min(4, len(group))):
            points.append(tree.vertex_point(v))
            rec = tree.edge(rng.choice(tree.incident_edges(v)))
            top = rec.length if rec.length is not None else F(9)
            points.append(tree.point(rec.id, top * F(rng.randint(1, 7), 8)))
    return points


FAR = 10**6


def far_ends(geodesic):
    """The geodesic's two ends, start side first, with a point ``FAR`` along
    its ray standing in for an infinite end: a point short of ``FAR`` along
    the rays lies on the geodesic exactly when it lies between the two."""
    tree = geodesic.tree
    start, end = geodesic.start, geodesic.end
    return (tree.point(geodesic.edges[0], FAR) if start is None else start,
            tree.point(geodesic.edges[-1], FAR) if end is None else end)


def distinct_points(count, pick):
    """The first ``count`` distinct answers of ``pick()``, in draw order."""
    points, seen = [], set()
    while len(points) < count:
        p = pick()
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def random_masses(rng, count):
    """``count`` masses with weights 1 to 9, summing to one."""
    weights = [rng.randint(1, 9) for _ in range(count)]
    return [F(w, sum(weights)) for w in weights]


def monotone_coupling(xs, ys):
    """The north-west corner on sorted coordinates: ``xs`` and ``ys`` are
    ``(coordinate, mass)`` pairs in increasing coordinate order with equal
    total mass; returns ``[(x, y, mass), ...]``."""
    couplings = []
    i = j = 0
    left, right = xs[0][1], ys[0][1]
    while True:
        q = min(left, right)
        couplings.append((xs[i][0], ys[j][0], q))
        left -= q
        right -= q
        if left == 0:
            i += 1
            if i == len(xs):
                return couplings
            left = xs[i][1]
        if right == 0:
            j += 1
            right = ys[j][1]


def solver_masses(supply, demand):
    """``(scale, supply, demand)``: two lists of Fraction masses as ints
    over one scale, the lcm of all their denominators, the form in which
    ``optimal_plan`` hands masses to the solver."""
    scale = math.lcm(*(q.denominator for q in [*supply, *demand]))

    def over(masses):
        return [q.numerator * (scale // q.denominator) for q in masses]

    return scale, over(supply), over(demand)


def count_calls(monkeypatch, owner, *names):
    """The argument tuples of every call to ``owner``'s attributes
    ``names`` from now to the end of the test, one list in call order; each
    call runs the attribute it replaces, unchanged. A method's tuple starts
    with its instance."""
    calls = []
    for name in names:
        original = getattr(owner, name)

        def call(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)
    return calls


@contextmanager
def fraction_calls(*names):
    """``count_calls`` on the ``Fraction`` methods ``names`` while the
    block runs; a context manager, as hypothesis refuses function-scoped
    fixtures such as ``monkeypatch``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield count_calls(monkeypatch, F, *names)


def pivots_per_solve(pivots):
    """The number of pivots of each solve, in order, from the argument
    tuples of ``transport._pivot``, which runs once per pivot: its second
    argument numbers a solve's pivots from 0."""
    ks = [k for _, k, *_ in pivots]
    return [k + 1 for k, after in zip(ks, ks[1:] + [0]) if after == 0]
