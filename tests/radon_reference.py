"""The Fraction Radon kernels that integer flag sums replaced, kept for
the tests.

``_branch_sums``, ``radon_forward``, ``_flag_sum`` and ``radon_invert`` are
the library functions of those names, kept verbatim from before
``radon_invert`` and the double-counting check summed each vertex's flags
as integers at one scale per vertex, and before ``radon_forward`` took at
most one subtraction per flag. The library no longer has ``_branch_sums``:
reconstruction takes its interior subtraction from ``radon_forward``. The
old reconstruction schedule in ``reconstruct_reference`` still calls
the copy here. Every sum here is a chain of ``Fraction``
additions and subtractions, so the library can be checked against it
value for value, key order and errors included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from treeradon import Flag, FlagTable, RadonError, Tree, VertexFunction, flag_table
from treeradon.rationals import parse_rational
from treeradon.tree import VertexId

_ZERO = Fraction(0)


def _branch_sums(tree: Tree, h: VertexFunction) -> dict[tuple[VertexId, int], Fraction]:
    """For every (vertex, incident edge): the sum of h over the component of
    the tree minus that vertex reached through the edge.

    One subtree-sum pass over the tree's own parent links, which list every
    parent before its children, gives all of them in O(V + E).
    """
    records = tree._vertex.values()
    subtree = {v: h.value(v) for v in tree.vertices}
    for vertex, _, parent, *_ in reversed(records):
        if parent is not None:
            subtree[parent] += subtree[vertex]

    total = h.total
    sums: dict[tuple[VertexId, int], Fraction] = {}
    for vertex, _, _, via, *_ in records:
        for eid in tree.incident_edges(vertex):
            rec = tree.edge(eid)
            if rec.is_ray:
                sums[(vertex, eid)] = _ZERO
            elif eid == via:
                sums[(vertex, eid)] = total - subtree[vertex]
            else:
                child = rec.other_end(vertex)
                sums[(vertex, eid)] = subtree[child]
    return sums


def radon_forward(tree: Tree, h: VertexFunction) -> FlagTable:
    """The combinatorial transform: per flag, the sum of h over the
    perpendicular's vertices.

    The perpendicular of (x, {e, f}) is everything except the two branches
    through e and f, so its vertex sum is Σh minus the two branch sums.
    """
    sums = _branch_sums(tree, h)
    total = h.total
    table: dict[Flag, Fraction] = {}
    for x in tree.vertices:
        for e, f in combinations(tree.incident_edges(x), 2):
            table[Flag(x, frozenset((e, f)))] = total - sums[(x, e)] - sums[(x, f)]
    return flag_table(tree, table)


def _flag_sum(tree: Tree, table: FlagTable, x: VertexId) -> Fraction:
    """Σ Rh(x, ef) over the C(k,2) flags at ``x``."""
    pairs = combinations(tree.incident_edges(x), 2)
    return sum((table.value(Flag(x, frozenset(pair))) for pair in pairs), _ZERO)


def radon_invert(tree: Tree, table: FlagTable, total) -> VertexFunction:
    """Recover the vertex function from its flag table and its total sum.

    Requires every valency ≥ 3 (equivalently: no leaves, given that
    valency 2 is banned); the table must cover every flag.
    """
    total = parse_rational(total)
    for v in tree.vertices:
        if tree.valency(v) < 3:
            raise RadonError(
                f"inversion needs valency >= 3 everywhere; vertex {v!r} has {tree.valency(v)}"
            )
    values: dict[VertexId, Fraction] = {}
    for x in tree.vertices:
        k = tree.valency(x)
        hx = _flag_sum(tree, table, x) / (k - 1) - Fraction(k - 2, 2) * total
        if hx != 0:
            values[x] = hx
    return VertexFunction(values)
