"""A generator of maximal geodesics kept for the tests.

``geodesic_through_edge`` is the library function of that name, moved here
verbatim once no library code called it; the tests still use it to build
maximal geodesics, which end at leaves when the tree has any. It is a
generator of test inputs, not a copy of a kernel the tests check.
"""

from __future__ import annotations

from treeradon import Geodesic, Tree
from treeradon.geodesics import _walk_to_infinity


def geodesic_through_edge(tree: Tree, edge_id: int) -> Geodesic:
    """A deterministic maximal geodesic traversing the whole given edge.

    The origin is the edge's designated endpoint ``u`` and the positive
    direction runs into the edge; continuations take smallest edge ids.
    """
    rec = tree.edge(edge_id)
    edges, (*_, pos_term) = _walk_to_infinity(tree, rec.u, edge_id)
    others = [eid for eid in tree.incident_edges(rec.u) if eid != edge_id]
    if others:
        neg_edges, (*_, neg_term) = _walk_to_infinity(tree, rec.u, others[0])
        edges = neg_edges[::-1] + edges
        start = None if neg_term is None else tree.vertex_point(neg_term)
    else:
        start = tree.vertex_point(rec.u)
    end = None if pos_term is None else tree.vertex_point(pos_term)
    return Geodesic(tree, edges, start, end, origin=tree.vertex_point(rec.u))
