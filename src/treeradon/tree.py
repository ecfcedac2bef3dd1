"""Locally finite simplicial metric trees with exact rational geometry.

A tree is a connected acyclic graph whose edges carry positive rational
lengths; single-endpoint edges are infinite rays. No vertex may have
valency 2 (such a vertex would describe the same metric space with a
simpler graph), and every vertex has at least one incident edge.

Trees are immutable after construction: every query is a pure function,
internal caches are append-only, and instances are safe to share between
threads. Lengths, offsets and distances are ``fractions.Fraction``
throughout; nothing in this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import PointLocationError, TreeStructureError
from .rationals import format_length, parse_length

VertexId = Union[str, int]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class EdgeRecord:
    """One edge: a finite segment with two endpoints, or an infinite ray.

    ``u`` is the designated endpoint from which offsets are measured.
    Rays have ``v is None`` and ``length is None`` (symbolic +infinity).
    """

    id: int
    u: VertexId
    v: VertexId | None
    length: Fraction | None

    @property
    def is_ray(self) -> bool:
        return self.v is None

    def endpoints(self) -> tuple[VertexId, ...]:
        return (self.u,) if self.v is None else (self.u, self.v)

    def other_end(self, vertex: VertexId) -> VertexId | None:
        """The opposite endpoint, or None when crossing a ray toward infinity."""
        if vertex == self.u:
            return self.v
        if self.v is not None and vertex == self.v:
            return self.u
        raise PointLocationError(f"vertex {vertex!r} is not an endpoint of edge {self.id}")

    def endpoint_offset(self, vertex: VertexId) -> Fraction:
        """Offset of an endpoint in this edge's own coordinate."""
        if vertex == self.u:
            return _ZERO
        if self.v is not None and vertex == self.v:
            return self.length
        raise PointLocationError(f"vertex {vertex!r} is not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class TreePoint:
    """A location on a tree: a vertex, or a point strictly inside an edge.

    Vertex locations are canonical (``edge`` and ``offset`` are None), so
    value equality and hashing agree with geometric identity. Construct
    points through :meth:`Tree.point` or :meth:`Tree.vertex_point`, which
    canonicalize offsets that land on endpoints.
    """

    vertex: VertexId | None = None
    edge: int | None = None
    offset: Fraction | None = None

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self) -> str:  # compact form for counterexample payloads
        if self.is_vertex:
            return f"TreePoint({self.vertex!r})"
        return f"TreePoint(edge={self.edge}, offset={self.offset})"


@dataclass(frozen=True)
class Flag:
    """A vertex together with an unordered pair of distinct incident edges."""

    vertex: VertexId
    edge_pair: frozenset

    @property
    def edges(self) -> tuple[int, int]:
        """The pair as a sorted tuple (smaller id first)."""
        a, b = sorted(self.edge_pair)
        return a, b

    def __repr__(self) -> str:
        a, b = self.edges
        return f"Flag({self.vertex!r}, {{{a}, {b}}})"


@dataclass(frozen=True)
class Subtree:
    """A rooted full subtree: the root plus whole components hanging off it.

    Used for the perpendicular of a flag. Membership of an interior point
    only needs its carrier edge, so ``contains`` is pure set lookup.
    """

    root: VertexId
    vertices: frozenset
    edges: frozenset

    def contains(self, point: TreePoint) -> bool:
        if point.is_vertex:
            return point.vertex in self.vertices
        return point.edge in self.edges


def _is_hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def point_sort_key(point: TreePoint):
    """A total order on canonical points; used for deterministic output."""
    if point.is_vertex:
        return (0, str(point.vertex), -1, _ZERO)
    return (1, "", point.edge, point.offset)


class Tree:
    """A validated locally finite metric tree.

    Prefer :func:`build_tree` for construction from a description; the
    constructor expects pre-parsed ``(u, v_or_None, length_or_None)``
    triples and performs full validation.
    """

    __slots__ = ("vertices", "edges", "_incident", "_dist_cache", "_parent_cache")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple]) -> None:
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        if not self.vertices:
            raise TreeStructureError("a tree needs at least one vertex")
        vertex_set = set()
        for v in self.vertices:
            if not _is_hashable(v):
                raise TreeStructureError(f"vertex id {v!r} is not hashable")
            if v in vertex_set:
                raise TreeStructureError(f"duplicate vertex id {v!r}")
            vertex_set.add(v)

        records = []
        incident: dict[VertexId, list[int]] = {v: [] for v in self.vertices}
        finite_count = 0
        for eid, (u, v, length) in enumerate(edges):
            if not _is_hashable(u) or u not in vertex_set:
                raise TreeStructureError(f"edge {eid} endpoint {u!r} is not a vertex")
            if v is None:
                if length is not None:
                    raise TreeStructureError(f"edge {eid} is a ray but has finite length")
            else:
                if not _is_hashable(v) or v not in vertex_set:
                    raise TreeStructureError(f"edge {eid} endpoint {v!r} is not a vertex")
                if u == v:
                    raise TreeStructureError(f"cycle detected: edge {eid} is a self-loop at {u!r}")
                if length is None:
                    raise TreeStructureError(f"edge {eid} has two endpoints but infinite length")
                if length <= 0:
                    raise TreeStructureError(f"edge {eid} has nonpositive length {length}")
                finite_count += 1
            records.append(EdgeRecord(eid, u, v, length))
            incident[u].append(eid)
            if v is not None:
                incident[v].append(eid)
        self.edges: tuple[EdgeRecord, ...] = tuple(records)
        self._incident: dict[VertexId, tuple[int, ...]] = {
            v: tuple(sorted(ids)) for v, ids in incident.items()
        }

        # Connectivity over finite edges, then acyclicity by edge count.
        reached = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            w = stack.pop()
            for eid in self._incident[w]:
                rec = self.edges[eid]
                if rec.is_ray:
                    continue
                o = rec.other_end(w)
                if o not in reached:
                    reached.add(o)
                    stack.append(o)
        if len(reached) != len(self.vertices):
            raise TreeStructureError("disconnected: not all vertices are reachable")
        if finite_count != len(self.vertices) - 1:
            raise TreeStructureError("cycle detected: too many finite edges for a tree")

        for v in self.vertices:
            k = len(self._incident[v])
            if k == 2:
                raise TreeStructureError(f"valency-2 vertex {v!r} is not allowed")
            if k == 0:
                raise TreeStructureError(f"isolated vertex {v!r} (valency 0)")

        self._dist_cache: dict = {}
        self._parent_cache: dict = {}

    # ------------------------------------------------------------------ #
    # Structure queries                                                    #
    # ------------------------------------------------------------------ #

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._incident

    def incident_edges(self, v: VertexId) -> tuple[int, ...]:
        """Edge ids incident to ``v``, sorted ascending."""
        try:
            return self._incident[v]
        except KeyError:
            raise PointLocationError(f"unknown vertex {v!r}") from None

    def valency(self, v: VertexId) -> int:
        return len(self.incident_edges(v))

    @property
    def valency_profile(self) -> dict[VertexId, int]:
        return {v: len(self._incident[v]) for v in self.vertices}

    @property
    def leaves(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if len(self._incident[v]) == 1)

    @property
    def geodesically_complete(self) -> bool:
        """True iff the tree has no leaf, i.e. every geodesic extends to a line."""
        return not self.leaves

    def edge(self, edge_id: int) -> EdgeRecord:
        if not isinstance(edge_id, int) or not 0 <= edge_id < len(self.edges):
            raise PointLocationError(f"unknown edge id {edge_id!r}")
        return self.edges[edge_id]

    def flag(self, vertex: VertexId, e: int, f: int) -> Flag:
        """Validated flag at ``vertex`` with the incident edge pair {e, f}."""
        inc = self.incident_edges(vertex)
        if e == f:
            raise PointLocationError("a flag needs two distinct edges")
        for eid in (e, f):
            if eid not in inc:
                raise PointLocationError(f"edge {eid} is not incident to vertex {vertex!r}")
        return Flag(vertex, frozenset((e, f)))

    def validate_flag(self, flag: Flag) -> Flag:
        e, f = flag.edges
        return self.flag(flag.vertex, e, f)

    def describe(self) -> dict:
        """The tree as a plain description dict (inverse of :func:`build_tree`)."""
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"u": rec.u, "v": rec.v, "len": format_length(rec.length)}
                for rec in self.edges
            ],
        }

    # ------------------------------------------------------------------ #
    # Points                                                               #
    # ------------------------------------------------------------------ #

    def vertex_point(self, v: VertexId) -> TreePoint:
        if v not in self._incident:
            raise PointLocationError(f"unknown vertex {v!r}")
        return TreePoint(vertex=v)

    def point(self, edge_id: int, offset) -> TreePoint:
        """The point at ``offset`` from the designated endpoint of an edge.

        Offsets landing on an endpoint canonicalize to that vertex, so the
        returned point compares equal to any other reference to the same
        location.
        """
        rec = self.edge(edge_id)
        offset = Fraction(offset)
        if offset < 0:
            raise PointLocationError(f"negative offset {offset} on edge {edge_id}")
        if rec.length is not None and offset > rec.length:
            raise PointLocationError(
                f"offset {offset} exceeds length {rec.length} of edge {edge_id}"
            )
        if offset == 0:
            return TreePoint(vertex=rec.u)
        if rec.length is not None and offset == rec.length:
            return TreePoint(vertex=rec.v)
        return TreePoint(edge=edge_id, offset=offset)

    def canonical_point(self, point: TreePoint) -> TreePoint:
        """Validate a point against this tree and return its canonical form."""
        if not isinstance(point, TreePoint):
            raise PointLocationError(f"not a tree point: {point!r}")
        if point.is_vertex:
            return self.vertex_point(point.vertex)
        if point.edge is None or point.offset is None:
            raise PointLocationError(f"underspecified point {point!r}")
        return self.point(point.edge, point.offset)

    def _anchors(self, point: TreePoint) -> dict[VertexId, Fraction]:
        """Vertex anchors of a point with their arm lengths.

        A vertex anchors to itself at arm 0; an interior point anchors to
        the endpoint(s) of its carrier edge. Every path leaving the point
        passes through exactly one anchor.
        """
        if point.is_vertex:
            return {point.vertex: _ZERO}
        rec = self.edges[point.edge]
        anchors = {rec.u: point.offset}
        if rec.v is not None:
            anchors[rec.v] = rec.length - point.offset
        return anchors

    # ------------------------------------------------------------------ #
    # Metric                                                               #
    # ------------------------------------------------------------------ #

    def _maps_from(self, source: VertexId):
        """Cached single-source vertex distances and parent pointers."""
        dist = self._dist_cache.get(source)
        if dist is not None:
            return dist, self._parent_cache[source]
        dist = {source: _ZERO}
        parent: dict[VertexId, tuple[VertexId | None, int | None]] = {source: (None, None)}
        stack = [source]
        while stack:
            w = stack.pop()
            for eid in self._incident[w]:
                rec = self.edges[eid]
                if rec.is_ray:
                    continue
                o = rec.other_end(w)
                if o not in dist:
                    dist[o] = dist[w] + rec.length
                    parent[o] = (w, eid)
                    stack.append(o)
        self._dist_cache[source] = dist
        self._parent_cache[source] = parent
        return dist, parent

    def vertex_distance(self, a: VertexId, b: VertexId) -> Fraction:
        if a == b:
            if a not in self._incident:
                raise PointLocationError(f"unknown vertex {a!r}")
            return _ZERO
        cached = self._dist_cache.get(b)
        if cached is not None and a in cached:
            return cached[a]
        dist, _ = self._maps_from(a)
        try:
            return dist[b]
        except KeyError:
            raise PointLocationError(f"unknown vertex {b!r}") from None

    def distance(self, p: TreePoint, q: TreePoint) -> Fraction:
        """Length of the unique injective path between two points."""
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p == q:
            return _ZERO
        if not p.is_vertex and not q.is_vertex and p.edge == q.edge:
            return abs(p.offset - q.offset)
        best = None
        q_anchors = self._anchors(q)
        for a, da in self._anchors(p).items():
            dist, _ = self._maps_from(a)
            for b, db in q_anchors.items():
                total = da + dist[b] + db
                if best is None or total < best:
                    best = total
        return best


def is_geodesically_complete(tree: Tree) -> bool:
    """A tree extends every geodesic to a full line iff it has no leaf."""
    return tree.geodesically_complete


def build_tree(description) -> Tree:
    """Build and validate a tree from a description.

    The description is a mapping ``{"vertices": [...], "edges": [...]}``
    where each edge is either a mapping ``{"u": id, "v": id|None,
    "len": "p/q"|"inf"}`` or a ``(u, v, len)`` tuple. Rays are written with
    ``v`` null and length "inf". Lengths are decimal-free rational strings,
    ints, or Fractions.
    """
    if not isinstance(description, Mapping):
        raise TreeStructureError("tree description must be a mapping")
    try:
        vertices = description["vertices"]
        raw_edges = description["edges"]
    except KeyError as exc:
        raise TreeStructureError(f"tree description missing key {exc}") from None
    for key, value in (("vertices", vertices), ("edges", raw_edges)):
        if not isinstance(value, (list, tuple)):
            raise TreeStructureError(f"tree description {key!r} must be a list")
    edges = []
    for entry in raw_edges:
        if isinstance(entry, Mapping):
            u = entry.get("u")
            v = entry.get("v")
            raw_len = entry.get("len")
        elif isinstance(entry, Sequence) and len(entry) == 3:
            u, v, raw_len = entry
        else:
            raise TreeStructureError(f"unintelligible edge entry {entry!r}")
        try:
            length = parse_length(raw_len)
        except (ValueError, TypeError) as exc:
            raise TreeStructureError(f"bad edge length {raw_len!r}: {exc}") from exc
        edges.append((u, v, length))
    return Tree(vertices, edges)
