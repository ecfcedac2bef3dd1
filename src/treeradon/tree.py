"""Locally finite simplicial metric trees with exact rational geometry.

A tree is a connected acyclic graph whose edges carry positive rational
lengths; single-endpoint edges are infinite rays. No vertex may have
valency 2 (such a vertex would describe the same metric space with a
simpler graph), and every vertex has at least one incident edge.

Construction roots the tree once at its first vertex and keeps one
:class:`VertexRecord` per vertex in one map, ``_vertex``: incident edges,
parent link, hop count, depth (exact distance from the root) and the
position of the first flag. The records list every parent before its
children; flag positions follow ``vertices`` order. Nothing changes
later, so a tree is immutable, costs O(V) memory for its lifetime, and is
safe to share between threads. Lengths, offsets and distances are
``fractions.Fraction``; nothing in this package touches floating point.
A depth is kept as the reduced int pair ``(n, d)``, d > 0, that the
construction walk sums in ints, since the metric reads it only as ints.

The metric is stated once, through the Gromov product at the root: the
distance between two points is ``depth(p) + depth(q) − 2·meet``, where
``meet`` is the depth at which their paths to the root meet (``_meet``).
That rule holds for every pair, two points of one edge or ray included,
so the distance, the locator and the cost matrix have no case of their own.

Arguments are validated once, at the public boundary: public methods
check the ids and points they are given, while underscore helpers take
only ids and canonical points that the tree produced or a public method
checked. The tree alone decides what belongs to it: ``_record`` is the one
vertex lookup, to which an unhashable id is an unknown vertex, and
``validate_flag`` the one flag check. An id that equals a vertex's, like
``True`` for ``1``, names that vertex, and every edge record, point and
flag the tree hands out carries the vertex list's own id object.

The value types :class:`EdgeRecord`, :class:`TreePoint` and :class:`Flag`
are ``typing.NamedTuple`` subclasses, so hashing and comparing them runs
in C, and so does building them through ``tuple.__new__``, as
construction builds its records. Each is immutable, and each hashes and
compares as the plain tuple of its fields: ``TreePoint("a") == ("a",
None, None)`` holds, and a value unpacks like a tuple. Two different value types never compare
equal, since their field counts differ.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Union

from .errors import PointLocationError, TreeStructureError
from .rationals import format_length, parse_length, parse_rational

VertexId = Union[str, int]

_ZERO = Fraction(0)

# A NamedTuple's own __new__ is a Python function; tuple.__new__(cls, fields)
# builds the same record in C. Construction makes one per edge and per vertex.
_new = tuple.__new__


def _pair_start(k: int, i: int) -> int:
    """The flag-position rule, stated once: at a valency-k vertex, the flag
    on its i-th and j-th incident edges, i < j in sorted order, sits at the
    vertex's ``first_flag`` plus ``_pair_start(k, i) + j``, which is its
    index in ``itertools.combinations`` order. The pairs (i, ·) start after
    the (k-1) + … + (k-i) pairs before them."""
    return i * (2 * k - i - 3) // 2 - 1


def _is_edge_id(value) -> bool:
    # bool is an int subclass, but True is not edge 1
    return isinstance(value, int) and not isinstance(value, bool)


class EdgeRecord(NamedTuple):
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


class TreePoint(NamedTuple):
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


class Flag(NamedTuple):
    """A vertex together with an unordered pair of distinct incident edges."""

    vertex: VertexId
    edge_pair: frozenset

    @property
    def edges(self) -> tuple[int, int]:
        """The pair as a sorted tuple (smaller id first)."""
        a, b = sorted(self.edge_pair)
        return a, b

    def __repr__(self) -> str:
        try:
            pair = "{" + ", ".join(map(str, sorted(self.edge_pair))) + "}"
        except TypeError:  # a hand-built pair that is not a set of edge ids
            pair = repr(self.edge_pair)
        return f"Flag({self.vertex!r}, {pair})"


class VertexRecord(NamedTuple):
    """What a tree knows about one vertex; ``parent`` is None at the root,
    and ``depth`` is the distance from the root as a reduced int pair
    ``(n, d)`` with d > 0."""

    id: VertexId
    incident: tuple[int, ...]
    parent: VertexId | None
    parent_edge: int | None
    hops: int
    depth: tuple[int, int]
    first_flag: int


class Subtree(NamedTuple):
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


def point_sort_key(point: TreePoint):
    """A total order on canonical points; used for deterministic output."""
    if point.is_vertex:
        return (0, str(point.vertex), -1, _ZERO)
    return (1, "", point.edge, point.offset)


class Tree:
    """A validated locally finite metric tree.

    Prefer :func:`build_tree` for construction from a description; the
    constructor expects pre-parsed ``(u, v_or_None, length_or_None)``
    triples and performs full validation. A finite length must be an
    ``int`` (not a ``bool``), stored as a ``Fraction``, or a ``Fraction``.
    """

    __slots__ = ("vertices", "edges", "geodesically_complete", "_vertex", "_flag_count")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple]) -> None:
        self.vertices: tuple[VertexId, ...] = tuple(vertices)
        if not self.vertices:
            raise TreeStructureError("a tree needs at least one vertex")
        # Files key vertices by str(v), and points order by it, so two ids
        # with one name would be one vertex there and two here.
        incident: dict[VertexId, tuple[VertexId, list[int]]] = {}
        names = {}
        for v in self.vertices:
            if v is None:
                # TreePoint(vertex=None) is not a vertex, and v=None marks a ray
                raise TreeStructureError("vertex id null is not allowed")
            try:
                if v in incident:
                    raise TreeStructureError(f"duplicate vertex id {v!r}")
            except TypeError:
                raise TreeStructureError(f"vertex id {v!r} is not hashable") from None
            incident[v] = (v, [])
            name = str(v)
            if name in names:
                raise TreeStructureError(
                    f"vertex ids {names[name]!r} and {v!r} share the name {name!r}"
                )
            names[name] = v

        # One lookup in ``incident`` checks an endpoint's hashability (a
        # TypeError) and membership (a KeyError) together, and swaps an
        # equal alias (True for 1) for the vertex list's own id.
        records = []
        # each finite length as its int pair, which the depths are summed in
        ratios: dict[int, tuple[int, int]] = {}
        for eid, (u, v, length) in enumerate(edges):
            try:
                u, u_edges = incident[u]
            except (KeyError, TypeError):
                raise TreeStructureError(f"edge {eid} endpoint {u!r} is not a vertex") from None
            if v is None:
                if length is not None:
                    raise TreeStructureError(f"edge {eid} is a ray but has finite length")
            else:
                try:
                    v, v_edges = incident[v]
                except (KeyError, TypeError):
                    raise TreeStructureError(f"edge {eid} endpoint {v!r} is not a vertex") from None
                if u == v:
                    raise TreeStructureError(f"cycle detected: edge {eid} is a self-loop at {u!r}")
                if length is None:
                    raise TreeStructureError(f"edge {eid} has two endpoints but infinite length")
                # depths and offsets are compared and subtracted exactly, so
                # a length is an int (stored as a Fraction) or a Fraction
                if type(length) is not Fraction:
                    if isinstance(length, bool) or not isinstance(length, (int, Fraction)):
                        raise TreeStructureError(
                            f"edge {eid} length {length!r} is not an int or a Fraction")
                    length = Fraction(length)
                # a Fraction's denominator is positive, so its sign is the numerator's
                ratios[eid] = ratio = length.as_integer_ratio()
                if ratio[0] <= 0:
                    raise TreeStructureError(f"edge {eid} has nonpositive length {length}")
                v_edges.append(eid)
            records.append(_new(EdgeRecord, (eid, u, v, length)))
            u_edges.append(eid)
        self.edges: tuple[EdgeRecord, ...] = tuple(records)

        # Connectivity over finite edges, then acyclicity by edge count. The
        # walk roots the tree at vertices[0] and lists each vertex with its
        # parent, parent edge, hop count and depth, after its parent; it
        # grows while it is read, so it runs breadth first. A depth is its
        # parent's plus the edge's length, summed and reduced as int pairs.
        walk = [(self.vertices[0], None, None, 0, (0, 1))]
        reached = {self.vertices[0]}
        for w, _, _, hops, (n, d) in walk:
            for eid in incident[w][1]:
                rec = records[eid]
                o = rec.u if rec.v == w else rec.v  # None across a ray
                if o is not None and o not in reached:
                    reached.add(o)
                    a, b = ratios[eid]
                    n_o, d_o = n * b + a * d, d * b
                    g = gcd(n_o, d_o)
                    walk.append((o, w, eid, hops + 1, (n_o // g, d_o // g)))
        if len(walk) != len(self.vertices):
            raise TreeStructureError("disconnected: not all vertices are reachable")
        if len(ratios) != len(self.vertices) - 1:
            raise TreeStructureError("cycle detected: too many finite edges for a tree")

        # True iff the tree has no leaf, i.e. every geodesic extends to a line.
        # Flags take positions vertex by vertex, C(k,2) at a valency-k
        # vertex, from the position of the vertex's first flag.
        self.geodesically_complete = True
        first_flag: dict[VertexId, int] = {}
        count = 0
        for v in self.vertices:
            k = len(incident[v][1])
            if k == 2:
                raise TreeStructureError(f"valency-2 vertex {v!r} is not allowed")
            if k == 0:
                raise TreeStructureError(f"isolated vertex {v!r} (valency 0)")
            if k == 1:
                self.geodesically_complete = False
            first_flag[v] = count
            count += k * (k - 1) // 2
        self._flag_count = count
        # edges are appended in id order, so each incident tuple is sorted
        self._vertex: dict[VertexId, VertexRecord] = {
            v: _new(VertexRecord, (v, tuple(incident[v][1]), parent, via, hops, depth,
                                   first_flag[v]))
            for v, parent, via, hops, depth in walk
        }

    # ------------------------------------------------------------------ #
    # Structure queries                                                    #
    # ------------------------------------------------------------------ #

    def _record(self, v: VertexId) -> VertexRecord:
        """The one vertex lookup: it refuses an unknown or unhashable id."""
        try:
            return self._vertex[v]
        except (KeyError, TypeError):  # a TypeError: an unhashable id
            raise PointLocationError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: VertexId) -> bool:
        try:
            self._record(v)
        except PointLocationError:
            return False
        return True

    def incident_edges(self, v: VertexId) -> tuple[int, ...]:
        """Edge ids incident to ``v``, sorted ascending."""
        return self._record(v).incident

    def valency(self, v: VertexId) -> int:
        return len(self._record(v).incident)

    @property
    def valency_profile(self) -> dict[VertexId, int]:
        return {v: len(self._vertex[v].incident) for v in self.vertices}

    @property
    def leaves(self) -> tuple[VertexId, ...]:
        return tuple(v for v in self.vertices if len(self._vertex[v].incident) == 1)

    def edge(self, edge_id: int) -> EdgeRecord:
        if not _is_edge_id(edge_id) or not 0 <= edge_id < len(self.edges):
            raise PointLocationError(f"unknown edge id {edge_id!r}")
        return self.edges[edge_id]

    def flag(self, vertex: VertexId, e: int, f: int) -> Flag:
        """Validated flag at ``vertex`` with the incident edge pair {e, f}."""
        record = self._record(vertex)
        for eid in (e, f):
            if not _is_edge_id(eid):
                raise PointLocationError(f"unknown edge id {eid!r}")
        if e == f:
            raise PointLocationError("a flag needs two distinct edges")
        for eid in (e, f):
            if eid not in record.incident:
                raise PointLocationError(f"edge {eid} is not incident to vertex {vertex!r}")
        return Flag(record.id, frozenset((e, f)))

    def _flag_position(self, vertex: VertexId, e: int, f: int) -> int:
        """The position of the flag (vertex, {e, f}), for two distinct edges
        incident to ``vertex``: the position of the vertex's first flag plus
        the index of the pair among its C(k,2) incident pairs, taken in
        ``itertools.combinations`` order of the sorted incident edges."""
        record = self._vertex[vertex]
        inc = record.incident
        i, j = inc.index(e), inc.index(f)
        if j < i:
            i, j = j, i
        return record.first_flag + _pair_start(len(inc), i) + j

    def validate_flag(self, flag: Flag) -> Flag:
        """A hand-built flag checked as :meth:`flag` checks its edges, the
        smaller id first: the one flag check, which ``FlagTable.value`` and
        ``flag_table`` ask too. An object without an ``edge_pair`` is not a
        flag, nor is a pair that only equals an edge pair, like ``{0, True}``."""
        try:
            e, f = flag.edge_pair
        except AttributeError:
            raise PointLocationError(f"not a flag: {flag!r}") from None
        except (TypeError, ValueError):
            raise PointLocationError("a flag needs two distinct edges") from None
        if _is_edge_id(e) and _is_edge_id(f) and f < e:
            e, f = f, e
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
        return TreePoint(self._record(v).id)

    def point(self, edge_id: int, offset) -> TreePoint:
        """The point at ``offset`` from the designated endpoint of an edge.

        Offsets landing on an endpoint canonicalize to that vertex, so the
        returned point compares equal to any other reference to the same
        location.
        """
        rec = self.edge(edge_id)
        offset = parse_rational(offset)
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
        """Validate a point against this tree and return its canonical form.

        A point that is already canonical here (a vertex under the vertex
        list's own id object, or a ``Fraction`` offset strictly inside a
        known edge) comes back as the same object; any other is rebuilt.
        """
        if not isinstance(point, TreePoint):
            raise PointLocationError(f"not a tree point: {point!r}")
        edge, offset = point.edge, point.offset
        if point.is_vertex:
            own = self._record(point.vertex).id
            # a point that names a vertex is that vertex, under its own id
            if point.vertex is own and edge is None and offset is None:
                return point
            return TreePoint(own)
        # bool is an int subclass, but True is not edge 1
        if type(edge) is int and 0 <= edge < len(self.edges) and type(offset) is Fraction:
            length = self.edges[edge].length
            if offset > 0 and (length is None or offset < length):
                return point
        if edge is None or offset is None:
            raise PointLocationError(f"underspecified point {point!r}")
        return self.point(edge, offset)

    # ------------------------------------------------------------------ #
    # Metric                                                               #
    # ------------------------------------------------------------------ #

    def _foot_vertex(self, point: TreePoint) -> VertexId:
        """The vertex a canonical point hangs from.

        The foot of a vertex is itself, of a ray point the ray's vertex, and
        of a point inside a finite edge the edge's child end.
        """
        if point.is_vertex:
            return point.vertex
        rec = self.edges[point.edge]
        if rec.v is not None and self._vertex[rec.v].parent_edge == rec.id:
            return rec.v
        return rec.u

    def _foot(self, point: TreePoint) -> tuple[VertexId, int, int, bool, int | None]:
        """``(foot, n, d, inside, edge)``: the point's foot (see
        :meth:`_foot_vertex`), its depth as the int pair n/d, d > 0, whether
        it sits inside that vertex's parent edge, and its edge (None at a
        vertex). Inside an edge the pair is ``u``'s depth plus or minus the
        offset over the product of their denominators, unreduced."""
        foot = self._foot_vertex(point)
        if point.vertex is not None:
            n, d = self._vertex[foot].depth
            return foot, n, d, False, None
        rec = self.edges[point.edge]
        a, b = self._vertex[rec.u].depth
        c, e = point.offset.as_integer_ratio()
        inside = rec.v is not None
        if inside and foot == rec.u:
            c = -c  # u is the edge's lower end, so the point is shallower than u
        return foot, a * e + c * b, b * e, inside, rec.id

    def _lca(self, a: VertexId, b: VertexId) -> VertexRecord:
        """Record of the lowest common ancestor of two vertices, by climbing."""
        vertex = self._vertex
        a, b = vertex[a], vertex[b]
        while a.hops > b.hops:
            a = vertex[a.parent]
        while b.hops > a.hops:
            b = vertex[b.parent]
        while a is not b:
            a = vertex[a.parent]
            b = vertex[b.parent]
        return a

    def distance(self, p: TreePoint, q: TreePoint) -> Fraction:
        """Length of the unique injective path between two points."""
        return self._distance(self.canonical_point(p), self.canonical_point(q))

    def _distance(self, p: TreePoint, q: TreePoint, top: VertexRecord | None = None) -> Fraction:
        """:meth:`distance` between two canonical points of this tree, which
        it takes as they are and does not check: ``depth(p) + depth(q) −
        2·meet`` (:meth:`_meet`) over the lcm of the depth pairs'
        denominators, made one ``Fraction``. ``top`` is the record of the
        feet's lowest common ancestor, if known."""
        p_foot, q_foot = self._foot(p), self._foot(q)
        (_, pn, pd, _, _), (_, qn, qd, _, _) = p_foot, q_foot
        mn, md = self._meet(p_foot, q_foot, top)
        scale = lcm(pd, qd, md)
        return Fraction(pn * (scale // pd) + qn * (scale // qd) - 2 * mn * (scale // md), scale)

    def _meet(self, p_foot: tuple, q_foot: tuple,
              top: VertexRecord | None = None) -> tuple[int, int]:
        """The Gromov product of two canonical points at the root: the
        depth at which their paths to the root meet, as an int pair ``(n,
        d)`` like :meth:`_foot`'s, given each point's :meth:`_foot` tuple.
        It is defined for every pair, so the distance is always ``depth(p)
        + depth(q) − 2·meet``.

        Two points of one edge or ray meet at the shallower of the two.
        Otherwise they meet at the lowest common ancestor of their feet
        (``top``, else found by :meth:`_lca`), or at p (q) itself when it
        sits inside the edge just above that ancestor.
        """
        (a, pn, pd, p_inside, p_edge), (b, qn, qd, q_inside, q_edge) = p_foot, q_foot
        if p_edge is not None and p_edge == q_edge:
            return (pn, pd) if pn * qd <= qn * pd else (qn, qd)
        if top is None:
            top = self._lca(a, b)
        if p_inside and a == top.id:
            return pn, pd
        if q_inside and b == top.id:
            return qn, qd
        return top.depth

    def _point_along(self, p: TreePoint, q: TreePoint, t: Fraction) -> TreePoint:
        """The point a fraction ``t`` in [0, 1] of the way from ``p`` to
        ``q``, two canonical points, located from the stored depths: the
        point ``path(tree, p, q).point_at(t · length)`` gives, with no
        ``Geodesic`` built and no edge length added.

        The path climbs from p to the depth M at which the two points' paths
        to the root meet (:meth:`_meet`), then descends to q. So the point
        at arc length s from p lies on p's way up at depth ``depth(p) − s``
        while s is at most ``up = depth(p) − M``, and else on q's way up at
        depth ``M + s − up``. A ray point lies below its foot, and the
        target is on the ray while it is deeper than the foot. Otherwise
        the climb starts at the foot (a point inside a finite edge lies in
        its foot's parent edge) and follows parent links while the vertex
        is deeper than the target: the target is the vertex it stops at, or
        inside the parent edge of the vertex before it. Two points of one
        edge or ray take the same steps, since they meet at the shallower
        one: the target lies between them, on their ray, or in their edge
        just below the vertex the climb stops at. It runs in ints: the
        target is an int over the lcm of the depth pairs' denominators
        times t's, compared with each record's depth by cross-multiplying,
        and an offset is the one ``Fraction`` built.
        """
        p_foot, q_foot = self._foot(p), self._foot(q)
        tn, td = t.as_integer_ratio()
        (_, pn, pd, _, _), (_, qn, qd, _, _), (mn, md) = p_foot, q_foot, self._meet(p_foot, q_foot)
        scale = lcm(pd, qd, md)
        depth_p, depth_q, depth_m = pn * (scale // pd), qn * (scale // qd), mn * (scale // md)
        # the arc length s, up and the target are ints over scale · td
        up = depth_p - depth_m
        s = tn * (up + depth_q - depth_m)
        up *= td
        (v, _, _, inside, edge), target = ((p_foot, depth_p * td - s) if s <= up
                                           else (q_foot, depth_m * td + s - up))
        scale *= td
        vertex = self._vertex
        rec = vertex[v]
        n, d = rec.depth
        if edge is not None and not inside and target * d > n * scale:
            return _new(TreePoint, (None, edge, Fraction(target * d - n * scale, scale * d)))
        while n * scale > target * d:
            child, child_n, child_d = rec, n, d
            rec = vertex[rec.parent]
            n, d = rec.depth
        if n * scale == target * d:
            return TreePoint(rec.id)
        edge = self.edges[child.parent_edge]
        if edge.u == rec.id:
            return _new(TreePoint, (None, edge.id, Fraction(target * d - n * scale, scale * d)))
        return _new(TreePoint, (None, edge.id,
                                Fraction(child_n * scale - target * child_d, scale * child_d)))

    def _walk(self, p: TreePoint, q: TreePoint) -> tuple[list[int], list, VertexRecord]:
        """The path between canonical points ``p`` and ``q`` as ``(edges,
        walk, top)``: its edge ids from ``p`` on, its closed vertex path,
        None at a ray's open end, so edge i runs from ``walk[i]`` to
        ``walk[i + 1]``, and the record of the vertex where the climb meets.

        The climb follows parent links from the deeper foot until the two
        meet. A point inside an edge puts that edge at its end of the path,
        unless the climb already starts (or stops) with it. Two points of
        one edge give that edge alone, its ends in the order of their
        offsets; a vertex to itself its smallest incident edge, ``u`` first.
        """
        a, b = self._foot_vertex(p), self._foot_vertex(q)
        vertex = self._vertex
        if a == b and p.edge == q.edge:  # one edge, or one vertex (both edges None)
            rec = self.edges[vertex[a].incident[0] if p.edge is None else p.edge]
            flip = p.edge is not None and q.offset < p.offset
            return [rec.id], [rec.v, rec.u] if flip else [rec.u, rec.v], vertex[a]
        x, y = vertex[a], vertex[b]
        head, tail, head_walk, tail_walk = [], [], [x.id], [y.id]
        while x is not y:
            if x.hops >= y.hops:
                head.append(x.parent_edge)
                x = vertex[x.parent]
                head_walk.append(x.id)
            else:
                tail.append(y.parent_edge)
                y = vertex[y.parent]
                tail_walk.append(y.id)
        # both halves end at the meeting vertex; keep it once
        edges, walk = head + tail[::-1], head_walk + tail_walk[-2::-1]
        if p.edge is not None and (not edges or edges[0] != p.edge):
            edges.insert(0, p.edge)
            walk.insert(0, self.edges[p.edge].other_end(a))
        if q.edge is not None and (not edges or edges[-1] != q.edge):
            edges.append(q.edge)
            walk.append(self.edges[q.edge].other_end(b))
        return edges, walk, x


# Sequences of characters or bytes: "ab1" is not the edge ("a", "b", "1")
_TEXT = (str, bytes, bytearray, memoryview)


def build_tree(description) -> Tree:
    """Build and validate a tree from a description.

    The description is a mapping ``{"vertices": [...], "edges": [...]}``
    where each edge is either a mapping ``{"u": id, "v": id|None,
    "len": "p/q"|"inf"}`` or a ``(u, v, len)`` tuple. Rays are written with
    ``v`` null and length "inf". Lengths are decimal-free rational strings,
    ints, or Fractions; each distinct string is parsed once per call, and
    the edges that repeat it share one ``Fraction``. A string of characters
    or bytes is not an edge entry, even one of length 3.
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
    # Lengths by string: a file repeats few of them ("inf" on every ray).
    # Only exact strs are keys, since 1 == True == Fraction(1) as keys.
    parsed: dict[str, Fraction | None] = {}
    for entry in raw_edges:
        # a loaded file's edges are plain dicts; skip the ABC check for them
        if type(entry) is dict or isinstance(entry, Mapping):
            u = entry.get("u")
            v = entry.get("v")
            raw_len = entry.get("len")
        elif isinstance(entry, Sequence) and not isinstance(entry, _TEXT) and len(entry) == 3:
            u, v, raw_len = entry
        else:
            raise TreeStructureError(f"unintelligible edge entry {entry!r}")
        if type(raw_len) is str and raw_len in parsed:
            length = parsed[raw_len]
        else:
            try:
                length = parse_length(raw_len)
            except (ValueError, TypeError) as exc:
                raise TreeStructureError(f"bad edge length {raw_len!r}: {exc}") from exc
            if type(raw_len) is str:
                parsed[raw_len] = length
        edges.append((u, v, length))
    return Tree(vertices, edges)
