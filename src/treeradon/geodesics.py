"""Geodesics on metric trees: paths, projections, perpendiculars, and the
CAT(0) comparison.

A :class:`Geodesic` is an injective path described by the edges it
traverses; its joints, the vertices between consecutive edges, are derived
from them, since two distinct edges of a tree meet in at most one vertex.
A ``start``/``end`` of None means the path escapes to infinity along a
ray, so the same class covers finite segments, maximal geodesics in trees
with leaves, and complete geodesics in leafless trees. Each geodesic
carries an arc-length coordinate system (an origin point and an
orientation given by edge order); for geodesics built through a flag the
origin is the flag vertex and the positive direction heads into the
smaller edge identifier. Raw coordinates are measured from the origin,
whose raw coordinate is 0, so a raw coordinate is the arc-length
coordinate itself. Each edge carries one affine chart ``(base, sign)``
for it: the point at offset ``o`` in the edge's own coordinate has
coordinate ``base + sign·o``.

Construction runs on one list, the closed vertex path or *walk*: the far
end of the first edge, the joints, and the far end of the last edge (for a
single edge, its two ends in start-to-end order), with None for a ray's
open end, so edge i runs from ``walk[i]`` to ``walk[i + 1]``. The origin
fixes the raw coordinate of one walk vertex, one pass outward fills in the
others, and an edge's chart is the raw coordinate of its ``u`` end with
sign 1 exactly when that end is ``walk[i]``. One core builds every
geodesic from its edges and walk, and it is reached two ways: through the
validating constructor, which checks the edges, ends and origin it is
given and derives the walk from them, or with a walk the tree itself
made: ``path`` takes the one the tree climbs between two points
(``Tree._walk``), and ``_flag_geodesic`` walks past its flag. Such a
walk is valid by construction and is not checked again, so, as for the
tree, arguments are validated once, at the public boundary.

Projection onto a geodesic is combinatorial: a point inside one of the
geodesic's edges reads its raw coordinate from the edge's chart, clipped to
the finite ends; any other point climbs the tree's parent links from its
foot until it reaches a vertex of the walk, which maps to its nearest point
and raw coordinate. No distance is computed. It is also the one way a built
geodesic locates a point: a geodesic is closed and convex, so a point lies
on it exactly when it is its own nearest point.

A point a fraction of the way from p to q needs no geodesic: the path
climbs from p to the depth where the two points' paths to the root meet
and descends to q, so the tree locates it (``Tree._point_along``) by
comparing its stored depths, as int pairs cross-multiplied, along parent
links on the side where the point lies. Midpoints, the CAT(0) comparison
and constant-speed travel up to time 1 all read it; travel past time 1
reads the last edge of the tree's walk, so travel builds no geodesic at
any time.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .errors import CompletenessError, GeodesicError, PointLocationError
from .rationals import parse_rational
from .tree import Flag, Subtree, Tree, TreePoint, VertexId, _new

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class Geodesic:
    """An injective path with an exact arc-length coordinate system.

    A geodesic is given by its edges and its two ends. Its ``joints`` are
    derived: each is the one vertex two consecutive edges share, and two
    consecutive edges that share none raise :class:`GeodesicError` ("edges
    A and B do not meet"). Coordinates increase from ``start`` toward
    ``end``; the ``origin`` point has coordinate 0, and the walk's raw
    coordinates are filled outward from it, so the stored raw coordinates
    (joints, ends, chart bases, projection anchors) are arc-length
    coordinates with no origin to add or subtract. The origin defaults to
    the start, or to the first joint when the start is infinite; one off
    the geodesic raises :class:`GeodesicError`. Everything is built at
    construction, so instances are immutable and safe to share. One core
    builds it: the constructor reaches the core after its checks, and
    ``path`` and ``_flag_geodesic`` reach it with walks the tree made
    through ``_from_walk``.
    """

    __slots__ = (
        "tree", "edges", "joints", "start", "end", "origin",
        "_edge_index", "_joint_raw", "_chart",
        "_start_raw", "_end_raw", "_anchors", "_apex",
    )

    def __init__(self, tree: Tree, edges, start, end, origin=None) -> None:
        edges = tuple(edges)
        if not edges:
            raise GeodesicError("a geodesic traverses at least one edge")
        if len(set(edges)) != len(edges):
            raise GeodesicError("a geodesic cannot traverse an edge twice")
        records = [tree.edge(eid) for eid in edges]
        joints = []
        for left, right in zip(records, records[1:]):
            if left.u == right.u or left.u == right.v:
                joints.append(left.u)
            elif left.v is not None and (left.v == right.u or left.v == right.v):
                joints.append(left.v)
            else:
                raise GeodesicError(f"edges {left.id} and {right.id} do not meet")
        if len(set(joints)) != len(joints):
            raise GeodesicError("a geodesic cannot revisit a vertex")

        start = tree.canonical_point(start) if start is not None else None
        end = tree.canonical_point(end) if end is not None else None
        first, last = records[0], records[-1]
        if start is None and not first.is_ray:
            raise GeodesicError("an infinite end requires a ray edge")
        if end is None and not last.is_ray:
            raise GeodesicError("an infinite end requires a ray edge")
        o_start = None if start is None else self._offset_on(start, first)
        o_end = None if end is None else self._offset_on(end, last)

        # The closed vertex path, start side first; edge i runs from
        # walk[i] to walk[i + 1], and a ray's open end is None.
        if joints:
            walk = [first.other_end(joints[0]), *joints, last.other_end(joints[-1])]
        elif o_start is None or o_end is None:
            raise GeodesicError("a single-edge geodesic needs both endpoints")
        else:
            walk = [first.v, first.u] if o_end < o_start else [first.u, first.v]
        self._set_up(tree, edges, walk, start, end, start or TreePoint(walk[1])
                     if origin is None else tree.canonical_point(origin))
        # a given origin must also lie between the ends
        if origin is not None and ((self._start_raw is not None and self._start_raw > 0)
                                   or (self._end_raw is not None and self._end_raw < 0)):
            raise GeodesicError("origin must lie on the geodesic")

    @classmethod
    def _from_walk(cls, tree: Tree, edges, walk, start, end, origin) -> Geodesic:
        """The geodesic on a walk the tree itself made, as ``path`` and
        ``_flag_geodesic`` make it: edge ids and vertices read from the
        tree's own records, the ends and the origin canonical points on
        it, and for a single edge the walk in the order the constructor
        would give. Nothing is checked again; the core sets every slot."""
        geodesic = cls.__new__(cls)
        geodesic._set_up(tree, edges, walk, start, end, origin)
        return geodesic

    def _set_up(self, tree: Tree, edges, walk, start, end, origin: TreePoint) -> None:
        """The one core: every slot from the edges, the walk, the ends and
        the origin, which must lie on an edge or at a vertex of the walk."""
        self.tree, self.edges, self.joints = tree, tuple(edges), tuple(walk[1:-1])
        self.start, self.end, self.origin = start, end, origin
        records = [tree.edges[eid] for eid in edges]
        self._edge_index = {eid: i for i, eid in enumerate(edges)}

        # Place the origin: a walk vertex k at raw coordinate 0, or a point
        # at offset o inside edge i, which puts the edge's u end at raw -o
        # when the edge runs from u (walk vertex i), else at o (vertex i + 1).
        i = self._edge_index.get(origin.edge)
        if i is not None:
            o = origin.offset
            k, r = (i, -o) if records[i].u == walk[i] else (i + 1, o)
        elif origin.vertex is not None and origin.vertex in walk:
            k, r = walk.index(origin.vertex), _ZERO
        else:
            raise GeodesicError("origin must lie on the geodesic")

        # One pass outward from the origin accumulates edge lengths into the
        # raw coordinates of the walk's vertices (an edge between two of
        # them is finite). An edge's chart is (raw at its u end, sign).
        raw = [None] * len(walk)
        raw[k] = r
        for t in range(k + 1, len(walk)):
            if walk[t] is not None:
                raw[t] = raw[t - 1] + records[t - 1].length
        for t in range(k - 1, -1, -1):
            if walk[t] is not None:
                raw[t] = raw[t + 1] - records[t].length
        self._chart = [(raw[i], 1) if rec.u == walk[i] else (raw[i + 1], -1)
                       for i, rec in enumerate(records)]
        self._joint_raw = raw[1:-1]
        self._start_raw = self._end_raw = None
        if start is not None:
            self._start_raw = self._edge_raw(self._offset_on(start, records[0]), 0)
        if end is not None:
            self._end_raw = self._edge_raw(self._offset_on(end, records[-1]), -1)

        # Projection anchors: each vertex of the walk maps to (nearest
        # point, raw coordinate), a joint to itself and walk[0] and
        # walk[-1] to the start and the end; a ray's open end has none. The
        # apex is the anchor with the fewest hops from the tree's root.
        anchors = {j: (_new(TreePoint, (j, None, None)), r)
                   for j, r in zip(self.joints, self._joint_raw)}
        anchors[walk[0]] = start, self._start_raw
        anchors[walk[-1]] = end, self._end_raw
        anchors.pop(None, None)
        self._anchors = anchors
        self._apex = min(anchors, key=lambda v: tree._vertex[v].hops)

    # ------------------------------------------------------------------ #

    def _offset_on(self, point: TreePoint, rec) -> Fraction:
        """Offset of a point in the coordinate of an edge record it lies on."""
        if point.is_vertex:
            if point.vertex in rec.endpoints():
                return rec.endpoint_offset(point.vertex)
        elif point.edge == rec.id:
            return point.offset
        raise GeodesicError(f"point {point!r} is not on edge {rec.id}")

    def _raw_of(self, point: TreePoint):
        """Raw coordinate of a canonical point, or None when off the
        geodesic, that is, when it is not its own nearest point."""
        near, raw = self._project(point)
        return raw if near == point else None

    def _edge_raw(self, offset: Fraction, i: int) -> Fraction:
        """Raw coordinate of the point at ``offset`` on the geodesic's i-th
        edge, from its chart ``(base, sign)``: ``base + offset`` for sign 1,
        ``base - offset`` for -1. It extends past the finite ends."""
        base, sign = self._chart[i]
        return base + offset if sign > 0 else base - offset

    # ------------------------------------------------------------------ #
    # Public geometry                                                      #
    # ------------------------------------------------------------------ #

    @property
    def length(self) -> Fraction | None:
        """Total length, or None when an end is infinite."""
        if self._start_raw is None or self._end_raw is None:
            return None
        return self._end_raw - self._start_raw

    @property
    def is_complete(self) -> bool:
        """Both ends escape to infinity (a full line)."""
        return self.start is None and self.end is None

    @property
    def is_maximal(self) -> bool:
        """No extension exists: each end is infinite or stops at a leaf."""
        for endpoint in (self.start, self.end):
            if endpoint is None:
                continue
            if not endpoint.is_vertex or len(self.tree._vertex[endpoint.vertex].incident) != 1:
                return False
        return True

    def contains(self, point: TreePoint) -> bool:
        return self._raw_of(self.tree.canonical_point(point)) is not None

    def coordinate_of(self, point: TreePoint) -> Fraction:
        raw = self._raw_of(self.tree.canonical_point(point))
        if raw is None:
            raise GeodesicError(f"point {point!r} is not on the geodesic")
        return raw

    def point_at(self, coordinate) -> TreePoint:
        """The point with the given arc-length coordinate: a finite end, a
        joint, or else inside edge ``t``, the coordinate's insertion index
        among the joints', at the offset that edge's chart gives."""
        raw = parse_rational(coordinate)
        if self._start_raw is not None and raw <= self._start_raw:
            if raw < self._start_raw:
                raise GeodesicError(f"coordinate {coordinate} is before the start")
            return self.start
        if self._end_raw is not None and raw >= self._end_raw:
            if raw > self._end_raw:
                raise GeodesicError(f"coordinate {coordinate} is past the end")
            return self.end
        t = bisect_left(self._joint_raw, raw)
        if t < len(self.joints) and self._joint_raw[t] == raw:
            return _new(TreePoint, (self.joints[t], None, None))
        base, sign = self._chart[t]
        return _new(TreePoint, (None, self.edges[t], raw - base if sign > 0 else base - raw))

    def project(self, point: TreePoint) -> TreePoint:
        """Nearest point of the geodesic (unique since trees are CAT(0)).

        In a tree the nearest point is where the path from the point first
        meets the geodesic, which is combinatorial: no distance is taken.
        A point inside one of the geodesic's edges reads its raw coordinate
        from that edge's chart, and is its own answer unless it lies past a
        finite end, whose answer is that end. Any other point, a vertex
        included, climbs the tree's parent links from its foot while its
        hop count is at least the apex's (the anchors and apex are built in
        ``__init__``); the first anchor met gives the answer, or the apex's
        anchor when none is met.

        Why the climb is right: the anchors form a connected vertex path P
        whose highest vertex is the apex, and P with its edges lies in the
        apex's subtree. A vertex strictly below the apex and not on P has
        no vertex of P in its own subtree (P would then pass through it on
        the way up to the apex), so its path to P leaves through its parent
        link. A vertex that is not below the apex enters the apex's
        subtree, and so P, through the apex. A point inside an edge off the
        geodesic starts at its foot, the edge's lower end or a ray's vertex.
        Its path to P passes the foot unless P lies beyond the edge's upper
        end, and then the foot's own path to P runs back through that edge,
        so the point and its foot share their nearest point.
        """
        return self._project(self.tree.canonical_point(point))[0]

    def _project(self, point: TreePoint):
        """``(nearest point, raw coordinate)`` for a canonical point, found
        as :meth:`project` describes."""
        i = self._edge_index.get(point.edge)
        if i is not None:
            raw = self._edge_raw(point.offset, i)
            if self._start_raw is not None and raw < self._start_raw:
                return self.start, self._start_raw
            if self._end_raw is not None and raw > self._end_raw:
                return self.end, self._end_raw
            return point, raw
        anchors, apex, vertex = self._anchors, self._apex, self.tree._vertex
        top = vertex[apex].hops
        v = vertex[self.tree._foot_vertex(point)]
        while v.hops >= top:
            hit = anchors.get(v.id)
            if hit is not None:
                return hit
            v = vertex[v.parent]
        return anchors[apex]

    # ------------------------------------------------------------------ #

    def __eq__(self, other) -> bool:
        if not isinstance(other, Geodesic):
            return NotImplemented
        return (
            self.tree is other.tree
            and self.edges == other.edges
            and self.start == other.start
            and self.end == other.end
            and self.origin == other.origin
        )

    def __hash__(self) -> int:
        return hash((id(self.tree), self.edges, self.start, self.end, self.origin))

    def __repr__(self) -> str:
        ends = f"{self.start!r}..{self.end!r}"
        return f"Geodesic(edges={list(self.edges)}, {ends})"


# ---------------------------------------------------------------------- #
# Paths and midpoints                                                      #
# ---------------------------------------------------------------------- #


def path(tree: Tree, p: TreePoint, q: TreePoint) -> Geodesic:
    """The unique injective path from ``p`` to ``q`` as a geodesic segment:
    the tree's walk between them (``Tree._walk``) goes straight to the
    geodesic core. The origin sits at ``p``, so coordinates run from 0 to
    the distance."""
    p, q = tree.canonical_point(p), tree.canonical_point(q)
    edges, walk, _ = tree._walk(p, q)
    return Geodesic._from_walk(tree, edges, walk, p, q, p)


def midpoint(tree: Tree, p: TreePoint, q: TreePoint) -> TreePoint:
    """The point halfway along the path from ``p`` to ``q``."""
    return tree._point_along(tree.canonical_point(p), tree.canonical_point(q), _HALF)


# ---------------------------------------------------------------------- #
# Flags, perpendiculars, deterministic complete geodesics                   #
# ---------------------------------------------------------------------- #


def perpendicular(tree: Tree, flag: Flag) -> Subtree:
    """The flag vertex together with the components avoiding both flag edges.

    This is the level set of the projection onto any geodesic running
    through the flag: exactly the points that project onto the flag vertex.
    """
    flag = tree.validate_flag(flag)
    banned = flag.edge_pair
    vertices = {flag.vertex}
    edges = set()
    stack = [flag.vertex]
    while stack:
        w = stack.pop()
        for eid in tree._vertex[w].incident:
            if w == flag.vertex and eid in banned:
                continue
            if eid in edges:
                continue
            edges.add(eid)
            other = tree.edges[eid].other_end(w)
            if other is not None and other not in vertices:
                vertices.add(other)
                stack.append(other)
    return Subtree(root=flag.vertex, vertices=frozenset(vertices), edges=frozenset(edges))


def _onward(tree: Tree, vertex: VertexId, via: int) -> int | None:
    """The one walk rule: the smallest-id edge at ``vertex`` other than
    ``via``, the edge the walk arrived by, or None at a leaf."""
    return next((eid for eid in tree._vertex[vertex].incident if eid != via), None)


def _travel(tree: Tree, p: TreePoint, q: TreePoint, t) -> TreePoint:
    """Where constant-speed travel from ``p`` to ``q``, two canonical
    points, is at time ``t ≥ 1``, reaching ``q`` at time 1; up to time 1
    it is ``Tree._point_along(p, q, t)``, which callers ask themselves.

    Each call reads the last edge of the path and the way along it from
    the tree's walk (``Tree._walk``), and walks afresh from ``q``: it
    finishes that edge, then takes the walk rule ``_onward`` at every
    vertex and turns back along the edge it came by at a leaf, so the
    speed stays constant on trees with leaves. The distance past ``q``
    comes from ``Tree._distance`` at the vertex where the walk's climb met,
    so the tree is climbed once and neither point is checked again. No
    ``Geodesic`` is built. At time 1, and on a zero-length segment, it
    stays at ``q``.
    """
    edges, walk, top = tree._walk(p, q)
    extra = (t - 1) * tree._distance(p, q, top)
    eid = edges[-1]
    rec = tree.edges[eid]
    offset = q.offset if q.vertex is None else rec.endpoint_offset(q.vertex)
    # the last edge runs toward walk[-1], so toward u exactly when that is u
    sign = -1 if walk[-1] == rec.u else 1
    # an end on a vertex has no room left on its edge, so the first pass
    # turns straight onto the walk rule there
    while True:
        if sign < 0:
            room = offset
        else:
            room = None if rec.length is None else rec.length - offset
        if room is None or extra <= room:
            return tree.point(eid, offset + sign * extra)
        extra -= room
        vertex = rec.u if sign < 0 else rec.v
        nxt = _onward(tree, vertex, eid)
        if nxt is not None:
            eid = nxt
            rec = tree.edges[eid]
        offset = rec.endpoint_offset(vertex)
        sign = 1 if offset == 0 else -1


def _walk_to_infinity(tree: Tree, origin: VertexId, first_edge: int, onward=_onward):
    """Follow ``first_edge`` out of ``origin``, then the next-edge rule
    ``onward(tree, vertex, via)`` at each vertex (by default the walk rule
    ``_onward``), until entering a ray or hitting a leaf.

    Returns ``(edges, vertices)``, where ``vertices[i]`` is the far end of
    ``edges[i]``: the last is the leaf reached, or None when the walk
    escapes along a ray. Each far end is read from the edge's record, the
    ``v`` end when the walk enters at ``u`` (None along a ray) and else
    ``u``, with no check: the edges come from the tree's own incidence
    lists, so each is incident to the vertex the walk is at.
    """
    records = tree.edges
    edges = [first_edge]
    rec = records[first_edge]
    vertex = rec.v if rec.u == origin else rec.u
    vertices = [vertex]
    while vertex is not None:
        nxt = onward(tree, vertex, edges[-1])
        if nxt is None:
            break
        edges.append(nxt)
        rec = records[nxt]
        vertex = rec.v if rec.u == vertex else rec.u
        vertices.append(vertex)
    return edges, vertices


def _flag_geodesic(tree: Tree, flag: Flag, onward) -> Geodesic:
    """The complete geodesic through a validated flag of a leafless tree,
    continued on both sides by the next-edge rule ``onward``; the two walks
    hand their edges and vertices straight to the geodesic core.

    The origin is the flag vertex; the positive direction heads into the
    smaller of the two flag edges.
    """
    pos_edge, neg_edge = flag.edges
    pos_edges, pos_walk = _walk_to_infinity(tree, flag.vertex, pos_edge, onward)
    neg_edges, neg_walk = _walk_to_infinity(tree, flag.vertex, neg_edge, onward)
    return Geodesic._from_walk(tree, neg_edges[::-1] + pos_edges,
                               [*neg_walk[::-1], flag.vertex, *pos_walk],
                               None, None, _new(TreePoint, (flag.vertex, None, None)))


def geodesic_through_flag(tree: Tree, flag: Flag) -> Geodesic:
    """The deterministic complete geodesic through a flag.

    The origin is the flag vertex; the positive direction heads into the
    smaller of the two flag edges, and every branching choice takes the
    smallest incident edge id.
    """
    flag = tree.validate_flag(flag)
    if not tree.geodesically_complete:
        raise CompletenessError("complete geodesics need a tree without leaves")
    return _flag_geodesic(tree, flag, _onward)


# ---------------------------------------------------------------------- #
# Triangle comparison                                                       #
# ---------------------------------------------------------------------- #


def points_aligned(tree: Tree, x: TreePoint, y: TreePoint, z: TreePoint) -> bool:
    """True iff the three points lie on a common geodesic.

    In a tree that happens exactly when one of them lies between the other
    two, i.e. one triangle inequality is an equality.
    """
    dxy = tree.distance(x, y)
    dyz = tree.distance(y, z)
    dxz = tree.distance(x, z)
    return dxy + dyz == dxz or dxy + dxz == dyz or dxz + dyz == dxy


class Cat0Comparison(NamedTuple):
    """Both sides of the quadratic comparison-triangle inequality at one t."""

    t: Fraction
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def strict(self) -> bool:
        return self.lhs < self.rhs


def check_cat0_triangle(tree: Tree, x: TreePoint, y: TreePoint, z: TreePoint, t) -> Cat0Comparison:
    """Compare d²(y, γ_t) against the Euclidean comparison bound.

    ``γ`` is the geodesic from x to z and ``γ_t`` the point a fraction t of
    the way along it. The right-hand side is
    ``(1−t)·d²(y,x) + t·d²(y,z) − t(1−t)·ℓ(γ)²``; in a metric tree the
    inequality lhs ≤ rhs always holds, with equality exactly when the three
    points are aligned or t is an endpoint of [0, 1].
    """
    t = parse_rational(t)
    if not 0 <= t <= 1:
        raise PointLocationError(f"interpolation parameter {t} outside [0, 1]")
    x, z = tree.canonical_point(x), tree.canonical_point(z)
    ell = tree.distance(x, z)
    gamma_t = tree._point_along(x, z, t)
    d_y_gamma = tree.distance(y, gamma_t)
    dyx = tree.distance(y, x)
    dyz = tree.distance(y, z)
    lhs = d_y_gamma * d_y_gamma
    rhs = (1 - t) * dyx * dyx + t * dyz * dyz - t * (1 - t) * ell * ell
    return Cat0Comparison(t=t, lhs=lhs, rhs=rhs)
