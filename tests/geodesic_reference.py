"""Reference geodesic code kept for the tests.

``geodesic_through_edge`` is the library function of that name, moved here
verbatim once no library code called it; the tests still use it to build
maximal geodesics, which end at leaves when the tree has any.

``ParentCoordinates`` is the raw arc-length coordinate code that the
per-edge chart replaced, kept verbatim: single-edge segments carry a
direction ``_single_dir`` and measure from their start, multi-edge
geodesics take ``abs()`` about the joint next to the point's edge. It
reads a geodesic's edges, joints, ends and origin and answers with the
earlier methods, so the chart can be checked against it.

``ParentTrajectory`` is the constant-speed trajectory code that a
stateless walk replaced, kept verbatim: it grows a list of extension
segments on demand, driven by a three-state cursor that starts from
``ParentCoordinates.exit_cursor``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from treeradon import (
    CompletenessError,
    Geodesic,
    GeodesicError,
    SolverError,
    Tree,
    TreePoint,
    path,
)
from treeradon.geodesics import _walk_to_infinity

_ZERO = Fraction(0)


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


class ParentCoordinates:
    """The earlier coordinate code, evaluated on an existing geodesic."""

    def __init__(self, geodesic: Geodesic) -> None:
        tree = self.tree = geodesic.tree
        self.edges, self.joints = geodesic.edges, geodesic.joints
        self.start, self.end = geodesic.start, geodesic.end
        records = [tree.edge(eid) for eid in self.edges]
        first, last = records[0], records[-1]

        # Raw arc-length coordinates, anchored at the first junction (or at
        # the start point for single-edge segments). Interior edges of a
        # multi-edge geodesic are traversed in full, hence finite.
        self._edge_index = {eid: i for i, eid in enumerate(self.edges)}
        self._anchors = None
        if self.joints:
            raw = [_ZERO]
            for rec in records[1:-1]:
                if rec.length is None:
                    raise GeodesicError("an interior edge of a geodesic cannot be a ray")
                raw.append(raw[-1] + rec.length)
            self._joint_raw = raw
            self._joint_raw_map = dict(zip(self.joints, raw))
            self._single_dir = 0
            if self.start is None:
                self._start_raw = None
            else:
                o = self._offset_on(self.start, first)
                self._start_raw = -abs(o - first.endpoint_offset(self.joints[0]))
            if self.end is None:
                self._end_raw = None
            else:
                o = self._offset_on(self.end, last)
                self._end_raw = raw[-1] + abs(o - last.endpoint_offset(self.joints[-1]))
        else:
            if self.start is None or self.end is None:
                raise GeodesicError("a single-edge geodesic needs both endpoints")
            self._joint_raw = []
            self._joint_raw_map = {}
            o_start = self._offset_on(self.start, first)
            o_end = self._offset_on(self.end, first)
            self._single_dir = -1 if o_end < o_start else 1
            self._start_raw = _ZERO
            self._end_raw = abs(o_end - o_start)

        self.origin = geodesic.origin
        self._origin_raw = self._raw_of(self.origin)

    def _offset_on(self, point: TreePoint, rec) -> Fraction:
        """Offset of a point in the coordinate of an edge record it lies on."""
        if point.is_vertex:
            return rec.endpoint_offset(point.vertex)
        if point.edge != rec.id:
            raise GeodesicError(f"point {point!r} is not on edge {rec.id}")
        return point.offset

    def _raw_of(self, point: TreePoint):
        """Raw coordinate of a canonical point, or None when off the geodesic."""
        if point.is_vertex:
            v = point.vertex
            raw = self._joint_raw_map.get(v)
            if raw is not None:
                return raw
            if self.start is not None and self.start.is_vertex and self.start.vertex == v:
                return self._start_raw
            if self.end is not None and self.end.is_vertex and self.end.vertex == v:
                return self._end_raw
            return None
        i = self._edge_index.get(point.edge)
        if i is None:
            return None
        raw = self._edge_raw(point.offset, i)
        if self._start_raw is not None and raw < self._start_raw:
            return None
        if self._end_raw is not None and raw > self._end_raw:
            return None
        return raw

    def _edge_raw(self, offset: Fraction, i: int) -> Fraction:
        """Raw coordinate of the point at ``offset`` on the geodesic's i-th
        edge, extended past the finite ends along that edge."""
        rec = self.tree.edges[self.edges[i]]
        if not self.joints:
            return self._single_dir * (offset - self._offset_on(self.start, rec))
        if i == 0:
            return -abs(offset - rec.endpoint_offset(self.joints[0]))
        return self._joint_raw[i - 1] + abs(offset - rec.endpoint_offset(self.joints[i - 1]))

    def _anchor_table(self):
        """``(anchors, apex)``: every vertex of the geodesic's closed vertex
        path mapped to ``(nearest point, raw coordinate)``, and the one of
        those vertices with the fewest hops from the tree's root.

        Joints map to themselves. The outer vertex of a finite end edge
        that is not a ray maps to that end; for a single edge, each
        endpoint maps to the nearer end. Built on the first projection of
        an off-geodesic point, in O(J), and kept; threads that race here
        build equal tables, so sharing a geodesic stays safe.
        """
        table = self._anchors
        if table is not None:
            return table
        tree = self.tree
        anchors = {j: (TreePoint(vertex=j), raw) for j, raw in zip(self.joints, self._joint_raw)}
        ends = ((self.start, self._start_raw), (self.end, self._end_raw))
        if self.joints:
            for (end, raw), eid, joint in zip(ends, (self.edges[0], self.edges[-1]),
                                              (self.joints[0], self.joints[-1])):
                rec = tree.edges[eid]
                if end is not None and not rec.is_ray:
                    anchors[rec.other_end(joint)] = (end, raw)
        else:
            rec = tree.edges[self.edges[0]]
            near_u, near_v = ends if self._single_dir > 0 else ends[::-1]
            anchors[rec.u] = near_u
            if not rec.is_ray:
                anchors[rec.v] = near_v
        apex = min(anchors, key=lambda v: tree._vertex[v].hops)
        self._anchors = table = (anchors, apex)
        return table

    def coordinate_of(self, point: TreePoint) -> Fraction:
        raw = self._raw_of(self.tree.canonical_point(point))
        if raw is None:
            raise GeodesicError(f"point {point!r} is not on the geodesic")
        return raw - self._origin_raw

    def point_at(self, coordinate) -> TreePoint:
        """The point with the given arc-length coordinate."""
        raw = Fraction(coordinate) + self._origin_raw
        if self._start_raw is not None and raw < self._start_raw:
            raise GeodesicError(f"coordinate {coordinate} is before the start")
        if self._end_raw is not None and raw > self._end_raw:
            raise GeodesicError(f"coordinate {coordinate} is past the end")
        if not self.joints:
            o_start = self._offset_on(self.start, self.tree.edges[self.edges[0]])
            return self.tree.point(self.edges[0], o_start + self._single_dir * raw)
        t = bisect_left(self._joint_raw, raw)
        if t < len(self.joints) and self._joint_raw[t] == raw:
            return TreePoint(vertex=self.joints[t])
        if t == 0:
            edge_idx = 0
            junction = self.joints[0]
            dist = self._joint_raw[0] - raw
        else:
            edge_idx = t
            junction = self.joints[t - 1]
            dist = raw - self._joint_raw[t - 1]
        rec = self.tree.edge(self.edges[edge_idx])
        oj = rec.endpoint_offset(junction)
        offset = dist if oj == 0 else oj - dist
        return self.tree.point(rec.id, offset)

    def project(self, point: TreePoint) -> TreePoint:
        return self._project(self.tree.canonical_point(point))[0]

    def _project(self, point: TreePoint):
        raw = self._raw_of(point)
        if raw is not None:
            return point, raw
        i = self._edge_index.get(point.edge)
        if i is not None:
            if self._start_raw is not None and self._edge_raw(point.offset, i) < self._start_raw:
                return self.start, self._start_raw
            return self.end, self._end_raw
        anchors, apex = self._anchor_table()
        tree = self.tree
        records = tree._vertex
        top = records[apex].hops
        v = tree._foot(point)[0]
        while records[v].hops >= top:
            hit = anchors.get(v)
            if hit is not None:
                return hit
            v = records[v].parent
        return anchors[apex]

    def exit_cursor(self):
        """Continuation state past the finite end, for constant-speed walks.

        Returns ``("vertex", v, via_edge)`` when the end sits on a vertex,
        else ``("edge", edge_id, offset, sign)`` with the travel direction
        in the edge's own coordinate.
        """
        if self.end is None:
            raise GeodesicError("the geodesic already runs to infinity")
        last = self.edges[-1]
        if self.end.is_vertex:
            return ("vertex", self.end.vertex, last)
        if self.joints:
            oj = self.tree.edge(last).endpoint_offset(self.joints[-1])
            sign = 1 if self.end.offset > oj else -1
        else:
            sign = self._single_dir
        return ("edge", last, self.end.offset, sign)


class ParentTrajectory:
    """Constant-speed motion from ``src`` through ``dst``, continued past
    ``dst`` on demand.

    Speed is d(src, dst) per unit time, so ``position(1) == dst``.
    Continuation follows the smallest-edge-id rule at branch vertices;
    with ``bounce=True`` a leaf reverses the direction instead of failing,
    which keeps the walk constant-speed in trees with leaves.
    """

    def __init__(self, tree: Tree, src: TreePoint, dst: TreePoint, bounce: bool = False):
        self.tree = tree
        self.src = tree.canonical_point(src)
        self.dst = tree.canonical_point(dst)
        self.bounce = bounce
        if self.src == self.dst:
            self.segment = None
            self.unit = _ZERO
        else:
            self.segment = path(tree, self.src, self.dst)
            self.unit = self.segment.length
        self._extension: list[tuple[Fraction, Fraction | None, int, Fraction, int]] = []
        self._covered = _ZERO
        self._cursor = None

    def position(self, t) -> TreePoint:
        t = Fraction(t)
        if t < 0:
            raise ValueError(f"negative time {t}")
        if self.unit == 0:
            return self.src
        s = t * self.unit
        if s <= self.unit:
            return self.segment.point_at(s)
        extra = s - self.unit
        while not self._covers(extra):
            if not self._grow():
                raise CompletenessError(
                    "trajectory hits a leaf; the tree is not geodesically complete"
                )
        for arc_from, arc_to, eid, offset0, sign in self._extension:
            if arc_to is None or extra <= arc_to:
                return self.tree.point(eid, offset0 + sign * (extra - arc_from))
        raise SolverError("trajectory bookkeeping failure")  # pragma: no cover

    def _covers(self, extra: Fraction) -> bool:
        if not self._extension:
            return False
        return self._extension[-1][1] is None or self._covered >= extra

    def _grow(self) -> bool:
        """Materialize one more extension segment; False when blocked."""
        if self._cursor is None:
            self._cursor = ParentCoordinates(self.segment).exit_cursor()
        state = self._cursor
        if state[0] == "vertex":
            _, vertex, via = state
            nxt = next(
                (eid for eid in self.tree.incident_edges(vertex) if eid != via), None
            )
            if nxt is None:
                if not self.bounce:
                    return False
                nxt = via
            rec = self.tree.edge(nxt)
            offset0 = rec.endpoint_offset(vertex)
            sign = 1 if offset0 == 0 else -1
        else:
            _, eid, offset0, sign = state
            rec = self.tree.edge(eid)
        if sign == 1:
            capacity = None if rec.length is None else rec.length - offset0
        else:
            capacity = offset0
        arc_from = self._covered
        if capacity is None:
            self._extension.append((arc_from, None, rec.id, offset0, sign))
            self._cursor = ("blocked",)
            return True
        arc_to = arc_from + capacity
        self._extension.append((arc_from, arc_to, rec.id, offset0, sign))
        self._covered = arc_to
        landing = rec.u if sign == -1 else rec.v
        self._cursor = ("vertex", landing, rec.id)
        return True
