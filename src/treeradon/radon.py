"""The perpendicular Radon transform on trees and its exact inversion.

The combinatorial transform sums a vertex function over the perpendicular
of each flag; with k(x) the valency, the closed form

    h(x) = 1/(k(x)-1) · Σ_{ef∋x} Rh(x, ef)  -  (k(x)-2)/2 · Σ_y h(y)

recovers the function exactly whenever every valency is at least 3. The
measure-level transform is the family of projections onto complete
geodesics; ``reconstruct_measure`` recovers a finitely supported measure
from the projections onto flag geodesics alone. Each answer gives the flag
mass at every joint of its geodesic, so a flag already read is not queried
again and a second reading of it is cross-checked. Past its flag, each
queried geodesic continues through flags no answer has read yet, so fewer
of its joints re-read known flags. One loop over the flags reads every
answer; interior atoms are read directly (interior level sets are
singletons), and the vertex part is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Mapping

from .errors import (
    CompletenessError,
    MeasureError,
    OracleInconsistencyError,
    PointLocationError,
    RadonError,
)
from .geodesics import Geodesic, _flag_geodesic, _onward, geodesic_through_flag
from .measures import Measure, RadonSample, make_measure, pushforward_projection
from .rationals import parse_rational
from .tree import Flag, Tree, TreePoint, VertexId, point_sort_key

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class VertexFunction:
    """A finitely supported rational function on the vertices.

    Zero values are dropped at construction, so equality means equality as
    functions. ``value`` returns 0 for vertices without an entry.
    """

    values: Mapping[VertexId, Fraction]

    @cached_property
    def total(self) -> Fraction:
        return sum(self.values.values(), _ZERO)

    def value(self, vertex: VertexId) -> Fraction:
        return self.values.get(vertex, _ZERO)


def vertex_function(tree: Tree, values: Mapping) -> VertexFunction:
    """Build a vertex function, validating keys against the tree."""
    cleaned: dict[VertexId, Fraction] = {}
    for vertex, raw in values.items():
        if not tree.has_vertex(vertex):
            raise PointLocationError(f"unknown vertex {vertex!r}")
        value = parse_rational(raw)
        if value != 0:
            cleaned[vertex] = value
    return VertexFunction(cleaned)


@dataclass(frozen=True)
class FlagTable:
    """Values of the combinatorial transform, one per flag."""

    values: Mapping[Flag, Fraction]

    def value(self, flag: Flag) -> Fraction:
        try:
            return self.values[flag]
        except KeyError:
            raise RadonError(f"flag table has no entry for {flag!r}") from None

    def __len__(self) -> int:
        return len(self.values)


def enumerate_flags(tree: Tree) -> list[Flag]:
    """All flags, vertex by vertex; a valency-k vertex contributes C(k,2)."""
    flags = []
    for v in tree.vertices:
        for e, f in combinations(tree.incident_edges(v), 2):
            flags.append(Flag(v, frozenset((e, f))))
    return flags


def _branch_sums(tree: Tree, h: VertexFunction) -> dict[tuple[VertexId, int], Fraction]:
    """For every (vertex, incident edge): the sum of h over the component of
    the tree minus that vertex reached through the edge.

    One subtree-sum pass over the tree's own parent links, which list every
    parent before its children, gives all of them in O(V + E).
    """
    links = tree._link
    subtree = {v: h.value(v) for v in tree.vertices}
    for vertex, (parent, _) in reversed(links.items()):
        if parent is not None:
            subtree[parent] += subtree[vertex]

    total = h.total
    sums: dict[tuple[VertexId, int], Fraction] = {}
    for vertex, (_, via) in links.items():
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
    return FlagTable(table)


def _flag_sum(tree: Tree, table: FlagTable, x: VertexId) -> Fraction:
    """Σ Rh(x, ef) over the C(k,2) flags at ``x``."""
    pairs = combinations(tree.incident_edges(x), 2)
    return sum((table.value(Flag(x, frozenset(pair))) for pair in pairs), _ZERO)


@dataclass(frozen=True)
class DoubleCountIdentity:
    """Both sides of the flag-sum identity at one vertex.

    Summing Rh over the C(k,2) flags at x counts every other vertex once
    per flag avoiding its branch, C(k-1,2) times, and x itself C(k,2)
    times; hence lhs = C(k-1,2)·Σh + (k-1)·h(x).
    """

    vertex: VertexId
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def double_count_check(tree: Tree, h: VertexFunction, x: VertexId,
                       table: FlagTable | None = None) -> DoubleCountIdentity:
    """Evaluate the double-counting identity at ``x``; both sides are
    computed independently (flag sums vs. the closed form)."""
    k = tree.valency(x)
    if k < 2:
        raise RadonError(f"vertex {x!r} has valency {k}; no flags exist there")
    if table is None:
        table = radon_forward(tree, h)
    rhs = comb(k - 1, 2) * h.total + (k - 1) * h.value(x)
    return DoubleCountIdentity(vertex=x, lhs=_flag_sum(tree, table, x), rhs=rhs)


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


# ---------------------------------------------------------------------- #
# Measure-level transform                                                   #
# ---------------------------------------------------------------------- #

def radon_oracle(tree: Tree, mu: Measure) -> Callable[[Geodesic], RadonSample]:
    """Hide a known measure behind its transform, for reconstruction runs."""

    def oracle(geodesic: Geodesic) -> RadonSample:
        return pushforward_projection(tree, geodesic, mu)

    return oracle


def flag_mass(tree: Tree, mu: Measure, flag: Flag) -> Fraction:
    """The measure of the flag's perpendicular, read off the transform.

    It is the atom of the projection onto the geodesic through the flag at
    the flag vertex (coordinate 0 by the origin convention).
    """
    geodesic = geodesic_through_flag(tree, flag)
    sample = pushforward_projection(tree, geodesic, mu)
    return sample.mass_at(_ZERO)


# ---------------------------------------------------------------------- #
# Reconstruction                                                            #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class EdgeRead:
    """Provenance of one interior read: the atoms seen inside an edge."""

    edge: int
    atoms: tuple[tuple[Fraction, Fraction], ...]  # (offset, mass)


@dataclass(frozen=True)
class FlagRow:
    """Provenance of one flag query during reconstruction."""

    flag: Flag
    raw_mass: Fraction
    interior_subtracted: Fraction
    vertex_value: Fraction


@dataclass(frozen=True)
class ReconstructionResult:
    measure: Measure
    interior_atoms: tuple[tuple[TreePoint, Fraction], ...]
    interior_total: Fraction
    vertex_part: VertexFunction
    edge_reads: tuple[EdgeRead, ...]
    flag_rows: tuple[FlagRow, ...]


def reconstruct_measure(tree: Tree, oracle: Callable[[Geodesic], RadonSample],
                        candidate_skeleton: Iterable[int] | None = None) -> ReconstructionResult:
    """Recover a finitely supported measure from its projection oracle.

    Only flag geodesics are queried. The perpendicular of a flag is a level
    set of the projection, so one answer on any complete geodesic gives the
    flag mass at every joint of it: flags are walked in order, and a flag no
    earlier answer has read queries a geodesic through its two edges. Past
    the flag, that geodesic is routed: at each vertex it takes the
    smallest-id edge forming an unread flag with the edge it came in by,
    and otherwise the smallest-id other edge. Every edge lies on a queried
    geodesic, so every interior atom is read verbatim (interior level sets
    are single points) and kept under its canonical point. The interior
    mass inside each perpendicular is then subtracted in one branch-sum
    pass, and the remaining vertex table is inverted with total 1 minus
    the interior mass.

    Interior sightings and flag readings are cross-checked across every
    queried geodesic; disagreement, mass outside the skeleton, or a vertex
    table that is not a genuine transform of a nonnegative function all
    raise :class:`OracleInconsistencyError`.
    """
    if not tree.geodesically_complete:
        raise CompletenessError("reconstruction needs a tree without leaves")
    if candidate_skeleton is None:
        skeleton = list(range(len(tree.edges)))
    else:
        skeleton = sorted(set(candidate_skeleton))
        for eid in skeleton:
            tree.edge(eid)

    skeleton_set = set(skeleton)
    interior: dict[TreePoint, Fraction] = {}
    flags = enumerate_flags(tree)
    raw: dict[Flag, Fraction] = {}

    def routed(tree: Tree, vertex: VertexId, via: int) -> int:
        """Past the queried flag: the smallest-id edge that forms an unread
        flag with ``via``, else the smallest-id other edge."""
        for eid in tree.incident_edges(vertex):
            if eid != via and Flag(vertex, frozenset((via, eid))) not in raw:
                return eid
        return _onward(tree, vertex, via)

    for flag in flags:
        if flag in raw:
            continue
        geodesic = _flag_geodesic(tree, flag, routed)
        # on a complete geodesic every vertex atom sits on a joint
        at_joint: dict[VertexId, Fraction] = {}
        for coord, mass in oracle(geodesic).atoms:
            spot = geodesic.point_at(coord)
            if spot.is_vertex:
                at_joint[spot.vertex] = mass
                continue
            if spot.edge not in skeleton_set:
                raise OracleInconsistencyError(
                    f"interior mass on edge {spot.edge} outside the candidate skeleton"
                )
            known = interior.setdefault(spot, mass)
            if known != mass:
                raise OracleInconsistencyError(
                    f"masses disagree across geodesics through edge {spot.edge}: "
                    f"{known} vs {mass} at offset {spot.offset}"
                )
        edges = geodesic.edges
        for i, joint in enumerate(geodesic.joints):
            read = Flag(joint, frozenset((edges[i], edges[i + 1])))
            mass = at_joint.get(joint, _ZERO)
            known = raw.setdefault(read, mass)
            if known != mass:
                raise OracleInconsistencyError(
                    f"flag {read!r} reads {known} on one geodesic and {mass} on another"
                )

    # Interior mass inside the perpendicular of (x, {e, f}) is the total
    # minus the two branches through e and f. An atom sits on its foot
    # vertex for the branch sums, except in the branch leaving the foot
    # through the atom's own edge, where it is added back.
    interior_total = sum(interior.values(), _ZERO)
    on_foot: dict[VertexId, Fraction] = {}
    own_edge: dict[tuple[VertexId, int], Fraction] = {}
    for point, mass in interior.items():
        foot = tree._foot_vertex(point)
        on_foot[foot] = on_foot.get(foot, _ZERO) + mass
        own_edge[(foot, point.edge)] = own_edge.get((foot, point.edge), _ZERO) + mass
    branch = _branch_sums(tree, VertexFunction(on_foot))

    flag_rows = []
    table: dict[Flag, Fraction] = {}
    for flag in flags:
        x = flag.vertex
        e, f = flag.edges
        inside = (interior_total
                  - branch[(x, e)] - own_edge.get((x, e), _ZERO)
                  - branch[(x, f)] - own_edge.get((x, f), _ZERO))
        value = raw[flag] - inside
        table[flag] = value
        flag_rows.append(FlagRow(flag=flag, raw_mass=raw[flag],
                                 interior_subtracted=inside, vertex_value=value))

    vertex_part = radon_invert(tree, FlagTable(table), _ONE - interior_total)

    for vertex, value in vertex_part.values.items():
        if value < 0:
            raise OracleInconsistencyError(
                f"inverted vertex mass at {vertex!r} is negative ({value})"
            )
    if radon_forward(tree, vertex_part).values != table:
        raise OracleInconsistencyError(
            "flag table is not a transform of any vertex function with the "
            "implied total; oracle data is inconsistent"
        )

    atoms = [(tree.vertex_point(v), m) for v, m in vertex_part.values.items()]
    atoms.extend(interior.items())
    try:
        measure = make_measure(tree, atoms)
    except MeasureError as exc:
        raise OracleInconsistencyError(f"reconstructed masses are not a probability: {exc}") from exc

    ordered = tuple(sorted(interior.items(), key=lambda atom: point_sort_key(atom[0])))
    reads: dict[int, list[tuple[Fraction, Fraction]]] = {eid: [] for eid in skeleton}
    for point, mass in ordered:
        reads[point.edge].append((point.offset, mass))
    return ReconstructionResult(
        measure=measure,
        interior_atoms=ordered,
        interior_total=interior_total,
        vertex_part=vertex_part,
        edge_reads=tuple(EdgeRead(edge=eid, atoms=tuple(seen)) for eid, seen in reads.items()),
        flag_rows=tuple(flag_rows),
    )
