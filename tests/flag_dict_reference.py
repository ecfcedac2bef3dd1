"""The Flag-keyed Radon kernels and reconstruction that flag positions
replaced, kept for the tests.

``_subtree_sums``, ``radon_forward``, ``_flag_sum``, ``radon_invert`` and
``reconstruct_measure`` are the library functions of those names, kept
verbatim from before flag tables were indexed by flag position: every
table here is built as a ``{Flag: Fraction}`` dict, and every read builds
a ``Flag`` key. The only edit is that a finished dict becomes a table
through ``flag_table(tree, table)``. Reconstruction here calls the
forward and inverse transforms of this module, so the whole pipeline is
the old one, and the library can be checked against it value for value,
key order, provenance and errors included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable

from treeradon import (
    CompletenessError,
    Flag,
    FlagTable,
    MeasureError,
    OracleInconsistencyError,
    RadonError,
    RadonSample,
    ReconstructionResult,
    Tree,
    TreePoint,
    VertexFunction,
    enumerate_flags,
    flag_table,
    make_measure,
)
from treeradon.geodesics import Geodesic, _flag_geodesic, _onward
from treeradon.radon import EdgeRead, FlagRow
from treeradon.rationals import parse_rational
from treeradon.tree import VertexId

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _subtree_sums(tree: Tree, h: VertexFunction) -> dict[VertexId, Fraction]:
    """Σh over each vertex and everything below it, in one pass over the
    tree's own parent links, which list every parent before its children."""
    values = h.values
    subtree = {v: values.get(v, _ZERO) for v in tree.vertices}
    for vertex, _, parent, *_ in reversed(tree._vertex.values()):
        if parent is not None:
            subtree[parent] += subtree[vertex]
    return subtree


def radon_forward(tree: Tree, h: VertexFunction) -> FlagTable:
    """The combinatorial transform: per flag, the sum of h over the
    perpendicular's vertices.

    The perpendicular of (x, {e, f}) is everything except the two branches
    through e and f, so its vertex sum is Σh minus the two branch sums.
    Σh minus one branch is taken once per edge to a child of x (for the
    edge to x's parent it is x's own subtree sum), so each flag costs at
    most one subtraction, and a flag with a ray costs none: a ray's branch
    is empty. The sums stay in ``Fraction``s: a flag's denominator is that
    of its own perpendicular, and an integer pass at one global scale
    would multiply every flag up to the scale of all the denominators in
    the tree.
    """
    subtree = _subtree_sums(tree, h)
    total = h.total
    records, edges = tree._vertex, tree.edges
    table: dict[Flag, Fraction] = {}
    for x in tree.vertices:
        inc = tree.incident_edges(x)
        via = records[x].parent_edge
        # Per incident edge: Σh over its branch and Σh over the rest. A
        # ray's branch is empty, so a flag with a ray is the other edge's
        # rest. The parent edge's rest is x's subtree, so a flag with it
        # subtracts the other edge's branch from that, and the parent
        # edge's own branch is never needed.
        branch, rest = [], []
        for eid in inc:
            rec = edges[eid]
            if rec.v is None:
                branch.append(None)
                rest.append(total)
            elif eid == via:
                branch.append(None)
                rest.append(subtree[x])
            else:
                inside = subtree[rec.v if rec.u == x else rec.u]
                branch.append(inside)
                rest.append(total - inside)
        for i, e in enumerate(inc):
            for j in range(i + 1, len(inc)):
                f = inc[j]
                if edges[f].v is None:
                    value = rest[i]
                elif edges[e].v is None:
                    value = rest[j]
                elif f == via:
                    value = rest[j] - branch[i]
                else:
                    value = rest[i] - branch[j]
                table[Flag(x, frozenset((e, f)))] = value
    return flag_table(tree, table)


def _flag_sum(tree: Tree, table: FlagTable, x: VertexId,
              total: Fraction = _ZERO) -> tuple[int, int]:
    """Σ Rh(x, ef) over the C(k,2) flags at ``x``, as an integer numerator
    over a scale D_x: the lcm of the flag values' denominators and of
    ``total``'s.

    The scale is per vertex. One scale for the whole table would be the
    lcm of every denominator in it, and each vertex would pay for the
    denominators of all the others.
    """
    values = [table.value(Flag(x, frozenset(pair)))
              for pair in combinations(tree.incident_edges(x), 2)]
    scale = lcm(total.denominator, *(value.denominator for value in values))
    return sum(value.numerator * (scale // value.denominator) for value in values), scale


def radon_invert(tree: Tree, table: FlagTable, total) -> VertexFunction:
    """Recover the vertex function from its flag table and its total sum.

    Requires every valency ≥ 3 (equivalently: no leaves, given that
    valency 2 is banned); the table must cover every flag. Each h(x) is
    one ``Fraction`` built from integers at x's own scale D_x (see
    :func:`_flag_sum`): with S/D_x the flag sum and T/D_x the total,
    h(x) = (2S − (k−1)(k−2)·T) / (2·D_x·(k−1)).
    """
    total = parse_rational(total)
    # construction bans valency 0 and 2, so without leaves every k >= 3
    if not tree.geodesically_complete:
        raise RadonError(
            f"inversion needs valency >= 3 everywhere; vertex {tree.leaves[0]!r} has 1"
        )
    values: dict[VertexId, Fraction] = {}
    for x in tree.vertices:
        k = len(tree.incident_edges(x))
        flag_sum, scale = _flag_sum(tree, table, x, total)
        scaled_total = total.numerator * (scale // total.denominator)
        numerator = 2 * flag_sum - (k - 1) * (k - 2) * scaled_total
        if numerator:
            values[x] = Fraction(numerator, 2 * scale * (k - 1))
    return VertexFunction(values)


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
    mass inside each perpendicular is the forward transform of the interior
    atoms placed on their foot vertices, less each atom at the flags of its
    foot that contain its own edge. It is subtracted, and the remaining
    vertex table is inverted with total 1 minus the interior mass.

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
            mass = parse_rational(mass)
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

    # Interior mass inside each perpendicular is the forward transform of
    # the atoms put on their foot vertices, less each atom's mass at every
    # flag of its foot that contains the atom's own edge: that branch holds
    # the atom. A zero inside costs no subtraction.
    interior_total = sum(interior.values(), _ZERO)
    on_foot: dict[VertexId, Fraction] = {}
    footed = [(tree._foot_vertex(point), point.edge, mass) for point, mass in interior.items()]
    for foot, _, mass in footed:
        known = on_foot.get(foot)
        on_foot[foot] = mass if known is None else known + mass
    inside = radon_forward(tree, VertexFunction(on_foot)).values
    for foot, edge, mass in footed:
        for eid in tree.incident_edges(foot):
            if eid != edge:
                inside[Flag(foot, frozenset((edge, eid)))] -= mass

    flag_rows = []
    table: dict[Flag, Fraction] = {}
    for flag in flags:
        held = inside[flag]
        value = raw[flag] - held if held else raw[flag]
        table[flag] = value
        flag_rows.append(FlagRow(flag=flag, raw_mass=raw[flag],
                                 interior_subtracted=held, vertex_value=value))

    vertex_part = radon_invert(tree, flag_table(tree, table), _ONE - interior_total)

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

    atoms = [(TreePoint(v), m) for v, m in vertex_part.values.items()]
    atoms.extend(interior.items())
    try:
        measure = make_measure(tree, atoms)
    except MeasureError as exc:
        raise OracleInconsistencyError(f"reconstructed masses are not a probability: {exc}") from exc

    ordered = tuple(atom for atom in measure.atoms if not atom[0].is_vertex)
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
