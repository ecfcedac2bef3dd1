"""The reconstruction schedule that routing replaced, kept for the tests.

``flag_schedule_reconstruct`` is an earlier ``reconstruct_measure``, kept
verbatim: it queries ``geodesic_through_flag`` for every flag no earlier
answer has read, and reads every joint of each answer. The library keeps
that flag order but routes each queried geodesic, past its flag, through
flags no answer has read yet, so on an honest oracle both give the same
result field for field. ``outcome`` runs either schedule and reads its
result's fields, or the ``OracleInconsistencyError`` it raises.
``test_reconstruct_reference.py`` and ``test_flag_table.py`` compare the
two through it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction

from radon_reference import _branch_sums
from treeradon import (
    CompletenessError,
    Flag,
    Geodesic,
    MeasureError,
    OracleInconsistencyError,
    RadonSample,
    ReconstructionResult,
    Tree,
    TreePoint,
    enumerate_flags,
    flag_table,
    geodesic_through_flag,
    make_measure,
    radon_forward,
    radon_invert,
)
from treeradon.radon import EdgeRead, FlagRow, VertexFunction
from treeradon.tree import VertexId

_ZERO = Fraction(0)
_ONE = Fraction(1)


def flag_schedule_reconstruct(tree: Tree, oracle: Callable[[Geodesic], RadonSample],
                              candidate_skeleton: Iterable[int] | None = None) -> ReconstructionResult:
    """Recover a finitely supported measure from its projection oracle.

    Only flag geodesics are queried. The perpendicular of a flag is a level
    set of the projection, so one answer on a geodesic gives the flag mass
    at every joint of it: flags are walked in order, and a flag no earlier
    answer has read queries its own geodesic. Every edge lies on such a
    geodesic, so every interior atom is read verbatim (interior level sets
    are single points). The interior mass inside each perpendicular is then
    subtracted in one branch-sum pass, and the remaining vertex table is
    inverted with total 1 minus the interior mass.

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
    interior: dict[tuple[int, Fraction], Fraction] = {}

    def record_interior(point: TreePoint, mass: Fraction) -> None:
        if point.edge not in skeleton_set:
            raise OracleInconsistencyError(
                f"interior mass on edge {point.edge} outside the candidate skeleton"
            )
        key = (point.edge, point.offset)
        known = interior.get(key)
        if known is None:
            interior[key] = mass
        elif known != mass:
            raise OracleInconsistencyError(
                f"masses disagree across geodesics through edge {point.edge}: "
                f"{known} vs {mass} at offset {point.offset}"
            )

    def scan_interior(geodesic: Geodesic, sample: RadonSample) -> dict[VertexId, Fraction]:
        """Record the sample's interior atoms; return its masses at joints
        (on a complete geodesic every vertex atom sits on a joint)."""
        at_joint = {}
        for coord, mass in sample.atoms:
            spot = geodesic.point_at(coord)
            if spot.is_vertex:
                at_joint[spot.vertex] = mass
            else:
                record_interior(spot, mass)
        return at_joint

    flags = enumerate_flags(tree)
    raw: dict[Flag, Fraction] = {}
    for flag in flags:
        if flag in raw:
            continue
        geodesic = geodesic_through_flag(tree, flag)
        at_joint = scan_interior(geodesic, oracle(geodesic))
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
    for (edge, offset), mass in interior.items():
        foot = tree._foot(TreePoint(edge=edge, offset=offset))[0]
        on_foot[foot] = on_foot.get(foot, _ZERO) + mass
        own_edge[(foot, edge)] = own_edge.get((foot, edge), _ZERO) + mass
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

    atoms = [(tree.vertex_point(v), m) for v, m in vertex_part.values.items()]
    atoms.extend(
        (TreePoint(edge=edge, offset=offset), mass)
        for (edge, offset), mass in interior.items()
    )
    try:
        measure = make_measure(tree, atoms)
    except MeasureError as exc:
        raise OracleInconsistencyError(f"reconstructed masses are not a probability: {exc}") from exc

    ordered = sorted(interior.items())
    reads: dict[int, list[tuple[Fraction, Fraction]]] = {eid: [] for eid in skeleton}
    for (edge, offset), mass in ordered:
        reads[edge].append((offset, mass))
    return ReconstructionResult(
        measure=measure,
        interior_atoms=tuple(
            (TreePoint(edge=edge, offset=offset), mass) for (edge, offset), mass in ordered
        ),
        interior_total=interior_total,
        vertex_part=vertex_part,
        edge_reads=tuple(EdgeRead(edge=eid, atoms=tuple(seen)) for eid, seen in reads.items()),
        flag_rows=tuple(flag_rows),
    )


def result_fields(result):
    return (result.measure, result.interior_atoms, result.interior_total,
            result.vertex_part, result.edge_reads, result.flag_rows)


def outcome(reconstruct, tree, oracle, skeleton=None):
    try:
        return result_fields(reconstruct(tree, oracle, skeleton))
    except OracleInconsistencyError:
        return OracleInconsistencyError
