"""Reconstruction against the flag schedule it replaced, and against the
hidden measure.

``flag_schedule_reconstruct`` is an earlier ``reconstruct_measure``, kept
verbatim: it queries ``geodesic_through_flag`` for every flag no earlier
answer has read, and reads every joint of each answer. The library keeps
that flag order but routes each queried geodesic, past its flag, through
flags no answer has read yet. On an honest oracle both give the same
result field for field, and the library's measure, interior atoms and
vertex part are the hidden measure's. On a sub-skeleton both agree or
both reject, and the library rejects exactly when the hidden measure has
an interior atom off the skeleton. ``test_flag_table.py`` asks both
schedules to refuse an oracle that nudges every few answers.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from fractions import Fraction

import pytest
from hypothesis import given

from common import count_calls, hidden_measure, leafless_tree, tree_and_measure
from conftest import profile_settings
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
    pushforward_projection,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
)
from radon_reference import _branch_sums
from treeradon.radon import EdgeRead, FlagRow, VertexFunction
from treeradon.tree import VertexId

pytestmark = pytest.mark.deep

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


# ---------------------------------------------------------------------- #
# Against the references                                                    #
# ---------------------------------------------------------------------- #

def result_fields(result):
    return (result.measure, result.interior_atoms, result.interior_total,
            result.vertex_part, result.edge_reads, result.flag_rows)


def outcome(reconstruct, tree, oracle, skeleton=None):
    try:
        return result_fields(reconstruct(tree, oracle, skeleton))
    except OracleInconsistencyError:
        return OracleInconsistencyError


@given(tree_and_measure())
@profile_settings(60)
def test_full_skeleton_matches_reference(data):
    tree, hidden, _ = data
    result = reconstruct_measure(tree, radon_oracle(tree, hidden))
    assert result.measure == hidden
    interior = [(point, mass) for point, mass in hidden.atoms if not point.is_vertex]
    assert result.interior_atoms == tuple(
        sorted(interior, key=lambda atom: (atom[0].edge, atom[0].offset)))
    assert result.interior_total == sum((mass for _, mass in interior), _ZERO)
    assert result.vertex_part == VertexFunction(
        {point.vertex: mass for point, mass in hidden.atoms if point.is_vertex})


@given(tree_and_measure())
@profile_settings(60)
def test_full_skeleton_matches_flag_schedule(data):
    tree, hidden, _ = data
    result = reconstruct_measure(tree, radon_oracle(tree, hidden))
    expected = flag_schedule_reconstruct(tree, radon_oracle(tree, hidden))
    assert result_fields(result) == result_fields(expected)


@given(tree_and_measure())
@profile_settings(60)
def test_sub_skeleton_agrees_or_both_reject(data):
    # an honest oracle is refused exactly when the hidden measure has an
    # interior atom off the skeleton, and recovered otherwise
    tree, hidden, rng = data
    skeleton = [eid for eid in range(len(tree.edges)) if rng.random() < 0.8]
    off = any(not point.is_vertex and point.edge not in skeleton for point, _ in hidden.atoms)
    result = outcome(reconstruct_measure, tree, radon_oracle(tree, hidden), skeleton)
    if off:
        assert result is OracleInconsistencyError
    else:
        assert result[0] == hidden


@given(tree_and_measure())
@profile_settings(60)
def test_sub_skeleton_agrees_with_flag_schedule_or_both_reject(data):
    tree, hidden, rng = data
    skeleton = [eid for eid in range(len(tree.edges)) if rng.random() < 0.8]
    assert (outcome(reconstruct_measure, tree, radon_oracle(tree, hidden), skeleton)
            == outcome(flag_schedule_reconstruct, tree, radon_oracle(tree, hidden), skeleton))


# ---------------------------------------------------------------------- #
# Oracle traffic                                                            #
# ---------------------------------------------------------------------- #

def fixed_40_vertex_case():
    rng = random.Random(40)
    tree = leafless_tree(rng, 40)
    return tree, hidden_measure(tree, rng, 6)


# Queries made on the fixed case above: 108 when every query was the
# smallest-id geodesic through its flag, and E + F = 89 + 147 = 236 for the
# edge-then-flag schedule before that.
FIXED_CASE_QUERIES = 63


def joint_flags(geodesic):
    """The flag read at each joint of a geodesic, with its coordinate."""
    edges = geodesic.edges
    return [(Flag(joint, frozenset(edges[i:i + 2])), geodesic.coordinate_of(TreePoint(vertex=joint)))
            for i, joint in enumerate(geodesic.joints)]


def spied_queries(tree, hidden):
    asked = []

    def spy(geodesic):
        asked.append(geodesic)
        return pushforward_projection(tree, geodesic, hidden)

    assert reconstruct_measure(tree, spy).measure == hidden
    return asked


def test_spy_sees_only_distinct_flag_geodesics():
    tree, hidden = fixed_40_vertex_case()
    asked = spied_queries(tree, hidden)
    read = set()
    for geodesic in asked:
        assert geodesic.is_complete
        origin_flag = next(flag for flag, coord in joint_flags(geodesic) if coord == 0)
        assert origin_flag not in read
        read.update(flag for flag, _ in joint_flags(geodesic))
    assert read == set(enumerate_flags(tree))
    assert len(set(asked)) == len(asked)
    assert len(asked) == FIXED_CASE_QUERIES


def test_liar_at_one_joint_is_caught_by_the_rereading():
    tree, hidden = fixed_40_vertex_case()
    # Find a joint of a later query whose flag an earlier query already read.
    read, asked = set(), []

    def spy(geodesic):
        asked.append(geodesic)
        return pushforward_projection(tree, geodesic, hidden)

    reconstruct_measure(tree, spy)
    target = None
    for geodesic in asked:
        for i, joint in enumerate(geodesic.joints):
            flag = Flag(joint, frozenset(geodesic.edges[i:i + 2]))
            if flag in read and target is None and joint != geodesic.origin.vertex:
                target = geodesic, geodesic.coordinate_of(TreePoint(vertex=joint))
            read.add(flag)
    assert target is not None
    bent, coord = target

    def liar(geodesic):
        sample = pushforward_projection(tree, geodesic, hidden)
        if geodesic != bent:
            return sample
        masses = dict(sample.atoms)
        masses[coord] = masses.get(coord, _ZERO) + Fraction(1, 7)
        return type(sample)(geodesic, tuple(sorted(masses.items())))

    with pytest.raises(OracleInconsistencyError, match="on one geodesic and"):
        reconstruct_measure(tree, liar)


def test_liar_at_a_flag_read_once_is_caught():
    # No second reading cross-checks these flags; the checks after the
    # inversion (negative mass, total mass, forward/inverse) must catch the
    # bend instead.
    tree, hidden = fixed_40_vertex_case()
    readers = {}
    for geodesic in spied_queries(tree, hidden):
        for flag, coord in joint_flags(geodesic):
            readers.setdefault(flag, []).append((geodesic, coord))
    once = [flag for flag in enumerate_flags(tree) if len(readers[flag]) == 1]
    picked = once[::20]
    assert {readers[flag][0][1] == 0 for flag in picked} == {True, False}

    for flag in picked:
        (bent, coord), = readers[flag]
        for delta in (Fraction(1, 7), Fraction(-1, 1000)):
            def liar(geodesic):
                sample = pushforward_projection(tree, geodesic, hidden)
                if geodesic != bent:
                    return sample
                masses = dict(sample.atoms)
                masses[coord] = masses.get(coord, _ZERO) + delta
                return type(sample)(geodesic, tuple(sorted(masses.items())))

            with pytest.raises(OracleInconsistencyError):
                reconstruct_measure(tree, liar)


def test_no_flag_position_is_computed_per_joint(monkeypatch):
    # the routing records the position of the flag at every joint it walks
    # through, and the queried flag's is its place in the flag order, so
    # the only positions computed are the interior correction's: one per
    # other edge at each interior atom's foot
    tree, hidden = fixed_40_vertex_case()
    calls = count_calls(monkeypatch, Tree, "_flag_position")
    assert reconstruct_measure(tree, radon_oracle(tree, hidden)).measure == hidden
    expected = []
    for point, _ in hidden.atoms:
        if not point.is_vertex:
            foot = tree._foot_vertex(point)
            expected += [(foot, point.edge, eid) for eid in tree.incident_edges(foot)
                         if eid != point.edge]
    assert sorted((args[1:] for args in calls), key=repr) == sorted(expected, key=repr)


def zero_joint_reread(tree, hidden):
    """A queried geodesic and the coordinate of one of its joints, past its
    origin, whose flag an earlier answer read as zero."""
    read = set()
    for geodesic in spied_queries(tree, hidden):
        coordinates = dict(pushforward_projection(tree, geodesic, hidden).atoms)
        for flag, coord in joint_flags(geodesic):
            if flag in read and coord != 0 and coord not in coordinates:
                return geodesic, coord
            read.add(flag)
    raise AssertionError("no flag read as zero is read again")


@pytest.mark.parametrize("reading, caught", [
    (Fraction(0), False), (0, False), (Fraction(1, 7), True),
], ids=["fresh-fraction-zero", "int-zero", "one-seventh"])
def test_a_zero_reread_is_compared_by_value(reading, caught):
    # an earlier answer read the flag as the shared zero; a later answer
    # that lists the joint with another zero object agrees with it
    tree, hidden = fixed_40_vertex_case()
    bent, coord = zero_joint_reread(tree, hidden)

    def oracle(geodesic):
        sample = pushforward_projection(tree, geodesic, hidden)
        if geodesic != bent:
            return sample
        return type(sample)(geodesic, tuple(sorted(sample.atoms + ((coord, reading),))))

    if caught:
        with pytest.raises(OracleInconsistencyError, match="on one geodesic and"):
            reconstruct_measure(tree, oracle)
    else:
        assert reconstruct_measure(tree, oracle).measure == hidden
