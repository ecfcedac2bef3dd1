"""Reconstruction against the flag schedule it replaced, and against the
hidden measure.

``flag_schedule_reconstruct`` (``tests/reconstruct_reference.py``) is an
earlier ``reconstruct_measure``, kept verbatim. On an honest oracle both
give the same result field for field, and the library's measure,
interior atoms and vertex part are the hidden measure's. On a
sub-skeleton both agree or both reject, and the library rejects exactly
when the hidden measure has an interior atom off the skeleton.
``test_flag_table.py`` asks both schedules to refuse an oracle that
nudges every few answers.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from common import PRIMES, count_calls, hidden_measure, leafless_tree, tree_and_measure
from conftest import profile_settings
from reconstruct_reference import flag_schedule_reconstruct, outcome, result_fields
from treeradon import (
    Flag,
    OracleInconsistencyError,
    Tree,
    TreePoint,
    enumerate_flags,
    make_measure,
    pushforward_projection,
    radon_oracle,
    reconstruct_measure,
)
from treeradon.radon import VertexFunction

pytestmark = pytest.mark.deep

_ZERO = Fraction(0)


# ---------------------------------------------------------------------- #
# Against the references                                                    #
# ---------------------------------------------------------------------- #

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


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
@profile_settings(20)
def test_int_tail_matches_flag_schedule_on_both_sides_of_64_bits(seed, vertices, primes):
    # reconstruction subtracts, inverts and re-checks in ints over one
    # scale S; with a distinct prime denominator for five of six masses, S
    # is past 64 bits, and where the sixth, whose denominator is all five,
    # falls on a vertex, the re-check's forward transform keeps Fractions
    rng = random.Random(seed)
    tree = leafless_tree(rng, vertices)
    hidden = hidden_measure(tree, rng, 6)
    if primes:
        masses = [Fraction(1, p) for p in rng.sample(PRIMES[-2000:], 5)]
        masses.append(1 - sum(masses))
        rng.shuffle(masses)
        hidden = make_measure(tree, [(point, mass) for (point, _), mass in zip(hidden.atoms, masses)])
    assert (hidden._integer_masses[0] >> 64 > 0) is primes
    result = reconstruct_measure(tree, radon_oracle(tree, hidden))
    expected = flag_schedule_reconstruct(tree, radon_oracle(tree, hidden))
    assert result.measure == expected.measure == hidden
    assert result.vertex_part == expected.vertex_part
    assert result.flag_rows == expected.flag_rows


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
