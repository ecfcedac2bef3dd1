"""The contract of the tree value types ``TreePoint``, ``Flag`` and
``EdgeRecord``: hashing as the tuple of their fields (so sets and dicts
keyed by them iterate in a fixed order), exact reprs, immutability,
pickling, keyword construction, and no equality across types; and of the
per-query records ``RadonSample``, ``FlagRow`` and ``EdgeRead``, which are
``NamedTuple``s too."""

import pickle
from fractions import Fraction as F

import pytest

from common import STAR3
from treeradon import (
    EdgeRecord,
    Flag,
    RadonSample,
    TreePoint,
    build_tree,
    geodesic_through_flag,
    make_measure,
    pushforward_projection,
)
from treeradon.radon import EdgeRead, FlagRow

VERTEX = TreePoint("a")
INTERIOR = TreePoint(edge=2, offset=F(1, 3))
FLAG = Flag("x", frozenset({3, 1}))
SEGMENT = EdgeRecord(0, "a", "b", F(3, 2))
RAY = EdgeRecord(4, 7, None, None)
VALUES = [VERTEX, INTERIOR, FLAG, SEGMENT, RAY]


@pytest.mark.parametrize("value, fields", [
    (VERTEX, ("a", None, None)),
    (INTERIOR, (None, 2, F(1, 3))),
    (FLAG, ("x", frozenset({1, 3}))),
    (SEGMENT, (0, "a", "b", F(3, 2))),
    (RAY, (4, 7, None, None)),
])
def test_hash_is_the_hash_of_the_fields(value, fields):
    assert tuple(getattr(value, name) for name in value._fields) == fields
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value, text", [
    (VERTEX, "TreePoint('a')"),
    (TreePoint(5), "TreePoint(5)"),
    (INTERIOR, "TreePoint(edge=2, offset=1/3)"),
    (FLAG, "Flag('x', {1, 3})"),
    (Flag(0, frozenset({10, 9})), "Flag(0, {9, 10})"),
    (SEGMENT, "EdgeRecord(id=0, u='a', v='b', length=Fraction(3, 2))"),
    (RAY, "EdgeRecord(id=4, u=7, v=None, length=None)"),
    # a malformed edge pair still prints, so an error message can name it
    (Flag("c", frozenset({0})), "Flag('c', {0})"),
    (Flag("c", frozenset({2, 0, 1})), "Flag('c', {0, 1, 2})"),
    (Flag("c", frozenset()), "Flag('c', {})"),
    (Flag("c", frozenset({0, 1.0})), "Flag('c', {0, 1.0})"),
    (Flag("c", None), "Flag('c', None)"),
])
def test_repr(value, text):
    assert repr(value) == text


def test_repr_of_an_unsortable_pair():
    # mixed ids do not sort; the pair prints as it is, in set order
    assert repr(Flag("c", frozenset({0, "x"}))) in (
        "Flag('c', frozenset({0, 'x'}))", "Flag('c', frozenset({'x', 0}))")


def test_flag_edge_pair_is_unordered():
    assert Flag("x", frozenset({1, 3})) == Flag("x", frozenset({3, 1}))
    assert hash(Flag("x", frozenset({1, 3}))) == hash(Flag("x", frozenset({3, 1})))
    assert FLAG.edges == (1, 3)


@pytest.mark.parametrize("value", VALUES)
def test_attributes_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], "b")
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES)
def test_pickle_round_trip(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value) and hash(back) == hash(value)


def test_keyword_construction():
    assert TreePoint(vertex="a") == VERTEX
    assert TreePoint() == TreePoint(None, None, None)
    assert TreePoint(offset=F(1, 3), edge=2) == INTERIOR
    assert Flag(edge_pair=frozenset({1, 3}), vertex="x") == FLAG
    assert EdgeRecord(length=F(3, 2), v="b", u="a", id=0) == SEGMENT
    assert RAY.is_ray and not SEGMENT.is_ray
    assert VERTEX.is_vertex and not INTERIOR.is_vertex


def test_types_never_equal_each_other():
    # fields that coincide as far as they go still differ in count
    assert Flag("a", None) != TreePoint("a")
    assert TreePoint("a", None) != Flag("a", None)
    assert EdgeRecord(None, None, None, None) != TreePoint()
    assert len({Flag("a", None), TreePoint("a"), EdgeRecord("a", None, None, None)}) == 3


# ---------------------------------------------------------------------- #
# The per-query records: RadonSample, FlagRow and EdgeRead                  #
# ---------------------------------------------------------------------- #

def _sample():
    tree = build_tree(STAR3)
    geodesic = geodesic_through_flag(tree, tree.flag("c", 0, 1))
    mu = make_measure(tree, [(tree.vertex_point("c"), F(1, 2)),
                             (tree.point(2, F(1, 3)), F(1, 2))])
    return tree, pushforward_projection(tree, geodesic, mu)


ROW_FIELDS = (FLAG, F(1, 2), F(1, 6), F(1, 3))
READ_FIELDS = (2, ((F(1, 3), F(1, 2)),))


def test_records_build_by_keyword_and_by_position():
    _, sample = _sample()
    fields = (sample.geodesic, sample.atoms)
    assert RadonSample(*fields) == sample
    assert RadonSample(atoms=sample.atoms, geodesic=sample.geodesic) == sample
    assert FlagRow(*ROW_FIELDS) == FlagRow(vertex_value=F(1, 3), interior_subtracted=F(1, 6),
                                           raw_mass=F(1, 2), flag=FLAG)
    assert EdgeRead(*READ_FIELDS) == EdgeRead(atoms=READ_FIELDS[1], edge=2)
    assert FlagRow(*ROW_FIELDS).interior_subtracted == F(1, 6)
    assert EdgeRead(*READ_FIELDS).edge == 2


def test_records_compare_and_hash_as_their_fields():
    _, sample = _sample()
    for record, fields in ((sample, (sample.geodesic, sample.atoms)),
                           (FlagRow(*ROW_FIELDS), ROW_FIELDS),
                           (EdgeRead(*READ_FIELDS), READ_FIELDS)):
        assert tuple(getattr(record, name) for name in record._fields) == fields
        assert record == fields and hash(record) == hash(fields)
        assert type(record)._make(fields) == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def test_records_pickle_round_trip():
    for record in (FlagRow(*ROW_FIELDS), EdgeRead(*READ_FIELDS)):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record) and hash(back) == hash(record)
    # a geodesic equals only geodesics of its own tree object, so the sample
    # travels with its tree and is compared on the copy
    tree, sample = _sample()
    tree_back, back = pickle.loads(pickle.dumps((tree, sample)))
    assert type(back) is RadonSample and back.geodesic.tree is tree_back
    assert back.atoms == sample.atoms and back.geodesic.edges == sample.geodesic.edges
    assert back.to_measure(tree_back) == sample.to_measure(tree)
