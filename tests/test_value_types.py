"""The contract of the tree value types ``TreePoint``, ``Flag`` and
``EdgeRecord``: hashing as the tuple of their fields (so sets and dicts
keyed by them iterate in a fixed order), exact reprs, immutability,
pickling, keyword construction, and no equality across types; of the
per-query records ``RadonSample``, ``FlagRow`` and ``EdgeRead``, which are
``NamedTuple``s too; and of the nine result records, ``NamedTuple``s that
keep the fields, properties and reprs they had as frozen dataclasses; and
of ``FlagTable``, whose forward-transform ints never show, and whose
entries, when it comes from the forward transform, are built on their
first read by whichever reader comes first."""

import copy
import inspect
import pickle
from dataclasses import make_dataclass, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from common import STAR3
from conftest import profile_settings
from treeradon import (
    Cat0Comparison,
    CycleViolation,
    DiracExtensionCheck,
    DoubleCountIdentity,
    EdgeRecord,
    Flag,
    FlagTable,
    NonextendabilityWitness,
    RadonSample,
    ReconstructionResult,
    Subtree,
    ThalesCheck,
    TransportPlan,
    TreePoint,
    build_tree,
    check_cat0_triangle,
    check_dirac_preserved_extension,
    check_nonextendable,
    check_thales,
    double_count_check,
    geodesic_through_flag,
    make_measure,
    optimal_plan,
    perpendicular,
    pushforward_projection,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
    vertex_function,
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


# ---------------------------------------------------------------------- #
# FlagTable: the forward transform's ints are invisible                     #
# ---------------------------------------------------------------------- #

def test_a_forward_table_is_the_table_of_its_entries():
    tree = build_tree(STAR3)
    h = vertex_function(tree, {"c": F(1, 2), "a": F(-1, 3), "b": 2})
    table = radon_forward(tree, h)
    plain = FlagTable(tree, table.entries)
    assert list(inspect.signature(FlagTable).parameters) == ["tree", "entries"]
    assert table == plain and hash(table) == hash(plain) and repr(table) == repr(plain)
    # the table travels with its tree and is compared on the copy
    tree_back, back = pickle.loads(pickle.dumps((tree, table)))
    assert back.tree is tree_back and back == FlagTable(tree_back, table.entries)
    assert hash(back) == hash(FlagTable(tree_back, table.entries))
    assert radon_invert(tree_back, back, h.total).values == h.values


def test_new_entries_never_sit_beside_old_ints():
    tree = build_tree(STAR3)
    h = vertex_function(tree, {"c": F(1, 2), "a": F(-1, 3), "b": 2})
    g = vertex_function(tree, {"d": F(5, 7), "c": -1})
    table, other = radon_forward(tree, h), radon_forward(tree, g)
    for rebuilt in (replace(table, entries=other.entries), FlagTable(tree, other.entries),
                    replace(table)):
        assert rebuilt._ints is None
    assert radon_invert(tree, replace(table, entries=other.entries), g.total) == g
    assert radon_invert(tree, replace(other, entries=table.entries), h.total) == h


def test_an_unread_forward_table_is_the_table_of_its_entries():
    """Each check runs on a table whose entries were never read, so the
    reader under test is the one that builds them."""
    tree = build_tree(STAR3)
    h = vertex_function(tree, {"c": F(1, 2), "a": F(-1, 3), "b": 2})

    def unread():
        table = radon_forward(tree, h)
        assert "entries" not in vars(table)
        return table

    plain = FlagTable(tree, unread().entries)
    assert hash(unread()) == hash(plain)
    assert unread() == plain and plain == unread()
    assert repr(unread()) == repr(plain)
    # pickled unread, it stays unread and still inverts through its ints
    tree_back, back = pickle.loads(pickle.dumps((tree, unread())))
    assert "entries" not in vars(back) and back._ints is not None
    assert radon_invert(tree_back, back, h.total) == h
    assert "entries" not in vars(back)
    assert back == FlagTable(tree_back, plain.entries)
    assert copy.copy(unread()) == plain
    # a deep copy copies the tree too, unless the memo keeps it
    assert copy.deepcopy(unread(), {id(tree): tree}) == plain
    deep = copy.deepcopy(unread())
    assert deep.tree is not tree and deep == FlagTable(deep.tree, plain.entries)
    assert replace(unread()) == plain
    # the hook answers ``entries`` alone; any other name is Python's error
    table, missing = unread(), object()
    assert getattr(table, "nope", missing) is missing
    with pytest.raises(AttributeError) as info:
        table.nope
    assert str(info.value) == "'FlagTable' object has no attribute 'nope'"
    assert "entries" not in vars(table)


# ---------------------------------------------------------------------- #
# The result records, frozen dataclasses before and NamedTuples now         #
# ---------------------------------------------------------------------- #

# Each record's fields in their dataclass order.
RECORD_FIELDS = {
    Cat0Comparison: ("t", "lhs", "rhs"),
    DoubleCountIdentity: ("vertex", "lhs", "rhs"),
    ReconstructionResult: ("measure", "interior_atoms", "interior_total", "vertex_part",
                           "edge_reads", "flag_rows"),
    TransportPlan: ("source", "target", "couplings", "squared_cost"),
    CycleViolation: ("pairs", "base_cost", "shifted_cost"),
    NonextendabilityWitness: ("y_prime", "y", "y_continued", "epsilon", "continued_cost",
                              "swapped_cost"),
    Subtree: ("root", "vertices", "edges"),
    ThalesCheck: ("lhs_sq", "rhs_sq"),
    DiracExtensionCheck: ("geodesic_property_ok", "witnesses"),
}
# A frozen dataclass with each record's name and fields, as the record was
# declared before: its repr is the one the record must keep.
DATACLASS_TWIN = {cls: make_dataclass(cls.__name__, fields, frozen=True)
                  for cls, fields in RECORD_FIELDS.items()}


@pytest.fixture(scope="module")
def records():
    """One record of each type on STAR3, as the library makes it (the cycle
    violation is built by hand). Built once per module inside the tests, so
    a kernel that raises fails the tests that read it, by name."""
    tree = build_tree(STAR3)
    a, b, c = (tree.vertex_point(v) for v in "abc")
    inner = tree.point(1, F(1, 3))
    mu = make_measure(tree, [(c, F(1, 2)), (inner, F(1, 2))])
    nu = make_measure(tree, [(a, F(1, 4)), (b, F(3, 4))])
    flag = tree.flag("c", 0, 1)
    return [
        check_cat0_triangle(tree, a, b, inner, F(1, 2)),
        double_count_check(tree, vertex_function(tree, {"c": 1, "a": F(2, 3)}), "c"),
        reconstruct_measure(tree, radon_oracle(tree, mu)),
        optimal_plan(tree, mu, nu),
        CycleViolation(((c, a), (inner, b)), F(5, 2), F(3, 2)),
        check_nonextendable(tree, mu, c, F(1, 2)),
        perpendicular(tree, flag),
        check_thales(tree, geodesic_through_flag(tree, flag), a, c, mu),
        check_dirac_preserved_extension(tree, c, mu, 2),
    ]


@pytest.fixture(params=list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def record(request, records):
    """The library's record of each type in turn."""
    return records[list(RECORD_FIELDS).index(request.param)]


def _field_values(record):
    return tuple(getattr(record, name) for name in RECORD_FIELDS[type(record)])


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a VertexFunction holds a dict
        return type(exc)


def test_every_record_is_covered(records):
    assert [type(record) for record in records] == list(RECORD_FIELDS)


def test_result_record_fields_and_construction(record):
    cls, values = type(record), _field_values(record)
    assert cls._fields == RECORD_FIELDS[cls]
    assert cls(*values) == record
    assert cls(**dict(reversed(list(zip(cls._fields, values))))) == record
    assert cls._make(values) == record and tuple(record) == values


def test_result_record_equals_and_hashes_as_its_fields(record):
    values = _field_values(record)
    assert record == values and values == record
    assert _hash_or_error(record) == _hash_or_error(values)


def test_result_records_of_two_types_with_equal_fields_are_equal():
    assert Cat0Comparison(0, 1, 1) == DoubleCountIdentity(0, 1, 1)


def test_result_record_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_result_record_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert _hash_or_error(back) == _hash_or_error(record)
    # a rebuilt frozenset may iterate, and so print, in another order
    if not any(isinstance(value, (set, frozenset)) for value in record):
        assert repr(back) == repr(record)


def test_result_record_repr_is_the_dataclass_repr(record):
    assert repr(record) == repr(DATACLASS_TWIN[type(record)](*record))


def test_result_record_properties(records):
    cat0, identity, _, _, violation, witness, subtree, thales, dirac_check = records
    assert (cat0.holds, cat0.strict) == (cat0.lhs <= cat0.rhs, cat0.lhs < cat0.rhs)
    assert Cat0Comparison(F(0), F(1), F(1)).holds and not Cat0Comparison(F(0), F(1), F(1)).strict
    assert not Cat0Comparison(F(0), F(2), F(1)).holds
    assert identity.holds and not DoubleCountIdentity("c", F(1), F(2)).holds
    assert bool(violation) is False and not CycleViolation((), F(0), F(0))
    assert witness.violated == (witness.continued_cost > witness.swapped_cost) and witness.violated
    assert witness.cycle == ((witness.y_prime, witness.y_continued), (witness.y, witness.y))
    # the perpendicular of the flag {0, 1} at c: c, the spoke to d and d's two rays
    assert subtree.contains(TreePoint("d")) and subtree.contains(TreePoint(edge=7, offset=F(1)))
    assert not subtree.contains(TreePoint("a")) and not subtree.contains(TreePoint(edge=0,
                                                                                   offset=F(1, 2)))
    assert thales.relation == "eq"
    assert [ThalesCheck(F(1), F(1)).relation, ThalesCheck(F(1), F(2)).relation,
            ThalesCheck(F(2), F(1)).relation] == ["eq", "lt", "gt"]
    assert dirac_check.passed and dirac_check.witnesses
    assert not DiracExtensionCheck(False, dirac_check.witnesses).passed
    assert not DiracExtensionCheck(True, (witness._replace(continued_cost=F(0)),)).passed


# Field values of any shape: a repr depends only on its fields' reprs.
_FIELD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.fractions() | st.text(max_size=6)
    | st.builds(TreePoint, st.text(max_size=3)),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(st.integers(), max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
@given(data=st.data())
@profile_settings(20)
def test_record_reprs_are_the_dataclass_reprs(cls, data):
    values = data.draw(st.tuples(*[_FIELD_VALUES] * len(cls._fields)))
    assert repr(cls(*values)) == repr(DATACLASS_TWIN[cls](*values))
