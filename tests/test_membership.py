"""What belongs to a tree is decided in one place.

``Tree._record`` is the one vertex lookup of the public methods, and
``Tree.validate_flag`` the one flag check. An id that only equals a
vertex's, like ``True`` or ``1.0`` for ``1``, names that vertex, and what
the tree hands out carries the vertex list's own id. ``FlagTable.value`` and
``flag_table`` must agree with ``validate_flag`` on every key: a real
flag, a hand-built flag whose pair only equals one of the tree's, a pair
that is not two incident edges, a plain tuple, something that is no flag
at all, and a flag at an unknown or unhashable vertex.
"""

import json
import re
from collections.abc import Mapping
from fractions import Fraction as F

import pytest
from hypothesis import given

from conftest import profile_settings
from test_radon_reference import trees
from treeradon import (
    Flag,
    FlagTable,
    PointLocationError,
    RadonError,
    TreePoint,
    build_tree,
    double_count_check,
    enumerate_flags,
    flag_table,
    geodesic_through_flag,
    make_measure,
    vertex_function,
)
from treeradon.io import measure_to_dict


class One(Mapping):
    """A mapping of one key, which need not be hashable."""

    def __init__(self, key, value):
        self._key, self._value = key, value

    def __getitem__(self, key):
        if key is self._key:
            return self._value
        raise KeyError(key)

    def __iter__(self):
        yield self._key

    def __len__(self):
        return 1


def _as_non_ids(pair):
    """The pair with edge 0 as ``False`` and edge 1 as ``True``: equal, and
    not edge ids."""
    return frozenset({0: False, 1: True}.get(eid, eid) for eid in pair)


def candidate_keys(tree, rng):
    flags = enumerate_flags(tree)
    v = rng.choice(tree.vertices)
    inc = tree.incident_edges(v)
    e, count = inc[0], len(tree.edges)
    strangers = [eid for eid in range(count) if eid not in inc]
    keys = [
        Flag(v, (e, e)),
        Flag(v, frozenset((e,))),
        Flag(v, frozenset(inc[:3])),
        Flag(v, frozenset((e, count))),
        Flag(v, frozenset((e, True))),
        Flag(v, frozenset((e, 1.0))),
        Flag(v, None),
        Flag("nowhere", frozenset((0, 1))),
        Flag([v], frozenset((0, 1))),
        Flag({v: 1}, frozenset((0, 1))),
        (v, frozenset((0, 1))),
        frozenset((0, 1)),
        v,
        None,
        object(),
    ]
    if strangers:
        keys.append(Flag(v, frozenset((e, rng.choice(strangers)))))
    for flag in rng.sample(flags, min(4, len(flags))):
        a, b = flag.edges
        keys += [
            flag,
            Flag(flag.vertex, (b, a)),
            Flag(flag.vertex, frozenset((a, float(b)))),
            Flag(flag.vertex, _as_non_ids(flag.edge_pair)),
            tuple(flag),
        ]
    return keys


@given(trees(("complete", "finite")))
@profile_settings(40)
def test_value_and_flag_table_answer_as_validate_flag(drawn):
    tree, rng = drawn
    flags = enumerate_flags(tree)
    table = FlagTable(tree, [F(at + 1, 3) for at in range(len(flags))])
    for key in candidate_keys(tree, rng):
        try:
            checked = tree.validate_flag(key)
        except PointLocationError:
            checked = None
        single = flag_table(tree, One(key, F(5, 7)))
        if checked is None:
            with pytest.raises(RadonError) as info:
                table.value(key)
            assert str(info.value) == f"flag table has no entry for {key!r}"
            assert len(single) == 0
        else:
            assert table.value(key) is table.entries[flags.index(checked)]
            assert single.values == {checked: F(5, 7)}


UNHASHABLE = [["c"], {"c"}, {"c": 1}]


@pytest.mark.parametrize("call", [
    lambda tree, v: tree.incident_edges(v),
    lambda tree, v: tree.valency(v),
    lambda tree, v: tree.vertex_point(v),
    lambda tree, v: tree.canonical_point(TreePoint(v)),
    lambda tree, v: tree.flag(v, 0, 1),
    lambda tree, v: tree.distance(tree.vertex_point("c"), TreePoint(v)),
    lambda tree, v: geodesic_through_flag(tree, Flag(v, frozenset((0, 1)))),
    lambda tree, v: double_count_check(tree, vertex_function(tree, {"c": 1}), v),
], ids=["incident_edges", "valency", "vertex_point", "canonical_point", "flag", "distance",
        "geodesic_through_flag", "double_count_check"])
@pytest.mark.parametrize("vertex", UNHASHABLE, ids=["list", "set", "dict"])
def test_an_unhashable_vertex_is_unknown(star3, call, vertex):
    with pytest.raises(PointLocationError, match=f"^{re.escape(f'unknown vertex {vertex!r}')}$"):
        call(star3, vertex)


@pytest.mark.parametrize("vertex", UNHASHABLE, ids=["list", "set", "dict"])
def test_has_vertex_is_false_for_an_unhashable_id(star3, vertex):
    assert star3.has_vertex("c")
    assert not star3.has_vertex("nowhere")
    assert not star3.has_vertex(vertex)


@pytest.mark.parametrize("key", [("c", frozenset({0, 1})), "c", None, 7])
def test_an_object_without_an_edge_pair_is_not_a_flag(star3, key):
    with pytest.raises(PointLocationError, match=f"^{re.escape(f'not a flag: {key!r}')}$"):
        star3.validate_flag(key)


def test_an_alias_of_a_vertex_id_becomes_the_vertex_lists_own_id():
    plain = build_tree({"vertices": [1, 2, 3, 4],
                        "edges": [(1, 2, 1), (1, 3, 1), (1, 4, 1)]})
    aliased = build_tree({"vertices": [1, 2, 3, 4],
                          "edges": [(True, 2, 1), (1.0, 3, 1), (1, 4, 1)]})
    assert json.dumps(aliased.describe()) == json.dumps(plain.describe())
    for tree in (plain, aliased):
        one = tree.vertices[0]
        assert tree.point(0, 0).vertex is one
        expected = make_measure(tree, [(TreePoint(1), "1/2"), (TreePoint(2), "1/2")])
        for alias in (True, 1.0):
            mu = make_measure(tree, [(TreePoint(alias), "1/2"), (TreePoint(2), "1/2")])
            assert mu == expected
            assert repr(mu) == repr(expected)
            assert measure_to_dict(tree, mu) == measure_to_dict(tree, expected)
            assert tree.vertex_point(alias).vertex is one
            assert tree.canonical_point(TreePoint(alias)).vertex is one
            assert tree.flag(alias, 0, 1).vertex is one
            assert repr(vertex_function(tree, {alias: 1})) == repr(vertex_function(tree, {1: 1}))
