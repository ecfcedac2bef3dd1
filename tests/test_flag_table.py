"""Flag tables indexed by flag position, against the Flag-keyed code they
replaced.

A ``FlagTable`` holds one entry per flag of its tree, in
``enumerate_flags`` order, and the tree records where each vertex's flags
start. The properties here check that numbering, the table's public reads
(``values``, ``value``, ``len``, ``flag_table``) and its one-tree rule,
and compare ``radon_forward``, ``radon_invert``, the double-counting check
and ``reconstruct_measure`` with the Flag-keyed copies in
``flag_dict_reference``: the same values in the same order, the same
provenance and the same errors. Trees come from ``gen_tree`` (leafless
and leafy) and from leafless trees of 100 to 400 vertices with shuffled
vertex and edge ids.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import flag_dict_reference as reference
from common import (
    LEAFLESS,
    PRIMES,
    assert_identical,
    flag_prime_table,
    raised,
    small_values,
    tree_and_measure,
    trees,
    vertex_prime_values,
)
from conftest import profile_settings
from treeradon import (
    Flag,
    FlagTable,
    OracleInconsistencyError,
    RadonError,
    Tree,
    double_count_check,
    enumerate_flags,
    flag_table,
    pushforward_projection,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
    vertex_function,
)

VALUE_KINDS = st.sampled_from((small_values, vertex_prime_values))
TABLE_KINDS = st.sampled_from((small_values, vertex_prime_values, flag_prime_table))


def drawn_table(tree, rng, kind):
    """A full table: the transform of a drawn function, or (for
    ``flag_prime_table``) arbitrary values with a prime denominator each."""
    return kind(tree, rng) if kind is flag_prime_table else radon_forward(tree, kind(tree, rng))


def partial(tree, rng, table):
    """The table with a random share of its entries dropped, and the
    mapping it was built from."""
    kept = rng.random()
    mapping = {flag: value for flag, value in table.values.items() if rng.random() < kept}
    return flag_table(tree, mapping), mapping


def twin(tree):
    """Another tree object built from the same description."""
    return Tree(tree.vertices, [(rec.u, rec.v, rec.length) for rec in tree.edges])


# ---------------------------------------------------------------------- #
# The numbering                                                             #
# ---------------------------------------------------------------------- #

@given(trees())
@profile_settings(40)
def test_tree_positions_agree_with_enumerate_flags(drawn):
    tree, _ = drawn
    flags = enumerate_flags(tree)
    assert tree._flag_count == len(flags)
    before = 0
    for v in tree.vertices:
        assert tree._vertex[v].first_flag == before
        before += sum(1 for flag in flags if flag.vertex == v)
    for at, flag in enumerate(flags):
        e, f = flag.edges
        assert tree._flag_position(flag.vertex, e, f) == at
        assert tree._flag_position(flag.vertex, f, e) == at


# ---------------------------------------------------------------------- #
# Public reads                                                              #
# ---------------------------------------------------------------------- #

@given(trees(), TABLE_KINDS)
@profile_settings(40)
def test_values_value_and_len(drawn, kind):
    tree, rng = drawn
    table = drawn_table(tree, rng, kind)
    values = table.values
    assert list(values) == enumerate_flags(tree)
    assert len(table) == len(values) == len(enumerate_flags(tree))
    for flag in values:
        assert table.value(flag) is values[flag]
    assert table.values == values and table.values is not values
    assert flag_table(tree, values) == table


@given(trees(), TABLE_KINDS)
@profile_settings(40)
def test_partial_table_reads(drawn, kind):
    tree, rng = drawn
    table, mapping = partial(tree, rng, drawn_table(tree, rng, kind))
    assert len(table) == len(mapping)
    assert list(table.values.items()) == list(mapping.items())
    assert flag_table(tree, table.values) == table
    for flag in enumerate_flags(tree):
        if flag in mapping:
            assert table.value(flag) is mapping[flag]
        else:
            assert raised(table.value, flag) == f"flag table has no entry for {flag!r}"


@given(trees())
@profile_settings(40)
def test_foreign_and_unknown_flags_have_no_entry(drawn):
    tree, rng = drawn
    table = radon_forward(tree, small_values(tree, rng))
    v = rng.choice(tree.vertices)
    inc = tree.incident_edges(v)
    strangers = [eid for eid in range(len(tree.edges)) if eid not in inc]
    unknown = [
        Flag("nowhere", frozenset((0, 1))),
        Flag(v, frozenset((len(tree.edges), len(tree.edges) + 1))),
        Flag(v, frozenset((inc[0],))),
        Flag(v, frozenset()),
        Flag(v, frozenset(inc[:3])) if len(inc) >= 3 else Flag(v, None),
        Flag(["unhashable"], frozenset((0, 1))),
    ]
    if strangers:
        unknown.append(Flag(v, frozenset((inc[0], rng.choice(strangers)))))
    if len(inc) >= 2:  # equal to an incident pair, but 1.0 is not an edge id
        unknown.append(Flag(v, frozenset((inc[0], float(inc[1])))))
    for flag in unknown:
        assert raised(table.value, flag) == f"flag table has no entry for {flag!r}"
    # an entry for a flag the tree lacks is ignored
    padded = dict(table.values)
    padded.update({flag: F(7, 3) for flag in unknown[:3]})
    assert flag_table(tree, padded) == table


@given(trees(LEAFLESS))
@profile_settings(40)
def test_a_table_of_another_tree_is_refused(drawn):
    tree, rng = drawn
    h = small_values(tree, rng)
    table = radon_forward(tree, h)
    other = twin(tree)
    assert flag_table(other, table.values) != table
    assert radon_invert(other, flag_table(other, table.values), h.total) == h
    message = "the flag table belongs to another tree"
    assert raised(radon_invert, other, table, h.total) == message
    assert raised(double_count_check, other, h, rng.choice(tree.vertices), table) == message


@pytest.mark.parametrize("pair", [frozenset({0, True}), frozenset({0, 1.0}),
                                  frozenset({False, 1})])
def test_a_pair_equal_to_edge_ids_is_not_a_flag(star3, pair):
    table = radon_forward(star3, vertex_function(star3, {"c": 1}))
    assert table.value(Flag("c", frozenset({0, 1}))) is table.entries[0]
    with pytest.raises(RadonError, match=r"^flag table has no entry for Flag\('c', "):
        table.value(Flag("c", pair))


def test_entries_must_cover_every_flag(star3):
    table = radon_forward(star3, vertex_function(star3, {"c": 1}))
    assert FlagTable(star3, list(table.entries)) == table
    for entries in ((), table.entries[:-1], table.entries + (F(1),)):
        with pytest.raises(RadonError, match=f"needs 12 entries, not {len(entries)}"):
            FlagTable(star3, entries)


def test_flag_table_parses_values(star3):
    flags = enumerate_flags(star3)
    table = flag_table(star3, {flags[0]: "3/6", flags[1]: 2})
    assert table.entries[:3] == (F(1, 2), F(2), None)
    assert all(type(value) is F for value in table.values.values())
    with pytest.raises(TypeError, match="float"):
        flag_table(star3, {flags[0]: 0.5})


def test_flag_table_refuses_two_keys_for_one_flag(star3):
    first, second = Flag("c", frozenset({0, 1})), Flag("c", (1, 0))
    with pytest.raises(RadonError) as info:
        flag_table(star3, {first: 1, second: 2})
    assert str(info.value) == f"keys {first!r} and {second!r} name the same flag"


# ---------------------------------------------------------------------- #
# The kernels against the Flag-keyed references                             #
# ---------------------------------------------------------------------- #

@given(trees(), VALUE_KINDS)
@profile_settings(40)
def test_forward_matches_flag_keyed_reference(drawn, values):
    tree, rng = drawn
    h = values(tree, rng)
    new, ref = radon_forward(tree, h), reference.radon_forward(tree, h)
    assert new == ref
    assert_identical(new.values, ref.values)


@given(trees(LEAFLESS), TABLE_KINDS, st.booleans())
@profile_settings(40)
def test_invert_matches_flag_keyed_reference(drawn, kind, drop):
    tree, rng = drawn
    table = drawn_table(tree, rng, kind)
    if drop:
        table, _ = partial(tree, rng, table)
    total = F(rng.randint(-50, 50), rng.choice(PRIMES))
    try:
        expected = reference.radon_invert(tree, table, total)
    except RadonError as exc:
        assert raised(radon_invert, tree, table, total) == str(exc)
    else:
        assert_identical(radon_invert(tree, table, total).values, expected.values)


@given(trees(), TABLE_KINDS, st.booleans())
@profile_settings(40)
def test_flag_sums_match_flag_keyed_reference(drawn, kind, drop):
    tree, rng = drawn
    table = drawn_table(tree, rng, kind)
    if drop:
        table, _ = partial(tree, rng, table)
    h = small_values(tree, rng)
    flagged = [v for v in tree.vertices if tree.valency(v) >= 2]
    for x in rng.sample(flagged, min(8, len(flagged))):
        try:
            expected = reference._flag_sum(tree, table, x)
        except RadonError as exc:
            assert raised(double_count_check, tree, h, x, table) == str(exc)
        else:
            assert double_count_check(tree, h, x, table).lhs == F(*expected)


def nudging_oracle(tree, hidden, every, delta):
    """An honest oracle that adds ``delta`` to the first atom of every
    ``every``-th answer: a liar that both reconstructions, asking the same
    geodesics in the same order, must meet with the same error."""
    asked = []

    def oracle(geodesic):
        asked.append(geodesic)
        sample = pushforward_projection(tree, geodesic, hidden)
        if len(asked) % every or not sample.atoms:
            return sample
        (coord, mass), *rest = sample.atoms
        return type(sample)(geodesic, ((coord, mass + delta), *rest))

    return oracle


def outcome(reconstruct, tree, oracle, skeleton=None):
    """Every result field, or the message of the inconsistency raised."""
    try:
        result = reconstruct(tree, oracle, skeleton)
    except OracleInconsistencyError as exc:
        return str(exc)
    return (result.measure, result.interior_atoms, result.interior_total,
            result.vertex_part, result.edge_reads, result.flag_rows)


@given(tree_and_measure(), st.booleans())
@profile_settings(40)
def test_reconstruction_matches_flag_keyed_reference(data, sub):
    tree, hidden, rng = data
    skeleton = [eid for eid in range(len(tree.edges)) if rng.random() < 0.8] if sub else None
    oracle = radon_oracle(tree, hidden)
    assert (outcome(reconstruct_measure, tree, oracle, skeleton)
            == outcome(reference.reconstruct_measure, tree, oracle, skeleton))


@given(tree_and_measure(), st.integers(1, 4), st.sampled_from((F(1, 7), F(-1, 1000))))
@profile_settings(40)
def test_lying_oracle_meets_the_same_error(data, every, delta):
    tree, hidden, _ = data
    assert (outcome(reconstruct_measure, tree, nudging_oracle(tree, hidden, every, delta))
            == outcome(reference.reconstruct_measure, tree,
                       nudging_oracle(tree, hidden, every, delta)))
