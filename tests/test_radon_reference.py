"""The Radon kernels against the Fraction code they replaced.

``radon_forward``, ``radon_invert`` and the double-counting check must give
the values of ``radon_reference`` exactly: the same flag table with its
keys in the same order, the same inverse, the same identity sides, and the
same errors. Trees come from ``gen_tree`` (leafy and leafless) and from
``common.shuffled_leafless_tree``, leafless trees of 100 to 400 vertices
with shuffled edge ids, so that the edge to a vertex's parent sits
anywhere among its incident edges. Values come in four kinds: small
denominators, a distinct prime denominator per vertex, at most three
nonzero values (often a pair that cancels inside one branch), and, for
the flag sums of inversion and double counting, an arbitrary table with a
distinct prime denominator per flag.

``radon_forward`` sums in ints over L, the lcm of h's denominators, while
L has at most 64 bits, and in ``Fraction``s past that. Both regimes are
compared at the switch, with L of exactly 64 and 65 bits, with and without
a total that cancels to zero; the int regime must do no ``Fraction``
arithmetic and build one ``Fraction`` per distinct flag value. A table
from the int regime keeps its ints for the flag sums: inverting it and
double counting with it must match the same entries in a table without
ints, read no entry's numerator or denominator, and build at most one
``Fraction`` per distinct inverted value. Such a table builds its entries
on their first read: the forward transform, inversion and double
counting build none, the first read builds one per distinct numerator,
a second read none, and whichever reader comes first (``entries``,
``values``, ``value`` or ``len``) gives the reference's table.
"""

import random
from fractions import Fraction as F
from itertools import cycle
from math import comb, lcm

import pytest
from hypothesis import assume, given, strategies as st

import radon_reference as reference
from common import (
    LEAFLESS,
    PRIMES,
    assert_identical,
    count_calls,
    flag_prime_table,
    fraction_calls,
    raised,
    shuffled_leafless_tree,
    small_values,
    trees,
    twin,
    vertex_prime_values,
)
from conftest import profile_settings
from treeradon import (
    Flag,
    FlagTable,
    RadonError,
    double_count_check,
    flag_table,
    radon_forward,
    radon_invert,
    vertex_function,
)
from treeradon import radon

pytestmark = pytest.mark.deep


def sparse_values(tree, rng):
    """At most 3 nonzero values, most often a pair that cancels inside one
    branch: opposite values at the two ends of a finite edge, so the subtree
    sums above it are a fresh ``Fraction(0)``, not the shared zero that
    ``radon_forward`` skips."""
    values = {}
    finite = [rec for rec in tree.edges if not rec.is_ray]
    if finite and rng.random() < 0.7:
        rec = rng.choice(finite)
        value = F(rng.randint(1, 12), rng.randint(1, 12))
        values = {rec.u: value, rec.v: -value}
    for v in rng.sample(tree.vertices, min(rng.randint(0, 3 - len(values)), len(tree.vertices))):
        values.setdefault(v, F(rng.randint(-12, 12), rng.randint(1, 12)))
    return vertex_function(tree, values)


VALUE_KINDS = st.sampled_from((small_values, vertex_prime_values, sparse_values))


def reference_double_count(tree, h, x, table):
    k = tree.valency(x)
    return reference._flag_sum(tree, table, x), comb(k - 1, 2) * h.total + (k - 1) * h.value(x)


@given(trees(), VALUE_KINDS)
@profile_settings(40)
def test_forward_matches_reference(drawn, values):
    tree, rng = drawn
    h = values(tree, rng)
    assert_identical(radon_forward(tree, h).values, reference.radon_forward(tree, h).values)


TABLE_KINDS = st.sampled_from((small_values, vertex_prime_values, sparse_values, flag_prime_table))


# the Fraction arithmetic a sum makes: +, - and their reflections
ADD_SUB = ("__add__", "__radd__", "__sub__", "__rsub__")


def primes_of_bits(rng, bits):
    """Distinct primes of ``PRIMES`` whose product has exactly ``bits`` bits."""
    while True:
        chosen, product = [], 1
        while product * PRIMES[-1] < 1 << (bits - 1):
            p = rng.choice(PRIMES)
            if p not in chosen:
                chosen.append(p)
                product *= p
        fits = [q for q in PRIMES if (product * q).bit_length() == bits and q not in chosen]
        if fits:
            return chosen + [rng.choice(fits)]


def one_entry_per_value(entries):
    return len(set(map(id, entries))) == len(set(entries))


def switch_values(tree, rng, bits, cancel):
    """Prime denominators whose lcm L has exactly ``bits`` bits; with
    ``cancel`` the root's value makes the total zero."""
    root, *others = tree.vertices
    values = {v: F(rng.choice((-1, 1)) * rng.randint(1, p - 1), p)
              for v, p in zip(others, cycle(primes_of_bits(rng, bits)))}
    if cancel:
        values[root] = -sum(values.values())
    return vertex_function(tree, values)


@given(trees(("large",)), st.sampled_from((64, 65)), st.booleans())
@profile_settings(20)
def test_forward_matches_reference_at_the_switch(drawn, bits, cancel):
    """L of exactly 64 bits takes the int regime and 65 the Fraction
    regime; with ``cancel`` the root's value makes the total zero."""
    tree, rng = drawn
    h = switch_values(tree, rng, bits, cancel)
    assert lcm(*(value.denominator for value in h.values.values())).bit_length() == bits
    assert (h.total == 0) is cancel
    with fraction_calls(*ADD_SUB) as calls:
        table = radon_forward(tree, h)
    assert_identical(table.values, reference.radon_forward(tree, h).values)
    if bits == 64:
        assert calls == []
        assert one_entry_per_value(table.entries)
    else:
        assert calls


@given(trees(LEAFLESS))
@profile_settings(40)
def test_int_regime_does_no_fraction_arithmetic(drawn):
    """On denominators up to 12, as the benchmark's large tree draws them."""
    tree, rng = drawn
    h = small_values(tree, rng)
    with fraction_calls(*ADD_SUB) as calls:
        table = radon_forward(tree, h)
    assert calls == []
    assert one_entry_per_value(table.entries)
    assert_identical(table.values, reference.radon_forward(tree, h).values)


def prime_total(rng, scale):
    """A total whose denominator is a prime that does not divide ``scale``."""
    p = rng.choice([p for p in PRIMES[:200] if scale % p])
    return F(rng.choice((-1, 1)) * rng.randint(1, p - 1), p)


@given(trees(LEAFLESS), st.sampled_from(("small", 64)), st.booleans())
@profile_settings(20)
def test_int_flag_sums_match_the_entries(drawn, inputs, cancel):
    """A forward table in the int regime, with denominators up to 12 or
    with L of exactly 64 bits, inverts and double counts exactly as the
    same entries in a table without ints and as the reference, at the
    function's total, at 0, and at a total whose prime denominator L
    lacks, which rescales every flag sum. A twin tree is refused."""
    tree, rng = drawn
    h = small_values(tree, rng) if inputs == "small" else switch_values(tree, rng, 64, cancel)
    table = radon_forward(tree, h)
    assert table._ints is not None
    plain = FlagTable(tree, table.entries)
    assert plain._ints is None
    for total in (h.total, F(0), prime_total(rng, table._ints[1])):
        inverse = radon_invert(tree, table, total)
        assert_identical(inverse.values, radon_invert(tree, plain, total).values)
        assert_identical(inverse.values, reference.radon_invert(tree, table, total).values)
    assert radon_invert(tree, table, h.total) == h
    for x in rng.sample(tree.vertices, min(8, len(tree.vertices))):
        check = double_count_check(tree, h, x, table)
        assert check == double_count_check(tree, h, x, plain)
        assert (check.lhs, check.rhs) == reference_double_count(tree, h, x, table)
        assert type(check.lhs) is F
    other = twin(tree)
    message = "the flag table belongs to another tree"
    assert raised(radon_invert, other, table, h.total) == message
    assert raised(double_count_check, other, h, tree.vertices[0], table) == message


@pytest.mark.parametrize("seed", range(4))
def test_int_regime_flag_sums_read_no_entry(monkeypatch, seed):
    """On a forward table in the int regime, inversion and double counting
    read no entry's numerator or denominator, and inversion builds at most
    one ``Fraction`` per distinct value; on the same entries without ints,
    each flag's numerator and denominator are read once."""
    rng = random.Random(seed)
    tree = shuffled_leafless_tree(rng, rng.randint(100, 400))
    h = small_values(tree, rng)
    table = radon_forward(tree, h)
    numerators = count_calls(monkeypatch, radon, "_numerator")
    denominators = count_calls(monkeypatch, radon, "_denominator")
    built = count_calls(monkeypatch, radon, "Fraction")
    inverse = radon_invert(tree, table, h.total)
    assert inverse == h
    assert len(built) <= len(set(inverse.values.values()))
    assert one_entry_per_value(list(inverse.values.values()))
    for x in tree.vertices[:16]:
        double_count_check(tree, h, x, table)
    assert (len(numerators), len(denominators)) == (0, 0)
    assert radon_invert(tree, FlagTable(tree, table.entries), h.total) == h
    flags = len(table.entries)
    assert (len(numerators), len(denominators)) == (flags, flags)


@pytest.mark.parametrize("seed", range(4))
def test_forward_entries_are_built_on_first_read(monkeypatch, seed):
    """In the int regime the forward transform builds no ``Fraction``, and
    inversion and 16 double counts leave its table's entries unbuilt; the
    first read builds one per distinct numerator and stores them, so a
    second read builds none."""
    rng = random.Random(seed)
    tree = shuffled_leafless_tree(rng, rng.randint(100, 400))
    h = small_values(tree, rng)
    built = count_calls(monkeypatch, radon, "Fraction")
    table = radon_forward(tree, h)
    assert built == []
    inverse = radon_invert(tree, table, h.total)
    for x in tree.vertices[:16]:
        double_count_check(tree, h, x, table)
    assert "entries" not in vars(table)
    built.clear()
    entries = table.entries
    assert len(built) == len(set(table._ints[0]))
    assert table.entries is entries and len(built) == len(set(table._ints[0]))
    assert one_entry_per_value(entries)
    assert inverse == h
    assert_identical(table.values, reference.radon_forward(tree, h).values)


# small denominators on any leafless tree, or L of exactly 64 bits (the int
# regime) or 65 (the Fraction regime) on a large one
FORWARD_INPUTS = st.one_of(st.tuples(trees(LEAFLESS), st.just("small")),
                           st.tuples(trees(("large",)), st.sampled_from((64, 65))))


@given(FORWARD_INPUTS, st.booleans())
@profile_settings(40)
def test_unread_forward_table_reads_as_the_reference(inputs, cancel):
    """Whichever reader comes first on a forward table, ``entries``,
    ``values``, ``value`` or ``len``, it gives the reference's table; in the
    int regime that read is the one that builds the entries."""
    (tree, rng), kind = inputs
    h = small_values(tree, rng) if kind == "small" else switch_values(tree, rng, kind, cancel)
    ref = reference.radon_forward(tree, h)

    def unread():
        table = radon_forward(tree, h)
        assert ("entries" in vars(table)) is (kind == 65)
        return table

    assert_identical(dict(enumerate(unread().entries)), dict(enumerate(ref.entries)))
    assert_identical(unread().values, ref.values)
    table = unread()
    assert_identical({flag: table.value(flag) for flag in ref.values}, ref.values)
    assert len(unread()) == len(ref)


@given(trees(LEAFLESS), TABLE_KINDS)
@profile_settings(40)
def test_invert_matches_reference(drawn, kind):
    tree, rng = drawn
    if kind is flag_prime_table:
        table = flag_prime_table(tree, rng)
        total = F(rng.randint(-50, 50), rng.choice(PRIMES))
    else:
        h = kind(tree, rng)
        table, total = reference.radon_forward(tree, h), h.total
    inverse = radon_invert(tree, table, total)
    assert_identical(inverse.values, reference.radon_invert(tree, table, total).values)
    if kind is not flag_prime_table:
        assert inverse == h


@given(trees(), TABLE_KINDS)
@profile_settings(40)
def test_double_count_sides_match_reference(drawn, kind):
    tree, rng = drawn
    if kind is flag_prime_table:
        h = small_values(tree, rng)
        table = flag_prime_table(tree, rng)
    else:
        h = kind(tree, rng)
        table = reference.radon_forward(tree, h)
    flagged = [v for v in tree.vertices if tree.valency(v) >= 2]
    for x in rng.sample(flagged, min(8, len(flagged))):
        check = double_count_check(tree, h, x, table)
        assert (check.lhs, check.rhs) == reference_double_count(tree, h, x, table)
        assert type(check.lhs) is F


@given(trees(LEAFLESS))
@profile_settings(40)
def test_missing_entry_names_the_same_flag(drawn):
    tree, rng = drawn
    full = reference.radon_forward(tree, small_values(tree, rng)).values
    kept = rng.random()
    table = flag_table(tree, {flag: value for flag, value in full.items() if rng.random() < kept})
    assume(len(table) < len(full))
    message = raised(radon_invert, tree, table, 1)
    assert message == raised(reference.radon_invert, tree, table, 1)
    assert message.startswith("flag table has no entry for")
    zero = vertex_function(tree, {})
    for x in tree.vertices:
        try:
            lhs = reference._flag_sum(tree, table, x)
        except RadonError as exc:
            assert raised(double_count_check, tree, zero, x, table) == str(exc)
        else:
            assert double_count_check(tree, zero, x, table).lhs == lhs


@given(trees(LEAFLESS))
@profile_settings(40)
def test_foreign_entries_are_ignored(drawn):
    tree, rng = drawn
    h = small_values(tree, rng)
    clean = reference.radon_forward(tree, h).values
    padded = dict(clean)
    v = rng.choice(tree.vertices)
    strangers = [eid for eid in range(len(tree.edges)) if eid not in tree.incident_edges(v)]
    if strangers:
        padded[Flag(v, frozenset((tree.incident_edges(v)[0], rng.choice(strangers))))] = F(7, 3)
    padded[Flag("nowhere", frozenset((0, 1)))] = F(-1, 5)
    padded[Flag(v, frozenset((len(tree.edges), len(tree.edges) + 1)))] = F(2)
    table = flag_table(tree, padded)
    inverse = radon_invert(tree, table, h.total)
    assert_identical(inverse.values, reference.radon_invert(tree, table, h.total).values)
    assert inverse == h
    x = rng.choice(tree.vertices)
    assert double_count_check(tree, h, x, table) == double_count_check(tree, h, x, flag_table(tree, clean))


@given(trees(("finite",)))
@profile_settings(40)
def test_valency_error_comes_before_a_missing_entry(drawn):
    tree, rng = drawn
    for table in (flag_table(tree, {}), reference.radon_forward(tree, small_values(tree, rng))):
        message = raised(radon_invert, tree, table, 0)
        assert message == raised(reference.radon_invert, tree, table, 0)
        assert message.startswith("inversion needs valency >= 3")
