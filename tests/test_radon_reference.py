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
"""

from fractions import Fraction as F
from math import comb

from hypothesis import assume, given, strategies as st

import radon_reference as reference
from common import (
    LEAFLESS,
    PRIMES,
    assert_identical,
    flag_prime_table,
    raised,
    small_values,
    trees,
    vertex_prime_values,
)
from conftest import profile_settings
from treeradon import (
    Flag,
    RadonError,
    double_count_check,
    flag_table,
    radon_forward,
    radon_invert,
    vertex_function,
)


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
