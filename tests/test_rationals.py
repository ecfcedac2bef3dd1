"""``parse_rational`` and ``parse_length`` against the parsers kept in
``tests/rationals_reference.py``: the same value for every string the
reference accepts, and the same exception type and message for every
string it rejects."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import rationals_reference as reference
from treeradon.rationals import parse_length, parse_rational

# ASCII digits plus what must leave the fast path: other scripts' digits,
# separators, signs, blanks, decimal and exponent marks, and "inf".
PIECES = st.sampled_from(list("0123456789") + ["٣", "３", "/", "_", "+", "-", " ", "\t",
                                                ".", "e", "E", "inf", "00", "10"])
TEXTS = st.lists(PIECES, max_size=12).map("".join)
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
EXPLICIT = ["0/0", "1/0", "007/010", " 3 / 4 ", "3/4", "\t12\n", "1_000", "1_000/3", "3/",
            "/3", "3/4/5", "", " ", "+3", "-3/4", "٣/４", "inf", "Infinity", " INF ", "1e3", "1.5",
            "1" * (MAX_DIGITS + 1), "1" * (MAX_DIGITS + 1) + "/3", "3/" + "1" * (MAX_DIGITS + 1),
            "1" * MAX_DIGITS + "/7"]


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def assert_same(text):
    for parse, parent in ((parse_rational, reference.parse_rational),
                          (parse_length, reference.parse_length)):
        got, want = outcome(parse, text), outcome(parent, text)
        assert got == want
        if got[0] == "ok" and got[1] is not None:
            # the same normalised value, with int components
            assert type(got[1]) is F and type(got[1].numerator) is int
            assert (got[1].numerator, got[1].denominator) == (want[1].numerator,
                                                              want[1].denominator)


@given(TEXTS)
@settings(max_examples=400, deadline=None)
def test_strings_parse_as_the_reference_does(text):
    assert_same(text)


@pytest.mark.parametrize("text", EXPLICIT, ids=range(len(EXPLICIT)))
def test_explicit_strings_parse_as_the_reference_does(text):
    assert_same(text)


def test_fast_path_values():
    assert parse_rational("007/010") == F(7, 10)
    assert parse_rational("12") == F(12)
    assert parse_rational(" 3/4 ") == F(3, 4)
    with pytest.raises(ValueError, match=r"^not a rational: '0/0'$"):
        parse_rational("0/0")
