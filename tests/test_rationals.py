"""``parse_rational`` and ``parse_length`` against the parsers kept in
``tests/rationals_reference.py``: the same value for every string the
reference accepts, and the same exception type and message for every
string it rejects.

The reference reads strings with ``Fraction(str)``, whose grammar grows
with the Python version: 3.11 accepts ``_`` between digits and 3.12 blanks
around ``/``. The library refuses both on every version, so a string with
a ``_`` or a blank next to ``/`` is checked against that refusal instead
of the reference, and ``EXPECTED`` pins outcomes that hold on every
version.
"""

import re
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
            "1" * MAX_DIGITS + "/7", "+inf", "infinity", " +InF\t"]


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)


def version_dependent(text):
    """Whether some supported Python's ``Fraction(str)`` reads ``text``
    differently from another's."""
    return "_" in text or re.search(r"\s/|/\s", text) is not None


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


def assert_parses(text):
    """The reference's outcome where every version agrees, else a refusal."""
    if not version_dependent(text):
        assert_same(text)
        return
    # none of these is a rational in the library's grammar
    kind = "decimal notation is not allowed" if "." in text or "e" in text.lower() \
        else "not a rational"
    for parse in (parse_rational, parse_length):
        assert outcome(parse, text) == (ValueError, f"{kind}: {text!r}")


@given(TEXTS)
@settings(max_examples=400, deadline=None)
def test_strings_parse_as_the_reference_does(text):
    assert_parses(text)


@pytest.mark.parametrize("text", EXPLICIT, ids=range(len(EXPLICIT)))
def test_explicit_strings_parse_as_the_reference_does(text):
    assert_parses(text)


# The outcome on every supported Python: a value, or None for "not a rational".
EXPECTED = {
    "1_000": None, "1_000/3": None, "1_0/3_0": None, "_1": None, "1_": None,
    " 3 / 4 ": None, "3 /4": None, "3/ 4": None, "3\t/4": None, "3/\u00a04": None,
    "+ 3": None, "+-3": None, "3/+4": None, "\u00b2": None,
    "3/4": F(3, 4), " 3/4 ": F(3, 4), "+3": F(3), "-3/4": F(-3, 4), "-0": F(0),
    "\u0663/\uff14": F(3, 4), "-\u0663/\u0664": F(-3, 4), "\uff13": F(3),
}


@pytest.mark.parametrize("text", EXPECTED, ids=range(len(EXPECTED)))
def test_strings_parse_the_same_on_every_version(text):
    want = (ValueError, f"not a rational: {text!r}") if EXPECTED[text] is None \
        else ("ok", EXPECTED[text])
    assert outcome(parse_rational, text) == want
    assert outcome(parse_length, text) == want


def test_fast_path_values():
    assert parse_rational("007/010") == F(7, 10)
    assert parse_rational("12") == F(12)
    assert parse_rational(" 3/4 ") == F(3, 4)
    with pytest.raises(ValueError, match=r"^not a rational: '0/0'$"):
        parse_rational("0/0")
