"""Parsing and formatting of exact rationals for the wire formats.

All file formats carry rationals as decimal-free strings ("p/q" or "p");
edge lengths may additionally be "inf" for rays. Floats are rejected
everywhere: the library guarantees exact arithmetic end to end.
"""

from __future__ import annotations

from fractions import Fraction

_INF_TOKENS = {"inf", "+inf", "infinity"}


def parse_rational(value) -> Fraction:
    """Convert ``value`` (Fraction, int, or 'p/q' string) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_text(value.strip(), value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def _parse_text(text: str, value: str) -> Fraction:
    """Parse ``text``, the string ``value`` already stripped; errors name
    ``value`` as given.

    The grammar is an optional sign, decimal digits of any script, and an
    optional ``/`` followed by such digits: what ``Fraction(str)`` accepts
    on every supported Python. Later versions' additions (``_`` between
    digits from 3.11, blanks around ``/`` from 3.12) are refused, so a file
    loads the same on each.
    """
    # ASCII-digit "p" and "p/q" take the fast path; anything else (signs,
    # spaces, "_", other scripts' digits) is checked against the grammar
    num, slash, den = text.partition("/")
    if not (num.isdigit() and num.isascii() and (not slash or den.isdigit() and den.isascii())):
        if "." in text or "e" in text.lower():
            raise ValueError(f"decimal notation is not allowed: {value!r}")
        digits = num[1:] if num.startswith(("+", "-")) else num
        if not (digits.isdecimal() and (not slash or den.isdecimal())):
            raise ValueError(f"not a rational: {value!r}")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical decimal-free string: 'p/q', or 'p' when the denominator is 1."""
    return str(value)


def parse_length(value) -> Fraction | None:
    """Parse an edge length; returns None for the symbolic infinite length."""
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip()
        return None if text.lower() in _INF_TOKENS else _parse_text(text, value)
    return parse_rational(value)


def format_length(value: Fraction | None) -> str:
    return "inf" if value is None else format_rational(value)
