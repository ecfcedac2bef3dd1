"""The string parsers that the ASCII-digit fast path sped up, kept for the
tests.

``parse_rational`` and ``parse_length`` are the library functions of those
names, kept verbatim from before ``parse_rational`` built plain ``"p"`` and
``"p/q"`` strings with ``Fraction(int(p), int(q))`` instead of
``Fraction(str)``'s regex. The library must accept exactly what these
accept, with the same values, and reject the rest with the same exception
type and message, except where ``Fraction(str)`` differs between Python
versions (``_`` between digits, blanks next to ``/``): the library refuses
those strings on every version.
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
        text = value.strip()
        if "." in text or "e" in text.lower():
            raise ValueError(f"decimal notation is not allowed: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def parse_length(value) -> Fraction | None:
    """Parse an edge length; returns None for the symbolic infinite length."""
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lower() in _INF_TOKENS:
        return None
    return parse_rational(value)
