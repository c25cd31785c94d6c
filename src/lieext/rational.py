"""Exact rational scalars.

Everything in this package computes over Python's ``Fraction``, which keeps
values in lowest terms with a positive denominator.  This module pins the
text form used at every boundary (CLI flags, JSON payloads, CSV cells):
"p/q" or "p" with an optional leading minus, nothing else.  In particular
decimal and exponent notation are rejected so that no float ever sneaks in.

It also holds _Frozen, the base of every immutable class of the package.
This module imports no other module of the package, so poly.py and
sparse.py import _Frozen from here without a cycle.
"""

from __future__ import annotations

import re
from fractions import Fraction

# The blanks a value read from outside the program may carry around it, the
# ones the .lie scanner skips: str.strip() alone also drops "\x1c", "\x85"
# and other Unicode blanks.
_BLANKS = " \t\r"
# ASCII digits only: int() alone also reads "1_0" and non-ASCII digits.
_INTEGER_RE = re.compile("[+-]?[0-9]+")
_RATIONAL_RE = re.compile(f"{_INTEGER_RE.pattern}(/[0-9]+)?")


class _Frozen:
    """An object whose attributes are fixed once built: its __init__ writes
    them to __dict__, past __setattr__, and so does unpickling.  Assigning
    or deleting one raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def rational(numerator: int, denominator: int = 1) -> Fraction:
    """Canonical rational from an integer pair.  Rejects a zero denominator."""
    if denominator == 0:
        raise ValueError("zero denominator")
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p", with blanks (_BLANKS) around it.  Anything else
    (floats, blanks inside, "1/0") is an error."""
    text = text.strip(_BLANKS)
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r} (expected p or p/q)")
    if "/" in text:
        num, den = text.split("/")
        return rational(int(num), int(den))
    return Fraction(int(text))


def parse_integer(text: str) -> int:
    """Parse "p", the numerator of parse_rational's form.  Anything else
    ("1_0", "1.0", non-ASCII digits) is an error."""
    text = text.strip(_BLANKS)
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def as_rational(value, what: str) -> Fraction:
    """An int, a Fraction or a "p/q" string as a Fraction.  Anything else,
    floats above all, raises ValueError naming `what`."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise ValueError(f"{what} must be rational, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Canonical text form, the exact inverse of parse_rational."""
    return str(Fraction(value))
