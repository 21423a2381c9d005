"""The exchange documents' files and their integer and rational literals,
in a module of their own: ``groupoid g3`` reads and writes literals
without ``rational``."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction


def read_json(path: str):
    """The JSON document in the file at ``path``.  OSError if the file
    cannot be opened; ValueError if it is not UTF-8, is not JSON, nests
    deeper than the parser follows or holds an integer longer than ``int``
    reads."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("the JSON document is nested too deeply") from None


def frac_str(x: Fraction) -> str:
    """An exact rational as the "num/den" string of the exchange documents."""
    return f"{x.numerator}/{x.denominator}"


def parse_int(value, field: str) -> int:
    """An integer field of an exchange document: a JSON integer, or a
    string that ``int`` reads as a decimal integer, as the documents write
    "num": "1".  Any other value, a fractional number or ``true`` among
    them, raises ValueError naming ``field``; it is never truncated."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(value)  # its own ValueError for "1.5" or "abc"
    raise ValueError(f"{field!r} must be an integer, not {_abbreviated(repr(value))}")


def _abbreviated(text: str) -> str:
    """``text``, cut to 32 characters for an error message."""
    return text if len(text) <= 32 else text[:29] + "..."


# the exponent of a decimal literal, as ``Fraction`` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` for a literal such as "3/4", "-0.25" or "1e-3".

    A literal whose numerator or denominator would have more than
    ``sys.get_int_max_str_digits()`` digits before reduction raises
    OverflowError before its value is built, the limit that ``int()`` puts
    on a digit string: ``Fraction("1e9999999")`` alone takes seconds.
    Other malformed literals raise what ``Fraction`` raises."""
    m = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        mantissa = text[:m.start()]
        shift = int(m.group(1))
        decimals = mantissa.partition(".")[2]
        num_digits = sum(map(str.isdecimal, mantissa)) + max(shift, 0)
        den_digits = 1 + sum(map(str.isdecimal, decimals)) + max(-shift, 0)
        if max(num_digits, den_digits) > limit:
            raise OverflowError(f"the rational literal {_abbreviated(text)!r} needs more "
                                f"than {limit} digits")
    return Fraction(text)
