"""The integer jet codec against the Fraction route it replaced.

``poly_from_json`` reads each num/den as integers, reduces it by its gcd
and packs it over the least common denominator; ``poly_to_json`` writes
from the packed terms in packed-key order.  The references below build a
``Fraction`` per coefficient and sort by ``grlex_key``: both routes must
give the same polynomial (the same terms in the same order, the same
denominator), the same entries, or the same error message.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatcheck.jetcore import (
    JetError,
    TruncatedPoly,
    compose_truncated,
    invert_truncated,
    map_from_json,
    poly_from_json,
    poly_to_json,
)
from flatcheck.literals import parse_int
from flatcheck.rational import MAX_DEGREE, grlex_key


def fraction_poly_from_json(entries, n, k):
    """The Fraction route: one Fraction per entry, then TruncatedPoly."""
    TruncatedPoly(n, k)
    if not isinstance(entries, list):
        raise JetError(f"malformed jet document: expected a list of entries, got {entries!r}")
    coeffs = {}
    for entry in entries:
        try:
            if not isinstance(entry["multiindex"], list):
                raise TypeError("'multiindex' must be a list of integers")
            mono = tuple(parse_int(e, "multiindex") for e in entry["multiindex"])
            c = Fraction(parse_int(entry["num"], "num"), parse_int(entry["den"], "den"))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise JetError(f"malformed jet document entry: {exc}") from None
        if len(mono) != n:
            raise JetError(f"multi-index {mono} has wrong length in jet document")
        if mono in coeffs:
            raise JetError(f"multi-index {mono} appears twice in one polynomial of the "
                           "jet document")
        if sum(mono) > k:
            raise JetError(f"multi-index {mono} exceeds order k={k} in jet document")
        coeffs[mono] = c
    return TruncatedPoly(n, k, coeffs)


def fraction_poly_to_json(p):
    """The Fraction route: the coeffs view sorted by grlex_key."""
    return [{"multiindex": list(mono), "num": str(c.numerator), "den": str(c.denominator)}
            for mono, c in sorted(p.coeffs.items(), key=lambda t: grlex_key(t[0]))]


def outcome(read, entries, n, k):
    """("poly", terms in order, denom, k) or ("error", message)."""
    try:
        p = read(entries, n, k)
    except JetError as exc:
        return "error", str(exc)
    return "poly", list(p.terms.items()), p.denom, p.k


BIG = 10**25 + 7
INTEGER = st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30),
                    st.sampled_from([0, 2, 4, -4, BIG, -BIG, 3 * BIG]))
LITERAL = st.one_of(INTEGER, INTEGER.map(str),
                    st.sampled_from(["0", "-0", "007", " 3 ", "+2", "1.5", "x", "", True, 1.0,
                                     None, [1]]))


@st.composite
def entries(draw):
    """(entries, n, k): up to six entries, mostly well formed; a multi-index
    may have the wrong length, a negative part or an order above k."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    monos = [list(m) for m in product(range(-1, k + 2), repeat=n)]
    out = []
    for _ in range(draw(st.integers(0, 6))):
        entry = {"multiindex": draw(st.one_of(st.sampled_from(monos),
                                              st.lists(st.integers(0, 2), max_size=4))),
                 "num": draw(LITERAL), "den": draw(LITERAL)}
        if draw(st.integers(0, 9)) == 0:
            del entry[draw(st.sampled_from(sorted(entry)))]
        out.append(entry)
    return out, n, k


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(entries())
def test_integer_reader_is_the_fraction_reader(case):
    got = outcome(poly_from_json, *case)
    assert got == outcome(fraction_poly_from_json, *case)
    if got[0] == "poly":
        p = poly_from_json(*case)
        assert poly_to_json(p) == fraction_poly_to_json(p)


def entry(mono, num, den):
    return {"multiindex": list(mono), "num": num, "den": den}


@pytest.mark.parametrize("case", [
    # unreduced, negative denominators, zero numerators and int literals
    [entry((1, 0), "2", "4"), entry((0, 1), "-6", "-4"), entry((0, 0), "3", "-9")],
    [entry((1, 0), 0, 5), entry((0, 1), "0", "-3"), entry((2, 0), 4, 2)],
    [entry((1, 0), 0, 1)],
    # more than 20 digits, reduced by a shared factor
    [entry((1, 0), str(6 * BIG), str(-4 * BIG)), entry((1, 1), str(BIG), "1"),
     entry((0, 2), "1", str(BIG ** 2))],
    # den "0", with a string and an int numerator
    [entry((1, 0), "1", "0")],
    [entry((1, 0), "0", "0")],
    [entry((1, 0), -7, 0)],
    [entry((1, 0), "1", "1"), entry((1, 0), "1", "2")],
    [entry((-1, 2), "0", "1"), entry((1, 0), "x", "1")],
    [entry((-1, 2), "0", "1"), entry((1, 0), "1", "1")],
    [entry((1, 0, 0), "1", "1")],
    [entry((3, 1), "1", "1")],
])
def test_integer_reader_on_chosen_entries(case):
    assert outcome(poly_from_json, case, 2, 3) == outcome(fraction_poly_from_json, case, 2, 3)


def test_den_zero_keeps_its_message():
    with pytest.raises(JetError, match=r"^malformed jet document entry: Fraction\(1, 0\)$"):
        poly_from_json([entry((1,), "1", "0")], 1, 2)


def test_zero_numerators_are_dropped():
    p = poly_from_json([entry((1,), "0", "7"), entry((2,), "-0", "-3")], 1, 2)
    assert p.is_zero() and p.denom == 1 and p == TruncatedPoly(1, 2)


def test_writer_is_the_fraction_writer_on_computed_jets():
    rng = random.Random(43)
    for n, k in ((1, 5), (2, 4), (3, 3)):
        doc = {"n": n, "k": k, "components": [
            [entry(m, str(rng.randint(-9, 9) + (7 if sum(m) == 1 and m[i] else 0)),
                   str(rng.randint(1, 6)))
             for m in product(range(k + 1), repeat=n) if 0 < sum(m) <= k]
            for i in range(n)]}
        f = map_from_json(doc)
        for g in (compose_truncated(f, f), invert_truncated(f)):
            for p in g.components:
                assert poly_to_json(p) == fraction_poly_to_json(p)


def test_an_order_past_the_packed_degree_is_refused():
    # every entry of order at most k packs, because k is at most MAX_DEGREE
    assert poly_from_json([entry((MAX_DEGREE,), "1", "1")], 1, MAX_DEGREE).degree() == MAX_DEGREE
    with pytest.raises(JetError, match="truncation order must be <= "):
        poly_from_json([entry((MAX_DEGREE + 1,), "1", "1")], 1, MAX_DEGREE + 1)
