"""``Poly.zero``, ``Poly.const`` and ``Poly.var`` build their one packed
key directly; the result must be the polynomial the validating
constructor builds from the same exponent tuple."""

from __future__ import annotations

from fractions import Fraction

import pytest

from flatcheck.rational import Poly, unit_mono

VALUES = [0, 1, Fraction(-3, 7), 10 ** 40]


def same(got: Poly, want: Poly):
    assert type(got) is Poly
    assert got.n == want.n
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.denom == want.denom
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_and_const_are_the_validated_constant(n):
    same(Poly.zero(n), Poly(n, {}))
    for value in VALUES:
        same(Poly.const(n, value), Poly(n, {(0,) * n: Fraction(value)}))


@pytest.mark.parametrize("n", range(1, 7))
def test_var_is_the_validated_unit_monomial(n):
    for idx in range(n):
        same(Poly.var(n, idx), Poly(n, {unit_mono(n, idx): 1}))
        for value in VALUES[1:]:
            # the arithmetic on a fast-built variable matches too
            same(Poly.var(n, idx).scale(value), Poly(n, {unit_mono(n, idx): Fraction(value)}))
    for idx in (-1, n):
        with pytest.raises(ValueError):
            Poly.var(n, idx)
