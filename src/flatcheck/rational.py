"""Exact multivariate polynomial and rational-function arithmetic.

A polynomial holds integer numerators over one positive denominator, the
least common one (the layout of FLINT's ``fmpq_poly``).  Rational functions
keep the denominator as a multiset of polynomial factors with integer
exponents, because every division performed by the geometry code divides
by a polynomial that is known explicitly (a pivot of the elimination, a
chart denominator).  Sums and derivatives then only ever need exact trial
division to cancel factors, never a general multivariate gcd.

Each term is keyed by a packed monomial (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): one int with the total degree in its top field, then the exponents
of x1..xn, each field FIELD_BITS wide with a top guard bit that stays
clear.  A product of monomials is one int addition, grlex order is int
order, and a monomial divides another when their difference leaves every
guard bit clear.  A product whose degree would pass MAX_DEGREE raises
ValueError, as does a monomial the constructor cannot pack.

``coeffs`` (exponent tuple -> nonzero Fraction) is a view built on first
read; the arithmetic never reads it.  Equality is literal equality of
normal forms, so ``is_zero`` is exact.  The terms of a result come in the
order of the schoolbook Fraction loops, which ``RationalGrid`` relies on
when it sums float terms.  Trial division first compares the values at one
integer point (by Gauss's lemma a failing divisibility of the values
proves that the polynomials do not divide), then divides on integer
numerators over one denominator.  Exact evaluation at a rational point
clears the coordinates' denominators and builds one Fraction.

That value, the probe value, is the value at ``PROBE_POINT`` of the
primitive part of the numerators (divided by their positive gcd, the
content).  It is computed term by term on first read, and carried
through the arithmetic where that is exact, so that a normal form built
from probed operands is never evaluated again.  Gauss's lemma says that
the content of a product of integer polynomials is the product of their
contents, so the primitive part of a product is the product of the
primitive parts, and dividing the numerators by a common factor leaves
it alone:
- an untruncated product whose operands both hold a probe value holds
  their product, and an exact quotient holds probe(other) // probe(self)
  when probe(self) is not 0;
- a sum or difference whose operands both hold one holds its raw value
  (probe times content, linear in the numerators) over its own content:
  (probe(a) gcd(a) f_a + probe(b) gcd(b) f_b) // gcd(result), with f_a,
  f_b the factors that bring the operands to the common denominator;
- a negation holds -probe, and ``scale(p/q)`` holds sign(p) probe.
Derivatives, degree parts, truncated products and ``dot`` carry nothing.

``Poly.dot`` is the one exception to the schoolbook term order: a fused
multiply-accumulate, self + the sum of c * a * b over (int c, a, b)
triples, that adds every product's integer numerators into one dict over
one common denominator and builds no polynomial per product or per sum.
It keeps no schoolbook term order, so only callers whose results are
compared by value or printed sorted may use it: the Spencer layer, and
``RationalFunc.dot``, the same fused sum over rational functions, with
which the report of ``forms`` writes each residual identity, some
derivatives entering as the unreduced terms of ``diff_terms``.  A fused
sum that is not zero, which only a failing identity (a calibration
failure) gives, is read on the grid, and its floats may then differ from
the schoolbook sum's in the last bits.  Every field that a report prints
otherwise is still built by the schoolbook arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import add, getitem, mul, truediv
from struct import Struct
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

Monomial = Tuple[int, ...]
PolyDict = Dict[Monomial, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
_new_object = object.__new__

# The integer point at which ``Poly.divides`` probes a division before it
# runs it; a variable past its end is evaluated at 1.
PROBE_POINT = (2, 3, 5, 7, 11, 13)

FIELD_BITS = 16  # one field of a packed monomial: struct's "H"
MAX_DEGREE = (1 << FIELD_BITS - 1) - 1  # the guard bit stays clear


@cache
def _layout(n: int) -> tuple:
    """(guard bits, bytes, packer, unpacker) of the packed monomials in
    ``n`` variables; the unpacker skips the degree field."""
    guard = sum(1 << FIELD_BITS * i + FIELD_BITS - 1 for i in range(n + 1))
    return guard, 2 * n + 2, Struct(">" + "H" * (n + 1)).pack, Struct(">2x" + "H" * n)


def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ``den > 0``, its two slots filled directly
    (as ``Fraction._from_coprime_ints`` does from Python 3.12 on) to skip
    the argument checks of ``Fraction.__new__``."""
    f = _new_object(Fraction)
    if den == 1:
        f._numerator = num
        f._denominator = 1
    else:
        g = gcd(num, den)
        f._numerator = num // g
        f._denominator = den // g
    return f


def _pack(n: int, coeffs: Sequence[Tuple[Monomial, int, int]]) -> Tuple[Dict[int, int], int]:
    """(terms, denom) of the polynomial in ``n`` variables whose coefficient
    at the exponent tuple m is num/den, for each (m, num, den) of
    ``coeffs``: the numerators over the least common denominator, keyed by
    packed monomials in the order of ``coeffs``.  It is a normal form when
    each num/den is in lowest terms with num not 0 and den positive.  Each
    m must be an exponent vector of length n and degree at most
    MAX_DEGREE, which the caller checks."""
    pack = _layout(n)[2]
    den = lcm(*[d for _, _, d in coeffs])
    return {int.from_bytes(pack(sum(m), *m), "big"): num * (den // d)
            for m, num, d in coeffs}, den


def grlex_key(mono: Monomial) -> tuple:
    """Graded lexicographic sort key: total order first, then lex."""
    return (sum(mono), mono)


def unit_mono(n: int, idx: int) -> Monomial:
    """The exponent tuple of the variable ``x_(idx+1)``."""
    if not 0 <= idx < n:
        raise ValueError(f"variable index {idx} out of range for n={n}")
    return tuple(int(t == idx) for t in range(n))


class Poly:
    """Sparse exact polynomial in ``n`` variables: ``terms`` maps packed
    monomials to nonzero int numerators over the int ``denom``.

    Results of the arithmetic are built by ``_like``, so a subclass that
    carries more state (the truncation order of a jet component) gets
    results of its own kind.  ``coeffs``, ``monomials``, the hash, the
    shape, the degree-sorted terms of a right operand of a truncated
    product, the leading and least monomials of a divisor and the probe
    value (unless the arithmetic carried it) are computed on first use and
    kept in slots; a polynomial is not changed after it is built, so they
    stay valid.
    """

    __slots__ = ("n", "terms", "denom", "_coeffs", "_monos", "_hash", "_shape", "_probe",
                 "_by_degree", "_divisor")

    def __init__(self, n: int, coeffs: Mapping[Monomial, Fraction] | None = None):
        self.n = n
        self._probe = None
        fracs = {tuple(m): c if type(c) is Fraction else Fraction(c)
                 for m, c in coeffs.items() if c} if coeffs else {}
        self._coeffs = fracs
        for m in fracs:
            if len(m) != n or sum(m) > MAX_DEGREE or min(m, default=0) < 0:
                raise ValueError(f"{m} is not an exponent vector of length {n} and degree at "
                                 f"most {MAX_DEGREE}")
        self.terms, self.denom = _pack(n, [(m, c._numerator, c._denominator)
                                           for m, c in fracs.items()])

    def _from_reduced(self, coeffs: Sequence[Tuple[Monomial, int, int]]) -> Poly:
        """A polynomial of this one's kind whose coefficient at the exponent
        tuple m is num/den, for each (m, num, den) of ``coeffs``: num/den in
        lowest terms, num not 0, den positive, and each m once, an exponent
        vector that the constructor accepts (the caller checks it)."""
        return self._like(*_pack(self.n, coeffs))

    def _like(self, terms: Dict[int, int], den: int) -> Poly:
        """A polynomial of this one's kind holding ``terms`` over ``den``,
        which must already be normal (no zero, no common factor)."""
        res = _new_object(type(self))
        res.n = self.n
        res.terms = terms
        res.denom = den
        res._probe = None
        return res

    @staticmethod
    def _single(n: int, mono: int, c: Fraction) -> Poly:
        """c times the packed monomial ``mono``, without the checks of
        ``__init__``: a zero, a constant or a variable."""
        res = _new_object(Poly)
        res.n = n
        res.terms = {mono: c._numerator} if c else {}
        res.denom = c._denominator
        res._probe = None
        return res

    @staticmethod
    def zero(n: int) -> Poly:
        return Poly._single(n, 0, ZERO)

    @staticmethod
    def const(n: int, value) -> Poly:
        return Poly._single(n, 0, Fraction(value))

    @staticmethod
    def var(n: int, idx: int) -> Poly:
        if not 0 <= idx < n:
            raise ValueError(f"variable index {idx} out of range for n={n}")
        # the degree field holds 1, the field of x_(idx+1) holds 1
        return Poly._single(n, 1 << FIELD_BITS * n | 1 << FIELD_BITS * (n - 1 - idx), ONE)

    @property
    def coeffs(self) -> PolyDict:
        """Exponent tuple -> nonzero Fraction, in term order."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.denom
            c = self._coeffs = {m: _fraction(v, den)
                                for m, v in zip(self.monomials(), self.terms.values())}
            return c

    def monomials(self) -> tuple:
        """The exponent tuples of the terms, in term order."""
        try:
            return self._monos
        except AttributeError:
            _, size, _, unpacker = _layout(self.n)
            packed = b"".join(map(int.to_bytes, self.terms, repeat(size), repeat("big")))
            m = self._monos = tuple(unpacker.iter_unpack(packed))
            return m

    def coeff(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(tuple(mono), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not any(self.terms)

    def degree(self) -> int:
        return max(self.terms, default=0) >> FIELD_BITS * self.n

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.n == other.n and self.denom == other.denom
                and self.terms == other.terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.n, self.denom, frozenset(self.terms.items())))
            return h

    def shape(self) -> tuple:
        """(leading monomial, its coefficient, grlex-least monomial, degree
        in each variable) of a nonzero polynomial."""
        try:
            return self._shape
        except AttributeError:
            terms = self.terms
            _, size, _, unpacker = _layout(self.n)
            lead = max(terms)
            s = self._shape = (unpacker.unpack(lead.to_bytes(size, "big")),
                               _fraction(terms[lead], self.denom),
                               unpacker.unpack(min(terms).to_bytes(size, "big")),
                               tuple(map(max, zip(*self.monomials()))))
            return s

    def int_form(self) -> Tuple[Dict[Monomial, int], int]:
        """(numerators, denominator): ``coeffs[m] == Fraction(numerators[m],
        denominator)`` for every monomial m, in term order."""
        return dict(zip(self.monomials(), self.terms.values())), self.denom

    def probe_value(self) -> int:
        """The value at ``PROBE_POINT`` of the primitive part of the integer
        numerators of a nonzero polynomial (the numerators divided by their
        positive gcd).  Computed term by term on first read, unless the
        arithmetic that built the polynomial carried it from its operands
        (see the module docstring)."""
        v = self._probe
        if v is None:
            nums = self.terms.values()
            v = sum(c * prod(map(pow, PROBE_POINT, m)) for m, c in zip(self.monomials(), nums))
            v = self._probe = v // gcd(*nums)
        return v

    def _from_ints(self, nums: Dict[int, int], den: int) -> Poly:
        """A polynomial of this one's kind with coefficients ``nums[m] / den``
        (``nums`` holds no zero)."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: v // g for m, v in nums.items()}
        return self._like(nums, den)

    def degree_part(self, lo: int, hi: int) -> Poly:
        """The terms of total degree lo..hi, in term order, as a polynomial
        of this kind."""
        lo, hi = lo << FIELD_BITS * self.n, hi + 1 << FIELD_BITS * self.n
        return self._from_ints({m: v for m, v in self.terms.items() if lo <= m < hi}, self.denom)

    def _product(self, other: Poly, k: int | None = None) -> Poly:
        """self * other, without the terms of total degree above ``k`` when
        it is given.  Output terms come in the order of the Fraction
        schoolbook loop: left terms outer, right terms inner, a sum that
        cancels removed (and re-inserted later if it reappears).  With ``k``
        the right terms are sorted stably by degree, once per right operand,
        and each left term ma stops at the first mb >= ((k + 1) << shift) -
        ma, the first of degree above k - deg(ma): the fields below the
        degree never carry.  A zero operand gives the zero at once.  Without
        ``k``, the probe value is carried when both operands hold one."""
        left, shift = self.terms, FIELD_BITS * self.n
        if not (left and other.terms):
            return self._like({}, 1)
        if (max(left) >> shift) + (max(other.terms) >> shift) > MAX_DEGREE:
            raise ValueError(f"a product passes the largest packed total degree, {MAX_DEGREE}")
        if k is None:
            right = list(other.terms.items())
        else:
            try:
                right, keys = other._by_degree
            except AttributeError:
                right = sorted(other.terms.items(), key=lambda t: t[0] >> shift)
                keys = [m for m, _ in right]
                other._by_degree = right, keys
            limit = (k + 1) << shift
        out: Dict[int, int] = {}
        get = out.get
        for ma, na in left.items():
            for mb, nb in right if k is None else right[:bisect_left(keys, limit - ma)]:
                mono = ma + mb
                s = get(mono, 0) + na * nb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        res = self._from_ints(out, self.denom * other.denom)
        if k is None:
            pa, pb = self._probe, other._probe
            if pa is not None and pb is not None:
                res._probe = pa * pb
        return res

    def _combine(self, other: Poly, sign: int) -> Poly:
        """self + sign * other; a nonzero result carries the probe value
        when both operands hold one."""
        dl, dr = self.denom, other.denom
        den = lcm(dl, dr)
        fl, fr = den // dl, sign * (den // dr)
        out = dict(self.terms) if fl == 1 else {m: v * fl for m, v in self.terms.items()}
        get = out.get
        for mono, v in other.terms.items():
            s = get(mono, 0) + v * fr
            if s:
                out[mono] = s
            else:
                del out[mono]
        res = self._from_ints(out, den)
        pa, pb = self._probe, other._probe
        if pa is not None and pb is not None and out:
            # the raw values (probe times content) combine linearly
            raw = pa * gcd(*self.terms.values()) * fl + pb * gcd(*other.terms.values()) * fr
            res._probe = raw // gcd(*out.values())
        return res

    def __add__(self, other: Poly) -> Poly:
        return self._combine(other, 1)

    def __neg__(self) -> Poly:
        res = self._like({m: -v for m, v in self.terms.items()}, self.denom)
        if self._probe is not None:
            res._probe = -self._probe
        return res

    def __sub__(self, other: Poly) -> Poly:
        return self._combine(other, -1)

    def __mul__(self, other: Poly) -> Poly:
        return self._product(other)

    def dot(self, terms: Iterable[Tuple[int, Poly, Poly]]) -> Poly:
        """self + the sum of c * a * b over the (int c, a, b) triples of
        ``terms``, as a polynomial of this kind: one fused multiply-add.

        The integer numerators of every product are added into one dict
        over the common denominator of self and the products; no
        polynomial is built per product or per sum.  A triple with c = 0 or
        a zero operand is skipped.  A product whose degree passes
        MAX_DEGREE raises ValueError, as ``_product`` does, read from the
        largest key after the loop.  Sums that cancel keep their place
        until the end, so the result's terms come in no schoolbook order
        (see the module docstring), and no probe value is carried."""
        shift = FIELD_BITS * self.n
        work = [(c, a, b) for c, a, b in terms if c and a.terms and b.terms]
        den = lcm(self.denom, *[a.denom * b.denom for _, a, b in work])
        f = den // self.denom
        out = dict(self.terms) if f == 1 else {m: v * f for m, v in self.terms.items()}
        get = out.get
        for c, a, b in work:
            f = c * (den // (a.denom * b.denom))
            right = b.terms.items()
            for ma, na in a.terms.items():
                na *= f
                for mb, nb in right:
                    mono = ma + mb
                    out[mono] = get(mono, 0) + na * nb
        # the degree field of a packed product is exact even where an
        # exponent field has run into its guard bit, and sums that cancel
        # keep their key until the filter below
        if out and max(out) >> shift > MAX_DEGREE:
            raise ValueError(f"a product passes the largest packed total degree, {MAX_DEGREE}")
        return self._from_ints({m: v for m, v in out.items() if v}, den)

    def scale(self, value) -> Poly:
        c = Fraction(value)
        if not c or not self.terms:
            return self._like({}, 1)
        p, q = c.numerator, c.denominator
        res = self._from_ints({m: v * p for m, v in self.terms.items()}, self.denom * q)
        if self._probe is not None:
            res._probe = self._probe if p > 0 else -self._probe
        return res

    def diff(self, idx: int) -> Poly:
        if not 0 <= idx < self.n:
            raise IndexError(f"variable index {idx} out of range for n={self.n}")
        at = FIELD_BITS * (self.n - 1 - idx)
        step, mask = (1 << FIELD_BITS * self.n) + (1 << at), (1 << FIELD_BITS) - 1
        out: Dict[int, int] = {}
        for mono, v in self.terms.items():
            e = mono >> at & mask
            if e:
                out[mono - step] = v * e
        return self._from_ints(out, self.denom)

    def eval(self, point: Iterable) -> Fraction:
        """The exact value at a rational point, built as one Fraction: with
        x_t = p_t / q_t and d_t the degree in x_t, it is the sum of the
        numerators times the products of p_t ** e_t * q_t ** (d_t - e_t),
        over ``denom`` times the product of the q_t ** d_t.  A variable
        past the end of the point is evaluated at 1."""
        if not self.terms:
            return ZERO
        den = self.denom
        tables = []  # per variable: p ** e * q ** (d - e) for e = 0..d
        for x, d in zip(point, self.shape()[3]):
            if type(x) is not Fraction and type(x) is not int:
                x = Fraction(x)
            p, q = x.numerator, x.denominator
            if q != 1:
                den *= q ** d
            tables.append([p ** e * q ** (d - e) for e in range(d + 1)])
        return _fraction(sum(v * prod(map(getitem, tables, m))
                             for m, v in zip(self.monomials(), self.terms.values())), den)

    def eval_float(self, point) -> float:
        """The value at ``point`` in floats, as a ``RationalGrid`` reads it."""
        return RationalFunc(self).eval_float(point)

    def divides(self, other: Poly) -> Poly | None:
        """Exact division other / self; None if self does not divide other.

        Refused without dividing: a pair where the grlex-least monomial of
        self does not divide that of other (other = self * q rules it out),
        or whose probe values (see ``probe_value``) do not divide, since by
        Gauss's lemma a primitive integer polynomial dividing another over
        Q divides it in Z[x].  A probe value of 0 passes only when the
        other's is 0.  Long division keeps the remainder as integer
        numerators over one denominator, which takes in the leading
        numerator of self only at a step it does not divide; a heap of
        negated packed monomials finds the leading term.  Quotient terms
        come in descending grlex order.  The quotient carries the probe
        value other_probe // probe when probe is not 0: the primitive part
        of other is that of self times that of the quotient."""
        nums = self.terms
        if not nums:
            raise ZeroDivisionError("division by zero polynomial")
        if not other.terms:
            return other._like({}, 1)
        try:  # a denominator factor divides many times
            lead_key, least, guard = self._divisor
        except AttributeError:
            lead_key, least, guard = self._divisor = max(nums), min(nums), _layout(self.n)[0]
        if not lead_key:  # a constant
            return other.scale(Fraction(self.denom, nums[0]))
        if (min(other.terms) - least) & guard:
            return None
        probe, other_probe = self.probe_value(), other.probe_value()
        if other_probe % probe if probe else other_probe:
            return None
        lead = nums[lead_key]
        rest = [(m, v) for m, v in nums.items() if m != lead_key]
        rem = dict(other.terms)
        den = 1  # the quotient so far and rem are numerators over den
        heap = [-m for m in rem]
        heapify(heap)
        quot: Dict[int, int] = {}
        while heap:
            rm = -heappop(heap)
            r = rem.pop(rm, None)
            if r is None:  # a stale entry of a term that cancelled
                continue
            qm = rm - lead_key
            if qm & guard:  # lead_key does not divide rm
                return None
            if r % lead:  # a step that does not divide: a larger denominator
                k = abs(lead) // gcd(r, lead)
                den *= k
                r *= k
                for m in rem:
                    rem[m] *= k
                for m in quot:
                    quot[m] *= k
            q = quot[qm] = r // lead
            # every term of self * q x^qm other than the leading one lies below rm
            for m, v in rest:
                mono = m + qm
                s = rem.get(mono, 0) - v * q
                if s:
                    if mono not in rem:
                        heappush(heap, -mono)
                    rem[mono] = s
                else:
                    rem.pop(mono, None)
        # other / self = (other.terms / other.denom) / (nums / self.denom)
        if self.denom != 1:
            quot = {m: v * self.denom for m, v in quot.items()}
        res = other._from_ints(quot, den * other.denom)
        if probe:
            res._probe = other_probe // probe
        return res

    def monic(self) -> tuple[Poly, Fraction]:
        """Scale so the grlex-leading coefficient is 1; returns (monic, factor)."""
        if self.is_zero():
            return self, ONE
        lc = self.shape()[1]
        return self.scale(1 / lc), lc

    def __repr__(self):
        terms = [f"{c}" + "".join(f"*x{i + 1}" + (f"^{e}" if e > 1 else "")
                                  for i, e in enumerate(m) if e)
                 for m, c in sorted(self.coeffs.items(), key=lambda t: grlex_key(t[0]))]
        return f"{type(self).__name__}({' + '.join(terms) or 0})"


class RationalFunc:
    """Quotient num / prod(factor^exp) of exact polynomials.

    The denominator is stored factored; factors are monic in the grlex
    leading coefficient and the scalar is folded into the numerator.
    """

    __slots__ = ("n", "num", "den", "_diffs")

    def __init__(self, num: Poly, den: Mapping[Poly, int] | None = None):
        self.n = num.n
        self.num = num
        self.den: Dict[Poly, int] = ({f: e for f, e in den.items() if e}
                                     if den and num.terms else {})
        self._reduce()

    @staticmethod
    def const(n: int, value) -> RationalFunc:
        return RationalFunc(Poly.const(n, value))

    @staticmethod
    def var(n: int, idx: int) -> RationalFunc:
        return RationalFunc(Poly.var(n, idx))

    def _reduce(self) -> None:
        num = self.num
        if not num.terms:
            self.den = {}
            return
        reduced: Dict[Poly, int] = {}
        for f, e in self.den.items():
            while e > 0:
                q = f.divides(num)
                if q is None:
                    break
                num = q
                e -= 1
            if e:
                reduced[f] = e
        self.num = num
        self.den = reduced

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return (self - other).is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def _den_poly(self) -> Poly:
        d = Poly.const(self.n, 1)
        for f, e in self.den.items():
            for _ in range(e):
                d = d * f
        return d

    def __add__(self, other: RationalFunc) -> RationalFunc:
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        return self._sum(other, 1)

    def _sum(self, other: RationalFunc, sign: int) -> RationalFunc:
        """self + sign * other for nonzero fields, sign 1 or -1."""
        # common denominator: factorwise max exponent
        common: Dict[Poly, int] = dict(self.den)
        for f, e in other.den.items():
            common[f] = max(common.get(f, 0), e)
        na = self.num
        for f, e in common.items():
            for _ in range(e - self.den.get(f, 0)):
                na = na * f
        nb = other.num
        for f, e in common.items():
            for _ in range(e - other.den.get(f, 0)):
                nb = nb * f
        return RationalFunc(na + nb if sign == 1 else na - nb, common)

    def __neg__(self) -> RationalFunc:
        return _raw(-self.num, dict(self.den))

    def __sub__(self, other: RationalFunc) -> RationalFunc:
        if not other.num.terms:
            return self
        if not self.num.terms:
            return -other
        return self._sum(other, -1)

    def __mul__(self, other: RationalFunc) -> RationalFunc:
        # fields are never changed after they are built, so a zero is shared
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        den: Dict[Poly, int] = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        return RationalFunc(self.num * other.num, den)

    def dot(self, terms: Iterable[Tuple[int, RationalFunc, RationalFunc | None]]) -> RationalFunc:
        """self + the sum of c * a * b over the (int c, a, b) triples of
        ``terms``, b None standing for 1: one fused multiply-accumulate.

        The terms are grouped by the denominator of their product, and each
        group's numerator is one ``Poly.dot``.  Each group is brought once to
        the common denominator, the factorwise maximum of the groups'
        exponents: one more ``Poly.dot`` adds each group's numerator times
        the factors it lacks (the terms themselves, for a group that lacks
        none, and the lone field of a group of one with b None).  The sum is
        reduced once; a zero sum is returned without reduction.  A triple
        with c = 0 or a zero operand is skipped.  No intermediate normal
        form is built, so the result equals the sequential sum by value,
        but its terms need not come in the same order (see ``Poly.dot``):
        callers test it for zero."""
        n = self.n
        one = Poly._single(n, 0, ONE)
        groups: Dict[frozenset, tuple] = {}  # product denominator -> (its dict, triples)
        for c, a, b in chain(((1, self, None),), terms):
            if not c or not a.num.terms:
                continue
            den = a.den
            if b is None:
                right = one
            elif not b.num.terms:
                continue
            else:
                right = b.num
                if not den:
                    den = b.den
                elif b.den:
                    den = dict(den)
                    for f, e in b.den.items():
                        den[f] = den.get(f, 0) + e
            key = frozenset(den.items())
            group = groups.get(key)
            if group is None:
                group = groups[key] = (den, [])
            group[1].append((c, a.num, right))
        if not groups:  # no term, and self is the zero
            return self
        common: Dict[Poly, int] = {}
        for den, _ in groups.values():
            for f, e in den.items():
                if common.get(f, 0) < e:
                    common[f] = e
        padded = []
        for den, triples in groups.values():
            pad = None  # common / den
            for f, e in common.items():
                for _ in range(e - den.get(f, 0)):
                    pad = f if pad is None else pad * f
            if pad is None:
                padded += triples
            elif len(triples) == 1 and triples[0][2] is one:
                padded.append((triples[0][0], triples[0][1], pad))
            else:
                padded.append((1, Poly.zero(n).dot(triples), pad))
        # the constructor drops the denominator of a zero sum before it reduces
        return RationalFunc(Poly.zero(n).dot(padded), common)

    def scale(self, value) -> RationalFunc:
        if not self.num.terms:  # a zero is shared, as in __mul__
            return self
        c = Fraction(value)
        if not c:
            return RationalFunc(Poly.zero(self.n))
        # no factor divides num, so none divides c * num: nothing to reduce
        return _raw(self.num.scale(c), dict(self.den))

    def inverse(self) -> RationalFunc:
        """Reciprocal; the (monic) numerator becomes a new denominator atom."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field")
        num = self._den_poly()
        monic, lc = self.num.monic()
        if monic.is_const():
            return RationalFunc(num.scale(1 / lc))
        return RationalFunc(num.scale(1 / lc), {monic: 1})

    def __truediv__(self, other: RationalFunc) -> RationalFunc:
        return self * other.inverse()

    def diff(self, idx: int) -> RationalFunc:
        """Partial derivative; fields never change after they are built, so
        each direction is differentiated once and the result kept."""
        if not self.num.terms:  # a zero is shared, as in __mul__
            return self
        try:
            memo = self._diffs
        except AttributeError:  # the slot is filled on first use, also for __new__ copies
            memo = self._diffs = {}
        got = memo.get(idx)
        if got is None:
            got = memo[idx] = self._quotient_rule(idx)
        return got

    def diff_terms(self, idx: int) -> Iterator[Tuple[int, RationalFunc, RationalFunc | None]]:
        """The terms (c, a, b) of ``diff(idx)`` for ``dot``, none of them
        reduced: with D = prod f^e, (1, dN / D, None), then (-e, N / (f D),
        df) for each factor f with df not zero.  ``dot`` reduces their sum
        once, and not at all when it is zero."""
        num, den = self.num, self.den
        yield 1, _raw(num.diff(idx), den), None
        for f, e in den.items():
            df = f.diff(idx)
            if df.terms:
                yield -e, _raw(num, {**den, f: e + 1}), _raw(df, {})

    def _quotient_rule(self, idx: int) -> RationalFunc:
        """Partial derivative via the quotient rule, factor by factor."""
        # d(N / prod f^e) = dN / prod f^e - sum_i e_i dfi N / (f_i * prod f^e)
        terms = RationalFunc(self.num.diff(idx), self.den)
        for f, e in self.den.items():
            df = f.diff(idx)
            if df.is_zero():
                continue
            den = dict(self.den)
            den[f] = e + 1
            terms = terms + RationalFunc((self.num * df).scale(-e), den)
        return terms

    def eval(self, point) -> Fraction:
        v = self.num.eval(point)
        for f, e in self.den.items():
            d = f.eval(point)
            if d == 0:
                raise ZeroDivisionError(f"denominator vanishes at {tuple(point)}")
            v /= d ** e
        return v

    def eval_float(self, point) -> float:
        """The value at ``point`` in floats: a ``RationalGrid`` of one point."""
        return RationalGrid([point]).values(self)[0]

    def __repr__(self):
        if not self.den:
            return f"RationalFunc({self.num!r})"
        return f"RationalFunc({self.num!r} / {self.den!r})"


def _raw(num: Poly, den: Dict[Poly, int]) -> RationalFunc:
    """num / den as given, no factor cancelled: a normal form when no
    factor of ``den`` divides ``num``, else only a term of a sum."""
    res = RationalFunc.__new__(RationalFunc)
    res.n = num.n
    res.num = num
    res.den = den
    return res


# A number past the largest float reads as an infinity of its sign, as a
# float product that overflows does, and so does a quotient by a number
# that rounds to zero; the field's value is then not finite where it is read.

def _quotient(num, den) -> float:
    """num / den in floats, two ints correctly rounded."""
    try:
        return num / den
    except OverflowError:  # of ints
        return _INF if (num > 0) == (den > 0) else -_INF
    except ZeroDivisionError:  # den rounded to zero: inf, or NaN for 0 / 0
        return num * _INF


def float_of(x: Fraction) -> float:
    """float(x), or +-inf where x is past the float range."""
    return _quotient(x.numerator, x.denominator)


def _power(x, e: int) -> float:
    """float(x ** e)."""
    try:
        return float(x ** e)
    except OverflowError:
        return _INF if x > 0 or e % 2 == 0 else -_INF


_INF = float("inf")


class RationalGrid:
    """A grid of rational points on which exact fields are evaluated in floats.

    ``values(f)`` is the list of the values of f at the points, in order:
    each term is its correctly rounded coefficient times ``float(x_t **
    e)`` for each of its variables in turn, the terms are summed in term
    order starting from 0.0, and the sum is divided by each denominator
    factor's value to its exponent.  ``eval_float`` is a grid of one point.

    The work is done a column at a time, a column holding one float per
    point: each float operation is mapped over whole columns, and each
    point sees the same operations in the same order as a loop over the
    points would do.  Work is done once per grid: each (variable, exponent)
    column once, with each power computed once per distinct coordinate,
    the coefficients of a polynomial once, and each denominator factor's
    column once for every field that shares it.  Coordinates and factors
    are keyed by identity, which is cheap: the points of a product grid
    share the coordinates of each axis.  Factors must be keyed so, not by
    equality: two equal factors may hold their terms in different orders,
    and their float values could then differ in the last bit.  The grid
    holds them, so ids stay unique.  A column division that raises (an
    overflow of ``d ** e``, a factor that rounds to zero) is redone point
    by point for that factor, through ``_quotient`` and ``_power``.

    ``vanishes(p)`` decides exactly where a polynomial is zero, on integer
    columns and with no Fraction: with x_t = p_t / q_t and d_t the degree
    of p in x_t, p(x) = 0 exactly when the sum of its numerators times the
    products of p_t ** e_t * q_t ** (d_t - e_t) is 0.
    """

    __slots__ = ("points", "_columns", "_factors", "_ints")

    def __init__(self, points):
        self.points = [tuple(p) for p in points]
        self._columns: Dict[tuple, list] = {}  # (t, e) -> float(x_t ** e) by point
        self._factors: Dict[int, tuple] = {}  # id(factor) -> (factor, values by point)
        self._ints: Dict[tuple, list] = {}  # (t, e, d) -> p_t ** e * q_t ** (d - e) by point

    def __iter__(self):
        return iter(self.points)

    def _by_coordinate(self, t: int, fn) -> list:
        """fn(x_t) at each point, computed once per distinct coordinate."""
        xs = [p[t] for p in self.points]
        values = {}  # id(x) -> fn(x)
        for x in xs:
            if id(x) not in values:
                values[id(x)] = fn(x)
        return list(map(values.__getitem__, map(id, xs)))

    def _column(self, t: int, e: int) -> list:
        col = self._columns.get((t, e))
        if col is None:
            col = self._columns[t, e] = self._by_coordinate(t, lambda x: _power(x, e))
        return col

    def _int_column(self, t: int, e: int, d: int) -> list:
        col = self._ints.get((t, e, d))
        if col is None:
            col = self._ints[t, e, d] = self._by_coordinate(
                t, lambda x: x.numerator ** e * x.denominator ** (d - e))
        return col

    def vanishes(self, p: Poly) -> list:
        """Whether p is zero at each point, exactly (see the class docstring)."""
        size = len(self.points)
        total = repeat(0, size)
        degrees = p.shape()[3] if p.terms else ()
        for mono, v in zip(p.monomials(), p.terms.values()):
            term = repeat(v, size)
            for t, (e, d) in enumerate(zip(mono, degrees)):
                if d:
                    term = map(mul, term, self._int_column(t, e, d))
            total = list(map(add, total, term))
        return [not v for v in total]

    def _poly_values(self, p: Poly) -> list:
        size = len(self.points)
        total = [0.0] * size
        for mono, v in zip(p.monomials(), p.terms.values()):
            term = repeat(_quotient(v, p.denom), size)
            for t, e in enumerate(mono):
                if e:
                    term = map(mul, term, self._column(t, e))
            total = list(map(add, total, term))
        return total

    def values(self, f: RationalFunc) -> list:
        v = self._poly_values(f.num)
        for g, e in f.den.items():
            got = self._factors.get(id(g))
            if got is None:
                got = self._factors[id(g)] = (g, self._poly_values(g))
            d = got[1]
            try:
                v = list(map(truediv, v, map(pow, d, repeat(e))))
            except (OverflowError, ZeroDivisionError):
                v = list(map(_divide, v, d, repeat(e)))
        return v


def _divide(v: float, d: float, e: int) -> float:
    """v / d ** e in floats, one point of ``RationalGrid.values``."""
    try:
        return v / d ** e
    except (OverflowError, ZeroDivisionError):
        return _quotient(v, _power(d, e))


# --- exact linear algebra over Q and Q(x) ------------------------------------
#
# The elimination kernel.  Rows over Q (int or Fraction entries: Lie pairs,
# the linear part of a jet, the coordinates of catalog matrices) are each
# multiplied by the least common denominator of their entries and
# eliminated on integers by ``_integer_echelon``; Fractions are built, by
# dividing each row by its pivot, only to write the result.  Rows over Q(x)
# (RationalFuncs: frames, whose inverse also says where they are singular)
# go through the Gauss-Jordan loop of ``row_echelon``, which uses only +,
# -, *, inverse() and truth tests.  Either way the pivot is the first nonzero
# entry of its column, and the reduced row echelon form that results is
# unique.  Where a Q(x) pivot row holds a zero, the entry is left as it is:
# 0 * inv and a - f * 0 give back the same value, and a sparse frame is
# spared every product with a zero operand.

Matrix = list  # rows of int, of Fraction or of RationalFunc


def _over_qx(rows: Matrix) -> bool:
    """Whether the entries of ``rows`` are RationalFuncs rather than rationals."""
    return bool(rows and rows[0]) and isinstance(rows[0][0], RationalFunc)


def _zero_one(rows: Matrix) -> tuple:
    """The 0 and 1 of the field the entries of ``rows`` lie in."""
    if _over_qx(rows):
        n = rows[0][0].n
        return RationalFunc.const(n, 0), RationalFunc.const(n, 1)
    return ZERO, ONE


def pivot(row) -> int:
    """Column of the first nonzero entry of a nonzero row."""
    return next(i for i, x in enumerate(row) if x)


def clear_denominators(row) -> tuple[list, int]:
    """(numerators, den): a row of rationals (ints, Fractions, or what
    ``Fraction`` reads) as integers over the least common denominator of
    its entries.  A reduced echelon row, whose pivot is 1, becomes the
    primitive integer row with a positive pivot that spans the same line."""
    fracs = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
    den = lcm(*[x._denominator for x in fracs if type(x) is Fraction])
    if den == 1:
        return [x if type(x) is int else x._numerator for x in fracs], 1
    return [x * den if type(x) is int else x._numerator * (den // x._denominator)
            for x in fracs], den


def _integer_echelon(rows: Matrix) -> Matrix:
    """The reduced row echelon form of integer rows, each row scaled to be
    primitive (its entries have no common factor) with a positive pivot;
    only the nonzero rows are returned.  ``rows`` is not changed.

    This is fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
    22, 1968, eliminates without fractions too, dividing by the previous
    pivot instead).  Clearing column c of row i replaces it by (p * row_i -
    f * row_r) / g, for the pivot p, the entry f and the content g of the
    result, so every row stays the primitive integer multiple of its
    current rational value and no common factor builds up from step to
    step; a row with a zero in column c is not touched.
    """
    mat = list(rows)
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        if r == len(mat):
            break
        found = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if found is None:
            continue
        prow = mat[found]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        mat[found] = mat[r]
        mat[r] = prow
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                new = [pg * a - fg * b for a, b in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [x // g for x in new] if g > 1 else new
        r += 1
    return mat[:r]


def _fraction_row(row: list) -> list:
    """A nonzero integer row divided by its pivot, which must be positive."""
    d = row[pivot(row)]
    return [_fraction(x, d) if x else ZERO for x in row]


def row_echelon(rows: Matrix) -> Matrix:
    """Reduced row echelon form; returns only the nonzero rows."""
    if not _over_qx(rows):
        ints = [clear_denominators(row)[0] for row in rows]
        return [_fraction_row(row) for row in _integer_echelon(ints)]
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv if x else x for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                f = row[c]
                mat[i] = [a - f * b if b else a for a, b in zip(row, mat[r])]
        r += 1
    return mat[:r]


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the solutions x of rows . x = 0, one vector per free column."""
    ech = row_echelon(rows)
    pivots = [pivot(row) for row in ech]
    zero, one = _zero_one(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, p in zip(ech, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def rf_matrix_inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan on [m | I]; ZeroDivisionError when singular."""
    size = len(m)
    zero, one = _zero_one(m)
    aug = [list(row) + [one if i == j else zero for j in range(size)]
           for i, row in enumerate(m)]
    ech = row_echelon(aug)
    if not all(row[i] for i, row in enumerate(ech)):
        raise ZeroDivisionError("singular matrix")
    return [row[size:] for row in ech]

