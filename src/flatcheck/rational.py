"""Exact multivariate polynomial and rational-function arithmetic.

Polynomials are sparse dictionaries mapping exponent tuples to Fraction
coefficients; the zero polynomial is the empty dict.  Rational functions
keep the denominator as a multiset of polynomial factors with integer
exponents, because every division performed by the geometry code divides
by a polynomial that is known explicitly (a frame determinant, a chart
denominator).  Sums and derivatives then only ever need exact trial
division to cancel factors, never a general multivariate gcd.

All coefficients are Fractions, so equality of fields is literal equality
of normal forms: ``is_zero`` is decidable and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

Monomial = Tuple[int, ...]
PolyDict = Dict[Monomial, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def grlex_key(mono: Monomial) -> tuple:
    """Graded lexicographic sort key: total order first, then lex."""
    return (sum(mono), mono)


def unit_mono(n: int, idx: int) -> Monomial:
    """The exponent tuple of the variable ``x_(idx+1)``."""
    if not 0 <= idx < n:
        raise ValueError(f"variable index {idx} out of range for n={n}")
    return tuple(int(t == idx) for t in range(n))


class Poly:
    """Sparse exact polynomial in ``n`` variables.

    Results of the arithmetic are built by ``_like``, so a subclass that
    carries more state (the truncation order of a jet component) gets
    results of its own kind.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[Monomial, Fraction] | None = None):
        self.n = n
        self.coeffs: PolyDict = {}
        if coeffs:
            for mono, c in coeffs.items():
                if c != 0:
                    self.coeffs[tuple(mono)] = Fraction(c)

    def _like(self, coeffs: PolyDict) -> Poly:
        """A polynomial of this one's kind holding ``coeffs``, which must
        already be normal (Fraction values, no zeros)."""
        res = object.__new__(type(self))
        res.n = self.n
        res.coeffs = coeffs
        return res

    @staticmethod
    def zero(n: int) -> Poly:
        return Poly(n)

    @staticmethod
    def const(n: int, value) -> Poly:
        c = Fraction(value)
        return Poly(n, {(0,) * n: c} if c else None)

    @staticmethod
    def var(n: int, idx: int) -> Poly:
        return Poly(n, {unit_mono(n, idx): ONE})

    def copy(self) -> Poly:
        return self._like(dict(self.coeffs))

    def coeff(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(tuple(mono), ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return all(sum(m) == 0 for m in self.coeffs)

    def const_value(self) -> Fraction:
        return self.coeffs.get((0,) * self.n, ZERO)

    def degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono, ZERO) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return self._like(out)

    def __neg__(self) -> Poly:
        return self._like({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        out: PolyDict = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(mono, ZERO) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return self._like(out)

    def scale(self, value) -> Poly:
        c = Fraction(value)
        return self._like({m: c * v for m, v in self.coeffs.items()} if c else {})

    def diff(self, idx: int) -> Poly:
        out: PolyDict = {}
        for mono, c in self.coeffs.items():
            e = mono[idx]
            if e == 0:
                continue
            m = list(mono)
            m[idx] = e - 1
            out[tuple(m)] = c * e
        return self._like(out)

    def eval(self, point: Iterable) -> Fraction:
        pt = [Fraction(x) for x in point]
        total = ZERO
        for mono, c in self.coeffs.items():
            term = c
            for x, e in zip(pt, mono):
                if e:
                    term *= x ** e
            total += term
        return total

    def eval_float(self, point) -> float:
        total = 0.0
        for mono, c in self.coeffs.items():
            term = float(c)
            for x, e in zip(point, mono):
                if e:
                    term *= x ** e
            total += term
        return total

    def leading(self) -> tuple[Monomial, Fraction]:
        mono = max(self.coeffs, key=grlex_key)
        return mono, self.coeffs[mono]

    def divides(self, other: Poly) -> Poly | None:
        """Exact division other / self; None if self does not divide other."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if other.is_zero():
            return other._like({})
        if self.is_const():
            return other.scale(1 / self.const_value())
        lead_m, lead_c = self.leading()
        rem = other
        quot: PolyDict = {}
        while not rem.is_zero():
            rm, rc = rem.leading()
            qm = tuple(a - b for a, b in zip(rm, lead_m))
            if any(e < 0 for e in qm):
                return None
            qc = rc / lead_c
            quot[qm] = qc
            rem = rem - self * Poly(self.n, {qm: qc})
        return other._like(quot)

    def monic(self) -> tuple[Poly, Fraction]:
        """Scale so the grlex-leading coefficient is 1; returns (monic, factor)."""
        if self.is_zero():
            return self, ONE
        _, lc = self.leading()
        return self.scale(1 / lc), lc

    def __repr__(self):
        if self.is_zero():
            return f"{type(self).__name__}(0)"
        terms = []
        for mono in sorted(self.coeffs, key=grlex_key):
            c = self.coeffs[mono]
            vars_part = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono) if e
            )
            terms.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return f"{type(self).__name__}(" + " + ".join(terms) + ")"


class RationalFunc:
    """Quotient num / prod(factor^exp) of exact polynomials.

    The denominator is stored factored; factors are monic in the grlex
    leading coefficient and the scalar is folded into the numerator.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, num: Poly, den: Mapping[Poly, int] | None = None):
        self.n = num.n
        self.num = num
        self.den: Dict[Poly, int] = {}
        if den and not num.is_zero():
            for f, e in den.items():
                if e:
                    self.den[f] = self.den.get(f, 0) + e
        self._reduce()

    @staticmethod
    def const(n: int, value) -> RationalFunc:
        return RationalFunc(Poly.const(n, value))

    @staticmethod
    def var(n: int, idx: int) -> RationalFunc:
        return RationalFunc(Poly.var(n, idx))

    def _reduce(self) -> None:
        if self.num.is_zero():
            self.den = {}
            return
        reduced: Dict[Poly, int] = {}
        for f, e in self.den.items():
            while e > 0:
                q = f.divides(self.num)
                if q is None:
                    break
                self.num = q
                e -= 1
            if e:
                reduced[f] = e
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
        if self.is_zero():
            return other
        if other.is_zero():
            return self
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
        return RationalFunc(na + nb, common)

    def __neg__(self) -> RationalFunc:
        res = RationalFunc.__new__(RationalFunc)
        res.n = self.n
        res.num = -self.num
        res.den = dict(self.den)
        return res

    def __sub__(self, other: RationalFunc) -> RationalFunc:
        return self + (-other)

    def __mul__(self, other: RationalFunc) -> RationalFunc:
        if self.is_zero() or other.is_zero():
            return RationalFunc(Poly.zero(self.n))
        den: Dict[Poly, int] = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        return RationalFunc(self.num * other.num, den)

    def scale(self, value) -> RationalFunc:
        return RationalFunc(self.num.scale(value), self.den)

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

    def __rtruediv__(self, other) -> RationalFunc:
        """``c / f`` for a rational number ``c``."""
        return self.inverse().scale(other)

    def diff(self, idx: int) -> RationalFunc:
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
        v = self.num.eval_float(point)
        for f, e in self.den.items():
            v /= f.eval_float(point) ** e
        return v

    def __repr__(self):
        if not self.den:
            return f"RationalFunc({self.num!r})"
        return f"RationalFunc({self.num!r} / {self.den!r})"


def frac_str(x: Fraction) -> str:
    """An exact rational as the "num/den" string of the exchange documents."""
    return f"{x.numerator}/{x.denominator}"


# --- exact linear algebra over Q and Q(x) ------------------------------------
#
# The one elimination kernel.  Entries are Fractions (Lie pairs, jet linear
# parts) or RationalFuncs (frames); the code uses only +, -, *, ONE / x and
# truth tests, which both fields provide.  The pivot is always the first
# nonzero entry of its column, so results keep reproducible normal forms.

Matrix = list  # rows of Fraction or of RationalFunc


def _zero_one(rows: Matrix) -> tuple:
    """The 0 and 1 of the field the entries of ``rows`` lie in."""
    x = rows[0][0] if rows and rows[0] else ONE
    if isinstance(x, RationalFunc):
        return RationalFunc.const(x.n, 0), RationalFunc.const(x.n, 1)
    return ZERO, ONE


def _pivot(row) -> int:
    return next(i for i, x in enumerate(row) if x)


def row_echelon(rows: Matrix) -> Matrix:
    """Reduced row echelon form by Gauss-Jordan; returns only the nonzero rows."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                f = row[c]
                mat[i] = [a - f * b for a, b in zip(row, mat[r])]
        r += 1
    return mat[:r]


def rank(rows: Matrix) -> int:
    return len(row_echelon(rows))


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the solutions x of rows . x = 0, one vector per free column."""
    zero, one = _zero_one(rows)
    ech = row_echelon(rows)
    pivots = [_pivot(row) for row in ech]
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


def solve_in_basis(basis_rows: Matrix, vector) -> list | None:
    """Coordinates of ``vector`` in the independent ``basis_rows``, or None
    when it lies outside their span."""
    ncols = len(basis_rows)
    aug = [[b[r] for b in basis_rows] + [x] for r, x in enumerate(vector)]
    zero, _ = _zero_one([vector])
    coords = [zero] * ncols
    for row in row_echelon(aug):
        p = _pivot(row)
        if p == ncols:
            return None
        coords[p] = row[ncols]
    return coords


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


def matrix_determinant(mat: Matrix):
    """Determinant by forward elimination: the signed product of the pivots."""
    work = [list(row) for row in mat]
    size = len(work)
    zero, det = _zero_one(work)
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            return zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = ONE / work[col][col]
        for r in range(col + 1, size):
            if work[r][col]:
                factor = work[r][col] * inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det
