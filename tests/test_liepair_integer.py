"""The integer Lie-pair kernel against plain-Fraction references.

``LieAlgebra`` keeps integer structure constants over one denominator,
subalgebras and filtration stages are primitive integer rows, and the
elimination kernel of ``rational`` clears rows over Q and eliminates them
fraction-free.  The references below are the Fraction loops these
replaced, copied here so that they share no code with the kernels:

* Gauss-Jordan elimination on Fractions, for ``row_echelon`` and
  ``nullspace`` on rows over Q;
* the stage step that brackets each stage vector with each basis vector
  through the Fraction table ``LieAlgebra.c``, for ``filtration_of``.

Stage bases are compared as the strings a report writes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import borel_pair_document
from flatcheck import liepair
from flatcheck.catalog import PAIR_NAMES, get_lie_pair
from flatcheck.cli import main
from flatcheck.liepair import LieAlgebra, Subalgebra, filtration_of, pair_from_json
from flatcheck.literals import frac_str
from flatcheck.rational import nullspace, row_echelon

GOLDEN = Path(__file__).parent / "golden"


# --- Fraction references --------------------------------------------------------

def ref_row_echelon(rows):
    """Reduced row echelon form by Gauss-Jordan on Fractions."""
    mat = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                f = row[c]
                mat[i] = [a - f * b for a, b in zip(row, mat[r])]
        r += 1
    return mat[:r]


def ref_nullspace(rows, ncols):
    ech = ref_row_echelon(rows)
    pivots = [next(i for i, x in enumerate(row) if x) for row in ech]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(ech, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def ref_bracket(g: LieAlgebra, v, w):
    out = [Fraction(0)] * g.dim
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            if vi and wj:
                for k, x in g.c.get((i, j), ()):
                    out[k] += vi * wj * x
    return out


def ref_filtration_bases(g: LieAlgebra, h: Subalgebra) -> list:
    """The stage bases of the filtration by the Fraction stage step: each
    next stage is the kernel of v -> ([v, x_b] mod the stage)_b."""
    bases = [[list(v) for v in h.basis]]
    current = ref_row_echelon(h.basis)
    while current:
        pivots = [next(i for i, x in enumerate(row) if x) for row in current]
        annihilator = []
        for free in range(g.dim):
            if free not in pivots:
                w = [Fraction(0)] * g.dim
                w[free] = Fraction(1)
                for row, p in zip(current, pivots):
                    w[p] = -row[free]
                annihilator.append(w)
        conditions = []
        for b in range(g.dim):
            eb = [Fraction(int(t == b)) for t in range(g.dim)]
            images = [ref_bracket(g, vec, eb) for vec in current]
            for w in annihilator:
                row = [sum(x * y for x, y in zip(w, img)) for img in images]
                if any(row):
                    conditions.append(row)
        if not conditions:
            break
        new = [[sum(c * vec[t] for c, vec in zip(combo, current)) for t in range(g.dim)]
               for combo in ref_nullspace(conditions, len(current))]
        nxt = ref_row_echelon(new)
        if len(nxt) == len(current):
            break
        bases.append(nxt)
        current = nxt
    return bases


def as_strings(bases) -> list:
    return [[[frac_str(Fraction(x)) for x in vec] for vec in stage] for stage in bases]


# --- the elimination kernel on rows over Q ---------------------------------------

def rand_entry(rng: random.Random):
    if rng.random() < 0.4:
        return 0
    num = rng.randint(-9, 9)
    return num if rng.random() < 0.3 else Fraction(num, rng.choice((1, 2, 3, 4, 6, 7)))


def rand_q_matrix(rng: random.Random, nrows: int, ncols: int) -> list:
    """Random int and Fraction entries, with zero rows and, half the time,
    rows that are combinations of the others."""
    rows = [[rand_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    for t in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows[t] = [0] * ncols
        elif kind < 0.5 and t >= 2:
            a, b = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rows[t] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_q_elimination_matches_the_fraction_gauss_jordan(seed):
    rng = random.Random(seed)
    for _ in range(20):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = rand_q_matrix(rng, nrows, ncols)
        ech = row_echelon(rows)
        assert ech == ref_row_echelon(rows)
        assert all(type(x) is Fraction for row in ech for x in row)
        assert nullspace(rows, ncols) == ref_nullspace(rows, ncols)


def test_q_elimination_of_zero_and_empty_rows():
    assert row_echelon([]) == []
    assert row_echelon([[0, 0], [Fraction(0), 0]]) == []
    assert nullspace([[0, 0, 0]], 3) == ref_nullspace([[0, 0, 0]], 3)


# --- the filtration --------------------------------------------------------------

def filiform_pair(m: int) -> tuple:
    """span{d/dx, d/dy, x d/dy, ..., x^m d/dy} over the powers x^j d/dy,
    j >= 1, with seeded scalings; the order is m."""
    rng = random.Random(f"filiform:{m}")
    s = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5))) for _ in range(m + 1)]
    dim = m + 2
    brackets = {}
    for j in range(1, m + 1):
        vec = [0] * dim
        vec[j] = j * s[j] / s[j - 1]
        brackets[(0, j + 1)] = vec
    g = LieAlgebra(dim, brackets)
    return g, Subalgebra(g, [[int(t == j + 1) for t in range(dim)] for j in range(1, m + 1)])


def pair_document(name: str) -> tuple:
    return pair_from_json(json.loads((GOLDEN / f"pair-{name}.json").read_text()))


PAIRS = {f"catalog:{name}": (lambda name=name: get_lie_pair(name)) for name in PAIR_NAMES}
PAIRS.update({f"doc:{name}": (lambda name=name: pair_document(name))
              for name in ("sl4-borel", "sl5-borel", "sl6-borel")})
PAIRS.update({f"filiform{m}": (lambda m=m: filiform_pair(m)) for m in range(1, 17)})
PAIRS.update({f"conj:{kind}{n}": (lambda n=n, gl=kind == "gl":
                                  pair_from_json(borel_pair_document(n, gl)))
              for kind, n in (("gl", 3), ("gl", 4), ("sl", 4))})


@pytest.mark.parametrize("name", PAIRS)
def test_filtration_matches_the_fraction_stage_step(name):
    g, h = PAIRS[name]()
    chain = filtration_of(g, h)
    assert as_strings([stage.basis for stage in chain]) == as_strings(ref_filtration_bases(g, h))


# --- no Fraction arithmetic inside the Jacobi check or the filtration -------------

@pytest.mark.parametrize("argv, order", [
    (["--builtin", "p-subdiag4/b4"], "ineffective"),
    (["--pair", str(GOLDEN / "pair-sl6-borel.json")], 2)])
def test_jacobi_and_filtration_form_no_fraction_arithmetic(monkeypatch, capsys, argv, order):
    inside, formed = [0], []

    def counted(name):
        real = getattr(Fraction, name)

        def op(*args):
            if inside[0]:
                formed.append(name)
            return real(*args)
        return op

    def marked(real):
        def call(*args):
            inside[0] += 1
            try:
                return real(*args)
            finally:
                inside[0] -= 1
        return call

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, counted(name))
    monkeypatch.setattr(LieAlgebra, "_validate_jacobi", marked(LieAlgebra._validate_jacobi))
    monkeypatch.setattr(liepair, "filtration_of", marked(liepair.filtration_of))
    assert main(["liepair", "order", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == order
    assert formed == []
