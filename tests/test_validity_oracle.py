"""Where an exact chart is valid, against sympy and exact determinants.

A chart is valid at a grid point when every entry of e is finite there and
det e is not zero.  The oracle shares no code with flatcheck: it cancels
each entry with ``sympy.cancel`` and, at each point of the grid in grid
order, looks for a vanishing denominator (a pole) and then for a zero
determinant, computed from the entries' values as exact Fractions by
Leibniz's formula.  Its first bad point and its kind are the truth.

Each seeded random frame (n = 2 or 3, on [-1, 1]^n at 3 points per axis)
has entries of one to three terms c*x_a*x_b, with one or both variables
possibly absent; one entry in four is divided by x_a, (x_a + 1),
(x_a - x_b) or (x_a + 2).  flatcheck must refuse exactly the charts the
oracle refuses, naming a point no later than the oracle's first bad point,
and the same kind of fault when it names the same point.  A frame that is
singular as a matrix of functions is refused before any point.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cache
from itertools import permutations, product as iproduct
from math import prod

import pytest
import sympy

from flatcheck.charts_io import chart_from_json
from flatcheck.forms import identity_report
from flatcheck.frames import ChartError

GRID = 3
COEFFS = [-2, -1, 1, 2, 3]
SEEDS = range(60)


def random_document(seed: int) -> dict:
    rng = random.Random(seed)
    n = 2 + seed % 2

    def term() -> str:
        return str(rng.choice(COEFFS)) + "".join(f"*x{rng.randrange(n) + 1}"
                                                 for _ in range(rng.randint(0, 2)))

    def entry() -> str:
        text = " + ".join(term() for _ in range(rng.randint(1, 3)))
        if rng.randrange(4):
            return text
        a = rng.randrange(n) + 1
        b = rng.choice([t for t in range(1, n + 1) if t != a])
        den = rng.choice([f"x{a}", f"(x{a} + 1)", f"(x{a} - x{b})", f"(x{a} + 2)"])
        return f"({text})/{den}"

    return {"name": f"random{seed}", "n": n, "domain": [["-1", "1"]] * n,
            "frame": [[entry() for _ in range(n)] for _ in range(n)]}


def grid(n: int) -> list:
    axis = [Fraction(-1) + Fraction(2 * t, GRID - 1) for t in range(GRID)]
    return list(iproduct(axis, repeat=n))


def _evaluator(expr, gens):
    """An exact evaluator of a sympy polynomial at a point of Fractions."""
    terms = [(Fraction(int(c.p), int(c.q)), m)
             for m, c in sympy.Poly(expr, *gens, domain="QQ").terms()]
    return lambda p: sum(c * prod(x ** e for x, e in zip(p, m)) for c, m in terms)


def _sign(perm) -> int:
    return prod(-1 if perm[s] > perm[t] else 1
                for s in range(len(perm)) for t in range(s + 1, len(perm)))


@cache
def oracle(seed: int):
    """For the chart of ``seed``: (index of the first bad grid point,
    "has a pole" or "is singular"), or None when it is valid on the grid."""
    doc = random_document(seed)
    n = doc["n"]
    gens = sympy.symbols(f"x1:{n + 1}")
    names = {str(g): g for g in gens}
    entries = []
    for row in doc["frame"]:
        for text in row:
            num, den = sympy.fraction(sympy.cancel(sympy.sympify(text, locals=names)))
            entries.append((_evaluator(num, gens), _evaluator(den, gens)))
    perms = [(_sign(p), p) for p in permutations(range(n))]
    for index, p in enumerate(grid(n)):
        dens = [den(p) for _, den in entries]
        if 0 in dens:
            return index, "has a pole"
        e = [num(p) / d for (num, _), d in zip(entries, dens)]
        if not sum(s * prod(e[i * n + perm[i]] for i in range(n)) for s, perm in perms):
            return index, "is singular"
    return None


_REFUSAL = re.compile(r"frame of chart '[^']*' (has a pole|is singular) at \((.*)\)\Z")


def flatcheck_verdict(doc: dict):
    """flatcheck's refusal in the oracle's terms: (index, kind), with index
    -1 for a frame singular as a matrix of functions; None when valid."""
    try:
        chart_from_json(doc, backend="exact").validate_invertible(GRID)
    except ChartError as exc:
        message = str(exc)
        if message.endswith("is singular as a matrix of functions"):
            return -1, "is singular"
        kind, at = _REFUSAL.match(message).groups()
        points = [", ".join(map(str, p)) for p in grid(doc["n"])]
        return points.index(at), kind
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_validity_matches_the_oracle(seed):
    doc = random_document(seed)
    want, got = oracle(seed), flatcheck_verdict(doc)
    if want is None:
        assert got is None, doc
        return
    assert got is not None, doc
    assert got[0] <= want[0], doc
    if got[0] == want[0]:
        assert got[1] == want[1], doc


def test_the_random_frames_cover_every_verdict():
    # the sample is only a check if it holds valid charts, poles and
    # singular points
    kinds = {v[1] if v else None for v in map(oracle, SEEDS)}
    assert kinds == {None, "has a pole", "is singular"}


# ROADMAP item 26: SL(2) in LDU coordinates, g = L*D*U, whose frame is
# left-invariant with det e = 1/x2, and its translate x3 -> x3 - 1/2 on
# [0, 1].  Both are Lie groups, and their frames are valid on the grid.
SL2_LDU = {
    "sl2-ldu": {"name": "sl2-ldu", "n": 3,
                "domain": [["-1/2", "1/2"], ["1/2", "3/2"], ["-1/2", "1/2"]],
                "frame": [["0", "1/(x2^2)", "0"], ["0", "x2*x3", "x2"],
                          ["1", "-x3^2", "-2*x3"]]},
    "sl2-ldu-translate": {"name": "sl2-ldu-translate", "n": 3,
                          "domain": [["-1/2", "1/2"], ["1/2", "3/2"], ["0", "1"]],
                          "frame": [["0", "1/(x2^2)", "0"], ["0", "x2*(x3 - 1/2)", "x2"],
                                    ["1", "-(x3 - 1/2)^2", "-2*(x3 - 1/2)"]]},
}


@pytest.mark.parametrize("name", SL2_LDU)
def test_numeric_backend_finds_sl2_ldu_homogeneous(name):
    report = identity_report(chart_from_json(SL2_LDU[name], backend="numeric"), grid_points=3)
    assert report["locally_homogeneous"] is True


@pytest.mark.xfail(strict=True, raises=ChartError,
                   reason="ROADMAP item 26: a reducible denominator factor of e^-1 "
                          "reads as a pole, so the exact backend calls e singular")
@pytest.mark.parametrize("name", SL2_LDU)
def test_exact_backend_finds_sl2_ldu_homogeneous(name):
    report = identity_report(chart_from_json(SL2_LDU[name], backend="exact"), grid_points=3)
    assert report["locally_homogeneous"] is True
    assert set(report["residuals"].values()) == {0.0}
