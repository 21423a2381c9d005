"""Built-in charts and Lie algebra pairs with their expected facts.

Every chart is a chart document, loaded by ``charts_io.chart_from_json``
like any ``--chart`` file; the numeric-only charts (entries with exp or
trig) are documents too, and are flagged so harnesses apply float
tolerances instead of demanding literal zeros.  Every entry records what
the test suite and CLI expect to recompute, each fact tagged with how it
is known: "closed-form" facts follow from a cited formula evaluated by
hand, "derived" facts from an independent oracle (finite differences, a
second algorithm), "trivial" facts from the definitions.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

if TYPE_CHECKING:  # the catalog lists its entries without loading the code that builds them
    from .frames import FrameChart
    from .liepair import LieAlgebra, Subalgebra


# the charts as chart documents in the grammar of ``charts_io``; the
# abelian charts are generated by ``chart_document``.  The order of terms
# and factors in an entry fixes the last bits of float results: "1 + x1^2"
# and "x1^2 + 1" store their coefficients in different orders, and
# su2-euler multiplies by the cotangent "(cos(x2)/sin(x2))" as one factor,
# which rounds differently from "-sin(x3)*cos(x2)/sin(x2)".
_CHART_DOCUMENTS: Dict[str, dict] = {
    # columns: d/dx, d/dy + x d/dz, d/dz
    "heisenberg3": {"n": 3, "domain": [[-1, 1]] * 3,
                    "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "x1", "1"]]},
    # columns: y d/dx, y d/dy on the strip y in [1, 2]
    "hyperbolic2": {"n": 2, "domain": [[-1, 1], [1, 2]],
                    "frame": [["x2", "0"], ["0", "x2"]]},
    "deformed2": {"n": 2, "domain": [[-1, 1], [-1, 1]],
                  "frame": [["1", "0"], ["0", "1 + x1^2"]]},
    "affine-exp2": {"n": 2, "domain": [[-1, 1], [-1, 1]],
                    "frame": [["1", "0"], ["0", "exp(x1)"]]},
    # left-invariant frame of SU(2)-style rotations in the Euler angles
    # (phi, theta, psi) = (x1, x2, x3); the polar angle stays inside
    # [0.2, pi - 0.2] to keep sin(theta) away from zero
    "su2-euler": {"n": 3, "domain": [[0.3, 2.8], [0.2, math.pi - 0.2], [0.3, 2.8]],
                  "frame": [["sin(x3)/sin(x2)", "cos(x3)/sin(x2)", "0"],
                            ["cos(x3)", "-sin(x3)", "0"],
                            ["-sin(x3)*(cos(x2)/sin(x2))", "-cos(x3)*(cos(x2)/sin(x2))", "1"]]},
}

_ABELIAN_RE = re.compile(r"^abelian([1-9]\d*)$")

CHART_NAMES = ["abelian2", "abelian3", "abelian4",
               "heisenberg3", "hyperbolic2", "deformed2",
               "affine-exp2", "su2-euler"]

NUMERIC_CHARTS = {"affine-exp2", "su2-euler"}

# facts recomputed by the suite on every run; provenance in the tag
CHART_FACTS: Dict[str, dict] = {
    "abelian2": {"locally_homogeneous": (True, "trivial: constant frame")},
    "abelian3": {"locally_homogeneous": (True, "trivial: constant frame")},
    "abelian4": {"locally_homogeneous": (True, "trivial: constant frame")},
    "heisenberg3": {
        "locally_homogeneous": (True, "derived: exact zero curvature; torsion is parallel"),
        "gamma_312": (Fraction(1), "derived: hand differentiation of the splitting"),
    },
    "hyperbolic2": {
        "locally_homogeneous": (True, "derived: left-invariant frame of the affine group"),
    },
    "deformed2": {
        "locally_homogeneous": (False, "derived: hand evaluation, cross-checked by finite differences"),
        "curvature_witness_origin": (Fraction(2), "derived: d/dx[2x/(1+x^2)] at 0"),
    },
    "affine-exp2": {"locally_homogeneous": (True, "derived: constant connection, numeric check")},
    "su2-euler": {"locally_homogeneous": (True, "derived: left-invariant frame, numeric check")},
}


def chart_document(name: str) -> dict:
    """The chart document of a catalog chart; ``abelianN`` is the identity
    frame on [-1, 1]^N for any N that ``check_dim`` accepts.  Unknown
    names list the alternatives."""
    from .frames import ChartError, check_dim

    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        check_dim(n)
        frame = [["1" if i == a else "0" for a in range(n)] for i in range(n)]
        return {"name": name, "n": n, "domain": [[-1, 1]] * n, "frame": frame}
    doc = _CHART_DOCUMENTS.get(name)
    if doc is None:
        raise ChartError(
            f"unknown chart '{name}'; available: {', '.join(CHART_NAMES)}")
    return {"name": name, **doc}


def get_chart(name: str) -> FrameChart:
    """Load a catalog chart by name, exact wherever it can be (whatever
    FLATCHECK_BACKEND says)."""
    from .charts_io import chart_from_json  # circular at module load otherwise

    return chart_from_json({"builtin": name}, "auto")


# --- Lie pairs ----------------------------------------------------------------
#
# A builder returns a pair as data, (dim, brackets, stabilizer basis), in the
# arguments of ``LieAlgebra`` and ``Subalgebra``; ``get_lie_pair`` builds it.

def _so3_pair():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2; stabilizer = span{e3}
    return 3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}, [[0, 0, 1]]


def _e2_pair():
    # basis (rotation, t1, t2): [r,t1]=t2, [r,t2]=-t1
    return 3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]}, [[1, 0, 0]]


def _so21_pair():
    # basis (rotation, p1, p2): [r,p1]=p2, [r,p2]=-p1, [p1,p2]=-r
    return 3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]}, [[1, 0, 0]]


def _sl2_borel_pair():
    # basis (H, E, F): [H,E]=2E, [H,F]=-2F, [E,F]=H
    return 3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}, [[1, 0, 0], [0, 1, 0]]


def _sl_pair(n: int, extra: Sequence[tuple[int, int]]):
    """The traceless upper-triangular n x n matrices (the Borel b_n) plus the
    matrix units E_ab at the ``extra`` positions, over b_n.  The basis is
    H_1, ..., H_{n-1} (H_i = E_ii - E_{i+1,i+1}), then the upper matrix units
    row by row, then ``extra``.  Brackets follow
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, and a traceless diagonal
    M is the sum of h_i H_i for h_i = M_11 + ... + M_ii."""
    units = [(a, b) for a in range(n) for b in range(a + 1, n)] + list(extra)
    index = {e: n - 1 + k for k, e in enumerate(units)}
    # each basis matrix as {(row, column): entry}
    basis = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)] + [{e: 1} for e in units]
    dim = len(basis)
    brackets = {}
    for i, j in combinations(range(dim), 2):
        m = Counter()
        for (a, b), x in basis[i].items():
            for (c, d), y in basis[j].items():
                if b == c:
                    m[a, d] += x * y
                if d == a:
                    m[c, b] -= x * y
        vec = list(accumulate(m[t, t] for t in range(n - 1))) + [0] * len(units)
        for (a, b), x in m.items():
            if a != b and x:
                vec[index[a, b]] = x  # a KeyError for a unit outside the basis
        if any(vec):
            brackets[(i, j)] = vec
    return dim, brackets, [[int(k == i) for k in range(dim)] for i in range(dim - len(extra))]


def _sl3_borel_pair():
    return _sl_pair(3, [(1, 0), (2, 0), (2, 1)])


def _p_subdiag_pair(n: int):
    """Upper-triangular traceless plus the single lower entry at (2, 1)."""
    return _sl_pair(n, [(1, 0)])


def _heis3_center_pair():
    # [X, Y] = Z, Z central; stabilizer = center
    return 3, {(0, 1): [0, 0, 1]}, [[0, 0, 1]]


def _gl2_center_so2_pair():
    # gl(2) basis (I, J, D, S): I the identity, J = [[0, -1], [1, 0]],
    # D = diag(1, -1), S = [[0, 1], [1, 0]]; I central, [J,D]=2S, [J,S]=-2D,
    # [D,S]=-2J; stabilizer = span{I, J}
    return (4, {(1, 2): [0, 0, 0, 2], (1, 3): [0, 0, -2, 0], (2, 3): [0, -2, 0, 0]},
            [[1, 0, 0, 0], [0, 1, 0, 0]])


_PAIR_BUILDERS: Dict[str, Callable[[], tuple[int, dict, list]]] = {
    "so3/so2": _so3_pair,
    "e2/so2": _e2_pair,
    "so21/so2": _so21_pair,
    "sl2/borel": _sl2_borel_pair,
    "sl3/borel": _sl3_borel_pair,
    "p-subdiag2/b2": lambda: _p_subdiag_pair(2),
    "p-subdiag3/b3": lambda: _p_subdiag_pair(3),
    "p-subdiag4/b4": lambda: _p_subdiag_pair(4),
    "heis3/center": _heis3_center_pair,
    "gl2/center-so2": _gl2_center_so2_pair,
}

PAIR_NAMES = list(_PAIR_BUILDERS)

# expected recomputable facts; "ineffective" entries witness a nonzero ideal.
# the single-subdiagonal parabolic family is catalogued as constructed; for
# n >= 3 the filtration provably stalls on the ideal spanned by the Levi
# center and the nilradical, so the recorded fact is what the algorithm
# returns, not the order the construction was once hoped to have.
PAIR_FACTS: Dict[str, dict] = {
    "so3/so2": {"order": (1, "closed-form: rank-one stabilizer of the round sphere")},
    "e2/so2": {"order": (1, "closed-form: euclidean plane")},
    "so21/so2": {"order": (1, "closed-form: hyperbolic plane")},
    "sl2/borel": {"order": (2, "closed-form: projective line")},
    "sl3/borel": {"order": (2, "closed-form: full flag variety")},
    "p-subdiag2/b2": {"order": (2, "derived: equals sl2/borel")},
    "p-subdiag3/b3": {"order": ("ineffective", "derived: explicit ideal inside b3")},
    "p-subdiag4/b4": {"order": ("ineffective", "derived: explicit ideal inside b4")},
    "heis3/center": {"order": ("ineffective", "trivial: the center is an ideal")},
    "gl2/center-so2": {"order": ("ineffective", "trivial: contains the center")},
}


def get_lie_pair(name: str) -> tuple[LieAlgebra, Subalgebra]:
    from .liepair import LieAlgebra, LiePairError, Subalgebra

    builder = _PAIR_BUILDERS.get(name)
    if builder is None:
        raise LiePairError(
            f"unknown Lie pair '{name}'; available: {', '.join(PAIR_NAMES)}")
    dim, brackets, stabilizer = builder()
    g = LieAlgebra(dim, brackets)
    return g, Subalgebra(g, stabilizer)


def _listed(facts: dict) -> dict:
    return {key: {"value": str(value), "provenance": tag} for key, (value, tag) in facts.items()}


def catalog_entries() -> List[dict]:
    """Machine-readable listing used by the CLI."""
    out = []
    for name in CHART_NAMES:
        out.append({
            "name": name,
            "kind": "chart",
            "backend": "numeric" if name in NUMERIC_CHARTS else "exact",
            "expected": _listed(CHART_FACTS.get(name, {})),
        })
    for name in PAIR_NAMES:
        out.append({"name": name, "kind": "liepair", "expected": _listed(PAIR_FACTS.get(name, {}))})
    return out
