"""Built-in charts and Lie algebra pairs with their expected facts.

Every entry records what the test suite and CLI expect to recompute, each
fact tagged with how it is known: "closed-form" facts follow from a cited
formula evaluated by hand, "derived" facts from an independent oracle
(finite differences, a second algorithm), "trivial" facts from the
definitions.  Numeric-only charts (entries with exp or trig) are flagged
so harnesses apply float tolerances instead of demanding literal zeros.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

from .frames import ChartError, FrameChart, check_dim
from .liepair import LieAlgebra, LiePairError, Subalgebra
from .rational import Poly, RationalFunc, solve_in_basis


def _rf(p: Poly) -> RationalFunc:
    return RationalFunc(p)


def _abelian(n: int) -> FrameChart:
    one = _rf(Poly.const(n, 1))
    zero = _rf(Poly.zero(n))
    entries = [[one if i == a else zero for a in range(n)] for i in range(n)]
    return FrameChart(f"abelian{n}", n, [(-1, 1)] * n, entries=entries)


def _heisenberg3() -> FrameChart:
    # columns: d/dx, d/dy + x d/dz, d/dz
    n = 3
    one = _rf(Poly.const(n, 1))
    zero = _rf(Poly.zero(n))
    x = _rf(Poly.var(n, 0))
    entries = [
        [one, zero, zero],
        [zero, one, zero],
        [zero, x, one],
    ]
    return FrameChart("heisenberg3", n, [(-1, 1)] * 3, entries=entries)


def _hyperbolic2() -> FrameChart:
    # columns: y d/dx, y d/dy on the strip y in [1, 2]
    n = 2
    zero = _rf(Poly.zero(n))
    y = _rf(Poly.var(n, 1))
    entries = [[y, zero], [zero, y]]
    return FrameChart("hyperbolic2", n, [(-1, 1), (1, 2)], entries=entries)


def _deformed2() -> FrameChart:
    n = 2
    one = _rf(Poly.const(n, 1))
    zero = _rf(Poly.zero(n))
    x = Poly.var(n, 0)
    entries = [[one, zero], [zero, _rf(Poly.const(n, 1) + x * x)]]
    return FrameChart("deformed2", n, [(-1, 1), (-1, 1)], entries=entries)


def _affine_exp2() -> FrameChart:
    def evaluator(p):
        x = p[0]
        return [[1.0, 0.0], [0.0, math.exp(x)]]
    return FrameChart("affine-exp2", 2, [(-1, 1), (-1, 1)], evaluator=evaluator)


def _su2_euler() -> FrameChart:
    """Left-invariant frame of SU(2)-style rotations in Euler angles.

    Coordinates (phi, theta, psi); the polar angle stays inside
    [0.2, pi - 0.2] to keep sin(theta) away from zero.
    """
    def evaluator(p):
        _, theta, psi = p
        st, ct = math.sin(theta), math.cos(theta)
        sp, cp = math.sin(psi), math.cos(psi)
        cot = ct / st
        return [
            [sp / st, cp / st, 0.0],
            [cp, -sp, 0.0],
            [-sp * cot, -cp * cot, 1.0],
        ]
    return FrameChart("su2-euler", 3,
                      [(0.3, 2.8), (0.2, math.pi - 0.2), (0.3, 2.8)],
                      evaluator=evaluator)


_CHART_BUILDERS: Dict[str, Callable[[], FrameChart]] = {
    "heisenberg3": _heisenberg3,
    "hyperbolic2": _hyperbolic2,
    "deformed2": _deformed2,
    "affine-exp2": _affine_exp2,
    "su2-euler": _su2_euler,
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


def get_chart(name: str) -> FrameChart:
    """Build a catalog chart by name; unknown names list the alternatives."""
    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        check_dim(n)
        return _abelian(n)
    builder = _CHART_BUILDERS.get(name)
    if builder is None:
        raise ChartError(
            f"unknown chart '{name}'; available: {', '.join(CHART_NAMES)}")
    return builder()


# --- Lie pairs ----------------------------------------------------------------

def _so3_pair():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2; stabilizer = span{e3}
    g = LieAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]})
    return g, Subalgebra(g, [[0, 0, 1]])


def _e2_pair():
    # basis (rotation, t1, t2): [r,t1]=t2, [r,t2]=-t1
    g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})
    return g, Subalgebra(g, [[1, 0, 0]])


def _so21_pair():
    # basis (rotation, p1, p2): [r,p1]=p2, [r,p2]=-p1, [p1,p2]=-r
    g = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0], (1, 2): [-1, 0, 0]})
    return g, Subalgebra(g, [[1, 0, 0]])


def _sl2_borel_pair():
    # basis (H, E, F): [H,E]=2E, [H,F]=-2F, [E,F]=H
    g = LieAlgebra(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    return g, Subalgebra(g, [[1, 0, 0], [0, 1, 0]])


def _sl_n_matrices(n: int, extra: Sequence[tuple[int, int]]):
    """Basis matrices for upper-triangular traceless + chosen lower entries."""
    basis = []
    for i in range(n - 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][i] = Fraction(1)
        m[i + 1][i + 1] = Fraction(-1)
        basis.append(m)
    uppers = [(a, b) for a in range(n) for b in range(n) if a < b]
    for a, b in list(uppers) + list(extra):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[a][b] = Fraction(1)
        basis.append(m)
    return basis, (n - 1) + len(uppers)


def _matrix_algebra(basis: List[List[List[Fraction]]]):
    """Structure constants of a matrix Lie algebra in the given basis."""
    size = len(basis[0])
    dim = len(basis)
    flat = [[m[i][j] for i in range(size) for j in range(size)] for m in basis]

    def bracket(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(size))
                 - sum(b[i][t] * a[t][j] for t in range(size))
                 for j in range(size)] for i in range(size)]

    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            m = bracket(basis[i], basis[j])
            coords = solve_in_basis(flat, [m[r][c] for r in range(size) for c in range(size)])
            if any(coords):
                brackets[(i, j)] = coords
    return LieAlgebra(dim, brackets)


def _sl_pair(n: int, extra: Sequence[tuple[int, int]]):
    basis, hdim = _sl_n_matrices(n, extra)
    g = _matrix_algebra(basis)
    h = Subalgebra(g, [g.basis_vector(i) for i in range(hdim)])
    return g, h


def _sl3_borel_pair():
    return _sl_pair(3, [(1, 0), (2, 0), (2, 1)])


def _p_subdiag_pair(n: int):
    """Upper-triangular traceless plus the single lower entry at (2, 1)."""
    return _sl_pair(n, [(1, 0)])


def _heis3_center_pair():
    # [X, Y] = Z, Z central; stabilizer = center
    g = LieAlgebra(3, {(0, 1): [0, 0, 1]})
    return g, Subalgebra(g, [[0, 0, 1]])


def _gl2_center_so2_pair():
    # gl(2) basis (I, J, D, S): I central, J rotation, D=diag(1,-1), S=offdiag sym
    # [J,D]=2S? compute: J=[[0,-1],[1,0]], D=diag(1,-1), S=[[0,1],[1,0]]
    # [J,D] = JD-DJ = [[0,1],[1,0]]*? JD=[[0,1],[1,0]], DJ=[[0,-1],[-1,0]] => [J,D]=2S
    # [J,S] = JS-SJ: JS=[[-1,0],[0,1]]=-D, SJ=[[1,0],[0,-1]]=D => [J,S]=-2D
    # [D,S] = DS-SD: DS=[[0,1],[-1,0]], SD=[[0,-1],[1,0]] => [D,S]=2J
    g = LieAlgebra(4, {(1, 2): [0, 0, 0, 2], (1, 3): [0, 0, -2, 0], (2, 3): [0, 2, 0, 0]})
    return g, Subalgebra(g, [[1, 0, 0, 0], [0, 1, 0, 0]])


_PAIR_BUILDERS: Dict[str, Callable[[], tuple[LieAlgebra, Subalgebra]]] = {
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
    builder = _PAIR_BUILDERS.get(name)
    if builder is None:
        raise LiePairError(
            f"unknown Lie pair '{name}'; available: {', '.join(PAIR_NAMES)}")
    return builder()


def catalog_entries() -> List[dict]:
    """Machine-readable listing used by the CLI."""
    out = []
    for name in CHART_NAMES:
        facts = {
            key: {"value": str(value), "provenance": tag}
            for key, (value, tag) in CHART_FACTS.get(name, {}).items()
        }
        out.append({
            "name": name,
            "kind": "chart",
            "backend": "numeric" if name in NUMERIC_CHARTS else "exact",
            "expected": facts,
        })
    for name in PAIR_NAMES:
        facts = {
            key: {"value": str(value), "provenance": tag}
            for key, (value, tag) in PAIR_FACTS.get(name, {}).items()
        }
        out.append({"name": name, "kind": "liepair", "expected": facts})
    return out
