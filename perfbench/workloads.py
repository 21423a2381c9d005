"""Seeded inputs and op lists for the four benchmark workloads.

Every workload is a list of ops.  An op is one ``flatcheck`` command line
on generated input documents, together with the expected answer that
``oracles.py`` checks it against.  Nothing here imports flatcheck: the
documents and the expected answers come from the benchmark alone, so a
change to the program cannot change what counts as correct.

The documents depend only on (workload, seed, scale).  ``scale="tiny"``
keeps a few cheap ops of each kind and exists for the benchmark's own
tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact-charts", "numeric-charts", "algebra", "cli-cold")

# Known answers, kept here rather than read from flatcheck.catalog.  The
# benchmark's tests check that they agree with CHART_FACTS / PAIR_FACTS.
CATALOG_CHARTS = {  # name -> locally homogeneous?
    "abelian2": True, "abelian3": True, "abelian4": True,
    "heisenberg3": True, "hyperbolic2": True, "deformed2": False,
    "affine-exp2": True, "su2-euler": True,
}
CATALOG_PAIRS = {  # name -> order, or "ineffective" when an ideal sits in h
    "so3/so2": 1, "e2/so2": 1, "so21/so2": 1, "sl2/borel": 2, "sl3/borel": 2,
    "p-subdiag2/b2": 2, "p-subdiag3/b3": "ineffective",
    "p-subdiag4/b4": "ineffective", "heis3/center": "ineffective",
    "gl2/center-so2": "ineffective",
}

# The curvature witness of deformed2 = diag(1, 1 + x^2) is
# d/dx[2x / (1 + x^2)] at x = 0, which is 2.
DEFORMED2_MAX_R = 2.0

# Exact stress charts (the test-suite conftest charts), in the chart JSON
# grammar.  Verdicts: sl2rational is the group SL(2); unipotent4 and
# sl2mix4 are curved by construction.
_Q = ["3/4", "5/4"]
_q = ["-1/4", "1/4"]
STRESS_CHARTS = {
    "sl2rational": (True, {
        "n": 3, "domain": [_Q, _q, _q],
        "frame": [["x1", "0", "x2"], ["-x2", "x1", "0"], ["x3", "0", "(1 + x2*x3)/x1"]]}),
    "unipotent4": (False, {
        "n": 4, "domain": [[-1, 1]] * 4,
        "frame": [["1", "0", "0", "0"], ["x1", "1", "0", "0"],
                  ["x2^2", "x3", "1", "0"], ["x3", "x1*x2", "x1", "1"]]}),
    "sl2mix4": (False, {
        "n": 4, "domain": [_Q, _q, _q, _q],
        "frame": [["x1*(1 + x4^2)", "0", "x2", "0"], ["-x2", "x1", "0", "0"],
                  ["x3", "0", "(1 + x2*x3)/x1", "0"], ["0", "0", "0", "1"]]}),
}
HEISENBERG3 = {"n": 3, "domain": [[-1, 1]] * 3,
               "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "x1", "1"]]}
SU2_EULER = {  # coordinates (phi, theta, psi) = (x1, x2, x3)
    "n": 3, "domain": [[0.3, 2.8], [0.2, 2.941592653589793], [0.3, 2.8]],
    "frame": [["sin(x3)/sin(x2)", "cos(x3)/sin(x2)", "0"],
              ["cos(x3)", "-sin(x3)", "0"],
              ["-sin(x3)*cos(x2)/sin(x2)", "-cos(x3)*cos(x2)/sin(x2)", "1"]]}
AFFINE_EXP2 = {"n": 2, "domain": [[-1, 1], [-1, 1]], "frame": [["1", "0"], ["0", "exp(x1)"]]}
POLE_CHART = {"name": "pole", "n": 2, "domain": [[-1, 1], [-1, 1]],
              "frame": [["1/x1", "0"], ["0", "1"]]}

# The heaviest chart families (sl2mix4, su2-euler) run on a 3-point grid so
# that a pass stays near five seconds; everything else uses the CLI default
# of 5 points per axis.
HEAVY_GRID = 3

# Calibrated pass length on the reference host, used to turn --seconds into
# a fixed pass count: every run with the same --seconds does the same work,
# so the sample counts behind op_p50_s and op_tail_s do not change.
NOMINAL_PASS_S = {"exact-charts": 5.5, "numeric-charts": 4.0, "algebra": 7.5, "cli-cold": 2.6}


@dataclass
class Op:
    """One command line and the answer it must give."""

    op_id: str
    argv: list
    check: tuple  # (oracle name, params) for oracles.check_op
    env: dict = field(default_factory=dict)
    expect_rc: int = 0
    out: bool = True  # pass --out <file>; error-path ops print no report


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    docs: dict  # relative file name -> JSON-serializable document

    def write_docs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for rel, doc in self.docs.items():
            (directory / rel).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# --- generators ----------------------------------------------------------------

def unimodular(n: int, rng: random.Random) -> list:
    """C = U L with U unit upper and L unit lower triangular, det C = 1.

    Redrawn until no entry of C is zero, so that every rescaled frame
    entry mixes the same number of base entries whatever the seed.
    """
    while True:
        u = [[1 if i == j else (rng.choice((-2, -1, 1, 2)) if j > i else 0) for j in range(n)]
             for i in range(n)]
        low = [[1 if i == j else (rng.choice((-2, -1, 1, 2)) if j < i else 0) for j in range(n)]
               for i in range(n)]
        c = [[sum(u[i][t] * low[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        if all(all(row) for row in c):
            return c


def rescaled(doc: dict, c: list, name: str) -> dict:
    """The chart document of e(x) . C."""
    n, frame = doc["n"], doc["frame"]
    rows = []
    for i in range(n):
        row = []
        for a in range(n):
            terms = []
            for t in range(n):
                if frame[i][t] == "0":
                    continue
                k = c[t][a]
                terms.append(f"({frame[i][t]})" if k == 1 else
                             f"-({frame[i][t]})" if k == -1 else f"{k}*({frame[i][t]})")
            row.append(" + ".join(terms) or "0")
        rows.append(row)
    return {"name": name, "n": n, "domain": doc["domain"], "frame": rows}


def monomials(n: int, k: int) -> list:
    """Multi-indices of total degree <= k in graded lexicographic order."""
    def upto(m, d):
        if m == 1:
            return [(e,) for e in range(d + 1)]
        return [(e,) + rest for e in range(d + 1) for rest in upto(m - 1, d - e)]
    return sorted(upto(n, k), key=lambda m: (sum(m), m))


def random_jet(n: int, k: int, rng: random.Random) -> dict:
    """A jet at the origin: unit upper-triangular linear part, and a
    coefficient of +-1 on every monomial of degree 2..k.

    Dense with fixed magnitudes, so the work of compose and invert does not
    depend on the seed."""
    components = []
    for i in range(n):
        entries = []
        for mono in monomials(n, k):
            d = sum(mono)
            if d == 0:
                continue
            if d == 1:
                j = mono.index(1)
                c = 1 if j == i else (rng.choice((-1, 1)) if j > i else 0)
            else:
                c = rng.choice((-1, 1))
            if c:
                entries.append({"multiindex": list(mono), "num": str(c), "den": "1"})
        components.append(entries)
    return {"n": n, "k": k, "components": components}


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def pair_doc(dim: int, brackets: dict, sub: list) -> dict:
    return {
        "dim": dim,
        "brackets": [{"i": i, "j": j, "coeffs": [_frac_str(x) for x in vec]}
                     for (i, j), vec in sorted(brackets.items())],
        "subalgebra": [[_frac_str(x) for x in vec] for vec in sub],
    }


def sl_borel(n: int) -> tuple:
    """sl(n) over its Borel subalgebra, in the basis H_1..H_{n-1},
    E_ij (i < j), E_ji (i < j).

    Returns (document, index of the highest-root vector E_1n).  Brackets of
    matrix units are [E_ij, E_kl] = d_jk E_il - d_li E_kj; a traceless
    diagonal matrix diag(d) has H-coordinates c_i = d_1 + ... + d_i.
    """
    uppers = [(i, j) for i in range(n) for j in range(n) if i < j]
    units = uppers + [(j, i) for i, j in uppers]
    dim = (n - 1) + len(units)
    index = {u: (n - 1) + t for t, u in enumerate(units)}

    def h(i):  # H_i = E_ii - E_{i+1,i+1} as a sparse matrix
        return {(i, i): 1, (i + 1, i + 1): -1}

    basis = [h(i) for i in range(n - 1)] + [{u: 1} for u in units]

    def commutator(a, b):
        out = {}
        for (i, j), x in a.items():
            for (k, m), y in b.items():
                if j == k:
                    out[(i, m)] = out.get((i, m), 0) + x * y
                if m == i:
                    out[(k, j)] = out.get((k, j), 0) - x * y
        return {key: v for key, v in out.items() if v}

    def coords(mat):
        vec = [0] * dim
        running = 0
        for i in range(n - 1):
            running += mat.get((i, i), 0)
            vec[i] = running
        for key, v in mat.items():
            if key[0] != key[1]:
                vec[index[key]] = v
        return vec

    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            vec = coords(commutator(basis[a], basis[b]))
            if any(vec):
                brackets[(a, b)] = vec
    borel = (n - 1) + len(uppers)
    sub = [[1 if t == s else 0 for t in range(dim)] for s in range(borel)]
    return pair_doc(dim, brackets, sub), index[(0, n - 1)]


def filiform(m: int, rng: random.Random) -> dict:
    """span{d/dx, d/dy, x d/dy, ..., x^m d/dy} over span{x d/dy, ..., x^m d/dy}.

    Basis e_0 = d/dx and e_{j+1} = s_j x^j d/dy with seeded nonzero
    scalings s_j; the only brackets are [e_0, e_{j+1}] = j (s_j / s_{j-1}) e_j.
    Each filtration step drops the lowest power, so the order is exactly m.
    """
    s = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(m + 1)]
    dim = m + 2
    brackets = {}
    for j in range(1, m + 1):
        vec = [Fraction(0)] * dim
        vec[j] = j * s[j] / s[j - 1]
        brackets[(0, j + 1)] = vec
    sub = [[1 if t == j + 1 else 0 for t in range(dim)] for j in range(1, m + 1)]
    return pair_doc(dim, brackets, sub)


def g3_triple(rng: random.Random, nonzero_first: bool = True) -> list:
    """Positive rationals p/q (so argparse never reads them as flags)."""
    def value(allow_zero):
        p = rng.randint(0 if allow_zero else 1, 5)
        return f"{p}/{rng.randint(1, 4)}"
    return [value(not nonzero_first)] + [value(True), value(True)]


# --- workloads -----------------------------------------------------------------

def _chart_ops(ops, op_id, source, expect, grid=None, env=None):
    """geom report and chern-simons on one chart."""
    extra = ["--grid", str(grid)] if grid else []
    env = env or {}
    ops.append(Op(f"report:{op_id}", ["geom", "report"] + source + extra,
                  ("chart_report", expect), env))
    ops.append(Op(f"cs:{op_id}", ["chern-simons"] + source + extra,
                  ("chern_simons", expect), env))


def exact_charts(seed: int, scale: str) -> Workload:
    rng = random.Random(f"exact-charts:{seed}")
    ops, docs = [], {}
    builtins = ["abelian2", "deformed2"] if scale == "tiny" else \
        ["abelian2", "abelian3", "abelian4", "heisenberg3", "hyperbolic2", "deformed2"]
    for name in builtins:
        expect = {"chart": name, "backend": "exact", "homogeneous": CATALOG_CHARTS[name]}
        if name == "deformed2":
            expect["max_R"] = DEFORMED2_MAX_R
        _chart_ops(ops, name, ["--builtin", name], expect)
    bases = {"heisenberg3": (True, HEISENBERG3)}
    if scale != "tiny":
        bases.update(STRESS_CHARTS)
    for name, (homogeneous, doc) in bases.items():
        grid = HEAVY_GRID if name == "sl2mix4" else None
        if name != "heisenberg3":
            docs[f"{name}.json"] = dict(doc, name=name)
            _chart_ops(ops, name, ["--chart", f"{name}.json"],
                       {"chart": name, "backend": "exact", "homogeneous": homogeneous}, grid)
        rname = f"{name}-rescaled"
        docs[f"{rname}.json"] = rescaled(doc, unimodular(doc["n"], rng), rname)
        # e C has the connection of e, so R and max_R are unchanged
        _chart_ops(ops, rname, ["--chart", f"{rname}.json"],
                   {"chart": rname, "backend": "exact", "homogeneous": homogeneous,
                    "same_max_R_as": None if name == "heisenberg3" else f"report:{name}"},
                   grid)
    return Workload("exact-charts", seed, ops, docs)


def numeric_charts(seed: int, scale: str) -> Workload:
    rng = random.Random(f"numeric-charts:{seed}")
    ops, docs = [], {}
    builtins = ["affine-exp2"] if scale == "tiny" else ["su2-euler", "affine-exp2"]
    for name in builtins:
        _chart_ops(ops, name, ["--builtin", name],
                   {"chart": name, "backend": "numeric", "homogeneous": True},
                   HEAVY_GRID if name == "su2-euler" else None)
    docs["deformed2-builtin.json"] = {"builtin": "deformed2"}
    _chart_ops(ops, "deformed2-numeric", ["--chart", "deformed2-builtin.json"],
               {"chart": "deformed2", "backend": "numeric", "homogeneous": False,
                "max_R": DEFORMED2_MAX_R, "max_R_tol": 1e-6},
               env={"FLATCHECK_BACKEND": "numeric"})
    rescalings = [("affine-exp2", AFFINE_EXP2)] if scale == "tiny" else \
        [("su2-euler", SU2_EULER), ("affine-exp2", AFFINE_EXP2), ("affine-exp2", AFFINE_EXP2)]
    for t, (name, doc) in enumerate(rescalings):
        rname = f"{name}-rescaled{t}"
        docs[f"{rname}.json"] = rescaled(doc, unimodular(doc["n"], rng), rname)
        _chart_ops(ops, rname, ["--chart", f"{rname}.json"],
                   {"chart": rname, "backend": "numeric", "homogeneous": True},
                   HEAVY_GRID if name == "su2-euler" else None)
    return Workload("numeric-charts", seed, ops, docs)


def algebra(seed: int, scale: str) -> Workload:
    rng = random.Random(f"algebra:{seed}")
    ops, docs = [], {}
    shapes = [(2, 3)] if scale == "tiny" else [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
    for n, k in shapes:
        f, g = f"jet-n{n}k{k}-f.json", f"jet-n{n}k{k}-g.json"
        docs[f], docs[g] = random_jet(n, k, rng), random_jet(n, k, rng)
        ops.append(Op(f"compose:n{n}k{k}", ["jet", "compose", f, g],
                      ("jet_compose", {"outer": f, "inner": g})))
        ops.append(Op(f"invert:n{n}k{k}", ["jet", "invert", f], ("jet_invert", {"jet": f})))
    pairs = ["sl2/borel", "heis3/center"] if scale == "tiny" else list(CATALOG_PAIRS)
    for name in pairs:
        ops.append(Op(f"pair:{name}", ["liepair", "order", "--builtin", name],
                      ("liepair", {"order": CATALOG_PAIRS[name]})))
    for n in ([3] if scale == "tiny" else [3, 4, 5, 6]):
        doc, theta = sl_borel(n)
        docs[f"sl{n}-borel.json"] = doc
        borel = n * (n + 1) // 2 - 1
        # stage 1 is the highest-root line; [E_theta, E_-theta] = H_theta
        # is outside it, so stage 2 is zero
        ops.append(Op(f"pair:sl{n}-borel", ["liepair", "order", "--pair", f"sl{n}-borel.json"],
                      ("liepair", {"order": 2, "dims": [borel, 1, 0],
                                   "stage1": [1 if t == theta else 0 for t in range(len(doc["subalgebra"][0]))]})))
    for m in ([3] if scale == "tiny" else [4, 8, 12, 16]):
        docs[f"filiform{m}.json"] = filiform(m, rng)
        ops.append(Op(f"pair:filiform{m}", ["liepair", "order", "--pair", f"filiform{m}.json"],
                      ("liepair", {"order": m, "dims": list(range(m, -1, -1))})))
    trials = 2 if scale == "tiny" else 20
    for t in range(1 if scale == "tiny" else 2):
        s = rng.randrange(10 ** 6)
        ops.append(Op(f"spencer:{t}", ["spencer", "check", "--seed", str(s), "--trials", str(trials)],
                      ("spencer", {"trials": trials})))
    return Workload("algebra", seed, ops, docs)


def cli_cold(seed: int, scale: str) -> Workload:
    rng = random.Random(f"cli-cold:{seed}")
    ops, docs = [], {}
    ops.append(Op("catalog", ["catalog", "list"], ("catalog", {})))
    a, b = g3_triple(rng), g3_triple(rng)
    ops.append(Op("g3:compose", ["groupoid", "g3", "compose"] + a + b, ("g3", {"op": "compose", "a": a, "b": b})))
    if scale != "tiny":
        ops.append(Op("g3:invert", ["groupoid", "g3", "invert"] + a, ("g3", {"op": "invert", "a": a})))
        ops.append(Op("g3:split", ["groupoid", "g3", "split"] + b[:2], ("g3", {"op": "split", "a": b[:2]})))
        ops.append(Op("g3:schwarzian", ["groupoid", "g3", "schwarzian"] + b,
                      ("g3", {"op": "schwarzian", "a": b})))
        docs["jet-f.json"], docs["jet-g.json"] = random_jet(2, 3, rng), random_jet(2, 3, rng)
        ops.append(Op("compose:n2k3", ["jet", "compose", "jet-f.json", "jet-g.json"],
                      ("jet_compose", {"outer": "jet-f.json", "inner": "jet-g.json"})))
        ops.append(Op("invert:n2k3", ["jet", "invert", "jet-f.json"], ("jet_invert", {"jet": "jet-f.json"})))
        docs["filiform3.json"] = filiform(3, rng)
        ops.append(Op("pair:filiform3", ["liepair", "order", "--pair", "filiform3.json"],
                      ("liepair", {"order": 3, "dims": [3, 2, 1, 0]})))
        for name in ("heisenberg3", "deformed2"):
            expect = {"chart": name, "backend": "exact", "homogeneous": CATALOG_CHARTS[name]}
            if name == "deformed2":
                expect["max_R"] = DEFORMED2_MAX_R
            _chart_ops(ops, name, ["--builtin", name], expect)
        s = rng.randrange(10 ** 6)
        ops.append(Op("spencer", ["spencer", "check", "--seed", str(s), "--trials", "2"],
                      ("spencer", {"trials": 2})))
    # malformed documents: each must be refused with exit 1 and one line
    docs["pole.json"] = POLE_CHART
    ops.append(Op("bad:pole-chart", ["geom", "report", "--chart", "pole.json"],
                  ("refused", {}), expect_rc=1, out=False))
    if scale != "tiny":
        bad_jet = random_jet(2, 3, rng)
        bad_jet["components"][0][0]["num"] = "abc"
        docs["bad-jet.json"] = bad_jet
        ops.append(Op("bad:jet-num", ["jet", "invert", "bad-jet.json"], ("refused", {}),
                      expect_rc=1, out=False))
        bad_pair = filiform(3, rng)
        del bad_pair["brackets"][0]["coeffs"]
        docs["bad-pair.json"] = bad_pair
        ops.append(Op("bad:pair-coeffs", ["liepair", "order", "--pair", "bad-pair.json"],
                      ("refused", {}), expect_rc=1, out=False))
    return Workload("cli-cold", seed, ops, docs)


BUILDERS = {"exact-charts": exact_charts, "numeric-charts": numeric_charts,
            "algebra": algebra, "cli-cold": cli_cold}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if scale not in ("full", "tiny"):
        raise ValueError(f"unknown scale {scale!r}")
    return BUILDERS[name](seed, scale)
