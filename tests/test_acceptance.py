"""Acceptance criteria, one test per criterion, with per-criterion
PASS/FAIL lines on stdout (run with ``pytest -s`` to see them live).

Every tolerance is pinned here; nothing is deferred to calibration.
Criterion 8 checks the orders of the catalog's Lie pairs.  The
single-subdiagonal parabolic pairs p-subdiag(n)/b(n) are ineffective for
n = 3, 4: the radical of the parabolic algebra (the Levi center plus the
nilradical) is an ideal inside b(n).  A witness oracle rebuilds that
radical from explicit matrices with its own exact elimination and checks
that the catalog's brackets and the ineffectivity witness agree with it.
The growing-order case is the filiform pair span{d/dx, d/dy, x d/dy, ...,
x^n d/dy} over its isotropy at 0, whose filtration has order n.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from flatcheck.arrows import (
    G3Jet,
    g3_compose,
    mobius_split,
    schwarzian_defect,
)
from flatcheck.catalog import CHART_NAMES, get_chart, get_lie_pair
from flatcheck.forms import (
    curvature_tilde_form,
    de_rham,
    form_residual,
    identity_report,
    trace_form,
    trace_powers,
)
from flatcheck.frames import curvature_components, gamma_from_frame
from flatcheck.jetcore import compose_truncated
from flatcheck.liepair import (
    LieAlgebra,
    Representation,
    Subalgebra,
    effective_check,
    filtration_of,
    order_of,
    semidirect_from_rep,
)
from flatcheck.spencer_suite import run_spencer_suite

EXACT_CHARTS = ("abelian2", "deformed2", "heisenberg3", "hyperbolic2")
NUMERIC_CHARTS = ("affine-exp2", "su2-euler")


def report_line(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {label}{suffix}")
    return passed


def random_g3(rng):
    return G3Jet(Fraction(rng.randint(1, 9)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                 Fraction(rng.randint(-8, 8), rng.randint(1, 4)))


def test_criterion_01_group_law_matches_generic_composer():
    start = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        a, b = random_g3(rng), random_g3(rng)
        via_group = g3_compose(a, b)
        via_maps = G3Jet.from_map(compose_truncated(a.to_map(), b.to_map()))
        ok = ok and via_group == via_maps
    elapsed = time.perf_counter() - start
    assert report_line(1, "closed-form order-3 law vs generic composer, 200 pairs",
                       ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_splitting_homomorphism_and_schwarzian():
    rng = random.Random(102)
    ok = True
    for _ in range(200):
        a1, a2 = Fraction(rng.randint(1, 9)), Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        b1, b2 = Fraction(rng.randint(1, 9)), Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        prod = (a1 * b1, a1 * b2 + a2 * b1 ** 2)
        ok = ok and mobius_split(*prod) == g3_compose(mobius_split(a1, a2), mobius_split(b1, b2))
    # 20 fractional-linear 3-jets: zero defect exactly
    done = 0
    while done < 20:
        a = Fraction(rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5))
        c = Fraction(rng.randint(-5, 5))
        d = (1 + b * c) / a
        z0 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        w = c * z0 + d
        if w == 0:
            continue
        jet = G3Jet(1 / w ** 2, -2 * c / w ** 3, 6 * c ** 2 / w ** 4)
        ok = ok and schwarzian_defect(jet) == 0
        done += 1
    # 20 jets with nonzero classical derivative: defect equals the formula
    done = 0
    while done < 20:
        a = random_g3(rng)
        classical = a.a3 / a.a1 - Fraction(3, 2) * (a.a2 / a.a1) ** 2
        if classical == 0:
            continue
        ok = ok and schwarzian_defect(a) == classical
        done += 1
    assert report_line(2, "splitting homomorphism + Schwarzian normalization", ok)


def test_criterion_03_flat_curvature_vanishes():
    start = time.perf_counter()
    ok = True
    for name in EXACT_CHARTS:
        rt = curvature_tilde_form(gamma_from_frame(get_chart(name)))
        ok = ok and rt.is_exactly_zero()
    worst = 0.0
    for name in NUMERIC_CHARTS:
        chart = get_chart(name)
        rt = curvature_tilde_form(gamma_from_frame(chart))
        worst = max(worst, form_residual(rt, chart.grid(5)))
    ok = ok and worst < 1e-7
    elapsed = time.perf_counter() - start
    assert report_line(3, "flat curvature: literal zero exact, < 1e-7 numeric",
                       ok and elapsed < 5.0, f"max numeric {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_identity_suite_single_sign():
    start = time.perf_counter()
    signs = set()
    ok = True
    for name in EXACT_CHARTS:
        rep = identity_report(get_chart(name))
        signs.add(rep["sign"])
        ok = ok and all(v == 0.0 for v in rep["residuals"].values())
    for name in NUMERIC_CHARTS:
        rep = identity_report(get_chart(name))
        signs.add(rep["sign"])
        ok = ok and all(v < 1e-4 for v in rep["residuals"].values())
    ok = ok and len(signs) == 1
    elapsed = time.perf_counter() - start
    assert report_line(4, "structure/curvature-differential/Bianchi/transgression/"
                          "torsion-derivative close with one sign",
                       ok and elapsed < 30.0,
                       f"sign {signs}, {elapsed:.2f}s")


def test_criterion_05_homogeneity_verdicts():
    ok = True
    for name in ("heisenberg3", "hyperbolic2", "abelian2"):
        conn = gamma_from_frame(get_chart(name))
        ok = ok and all(v.is_zero() for v in curvature_components(conn).values())
    chart = get_chart("affine-exp2")
    conn = gamma_from_frame(chart)
    worst = max(abs(v.eval_float(p)) for v in curvature_components(conn).values()
                for p in chart.grid(5))
    ok = ok and worst < 1e-6
    chart = get_chart("deformed2")
    rep = identity_report(chart)
    ok = ok and rep["max_R"] >= 1.0 and rep["locally_homogeneous"] is False
    witness = curvature_components(gamma_from_frame(chart))[(1, 0, 1, 0)]
    for y in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1):
        ok = ok and abs(abs(witness.eval((0, y))) - 2) <= Fraction(1, 10 ** 6)
    assert report_line(5, "homogeneity verdicts incl. witness |R(0,.)| = 2", ok)


def test_criterion_06_even_torsion_traces_vanish():
    ok = True
    for name in EXACT_CHARTS + ("abelian4",):
        chart = get_chart(name)
        powers = trace_powers(chart, max_i=2 if chart.n >= 2 else 1)
        ok = ok and powers["T"][1].is_exactly_zero()  # i = 1: Tr(T^T)
        if chart.n >= 4:
            four = trace_powers(chart, max_i=4)
            ok = ok and four["T"][3].is_exactly_zero()  # i = 2: Tr(T^4)
    for name in NUMERIC_CHARTS:
        chart = get_chart(name)
        powers = trace_powers(chart, max_i=2)
        ok = ok and form_residual(powers["T"][1], chart.grid(3)) < 1e-8
    assert report_line(6, "even torsion-power traces vanish", ok)


def test_criterion_07_secondary_class_closedness():
    from flatcheck.forms import secondary_class_check
    form, closed = secondary_class_check(get_chart("heisenberg3"), 1)
    ok = closed is True
    d = de_rham(form)
    ok = ok and d.is_exactly_zero()
    chart = get_chart("su2-euler")
    form, closed = secondary_class_check(chart, 1)
    ok = ok and closed is True
    ok = ok and form_residual(de_rham(form), chart.grid(3)) < 1e-4
    assert report_line(7, "odd torsion trace closed on homogeneous charts", ok)


# --- criterion 8 witness oracle: exact matrix algebra, independent of liepair ---

def _rref(rows):
    """Nonzero rows of the reduced row echelon form (exact Fractions)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return mat[:r]


def _rank(rows):
    return len(_rref(rows))


def _same_span(a, b):
    return _rank(a) == _rank(b) == _rank(list(a) + list(b))


def _unit_matrix(n, a, b):
    m = [[Fraction(0)] * n for _ in range(n)]
    m[a][b] = Fraction(1)
    return m


def _flat(m):
    return [x for row in m for x in row]


def _commutator(a, b):
    size = len(a)
    return [[sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(size))
             for j in range(size)] for i in range(size)]


def _p_subdiag_matrices(n):
    """The documented basis of p-subdiag(n): H_i = E_ii - E_{i+1,i+1},
    then E_ab for a < b row by row, then E_21 (0-based entry (1, 0))."""
    basis = []
    for i in range(n - 1):
        m = _unit_matrix(n, i, i)
        m[i + 1][i + 1] = Fraction(-1)
        basis.append(m)
    basis += [_unit_matrix(n, a, b) for a in range(n) for b in range(a + 1, n)]
    basis.append(_unit_matrix(n, 1, 0))
    return basis


def _parabolic_radical(n):
    """Radical of p-subdiag(n) for n >= 3: the Levi center (traceless
    diagonals with d_1 = d_2) plus the nilradical (E_ab, a < b, b >= 3)."""
    center = []
    for k in range(2, n):
        m = _unit_matrix(n, 0, 0)
        m[1][1] = Fraction(1)
        m[k][k] = Fraction(-2)
        center.append(m)
    nil = [_unit_matrix(n, a, b) for b in range(2, n) for a in range(b)]
    return center + nil


def _radical_witness_problems(name, n, radical_dim):
    """Checks that ``name`` is ineffective with the parabolic radical as
    the largest ideal inside b(n); returns the failures, empty if none.

    p/r is sl2, which is simple, so an ideal of p not inside r would
    contain E_21 mod r; E_21 is not in b(n), hence r is the largest ideal
    of p inside b(n) and effective_check's witness must span exactly r.
    """
    g, h = get_lie_pair(name)
    basis = _p_subdiag_matrices(n)
    flat = [_flat(m) for m in basis]
    if g.dim != len(basis) or _rank(flat) != len(basis):
        return [f"{name}: dimension {g.dim}, documented basis has {len(basis)}"]

    def matrix_of(coeffs):
        return [sum(c * f[k] for c, f in zip(coeffs, flat)) for k in range(n * n)]

    problems = []
    units = [[Fraction(int(k == i)) for k in range(g.dim)] for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if matrix_of(g.bracket(units[i], units[j])) != _flat(_commutator(basis[i], basis[j])):
                problems.append(f"{name}: bracket ({i}, {j}) differs from the matrix commutator")
    borel = [matrix_of(v) for v in h.basis]
    lower = [r * n + c for r in range(n) for c in range(r)]
    if _rank(borel) != n * (n + 1) // 2 - 1 or any(m[k] for m in borel for k in lower):
        problems.append(f"{name}: the subalgebra is not b({n})")
    radical = _parabolic_radical(n)
    rflat = [_flat(m) for m in radical]
    if _rank(rflat) != radical_dim:
        problems.append(f"{name}: radical has rank {_rank(rflat)}, expected {radical_dim}")
    if any(_rank(rflat + [_flat(_commutator(x, y))]) != _rank(rflat)
           for x in radical for y in basis):
        problems.append(f"{name}: the radical is not an ideal")
    if _rank(borel + rflat) != _rank(borel):
        problems.append(f"{name}: the radical does not lie inside b({n})")
    effective, witness = effective_check(g, h)
    if effective:
        problems.append(f"{name}: effective_check returned no witness")
    elif not _same_span([matrix_of(w) for w in witness], rflat):
        problems.append(f"{name}: the witness does not span the parabolic radical")
    return problems


def _filiform_pair(n):
    """g = span{d/dx, d/dy, x d/dy, ..., x^n d/dy} with [d/dx, x^j d/dy] =
    j x^(j-1) d/dy, and h = span{x d/dy, ..., x^n d/dy}."""
    g = LieAlgebra(n + 2, {(0, j + 1): [j if k == j else 0 for k in range(n + 2)]
                           for j in range(1, n + 1)})
    h = Subalgebra(g, [[int(k == j + 1) for k in range(n + 2)] for j in range(1, n + 1)])
    return g, h


def test_criterion_08_lie_pair_orders():
    start = time.perf_counter()
    expected = {
        "so3/so2": 1,
        "e2/so2": 1,
        "so21/so2": 1,
        "sl2/borel": 2,
        "p-subdiag2/b2": 2,
        "p-subdiag3/b3": "ineffective",
        "p-subdiag4/b4": "ineffective",
    }
    got = {}
    for name in expected:
        g, h = get_lie_pair(name)
        got[name] = order_of(g, h)
    # the rotation action on the plane: order of the extended pair is 1
    h = LieAlgebra(1)
    rho = Representation(h, [[[0, -1], [1, 0]]])
    g, hemb = semidirect_from_rep(h, rho)
    got["semidirect so2 on R^2"] = order_of(g, hemb)
    expected["semidirect so2 on R^2"] = 1
    # the filiform pair loses one degree per step: order n, dims n, ..., 0
    for n in (3, 4):
        g, h = _filiform_pair(n)
        got[f"filiform{n}"] = (order_of(g, h), [s.dim for s in filtration_of(g, h)])
        expected[f"filiform{n}"] = (n, list(range(n, -1, -1)))
    witness_problems = (_radical_witness_problems("p-subdiag3/b3", 3, 3)
                        + _radical_witness_problems("p-subdiag4/b4", 4, 7))
    elapsed = time.perf_counter() - start

    failures = {k: (expected[k], got[k]) for k in expected if expected[k] != got[k]}
    passed = not failures and not witness_problems
    report_line(8, "catalog pair orders, parabolic radical witness, filiform order n", passed,
                f"{elapsed:.2f}s" + (f"; mismatches {failures}" if failures else "")
                + (f"; {'; '.join(witness_problems)}" if witness_problems else ""))
    assert passed, (
        f"pair orders (expected, got) that differ: {failures}; "
        f"parabolic radical witness problems: {witness_problems}")


def test_criterion_09_order_drop_along_filtration():
    from flatcheck.catalog import PAIR_NAMES
    ok = True
    for name in PAIR_NAMES:
        g, h = get_lie_pair(name)
        k = order_of(g, h)
        if k == "ineffective":
            continue
        chain = filtration_of(g, h)
        for i, stage in enumerate(chain):
            ok = ok and order_of(g, stage) == k - i
    assert report_line(9, "order drops by one along the filtration", ok)


def test_criterion_10_spencer_suite():
    start = time.perf_counter()
    summary = run_spencer_suite(seed=110, trials=50)
    elapsed = time.perf_counter() - start
    ok = summary["all_passed"] and elapsed < 10.0
    assert report_line(10, "Spencer operator property suite (50 trials each)",
                       ok, f"{elapsed:.2f}s")


def test_criterion_11_trace_intertwining():
    from test_forms import random_hom_form
    from flatcheck.forms import d_tilde
    rng = random.Random(111)
    chart = get_chart("deformed2")
    conn = gamma_from_frame(chart)
    ok = True
    for degree in (0, 1, 2):
        for _ in range(50):
            w = random_hom_form(2, degree, rng)
            lhs = de_rham(trace_form(w))
            rhs = trace_form(d_tilde(conn, w))
            ok = ok and (lhs - rhs).is_exactly_zero()
    # degree 3 needs more room: use the generic 4-dim chart
    from conftest import make_unipotent4
    conn4 = gamma_from_frame(make_unipotent4())
    for _ in range(50):
        w = random_hom_form(4, 3, rng)
        lhs = de_rham(trace_form(w))
        rhs = trace_form(d_tilde(conn4, w))
        ok = ok and (lhs - rhs).is_exactly_zero()
    assert report_line(11, "trace intertwines the covariant and de Rham differentials", ok)


def test_criterion_12_byte_deterministic_reports():
    from test_cli import run_cli

    def suite():
        chunks = []
        for name in CHART_NAMES:
            code, out = run_cli(["geom", "report", "--builtin", name, "--seed", "42"])
            chunks.append(out)
        code, out = run_cli(["catalog", "list"])
        chunks.append(out)
        return "".join(chunks)

    first = suite()
    second = suite()
    ok = first == second and len(first) > 0
    assert report_line(12, "CLI report suite is byte-deterministic", ok)
