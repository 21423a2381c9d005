"""Known-answer checks for op outputs, written without flatcheck.

``check_op`` returns a list of problems with an op's answer (empty when
the answer is right).  Each oracle recomputes or knows the answer from
the mathematics alone:

* chart reports: catalog verdicts, literal-zero residuals on the exact
  backend, max_R = 2 for deformed2, and a constant rescaling e(x) C with
  the connection, hence the verdict and max_R, of e(x);
* jets: an independent truncated composer; invert(f) o f must be the
  identity jet;
* Lie pairs: the catalog orders, order 2 with the highest-root line as
  stage 1 for sl(n)/Borel, order m for the filiform pair of degree m;
* the g3 calculator: the chain rule, the inverse formulas, the Mobius
  lift and the Schwarzian a3/a1 - (3/2)(a2/a1)^2;
* spencer check: every property passes on every trial.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import CATALOG_CHARTS, CATALOG_PAIRS, monomials

RESIDUAL_KEYS = ("rtilde", "structure", "dtildeR", "bianchi", "chern_simons", "nabla_torsion")
FIRST_ORDER = ("rtilde", "structure", "nabla_torsion")
TOL, TOL2 = 1e-6, 1e-4  # the CLI defaults the ops run with


def _literal_zero(v) -> bool:
    return type(v) is float and v == 0.0


def _verdict_problems(doc: dict, expect: dict) -> list:
    problems = []
    for key, want in (("chart", expect["chart"]), ("backend", expect["backend"]),
                      ("locally_homogeneous", expect["homogeneous"])):
        if doc.get(key) != want:
            problems.append(f"{key} is {doc.get(key)!r}, expected {want!r}")
    return problems


def check_chart_report(doc: dict, expect: dict, peers: dict) -> list:
    problems = _verdict_problems(doc, expect)
    residuals = doc.get("residuals", {})
    if set(residuals) != set(RESIDUAL_KEYS):
        return problems + [f"residual keys {sorted(residuals)}"]
    exact = expect["backend"] == "exact"
    for key in RESIDUAL_KEYS:
        value = residuals[key]
        if exact and not _literal_zero(value):
            problems.append(f"exact residual {key} = {value!r}, not literally 0.0")
        elif not exact and not value <= (TOL if key in FIRST_ORDER else TOL2):
            problems.append(f"numeric residual {key} = {value!r} over tolerance")
    max_r = doc.get("max_R")
    if not isinstance(max_r, float):
        return problems + [f"max_R is {max_r!r}"]
    if expect["homogeneous"]:
        if (exact and not _literal_zero(max_r)) or max_r > TOL:
            problems.append(f"homogeneous chart has max_R = {max_r!r}")
    elif not max_r > TOL:
        problems.append(f"curved chart has max_R = {max_r!r}")
    if "max_R" in expect and abs(max_r - expect["max_R"]) > expect.get("max_R_tol", 0.0):
        problems.append(f"max_R = {max_r!r}, expected {expect['max_R']!r}")
    base = expect.get("same_max_R_as")
    if base is not None and base in peers and peers[base].get("max_R") != max_r:
        problems.append(f"max_R = {max_r!r} differs from the unscaled chart's "
                        f"{peers[base].get('max_R')!r}")
    return problems


def check_chern_simons(doc: dict, expect: dict, peers: dict) -> list:
    problems = _verdict_problems(doc, expect)
    value = doc.get("chern_simons_residual")
    if expect["backend"] == "exact":
        if not _literal_zero(value):
            problems.append(f"exact chern_simons_residual = {value!r}, not literally 0.0")
    elif not (isinstance(value, float) and value <= TOL2):
        problems.append(f"numeric chern_simons_residual = {value!r} over tolerance")
    if doc.get("secondary_class_degree") != 3:
        problems.append(f"secondary_class_degree = {doc.get('secondary_class_degree')!r}")
    closed = doc.get("secondary_class_closed")
    # Tr(T^3) is a class, and closed, exactly when the curvature vanishes
    want = True if expect["homogeneous"] else None
    if closed is not want:
        problems.append(f"secondary_class_closed = {closed!r}, expected {want!r}")
    return problems


# --- jets ------------------------------------------------------------------------

def jet_from_doc(doc: dict) -> tuple:
    """(n, k, [ {multi-index: coefficient} per component ])."""
    n, k = int(doc["n"]), int(doc["k"])
    comps = []
    for entries in doc["components"]:
        comp = {}
        for e in entries:
            num, den = int(e["num"]), int(e["den"])
            value = num if den == 1 else Fraction(num, den)
            if value:
                comp[tuple(int(x) for x in e["multiindex"])] = value
        comps.append(comp)
    if len(comps) != n:
        raise ValueError(f"{len(comps)} components for n={n}")
    return n, k, comps


def _mul(a: dict, b: dict, k: int) -> dict:
    out = {}
    for ma, ca in a.items():
        da = sum(ma)
        for mb, cb in b.items():
            if da + sum(mb) > k:
                continue
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def compose(outer: tuple, inner: tuple) -> list:
    """Order-k truncation of outer o inner, outer expanded about inner(0)."""
    n, k, out_comps = outer
    _, _, in_comps = inner
    zero = (0,) * n
    disp = [{m: c for m, c in comp.items() if m != zero} for comp in in_comps]
    powers = {zero: {zero: 1}}  # multi-index alpha -> prod_j disp_j^alpha_j
    for alpha in monomials(n, k)[1:]:
        j = next(i for i, e in enumerate(alpha) if e)
        prev = tuple(e - (i == j) for i, e in enumerate(alpha))
        powers[alpha] = _mul(powers[prev], disp[j], k)
    result = []
    for comp in out_comps:
        acc = {}
        for alpha, c in comp.items():
            for m, v in powers[alpha].items():
                acc[m] = acc.get(m, 0) + c * v
        result.append({m: v for m, v in acc.items() if v})
    return result


def check_jet_compose(doc: dict, outer_doc: dict, inner_doc: dict) -> list:
    outer, inner = jet_from_doc(outer_doc), jet_from_doc(inner_doc)
    got = jet_from_doc(doc)
    if got[:2] != outer[:2]:
        return [f"(n, k) = {got[:2]}, expected {outer[:2]}"]
    want = compose(outer, inner)
    bad = [i for i in range(outer[0]) if got[2][i] != want[i]]
    return [f"component {i} differs from the independent composition" for i in bad]


def check_jet_invert(doc: dict, f_doc: dict) -> list:
    f, inv = jet_from_doc(f_doc), jet_from_doc(doc)
    n, k = f[:2]
    if inv[:2] != (n, k):
        return [f"(n, k) = {inv[:2]}, expected {(n, k)}"]
    ident = [{tuple(int(i == j) for i in range(n)): 1} for j in range(n)]
    if compose(inv, f) != ident:
        return ["invert(f) o f is not the identity jet"]
    return []


# --- Lie pairs, g3, spencer, catalog ---------------------------------------------

def check_liepair(doc: dict, expect: dict) -> list:
    problems = []
    if doc.get("order") != expect["order"]:
        problems.append(f"order {doc.get('order')!r}, expected {expect['order']!r}")
    if doc.get("effective") != (expect["order"] != "ineffective"):
        problems.append(f"effective = {doc.get('effective')!r}")
    if "dims" in expect and doc.get("filtration_dims") != expect["dims"]:
        problems.append(f"filtration_dims {doc.get('filtration_dims')!r}, expected {expect['dims']!r}")
    if "stage1" in expect:
        bases = doc.get("filtration_bases") or [[], []]
        want = [[f"{x}/1" for x in expect["stage1"]]]
        if len(bases) < 2 or bases[1] != want:
            problems.append("stage 1 is not the highest-root line")
    return problems


def g3_expected(op: str, a: list, b: list | None = None):
    a = [Fraction(x) for x in a]
    if op == "compose":
        b = [Fraction(x) for x in b]
        return [a[0] * b[0], a[0] * b[1] + a[1] * b[0] ** 2,
                a[0] * b[2] + 3 * a[1] * b[0] * b[1] + a[2] * b[0] ** 3]
    if op == "invert":
        return [1 / a[0], -a[1] / a[0] ** 3, (3 * a[1] ** 2 - a[0] * a[2]) / a[0] ** 5]
    if op == "split":
        return [a[0], a[1], Fraction(3, 2) * a[1] ** 2 / a[0]]
    return a[2] / a[0] - Fraction(3, 2) * (a[1] / a[0]) ** 2


def check_g3(doc: dict, expect: dict) -> list:
    want = g3_expected(expect["op"], expect["a"], expect.get("b"))
    fmt = (lambda x: f"{x.numerator}/{x.denominator}")
    want = [fmt(x) for x in want] if isinstance(want, list) else fmt(want)
    if doc.get("op") != expect["op"] or doc.get("result") != want:
        return [f"g3 {expect['op']} gave {doc.get('result')!r}, expected {want!r}"]
    return []


SPENCER_PROPERTIES = ("annihilates_prolongations", "lift_independence",
                      "prolongation_homomorphism", "kernel_jacobi")


def check_spencer(doc: dict, expect: dict) -> list:
    problems = [] if doc.get("all_passed") is True else ["all_passed is not true"]
    for prop in SPENCER_PROPERTIES:
        got = doc.get(prop, {})
        if got.get("passed") != expect["trials"] or got.get("trials") != expect["trials"]:
            problems.append(f"{prop}: {got!r}")
    return problems


def check_catalog(doc: dict) -> list:
    entries = doc.get("entries", [])
    names = [e.get("name") for e in entries]
    want = list(CATALOG_CHARTS) + list(CATALOG_PAIRS)
    if names != want:
        return [f"catalog names {names!r}"]
    problems = []
    for e in entries:
        facts = e.get("expected", {})
        if e["kind"] == "chart":
            key, value = "locally_homogeneous", str(CATALOG_CHARTS[e["name"]])
        else:
            key, value = "order", str(CATALOG_PAIRS[e["name"]])
        if facts.get(key, {}).get("value") != value:
            problems.append(f"{e['name']}: {key} {facts.get(key)!r}, expected {value!r}")
    return problems


# --- dispatch ----------------------------------------------------------------------

def check_op(op, rc: int, out_text: str | None, docs: dict, peers: dict) -> list:
    """Problems with the answer of one op (exit code and report).

    ``docs`` are the workload's input documents; ``peers`` maps op ids to
    the parsed reports of other ops of the same pass.
    """
    if rc != op.expect_rc:
        return [f"exit code {rc}, expected {op.expect_rc}"]
    kind, params = op.check
    if kind == "refused":
        return []
    try:
        doc = json.loads(out_text or "")
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    try:
        if kind == "chart_report":
            return check_chart_report(doc, params, peers)
        if kind == "chern_simons":
            return check_chern_simons(doc, params, peers)
        if kind == "jet_compose":
            return check_jet_compose(doc, docs[params["outer"]], docs[params["inner"]])
        if kind == "jet_invert":
            return check_jet_invert(doc, docs[params["jet"]])
        if kind == "liepair":
            return check_liepair(doc, params)
        if kind == "g3":
            return check_g3(doc, params)
        if kind == "spencer":
            return check_spencer(doc, params)
        if kind == "catalog":
            return check_catalog(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"report has an unexpected shape: {exc!r}"]
    raise ValueError(f"unknown oracle {kind!r}")


def message_problems(rc: int, stderr: str) -> list:
    """An op refused with exit 1 must say why in one line, not a traceback."""
    if rc != 1:
        return []
    lines = [line for line in stderr.splitlines() if line.strip()]
    if "Traceback" in stderr:
        return [f"traceback on stderr ({len(lines)} lines): {lines[-1] if lines else ''}"]
    if len(lines) != 1:
        return [f"{len(lines)} lines on stderr, expected one"]
    return []
