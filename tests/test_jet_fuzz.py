"""Fuzzed jet, pair and chart documents through the command line.

``jet compose``, ``jet invert``, ``liepair order --pair``, and ``geom
report`` and ``chern-simons`` on ``--chart`` files run in process on
documents that hypothesis builds: well-formed documents of small shape,
the same with one value swapped for another JSON value or removed, and raw
bytes.  Whatever the document, the command exits 0 with the result, or 1
with one line on stderr (a chart command may also exit 3, a failed
residual); it never raises.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatcheck.catalog import PAIR_NAMES, get_lie_pair
from flatcheck.cli import main
from flatcheck.jetcore import map_from_json
from flatcheck.liepair import pair_to_json

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# JSON values that are wrong almost anywhere in a jet document
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**30, 10**30), st.text(max_size=6),
    st.sampled_from(["", " 2 ", "1.5", "1e3", "-0", "0x10", "9" * 5000]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def sites(value):
    """Every (container, key) of a JSON value, the value itself excluded."""
    out = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (dict, list)):
            out.extend(sites(child))
    return out


def mutated(draw, doc):
    """``doc``, half the time with one value in it replaced by junk, or removed."""
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(sites(doc)))
        if draw(st.booleans()):
            container[key] = draw(JUNK)
        else:
            del container[key]
    return doc


@st.composite
def jet_document(draw, n=None, k=None):
    """A jet document of order k <= 4 in n <= 3 variables, with up to five
    terms a component.  Half the time its linear part is made diagonally
    dominant, so that it inverts, and half the time one value in it is
    replaced by junk, or removed."""
    n = draw(st.integers(1, 3)) if n is None else n
    k = draw(st.integers(0, 4)) if k is None else k
    monos = [m for m in product(range(k + 1), repeat=n) if sum(m) <= k]
    dominant = k > 0 and draw(st.booleans())
    components = []
    for i in range(n):
        terms = draw(st.dictionaries(st.sampled_from(monos),
                                     st.tuples(st.integers(-3, 3), st.integers(1, 4)), max_size=5))
        if dominant:
            terms[tuple(int(t == i) for t in range(n))] = (7, 1)
        components.append([{"multiindex": list(m), "num": str(a), "den": str(b)}
                           for m, (a, b) in terms.items()])
    return mutated(draw, {"n": n, "k": k, "components": components})


# the catalog pairs of dimension at most 4, as pair documents
SMALL_PAIRS = [pair_to_json(*pair) for pair in map(get_lie_pair, PAIR_NAMES)
               if pair[0].dim <= 4]
COEFF = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-3/4", "0/1", "2"]))


@st.composite
def pair_document(draw):
    """A pair document of dimension at most 4: a catalog pair, or random
    brackets and subalgebra rows (which mostly fail the Jacobi identity
    or closure), half the time mutated."""
    if draw(st.booleans()):
        doc = json.loads(json.dumps(draw(st.sampled_from(SMALL_PAIRS))))
    else:
        dim = draw(st.integers(0, 4))
        keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        brackets = [{"i": i, "j": j, "coeffs": draw(st.lists(COEFF, min_size=dim, max_size=dim))}
                    for i, j in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
                    ] if keys else []
        rows = draw(st.lists(st.lists(COEFF, min_size=dim, max_size=dim), max_size=dim))
        doc = {"dim": dim, "brackets": brackets, "subalgebra": rows}
    return mutated(draw, doc)


# entries of a 2x2 frame on [-1, 1] x [1, 2]: exact, transcendental, and
# singular or with a pole somewhere on the domain (at x1 = 0, which a grid
# of 3 points per axis reaches)
ENTRY = st.sampled_from(["0", "1", "2", "0.5", "x1", "x2", "1 + x1^2", "x1/x2", "1/x1",
                         "exp(x1)", "sin(x2)", "x2^-2", "1/(1/x1)", "(1/x1)^0",
                         "0*(1/x1)", "sin(1/x1)"])


@st.composite
def chart_document(draw):
    """A 2x2 chart document, half the time the valid frame
    [[1, 0], [x1, x2]] and half the time a random one, half the time mutated."""
    if draw(st.booleans()):
        frame = [["1", "0"], ["x1", "x2"]]
    else:
        frame = [[draw(ENTRY), draw(ENTRY)], [draw(ENTRY), draw(ENTRY)]]
    return mutated(draw, {"name": "fuzz", "n": 2, "domain": [[-1, 1], [1, 2]], "frame": frame})


@st.composite
def jet_pair(draw):
    """Two documents, of one shape unless the draw says otherwise."""
    if draw(st.booleans()):
        n, k = draw(st.integers(1, 3)), draw(st.integers(0, 4))
        return draw(jet_document(n, k)), draw(jet_document(n, k))
    return draw(jet_document()), draw(jet_document())


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    return tmp_path_factory.mktemp("jet-fuzz")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(result, read=map_from_json, codes=(0, 1)):
    """Exit in ``codes``; on exit 0 a report that ``read`` reads and nothing
    on stderr; on exit 1 nothing on stdout and one error line on stderr."""
    code, out, err = result
    assert code in codes, (code, err)
    if code == 0:
        assert err == ""
        read(json.loads(out))
    elif code == 1:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def read_order(doc):
    assert doc["order"] == "ineffective" or doc["order"] >= 0


def read_verdict(doc):
    assert doc["locally_homogeneous"] in (True, False)


CHART_COMMANDS = (["geom", "report", "--grid", "2", "--chart"],
                  ["chern-simons", "--grid", "2", "--chart"])
# on the numeric backend, on a grid that meets the poles of ENTRY
NUMERIC_COMMAND = ["geom", "report", "--grid", "3", "--chart"]


def write(path, doc):
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(jet_pair())
def test_fuzzed_jet_compose_exits_zero_or_one(docs, pair):
    outer, inner = write(docs / "outer.json", pair[0]), write(docs / "inner.json", pair[1])
    check(run(["jet", "compose", outer, inner]))


@FUZZ
@given(jet_document())
def test_fuzzed_jet_invert_exits_zero_or_one(docs, doc):
    check(run(["jet", "invert", write(docs / "jet.json", doc)]))


@FUZZ
@given(pair_document())
def test_fuzzed_liepair_order_exits_zero_or_one(docs, doc):
    check(run(["liepair", "order", "--pair", write(docs / "pair.json", doc)]), read_order)


@settings(FUZZ, max_examples=60)
@given(chart_document())
def test_fuzzed_chart_commands_exit_zero_one_or_three(docs, doc):
    path = write(docs / "chart.json", doc)
    for command in CHART_COMMANDS:
        check(run([*command, path]), read_verdict, codes=(0, 1, 3))
    with pytest.MonkeyPatch.context() as env:
        env.setenv("FLATCHECK_BACKEND", "numeric")
        check(run([*NUMERIC_COMMAND, path]), read_verdict, codes=(0, 1, 3))


@FUZZ
@given(st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"\xff\xfe", b"[" * 100_000, b'{"n": ' + b"1" * 5000 + b"}", b"", b"null"])))
def test_fuzzed_bytes_exit_one(docs, raw):
    path = write(docs / "raw.json", raw)
    for argv in (["jet", "invert", path], ["jet", "compose", path, path]):
        check(run(argv))
    check(run(["liepair", "order", "--pair", path]), read_order)
    for command in CHART_COMMANDS:
        check(run([*command, path]), read_verdict, codes=(0, 1, 3))


def test_a_result_too_long_to_write_exits_one(docs):
    # x -> c x + x^12 with a 500-digit c: c^12 has about 6000 digits
    doc = {"n": 1, "k": 12, "components": [[
        {"multiindex": [1], "num": "7" * 500, "den": "1"},
        {"multiindex": [12], "num": "1", "den": "1"}]]}
    path = write(docs / "long.json", doc)
    for argv in (["jet", "invert", path], ["jet", "compose", path, path]):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: a coefficient of the jet has more than")
        assert err.count("\n") == 1
