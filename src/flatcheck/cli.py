"""Command-line front end.

Subcommands:

  geom report      residual report for a chart (builtin or JSON file)
  jet compose      compose two jet documents
  jet invert       invert a jet document
  groupoid g3      order-3 one-variable jet calculator (compose, invert,
                   split, schwarzian)
  spencer check    run the Spencer-operator property suite
  liepair order    filtration table and order of a Lie pair
  catalog list     built-in charts and pairs with expected facts
  chern-simons     transgression residual and secondary-class closedness

Exit codes: 1 = bad input, for every command: a malformed argument or
document, a file that cannot be read or a report that cannot be written,
said in one ``error: ...`` line on stderr by ``main``.  For ``geom
report``, 0 = ran and all identity residuals pass (the homogeneity
verdict is data, not an error), 3 = an identity residual failed, or the
structure sign did not close the structure equation (a
``sign-calibration-failure`` document).
``chern-simons`` computes only the structure residual (it checks the
sign) and the transgression residual: 0 = both passed (the transgression
residual at most ``--tol2``), 3 = one of them failed.  Reports
are byte-deterministic for a fixed configuration and seed: keys are
emitted in a fixed order, floats print as Python's shortest round-trip
``repr``, exact rationals print as "num/den" strings.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

# Each command imports the modules it runs when it runs, so a cold process
# loads only those; the chart names are needed to build the parser.
from .catalog import CHART_NAMES

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESIDUAL = 3

# spencer check --trials; a cold run at the cap takes about 2 s (2-core Xeon,
# Python 3.11.7)
MAX_TRIALS = 1000


def _float_text(x: float) -> str:
    """A float as ``json`` writes it: NaN, Infinity, -Infinity or its repr."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text of a scalar of exactly this type, by the C helpers that ``json``
# calls; subclasses (numpy.float64, an IntEnum) go through ``_scalar_text``
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _scalar_text(value) -> str | None:
    """The text of a str, int or float subclass as ``json`` writes it, in
    the order that ``json`` tests them; None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _json_text(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the nesting
    whose line break and indent are ``newline``."""
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        try:  # a list of scalars is one join
            items = [_SCALAR_TEXT[type(v)](v) for v in value]
        except KeyError:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [(encode_basestring_ascii(k) if type(k) is str else _json_key(k))
                 + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    text = _scalar_text(value)
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return text


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: a string, or the text of a float,
    bool, None or int key as a string."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):  # a bool is an int
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _SCALAR_TEXT.get(type(key), _scalar_text)(key)
    return encode_basestring_ascii(key)


def json_text(doc) -> str:
    """The text of ``json.dumps(doc, indent=2)``, written without the
    pure-Python encoder that ``json`` runs whenever ``indent`` is set: each
    scalar by the C helpers that ``json`` calls, each container by one
    join.  Like ``json``, it raises TypeError on a value or key that JSON
    cannot hold; it does not look for reference cycles, which no report
    has."""
    return _json_text(doc, "\n")


def emit(doc, out_path: str | None) -> None:
    text = json_text(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _frac(text: str) -> Fraction:
    from .literals import parse_rational

    try:
        return parse_rational(text)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6,
                   help="tolerance for single-derivative identities, and for the "
                        "homogeneity verdict on the numeric backend")
    p.add_argument("--tol2", type=float, default=1e-4,
                   help="tolerance for nested-derivative identities")
    p.add_argument("--grid", type=int, default=5, help="grid points per axis")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; it does not change the report")
    p.add_argument("--out", default=None, help="write the JSON report to this path")


def _load_chart(args):
    """Check the tolerances, then load the chart; ``--builtin NAME`` is the
    chart document {"builtin": NAME}, so FLATCHECK_BACKEND applies to it
    as to a file.  The grid is checked with the chart by the report
    pipeline."""
    from .charts_io import chart_from_json, load_chart_file

    for flag, value in (("--tol", args.tol), ("--tol2", args.tol2)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be a finite positive number, not {value}")
    if args.builtin:
        return chart_from_json({"builtin": args.builtin})
    return load_chart_file(args.chart)


def cmd_geom_report(args) -> int:
    from .forms import CalibrationError, identity_report, identity_residuals_pass

    chart = _load_chart(args)
    try:
        report = identity_report(chart, tol=args.tol, grid_points=args.grid)
    except CalibrationError as exc:
        emit({
            "chart": chart.name,
            "error": "sign-calibration-failure",
            "residuals_plus": exc.residual_plus,
            "residuals_minus": exc.residual_minus,
        }, args.out)
        return EXIT_RESIDUAL
    emit(report, args.out)
    return EXIT_OK if identity_residuals_pass(report, args.tol, args.tol2) else EXIT_RESIDUAL


def cmd_jet_compose(args) -> int:
    from .jetcore import compose_truncated, map_from_json, map_to_json
    from .literals import read_json

    outer = map_from_json(read_json(args.outer))
    inner = map_from_json(read_json(args.inner))
    emit(map_to_json(compose_truncated(outer, inner)), args.out)
    return EXIT_OK


def cmd_jet_invert(args) -> int:
    from .jetcore import invert_truncated, map_from_json, map_to_json
    from .literals import read_json

    f = map_from_json(read_json(args.jet))
    emit(map_to_json(invert_truncated(f)), args.out)
    return EXIT_OK


def cmd_groupoid_g3(args) -> int:
    from .arrows import G3Jet, g3_compose, g3_invert, mobius_split, schwarzian_defect
    from .literals import frac_str

    op, a = args.g3_op, args.a
    if op == "schwarzian":
        result = frac_str(schwarzian_defect(G3Jet(*a)))
    else:
        if op == "compose":
            jet = g3_compose(G3Jet(*a), G3Jet(*args.b))
        elif op == "invert":
            jet = g3_invert(G3Jet(*a))
        else:
            jet = mobius_split(*a)
        result = [frac_str(x) for x in jet.as_tuple()]
    emit({"op": op, "result": result}, args.out)
    return EXIT_OK


def cmd_spencer_check(args) -> int:
    if not 0 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be in 0..{MAX_TRIALS}, not {args.trials}")
    from .spencer_suite import run_spencer_suite
    summary = run_spencer_suite(seed=args.seed, trials=args.trials)
    emit(summary, args.out)
    return EXIT_OK if summary["all_passed"] else EXIT_RESIDUAL


def cmd_liepair_order(args) -> int:
    from .catalog import get_lie_pair
    from .liepair import filtration_of, order_of_chain, pair_from_json
    from .literals import frac_str, read_json

    if args.builtin:
        g, h = get_lie_pair(args.builtin)
        name = args.builtin
    else:
        g, h = pair_from_json(read_json(args.pair))
        name = args.pair
    chain = filtration_of(g, h)
    order = order_of_chain(chain)
    doc = {
        "pair": name,
        "ambient_dim": g.dim,
        "filtration_dims": [stage.dim for stage in chain],
        "filtration_bases": [[[frac_str(x) for x in vec] for vec in stage.basis]
                             for stage in chain],
        "order": order,
        "effective": order != "ineffective",
    }
    emit(doc, args.out)
    return EXIT_OK


def cmd_catalog_list(args) -> int:
    from .catalog import catalog_entries

    emit({"entries": catalog_entries()}, args.out)
    return EXIT_OK


def cmd_chern_simons(args) -> int:
    from .forms import CalibrationError, chern_simons_report

    chart = _load_chart(args)
    try:
        doc = chern_simons_report(chart, tol=args.tol, tol2=args.tol2, grid_points=args.grid)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    emit(doc, args.out)
    return EXIT_OK if doc["chern_simons_residual"] <= args.tol2 else EXIT_RESIDUAL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="flatcheck",
        description="jet groupoid arithmetic and local-homogeneity checks for parallelisms")
    sub = parser.add_subparsers(dest="command", required=True)

    geom = sub.add_parser("geom", help="chart geometry reports")
    geom_sub = geom.add_subparsers(dest="geom_op", required=True)
    report = geom_sub.add_parser("report", help="full residual report for one chart")
    src = report.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=CHART_NAMES, help="catalog chart name")
    src.add_argument("--chart", help="chart JSON file")
    _add_config_flags(report)
    report.set_defaults(func="cmd_geom_report")

    jet = sub.add_parser("jet", help="truncated map arithmetic on jet documents")
    jet_sub = jet.add_subparsers(dest="jet_op", required=True)
    jc = jet_sub.add_parser("compose", help="compose outer o inner")
    jc.add_argument("outer")
    jc.add_argument("inner")
    jc.add_argument("--out", default=None)
    jc.set_defaults(func="cmd_jet_compose")
    ji = jet_sub.add_parser("invert", help="compositional inverse")
    ji.add_argument("jet")
    ji.add_argument("--out", default=None)
    ji.set_defaults(func="cmd_jet_invert")

    groupoid = sub.add_parser("groupoid", help="one-variable jet group calculators")
    g_sub = groupoid.add_subparsers(dest="groupoid_op", required=True)
    g3 = g_sub.add_parser("g3", help="order-3 jet group on the line")
    g3_sub = g3.add_subparsers(dest="g3_op", required=True)
    g3c = g3_sub.add_parser("compose")
    g3c.add_argument("a", type=_frac, nargs=3, help="derivative triple a1 a2 a3")
    g3c.add_argument("b", type=_frac, nargs=3, help="derivative triple b1 b2 b3")
    g3c.add_argument("--out", default=None)
    g3c.set_defaults(func="cmd_groupoid_g3")
    g3i = g3_sub.add_parser("invert")
    g3i.add_argument("a", type=_frac, nargs=3)
    g3i.add_argument("--out", default=None)
    g3i.set_defaults(func="cmd_groupoid_g3")
    g3s = g3_sub.add_parser("split")
    g3s.add_argument("a", type=_frac, nargs=2, help="2-jet a1 a2")
    g3s.add_argument("--out", default=None)
    g3s.set_defaults(func="cmd_groupoid_g3")
    g3w = g3_sub.add_parser("schwarzian")
    g3w.add_argument("a", type=_frac, nargs=3)
    g3w.add_argument("--out", default=None)
    g3w.set_defaults(func="cmd_groupoid_g3")

    spencer = sub.add_parser("spencer", help="Spencer operator checks")
    sp_sub = spencer.add_subparsers(dest="spencer_op", required=True)
    spc = sp_sub.add_parser("check", help="run the operator property suite")
    spc.add_argument("--seed", type=int, default=0)
    spc.add_argument("--trials", type=int, default=20)
    spc.add_argument("--out", default=None)
    spc.set_defaults(func="cmd_spencer_check")

    liepair = sub.add_parser("liepair", help="Lie pair filtrations")
    lp_sub = liepair.add_subparsers(dest="liepair_op", required=True)
    lpo = lp_sub.add_parser("order", help="filtration table and order")
    lp_src = lpo.add_mutually_exclusive_group(required=True)
    lp_src.add_argument("--builtin", help="catalog pair name")
    lp_src.add_argument("--pair", help="Lie pair JSON file")
    lpo.add_argument("--out", default=None)
    lpo.set_defaults(func="cmd_liepair_order")

    cat = sub.add_parser("catalog", help="built-in examples")
    cat_sub = cat.add_subparsers(dest="catalog_op", required=True)
    cl = cat_sub.add_parser("list", help="names, kinds and expected facts")
    cl.add_argument("--out", default=None)
    cl.set_defaults(func="cmd_catalog_list")

    cs = sub.add_parser("chern-simons", help="transgression residual and secondary classes")
    cs_src = cs.add_mutually_exclusive_group(required=True)
    cs_src.add_argument("--builtin", choices=CHART_NAMES)
    cs_src.add_argument("--chart")
    _add_config_flags(cs)
    cs.set_defaults(func="cmd_chern_simons")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the parser names its command, which is looked up at each call, so a
        # command function replaced after the parser was built still runs
        code = globals()[args.func](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (``flatcheck ... | true``): exit 1
        # without a traceback, and point stdout at devnull so that the flush
        # at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        # bad input, a document file that cannot be read or a report that
        # cannot be written: one line, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
