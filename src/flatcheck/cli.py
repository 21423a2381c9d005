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

Exit codes: 0 = ran and all identity residuals pass (the homogeneity
verdict is data, not an error), 1 = bad input, 3 = an identity residual
or the sign calibration failed.  Reports are byte-deterministic for a
fixed configuration and seed: keys are emitted in a fixed order, floats
are normalized to 17 significant digits, exact rationals print as
"num/den" strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arrows import ArrowError, G3Jet, g3_compose, g3_invert, mobius_split, schwarzian_defect
from .catalog import CHART_NAMES, catalog_entries, get_chart, get_lie_pair
from .charts_io import load_chart_file
from .forms import (
    CalibrationError,
    form_residual,
    identity_report,
    identity_residuals_pass,
    secondary_class_check,
)
from .frames import ChartError
from .jetcore import JetError, map_from_json, map_to_json
from .liepair import LiePairError, filtration_of, order_of, pair_from_json
from .rational import frac_str

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESIDUAL = 3


@dataclass
class RunConfig:
    """Tolerances, grid resolution, finite-difference steps, seed, output."""

    tol: float = 1e-6
    tol2: float = 1e-4
    grid: int = 5
    fd_step: float = 1e-4
    fd_step2: float = 1e-3
    seed: int = 0
    out: str | None = None

    def validate(self) -> None:
        if self.tol <= 0 or self.tol2 <= 0 or self.fd_step <= 0 or self.fd_step2 <= 0:
            raise ValueError("tolerances and steps must be positive")
        if self.grid < 2:
            raise ValueError("need at least 2 grid points per axis")


def _normalize(value):
    """Round floats to 17 significant digits so output is byte-stable."""
    if isinstance(value, float):
        return float(f"{value:.17g}")
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    return value


def emit(doc, out_path: str | None) -> None:
    text = json.dumps(_normalize(doc), indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6,
                   help="tolerance for single-derivative identities and the verdict")
    p.add_argument("--tol2", type=float, default=1e-4,
                   help="tolerance for nested-derivative identities")
    p.add_argument("--grid", type=int, default=5, help="grid points per axis")
    p.add_argument("--fd-step", type=float, default=1e-4, help="first-level finite-difference step")
    p.add_argument("--fd-step2", type=float, default=1e-3, help="nested finite-difference step")
    p.add_argument("--seed", type=int, default=0, help="random seed for sampled checks")
    p.add_argument("--out", default=None, help="write the JSON report to this path")


def _config_from(args) -> RunConfig:
    cfg = RunConfig(tol=args.tol, tol2=args.tol2, grid=args.grid,
                    fd_step=args.fd_step, fd_step2=args.fd_step2,
                    seed=args.seed, out=args.out)
    cfg.validate()
    return cfg


def _load_chart(args, cfg: RunConfig):
    if args.builtin:
        chart = get_chart(args.builtin)
    else:
        chart = load_chart_file(args.chart)
    chart.fd_steps = (cfg.fd_step, cfg.fd_step2)
    return chart


def cmd_geom_report(args) -> int:
    try:
        cfg = _config_from(args)
        chart = _load_chart(args, cfg)
        chart.validate_invertible(cfg.grid)
    except (ChartError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = identity_report(chart, tol=cfg.tol, grid_points=cfg.grid)
    except ChartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CalibrationError as exc:
        emit({
            "chart": chart.name,
            "error": "sign-calibration-failure",
            "residuals_plus": exc.residual_plus,
            "residuals_minus": exc.residual_minus,
        }, cfg.out)
        return EXIT_RESIDUAL
    emit(report, cfg.out)
    return EXIT_OK if identity_residuals_pass(report, cfg.tol, cfg.tol2) else EXIT_RESIDUAL


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_jet_compose(args) -> int:
    try:
        outer = map_from_json(_read_json(args.outer))
        inner = map_from_json(_read_json(args.inner))
        from .jetcore import compose_truncated
        result = compose_truncated(outer, inner)
    except (JetError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    emit(map_to_json(result), args.out)
    return EXIT_OK


def cmd_jet_invert(args) -> int:
    try:
        f = map_from_json(_read_json(args.jet))
        from .jetcore import invert_truncated
        result = invert_truncated(f)
    except (JetError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    emit(map_to_json(result), args.out)
    return EXIT_OK


def cmd_groupoid_g3(args) -> int:
    try:
        if args.g3_op == "compose":
            a = G3Jet(*args.a)
            b = G3Jet(*args.b)
            result = g3_compose(a, b)
            doc = {"op": "compose", "result": [frac_str(x) for x in result.as_tuple()]}
        elif args.g3_op == "invert":
            result = g3_invert(G3Jet(*args.a))
            doc = {"op": "invert", "result": [frac_str(x) for x in result.as_tuple()]}
        elif args.g3_op == "split":
            result = mobius_split(args.a[0], args.a[1])
            doc = {"op": "split", "result": [frac_str(x) for x in result.as_tuple()]}
        else:
            s = schwarzian_defect(G3Jet(*args.a))
            doc = {"op": "schwarzian", "result": frac_str(s)}
    except ArrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    emit(doc, args.out)
    return EXIT_OK


def cmd_spencer_check(args) -> int:
    from .spencer_suite import run_spencer_suite
    summary = run_spencer_suite(seed=args.seed, trials=args.trials)
    emit(summary, args.out)
    return EXIT_OK if summary["all_passed"] else EXIT_RESIDUAL


def cmd_liepair_order(args) -> int:
    try:
        if args.builtin:
            g, h = get_lie_pair(args.builtin)
            name = args.builtin
        else:
            g, h = pair_from_json(_read_json(args.pair))
            name = args.pair
    except (LiePairError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    chain = filtration_of(g, h)
    order = order_of(g, h)
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
    emit({"entries": catalog_entries()}, args.out)
    return EXIT_OK


def cmd_chern_simons(args) -> int:
    try:
        cfg = _config_from(args)
        chart = _load_chart(args, cfg)
        chart.validate_invertible(cfg.grid)
    except (ChartError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = identity_report(chart, tol=cfg.tol, grid_points=cfg.grid)
        form, closed = secondary_class_check(chart, 1, tol=cfg.tol, tol2=cfg.tol2,
                                             grid_points=cfg.grid)
        points = chart.rational_grid(cfg.grid) if chart.backend == "exact" else chart.grid(cfg.grid)
        form_max = form_residual(form, points)
    except ChartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    doc = {
        "chart": chart.name,
        "backend": report["backend"],
        "sign": report["sign"],
        "chern_simons_residual": report["residuals"]["chern_simons"],
        "secondary_class_degree": form.degree,
        "secondary_class_max_abs": form_max,
        "secondary_class_closed": closed,
        "locally_homogeneous": report["locally_homogeneous"],
    }
    emit(doc, cfg.out)
    ok = report["residuals"]["chern_simons"] <= cfg.tol2
    return EXIT_OK if ok else EXIT_RESIDUAL


def build_parser() -> argparse.ArgumentParser:
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
    report.set_defaults(func=cmd_geom_report)

    jet = sub.add_parser("jet", help="truncated map arithmetic on jet documents")
    jet_sub = jet.add_subparsers(dest="jet_op", required=True)
    jc = jet_sub.add_parser("compose", help="compose outer o inner")
    jc.add_argument("outer")
    jc.add_argument("inner")
    jc.add_argument("--out", default=None)
    jc.set_defaults(func=cmd_jet_compose)
    ji = jet_sub.add_parser("invert", help="compositional inverse")
    ji.add_argument("jet")
    ji.add_argument("--out", default=None)
    ji.set_defaults(func=cmd_jet_invert)

    groupoid = sub.add_parser("groupoid", help="one-variable jet group calculators")
    g_sub = groupoid.add_subparsers(dest="groupoid_op", required=True)
    g3 = g_sub.add_parser("g3", help="order-3 jet group on the line")
    g3_sub = g3.add_subparsers(dest="g3_op", required=True)
    g3c = g3_sub.add_parser("compose")
    g3c.add_argument("a", type=_frac, nargs=3, help="derivative triple a1 a2 a3")
    g3c.add_argument("b", type=_frac, nargs=3, help="derivative triple b1 b2 b3")
    g3c.add_argument("--out", default=None)
    g3c.set_defaults(func=cmd_groupoid_g3)
    g3i = g3_sub.add_parser("invert")
    g3i.add_argument("a", type=_frac, nargs=3)
    g3i.add_argument("--out", default=None)
    g3i.set_defaults(func=cmd_groupoid_g3)
    g3s = g3_sub.add_parser("split")
    g3s.add_argument("a", type=_frac, nargs=2, help="2-jet a1 a2")
    g3s.add_argument("--out", default=None)
    g3s.set_defaults(func=cmd_groupoid_g3)
    g3w = g3_sub.add_parser("schwarzian")
    g3w.add_argument("a", type=_frac, nargs=3)
    g3w.add_argument("--out", default=None)
    g3w.set_defaults(func=cmd_groupoid_g3)

    spencer = sub.add_parser("spencer", help="Spencer operator checks")
    sp_sub = spencer.add_subparsers(dest="spencer_op", required=True)
    spc = sp_sub.add_parser("check", help="run the operator property suite")
    spc.add_argument("--seed", type=int, default=0)
    spc.add_argument("--trials", type=int, default=20)
    spc.add_argument("--out", default=None)
    spc.set_defaults(func=cmd_spencer_check)

    liepair = sub.add_parser("liepair", help="Lie pair filtrations")
    lp_sub = liepair.add_subparsers(dest="liepair_op", required=True)
    lpo = lp_sub.add_parser("order", help="filtration table and order")
    lp_src = lpo.add_mutually_exclusive_group(required=True)
    lp_src.add_argument("--builtin", help="catalog pair name")
    lp_src.add_argument("--pair", help="Lie pair JSON file")
    lpo.add_argument("--out", default=None)
    lpo.set_defaults(func=cmd_liepair_order)

    cat = sub.add_parser("catalog", help="built-in examples")
    cat_sub = cat.add_subparsers(dest="catalog_op", required=True)
    cl = cat_sub.add_parser("list", help="names, kinds and expected facts")
    cl.add_argument("--out", default=None)
    cl.set_defaults(func=cmd_catalog_list)

    cs = sub.add_parser("chern-simons", help="transgression residual and secondary classes")
    cs_src = cs.add_mutually_exclusive_group(required=True)
    cs_src.add_argument("--builtin", choices=CHART_NAMES)
    cs_src.add_argument("--chart")
    _add_config_flags(cs)
    cs.set_defaults(func=cmd_chern_simons)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
