"""flatcheck benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flatcheck source tree; the program is imported from
``src/``.  Workloads: exact-charts, numeric-charts, algebra, cli-cold (see
perfbench/README.md).  A run executes the workload's op list in passes:
with ``--trace 0`` it makes max(2, round(S / nominal pass length)) passes
with tracing off and reports the end-to-end metrics; with ``--trace 1`` it
makes one pass untraced and one traced and reports the per-layer metrics.
Every op's answer is checked against an oracle outside the timed region.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import CACHE_HITS, TERMS_OUT, Tracer  # noqa: E402

SETUP_PROBES = 4  # extra fresh-process setups; setup_s is the median of 5
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many samples beyond

# Speed calibration of in-process ops.  On a shared host the same code runs
# up to twice as slowly for stretches of 0.1 s to minutes.  A fixed
# pure-Python kernel, independent of flatcheck, is timed twice before the
# first op and twice after every op, and an op's time is multiplied by
# REF_KERNEL_S / (mean kernel time just before and after it): it is given in
# seconds of a host on which the kernel takes REF_KERNEL_S.  Per-layer
# totals use the duration-weighted mean kernel time of the run.  Process
# start-up does not slow down like the kernel, so cli-cold ops and set-up
# are reported raw.  Raw times are printed next to the metrics.
REF_KERNEL_S = 0.005


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of Fraction, dict and float work."""
    start = time.perf_counter()
    acc = {}
    x, f = Fraction(1, 3), 0.5
    for i in range(1500):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + x * (i % 7 - 3)
        f = math.sin(f) + 0.5
        if i % 50 == 0:
            x += Fraction(1, i % 11 + 1)
    return time.perf_counter() - start


END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
CALLS = ("rational.eval_float", "rational.poly_mul", "rational.rf_reduce", "frames.gamma",
         "frames.numeric_eval", "jetcore.compose", "jetcore.tpoly_mul", "liepair.filtration",
         "liepair.row_echelon")
SELF = ("rational.eval_float", "rational.poly_mul", "rational.rf_addsub", "rational.rf_mul",
        "rational.rf_diff", "rational.rf_reduce", "rational.eval_exact",
        "rational.matrix_inverse", "frames.chart_init", "frames.validate", "frames.gamma",
        "frames.torsion", "frames.curvature", "frames.numeric_eval", "forms.d_tilde",
        "forms.wedge", "forms.de_rham", "forms.trace", "forms.residual", "forms.secondary",
        "charts_io.load", "catalog.build", "jetcore.compose", "jetcore.invert",
        "jetcore.tpoly_mul", "jetcore.json", "spencer.bracket", "spencer.operator",
        "spencer.prolong", "spencer_suite", "liepair.load", "liepair.filtration",
        "liepair.row_echelon", "cli.emit")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{m}.calls": "count" for m in CALLS}
    units.update({f"{m}.self_s": "s" for m in SELF})
    units.update({TERMS_OUT: "count", "frames.numeric_cache_hit_ratio": "ratio",
                  "cli.interpreter_s": "s", "cli.import_numpy_s": "s", "cli.import_s": "s",
                  "trace.overhead_s": "s"})
    return dict(sorted(units.items()))


# --- environment ----------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit(), "workload": args.workload, "seed": args.seed}


# --- op execution ---------------------------------------------------------------

class OpResult:
    __slots__ = ("op", "seconds", "rc", "stderr", "out", "rss_kb", "kernel")

    def __init__(self, op, seconds, rc, stderr, out, rss_kb=0):
        self.op, self.seconds, self.rc, self.stderr, self.out = op, seconds, rc, stderr, out
        self.rss_kb = rss_kb
        self.kernel = REF_KERNEL_S  # mean reference-kernel time just before and after the op

    @property
    def calibrated(self) -> float:
        return self.seconds * REF_KERNEL_S / self.kernel


def _argv(op, work: Path, out_path: Path, docs: dict) -> list:
    argv = [str(work / "in" / a) if a in docs else a for a in op.argv]
    return argv + ["--out", str(out_path)] if op.out else argv


def _read_out(op, out_path: Path):
    if op.out and out_path.is_file():
        return out_path.read_text(encoding="utf-8")
    return None


class InProcessRunner:
    """An op is one flatcheck.cli.main(argv) call in this process."""

    calibrate = True

    def __init__(self, work: Path, docs: dict):
        import flatcheck.cli
        self.cli = flatcheck.cli
        self.work, self.docs = work, docs

    def run(self, op, index: int, tracer=None) -> OpResult:
        out_path = self.work / "out" / f"{index}.json"
        out_path.unlink(missing_ok=True)
        argv = _argv(op, self.work, out_path, self.docs)
        saved = {k: os.environ.get(k) for k in op.env}
        os.environ.update(op.env)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = tracer.call(op.op_id, self.cli.main, argv) if tracer else self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught error is a traceback and exit 1 from the CLI
                    traceback.print_exc()
                    rc = 1
                seconds = time.perf_counter() - start
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return OpResult(op, seconds, rc, err.getvalue(), _read_out(op, out_path))

    def peak_rss_mb(self, results) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ColdRunner:
    """An op is one fresh `python -m flatcheck.cli` process, one at a time."""

    calibrate = False

    def __init__(self, work: Path, docs: dict):
        self.work, self.docs = work, docs
        self.env = child_env()
        self.traces: list = []

    def run(self, op, index: int, tracer=None) -> OpResult:
        out_path = self.work / "out" / f"{index}.json"
        out_path.unlink(missing_ok=True)
        argv = _argv(op, self.work, out_path, self.docs)
        if tracer is None:
            cmd = [sys.executable, "-m", "flatcheck.cli"] + argv
        else:
            trace_path = self.work / "out" / f"{index}.trace.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + argv
        env = dict(self.env, **op.env)
        with open(self.work / "out" / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = rc = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if tracer is not None:
            self.traces.append((op.op_id, json.loads(trace_path.read_text(encoding="utf-8"))))
        return OpResult(op, seconds, rc, stderr, _read_out(op, out_path), usage.ru_maxrss)

    def peak_rss_mb(self, results) -> float:
        return max(r.rss_kb for r in results) / 1024


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FLATCHECK_BACKEND"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(runner, ops, tracer=None) -> list:
    """Run every op once; for a calibrated runner, time the kernel between ops."""
    gc.collect()
    if not runner.calibrate:
        return [runner.run(op, i, tracer) for i, op in enumerate(ops)]
    before = reference_kernel() + reference_kernel()
    results = []
    for i, op in enumerate(ops):
        r = runner.run(op, i, tracer)
        after = reference_kernel() + reference_kernel()
        r.kernel = (before + after) / 4
        before = after
        results.append(r)
    return results


def kernel_time(passes: list) -> float:
    """Duration-weighted mean kernel time around the ops of a run."""
    results = [r for p in passes for r in p]
    return sum(r.kernel * r.seconds for r in results) / sum(r.seconds for r in results)


# --- checking -------------------------------------------------------------------

def check_passes(wl, passes: list) -> list:
    """(answer problems, message problems) per op instance, by pass."""
    first = passes[0]
    peers = {}
    for r in first:
        if r.out is not None:
            try:
                peers[r.op.op_id] = json.loads(r.out)
            except json.JSONDecodeError:
                pass
    base = [oracles.check_op(r.op, r.rc, r.out, wl.docs, peers) for r in first]
    checked = []
    for results in passes:
        row = []
        for r, r0, problems in zip(results, first, base):
            answer = list(problems)
            if r is not r0 and (r.out != r0.out or r.rc != r0.rc):
                answer.append("output differs between repeats of the op")
            row.append((answer, oracles.message_problems(r.rc, r.stderr)))
        checked.append(row)
    return checked


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): highest percentile with TAIL_BEYOND samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# --- probes ---------------------------------------------------------------------

def setup(name: str, seed: int, scale: str, work: Path):
    """Import the CLI, generate the workload and write its documents."""
    import flatcheck.cli  # noqa: F401  (the import is part of set-up)
    wl = workloads.build(name, seed, scale)
    wl.write_docs(work / "in")
    (work / "out").mkdir(parents=True, exist_ok=True)
    return wl


def setup_probe(args) -> float:
    """Set-up time of one fresh benchmark process, measured inside it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--scale", args.scale, "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def cli_probes() -> dict:
    """Interpreter start and import costs a cold CLI call pays before any work."""
    env = child_env()
    starts = []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - t)
    numpy_us, cli_us = [], []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import flatcheck.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        cum = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cum.setdefault(parts[2].strip(), int(parts[1]))
        numpy_us.append(cum.get("numpy", 0))
        cli_us.append(cum.get("flatcheck", 0) + cum.get("flatcheck.cli", 0))
    return {"cli.interpreter_s": statistics.median(starts),
            "cli.import_numpy_s": statistics.median(numpy_us) / 1e6,
            "cli.import_s": statistics.median(cli_us) / 1e6}


# --- metrics --------------------------------------------------------------------

def layer_metrics(totals: dict, counts: dict) -> dict:
    out = {}
    for m in CALLS:
        out[f"{m}.calls"] = totals.get(m, [0, 0.0])[0]
    for m in SELF:
        out[f"{m}.self_s"] = totals.get(m, [0, 0.0])[1]
    out[TERMS_OUT] = counts.get(TERMS_OUT, 0)
    evals = totals.get("frames.numeric_eval", [0, 0.0])[0]
    out["frames.numeric_cache_hit_ratio"] = counts.get(CACHE_HITS, 0) / evals if evals else 0.0
    return out


def merge_child_traces(traces: list) -> tuple:
    """Sum the totals of cli-cold children; renumber their spans into one list."""
    totals, counts, spans = {}, {}, []
    for op_id, doc in traces:
        offset = len(spans)
        for name, start, end, parent, _ in doc["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op_id])
        for metric, (calls, self_s) in doc["totals"].items():
            rec = totals.setdefault(metric, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return totals, counts, spans


def measure(args, wl, work: Path, setups: list) -> tuple:
    """Run the passes; return (metrics, info lines, passes)."""
    cold = args.workload == "cli-cold"
    runner = (ColdRunner if cold else InProcessRunner)(work, wl.docs)
    if not args.trace:
        n = max(2, int(args.seconds / workloads.NOMINAL_PASS_S[args.workload] + 0.5))
        passes = [run_pass(runner, wl.ops) for _ in range(n)]
        lat = [r.calibrated for p in passes for r in p]
        value, pct, samples = tail(lat)
        metrics = {"wall_s": sum(statistics.median(p[i].calibrated for p in passes)
                                 for i in range(len(wl.ops))),
                   "op_p50_s": statistics.median(lat), "op_tail_s": value,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": runner.peak_rss_mb([r for p in passes for r in p])}
        raw = [r.seconds for p in passes for r in p]
        info = [f"op_tail_s is p{pct:.1f} of {samples} op samples ({TAIL_BEYOND} beyond); "
                f"{n} passes of {len(wl.ops)} ops",
                f"raw times: passes {', '.join(f'{sum(r.seconds for r in p):.4f}' for p in passes)} s, "
                f"op median {statistics.median(raw):.6g} s, op tail {tail(raw)[0]:.6g} s"]
        return metrics, info, passes
    plain = run_pass(runner, wl.ops)
    tracer = Tracer()
    if not cold:
        tracer.install()
    try:
        traced = run_pass(runner, wl.ops, tracer)
    finally:
        tracer.remove()
    passes = [plain, traced]
    if cold:
        totals, counts, spans = merge_child_traces(runner.traces)
    else:
        totals, counts, spans = tracer.totals(), tracer.counts, tracer.spans
    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "totals": totals, "counts": counts, "spans": spans}))
    # per-layer times come from whole passes: scale them by the pass-weighted kernel time
    speed = REF_KERNEL_S / kernel_time(passes)
    units = per_layer_units()
    metrics = {k: v * speed if units[k] == "s" else v
               for k, v in layer_metrics(totals, counts).items()}
    metrics.update(cli_probes())
    walls = [sum(r.calibrated for r in p) for p in passes]
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    info = [f"untraced pass {walls[0]:.4f} s, traced pass {walls[1]:.4f} s "
            f"(raw {sum(r.seconds for r in plain):.4f} s, {sum(r.seconds for r in traced):.4f} s); "
            f"per-layer times scaled by {speed:.4f}",
            f"{len(spans)} spans written to {trace_file.relative_to(ROOT)}"]
    return metrics, info, passes


def run(args) -> int:
    if not (SRC / "flatcheck" / "cli.py").is_file():
        print(f"error: no flatcheck sources under {SRC}; run from a flatcheck checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = setup(args.workload, args.seed, args.scale, work)
        main_setup = time.perf_counter() - _T0
        if args.setup_probe:
            print(main_setup)
            return 0
        setups = [main_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics, info, passes = measure(args, wl, work, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checked = check_passes(wl, passes)

    instances = [(r, ans, msg) for p, row in zip(passes, checked) for r, (ans, msg) in zip(p, row)]
    attempted = len(instances)
    failed = sum(1 for _, ans, msg in instances if ans or msg)
    correct = not any(ans for _, ans, _ in instances)
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
        units = END_TO_END_UNITS
    else:
        units = per_layer_units()

    for key, value in environment(args).items():
        print(f"env {key}: {value}")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for line in info:
        print(line)
    seen = set()
    for r, ans, msg in instances:
        if (ans or msg) and r.op.op_id not in seen:
            seen.add(r.op.op_id)
            print(f"FAILED {r.op.op_id}: {'; '.join(ans + msg)}")
    by_op = {}
    for r, _, _ in instances:
        by_op.setdefault(r.op.op_id, []).append(r)
    for op_id, rs in by_op.items():
        print(f"op {op_id}: median {statistics.median(r.calibrated for r in rs):.4f} s "
              f"(raw {statistics.median(r.seconds for r in rs):.4f} s) over {len(rs)}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few cheap ops per workload, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
