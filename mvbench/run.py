"""Seeded end-to-end and per-layer benchmark of mveq.

    python3 mvbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md): ``quadratic-scaling`` and ``linear-mv-frontier``
call the library in this process; ``cli-degenerate`` runs
``python -m mveq.cli`` as sequential child processes.  Both import
``mveq`` from the checkout's ``src/``.  A run sets up its scenarios, runs
the self-test of its output checks, then repeats whole passes over the
workload's operations while the next pass fits in ``--seconds`` (at
least one pass).  Every operation's output is checked after the pass;
an operation that fails its check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` one more pass runs under span tracing
and the per-layer metrics are printed instead.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS thread: the benchmark runs one thing at a time on a 2-core box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("quadratic-scaling", "linear-mv-frontier", "cli-degenerate")

# per-layer metrics printed by a traced run, in BENCHMARK.json order
LAYER_TIMES = [
    "mvh.build_gains_operator", "tree.subtree", "mvh.opportunity_process",
    "linear_mv.optimal_mv_strategy", "linear_mv.verify_fixed_point",
    "linear_mv.agent_frontier", "quadratic.check_necessary_conditions",
    "stoch.restarted_exponential", "quadratic.restart_martingale_failures",
    "io.load_scenario", "scenario.validate_scenario", "io.report_to_json",
    "io.report_to_csv", "tree.build", "stoch.martingale_from_terminal",
    "stoch.gkw_decompose", "stoch.stoch_integral", "stoch.is_martingale",
    "quadratic.construct_prices", "quadratic.individual_optimal",
    "quadratic.verify_equilibrium", "mvh.lstsq", "mvh.svd", "mvh.solve_mvh",
    "mvh.uniqueness_of_gains",
]
LAYER_CALLS = [
    "mvh.build_gains_operator", "mvh.lstsq", "mvh.svd", "tree.subtree",
    "mvh.pure_investment", "mvh.solve_exmvh", "mvh.uniqueness_of_gains",
    "stoch.delta_bracket_all", "io.load_scenario", "stoch.stoch_integral",
    "tree.child_weights", "mvh.solve_mvh",
]
COPIES = 4  # copies of cli-degenerate's smallest and largest calls per pass
LAYER_COUNTERS = {"mvh.gains_operator_mb": "MB", "mvh.dense_flops": "count",
                  "io.report_bytes": "B"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def since_process_start() -> float:
    """Seconds between this process's start and ``_T0``, from /proc; 0
    where that is not available."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        lag = (time.clock_gettime(time.CLOCK_BOOTTIME)
               - start_ticks / os.sysconf("SC_CLK_TCK"))
        return max(0.0, lag - (time.perf_counter() - _T0))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def import_mveq():
    """Import mveq from the checkout's src/ and refuse any other copy."""
    sys.path.insert(0, SRC)
    import mveq
    import mveq.cli  # noqa: F401  (the package does not import it)

    want = os.path.join(SRC, "mveq", "__init__.py")
    if os.path.abspath(mveq.__file__) != want:
        raise RuntimeError(f"mveq imported from {mveq.__file__}, not {want}")
    return mveq


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class Op:
    """One timed operation: ``run()`` returns its output, ``check(output)``
    a dict of check name -> failure message."""

    def __init__(self, name, nodes, run, check):
        self.name, self.nodes, self.run, self.check = name, nodes, run, check


def interleave(ops, *prefixes):
    """Spread the copies of each operation named by ``prefixes`` evenly
    through the pass, so that they sample the whole pass rather than one
    moment."""
    groups = [[op for op in ops if op.name.startswith(p)] for p in prefixes]
    rest = [op for op in ops if not any(op.name.startswith(p) for p in prefixes)]
    placed = [((i + 0.5) / len(group), g, op)
              for g, group in enumerate([rest] + groups)
              for i, op in enumerate(group)]
    return [op for _, _, op in sorted(placed, key=lambda x: x[:2])]


# ------------------------------------------------------------------ workloads

def quadratic_ops(mveq, seed):
    cases = scenarios.quadratic_cases(mveq, seed)

    def op(case):
        def run():
            return mveq.quadratic.solve_quadratic(case.scenario)

        def check(r):
            return checks.check_quadratic(case.prim, r.verdict, r.prices,
                                          r.agent_strategies)
        return Op(case.name, case.scenario.tree.n_nodes, run, check)

    return interleave([op(c) for c in cases], "q-h4#"), "q-h7#", "q-h4#"


def linear_ops(mveq, seed):
    cases = scenarios.linear_cases(mveq, seed)

    def op(case):
        s, p = case.scenario, case.prim
        xi_bar = p.xi_bar

        def run():
            lm = mveq.linear_mv
            r = lm.solve_linear_mv(s)
            fr = [lm.agent_frontier(s, r.prices, k) for k in range(len(s.agents))]
            opp = mveq.mvh.opportunity_process(s.tree, r.prices,
                                               r.gamma_bar - xi_bar)
            return r, fr, opp

        def check(out):
            r, fr, opp = out
            return checks.check_linear(p, r.gamma_bar, r.prices, r.ell, r.c_k,
                                       opp.L, [(f.ell, f.c_k) for f in fr])
        return Op(case.name, s.tree.n_nodes, run, check)

    return interleave([op(c) for c in cases], "l-h4#"), "l-h6#", "l-h4#"


class CliRunner:
    """Runs ``python -m mveq.cli`` children; under tracing, the launcher
    instead, and merges the child's spans into the tracer."""

    def __init__(self):
        self.env = child_env()
        self.tracer = None
        self.startup = 0.0

    def __call__(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "mveq.cli", *args]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=170)
            return proc.returncode, proc.stdout
        spans_file = os.path.join(WORK, "child-spans.json")
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"), spans_file,
               *args]
        idx = self.tracer.open("bench.child")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=170)
        wall = time.perf_counter() - t0
        self.tracer.close(idx)
        with open(spans_file) as fh:
            doc = json.load(fh)
        if doc["mveq_file"] != os.path.join(SRC, "mveq", "__init__.py"):
            raise SystemExit(f"CLI child ran mveq from {doc['mveq_file']}")
        main = [e - s for n, s, e in zip(doc["names"], doc["start"], doc["end"])
                if n == "cli.main"]
        self.startup += wall - sum(main)
        self.tracer.adopt(doc, idx)
        return proc.returncode, proc.stdout


def cli_ops(mveq, seed, runner):
    sdir = os.path.join(WORK, "scenarios")
    os.makedirs(sdir, exist_ok=True)

    def write(name, prim, prices=None):
        path = os.path.join(sdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(checks.scenario_doc(prim, prices), fh)
        return path

    ops = []

    def add(name, nodes, args, check, copies=1):
        for k in range(copies):
            tag = f"#{k}" if copies > 1 else ""
            ops.append(Op(name + tag, nodes, lambda: runner(args),
                          lambda out: check(*out)))

    def parsed(fn):
        def check(code, text):
            try:
                report = json.loads(text)
            except ValueError:
                report = {}
            return fn(code, report)
        return check

    for case in scenarios.degenerate_cases(mveq, seed):
        path = write(case.name, case.prim)
        n, p = case.scenario.tree.n_nodes, case.prim
        # the smallest and the largest call run COPIES times each
        add(f"check-conditions:{case.name}", n,
            ["check-conditions", "--input", path],
            parsed(lambda c, r, p=p: checks.check_conditions(p, c, r)),
            COPIES if case.name == "solvable-a" else 1)
        add(f"solve-quadratic:{case.name}", n, ["solve-quadratic", "--input", path],
            parsed(lambda c, r, p=p: checks.check_degenerate_solve(p, c, r)),
            COPIES if case.name == "nonexist-g" else 1)
        if case.name == "solvable-a":
            add(f"solve-quadratic-csv:{case.name}", n,
                ["solve-quadratic", "--input", path, "--format", "csv"],
                lambda c, text, p=p: checks.check_csv(p, c, text))

    case = scenarios.verify_case(mveq, seed)
    prices = checks.regular_prices(case.prim)
    n = case.scenario.tree.n_nodes
    for label, bump in (("accept", 0.0), ("plus", 0.05), ("minus", -0.05)):
        block = prices.copy()
        block[0, case.prim.d1] += bump
        path = write(f"verify-{label}", case.prim, block)
        add(f"verify:{label}", n, ["verify", "--input", path],
            parsed(lambda c, r, a=(bump == 0.0): checks.check_verify(c, r, a)))
    small, large = "check-conditions:solvable-a#", "solve-quadratic:nonexist-g#"
    return interleave(ops, small, large), large, small


def probe_child(env):
    """The mveq a CLI child imports must be this checkout's."""
    out = subprocess.run(
        [sys.executable, "-c", "import mveq, os; print(os.path.abspath(mveq.__file__))"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    got = out.stdout.strip()
    if got != os.path.join(SRC, "mveq", "__init__.py"):
        raise SystemExit(f"CLI child imports mveq from {got!r}: {out.stderr}")


# ------------------------------------------------------------------ measuring

def trimmed_mean(values):
    """Mean of ``values`` without the highest and the lowest tenth of
    them.  The machine's speed drifts between levels for seconds at a
    time; a mean follows the run's average speed where a median of few
    samples jumps between levels, and the trim drops the odd stall."""
    v = sorted(values)
    k = len(v) // 10
    return statistics.fmean(v[k:len(v) - k])


def best_time(op_times, prefix):
    """Fastest timed call in the run whose name starts with ``prefix``.
    The same call takes up to twice as long while the machine's other
    load is high; the slower calls measure that load, not the program,
    and the fastest of a run's calls is its steadiest figure."""
    return min(v for t in op_times for k, v in t.items() if k.startswith(prefix))


def run_pass(ops, results):
    """One pass; returns its wall time and per-op times.  Outputs go to
    ``results`` and are checked after the pass."""
    times = {}
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append((op, op.run()))
        except Exception as exc:  # a crash is a failed operation
            results.append((op, exc))
        times[op.name] = time.perf_counter() - t0
    return time.perf_counter() - t_pass, times


def check_results(results, failures):
    failed = 0
    for op, out in results:
        try:
            if isinstance(out, Exception):
                raise out
            msgs = checks.failures(op.check(out))
        except Exception as exc:  # a malformed output is a failed operation
            msgs = [f"raised {type(exc).__name__}: {exc}"]
        if msgs:
            failed += 1
            failures.setdefault(op.name, msgs)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        mveq = import_mveq()
    except (ImportError, RuntimeError) as exc:
        log(f"cannot import mveq from {SRC}: {exc}")
        return 2
    os.makedirs(WORK, exist_ok=True)

    runner = None
    if args.workload == "quadratic-scaling":
        ops, largest, smallest = quadratic_ops(mveq, args.seed)
    elif args.workload == "linear-mv-frontier":
        ops, largest, smallest = linear_ops(mveq, args.seed)
    else:
        runner = CliRunner()
        ops, largest, smallest = cli_ops(mveq, args.seed, runner)
    setup_s = since_process_start() + (time.perf_counter() - _T0)

    problems, _ = selftest.run_selftest(mveq, WORK)
    if problems:
        log("self-test of the output checks failed:\n  " + "\n  ".join(problems))
        return 3
    if runner is not None:
        probe_child(runner.env)

    pass_times, op_times, failures = [], [], {}
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        results = []
        wall, times = run_pass(ops, results)
        pass_times.append(wall)
        op_times.append(times)
        attempted += len(ops)
        failed += check_results(results, failures)
        del results
        elapsed = time.perf_counter() - t_start
        if elapsed + wall > args.seconds:
            break

    usage = resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    pass_s = trimmed_mean(pass_times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "largest_s": (best_time(op_times, largest), "s"),
        "smallest_s": (best_time(op_times, smallest), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "nodes": {op.name: op.nodes for op in ops},
              "pass_times": pass_times, "op_times": op_times,
              "failures": failures}
    for name, msgs in failures.items():
        log(f"failed: {name}: {msgs[0][:200]}")

    if args.trace:
        metrics, traced_failed = traced_pass(mveq, ops, runner, pass_s, args,
                                             failures)
        attempted += len(ops)
        failed += traced_failed
        detail["layers"] = metrics
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    detail["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    name = f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_pass(mveq, ops, runner, pass_s, args, failures):
    """One more pass with every layer wrapped: its per-layer metrics and
    the number of its operations that failed."""
    tracer = spans.Tracer()
    if runner is not None:
        runner.tracer = tracer
    else:
        tracer.install(mveq)
    results = []
    try:
        idx = tracer.open("bench.pass")
        wall, _ = run_pass(ops, results)
        tracer.close(idx)
    finally:
        tracer.uninstall()
    failed = check_results(results, failures)
    self_s, calls = tracer.self_times()
    tracer.dump_lines(os.path.join(WORK, f"spans-{args.workload}.jsonl.gz"))

    m = {}
    for name in LAYER_TIMES:
        m[f"{name}_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
    for name in LAYER_CALLS:
        m[f"{name}_calls"] = {"value": calls.get(name, 0), "unit": "count"}
    for name, unit in LAYER_COUNTERS.items():
        m[name] = {"value": tracer.counters.get(name, 0.0), "unit": unit}
    m["cli.startup_s"] = {"value": runner.startup if runner else 0.0, "unit": "s"}
    m["trace.pass_s"] = {"value": wall, "unit": "s"}
    m["trace.overhead"] = {"value": wall / pass_s, "unit": "ratio"}
    m["trace.spans"] = {"value": len(tracer.names), "unit": "count"}
    with open(os.path.join(WORK, f"layers-{args.workload}.json"), "w") as fh:
        json.dump({"self_s": self_s, "calls": calls,
                   "counters": dict(tracer.counters)}, fh, indent=1, sort_keys=True)
    return m, failed


if __name__ == "__main__":
    sys.exit(main())
