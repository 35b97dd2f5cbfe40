#!/usr/bin/env python3
"""codlab benchmark: three closed-loop workloads, one client each.

Run from the repository root (the directory that holds ``src/codlab``):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads
  verify      each operation is a fresh ``codlab search all --threads 1``
  alt-tables  each operation is ``codlab cod 40`` then ``codlab min-cod 5 40``
  queries     in-process ``check_subset(parse_group_label(label), n)`` calls

With ``--trace 0`` the workload runs for ``--seconds`` and the last stdout
line reports the end-to-end metrics.  With ``--trace 1`` a fixed set of the
same inputs runs in-process, once untraced and once under the span tracer,
and the last line reports the per-layer metrics; the fixed set makes every
counter repeat exactly for a given seed.  The line before the last holds run
metadata (tail percentile, failure fraction, thread count, trace overhead).
Every output is checked against ``oracle.json``; a wrong output counts as a
failure and is never timed as a success.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("verify", "alt-tables", "queries")
# One thread: at the default of one thread per core the sweep threads contend
# for the GIL, and on a shared 2-core machine the median of a 30 s run then
# varied from 4.0 s to 6.0 s between runs, too widely to bound a regression.
VERIFY_ARGV = ("search", "all", "--threads", "1")
ALT_TABLES_ARGV = (("cod", "40"), ("min-cod", "5", "40"))
# The 12 labels with full degree data, aliases included.
QUERY_LABELS = (
    "G2(2)'", "J2", "Omega(5,3)", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)",
    "PSL(2,8)", "PSL(2,9)", "PSL(3,4)", "PSL(4,2)", "PSU(3,3)", "PSU(4,2)",
)
# An odd number of n values, drawn in shuffled blocks holding each n once:
# query time grows steeply with n, so the median query then sits inside
# the n = 16 bucket instead of on the edge between two buckets.
QUERY_N = tuple(range(5, 28))
TRACE_QUERY_BLOCKS = 8
SETUP_REPEATS = 9
SETUP_PROBE = (
    "import codlab.cli\n"
    "from codlab.catalog import sporadic_entries\n"
    "sporadic_entries()\n"
)


def load_oracle() -> dict:
    return json.loads((HERE / "oracle.json").read_text("utf-8"))


def query_key(label: str, n: int) -> str:
    return f"{label}|{n}"


def query_stream(seed: int):
    """Endless (label, n) stream: shuffled blocks of every n, seeded labels."""
    rng = random.Random(seed)
    while True:
        block = list(QUERY_N)
        rng.shuffle(block)
        for n in block:
            yield rng.choice(QUERY_LABELS), n


def query_blocks(seed: int, blocks: int) -> list[tuple[str, int]]:
    stream = query_stream(seed)
    return [next(stream) for _ in range(blocks * len(QUERY_N))]


def output_problem(stdout: bytes, expect: dict) -> str | None:
    """None if stdout matches the oracle entry, else what is wrong."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    for line in expect["lines"]:
        if line not in lines:
            return f"{' '.join(expect['argv'])}: missing line {line!r}"
    if hashlib.sha256(stdout).hexdigest() != expect["sha256"]:
        return f"{' '.join(expect['argv'])}: stdout sha256 differs from the reference"
    return None


def query_problem(result, label: str, n: int, table: dict) -> str | None:
    want = table[query_key(label, n)]
    got = [result.verdict, None if result.witness is None else str(result.witness)]
    return None if got == want else f"check_subset({label}, {n}) gave {got}, want {want}"


# ---------------------------------------------------------------------------
# Machine-speed calibration.
#
# On a shared machine the speed available to one process drifts: on a
# 2-core virtual machine the same `search all --threads 1` took 2.1 s to
# 7.1 s within a few minutes, and a fixed Python loop slowed and sped up with
# it.  A timed run therefore pins itself and its children to one core, runs a
# fixed kernel before and after each child process (or block of queries), and
# scales the times measured in between by CALIBRATION_REF_S / (mean kernel
# time around them): the reported seconds are seconds on a core where the
# kernel takes CALIBRATION_REF_S.  Run metadata also holds the raw figures.

CALIBRATION_REF_S = 0.03


def calibration_kernel() -> int:
    """Fixed work in the mix codlab does: big-int products, small tuples, hashing."""
    f = 1
    for i in range(2, 2500):
        f *= i
    acc = 0
    for n in range(1, 100000):
        acc += hash((n, n & 7, n >> 3)) & 0xFF
    return acc + f.bit_length()


def calibrate(repeats: int = 3) -> float:
    """Median wall time of the kernel over a few back-to-back runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two calibrations into reference seconds."""
    return 2 * CALIBRATION_REF_S / (before + after)


# ---------------------------------------------------------------------------
# Subprocess runs.


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float, float, int]:
    """Run one child to completion.

    Returns (exit code, stdout, stderr, wall s, user+sys CPU s, max RSS KiB),
    the CPU and RSS taken from this child's own rusage via wait4.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errtext = err.read()
    return proc.returncode, out, errtext, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def measure_setup(env: dict) -> tuple[float, float]:
    """Median calibrated and uncalibrated wall time of a fresh interpreter
    importing the CLI and loading the catalog."""
    argv = [sys.executable, "-c", SETUP_PROBE]
    times, raw = [], []
    cal = calibrate()
    for i in range(SETUP_REPEATS + 1):  # the first run also writes bytecode caches
        code, _, err, wall, _, _ = run_child(argv, env)
        if code != 0:
            raise SystemExit(f"setup probe failed with exit {code}: {err.decode(errors='replace')}")
        after = calibrate()
        if i:
            times.append(wall * scale(cal, after))
            raw.append(wall)
        cal = after
    return statistics.median(times), statistics.median(raw)


# ---------------------------------------------------------------------------
# Timed runs (--trace 0).


class Tally:
    """Operations of one timed run, each time kept raw and calibrated."""

    KINDS = ("cal", "raw")

    def __init__(self) -> None:
        self.walls: dict[str, list[float]] = {k: [] for k in self.KINDS}  # correct ops only
        self.busy = dict.fromkeys(self.KINDS, 0.0)  # wall time of every op attempted
        self.cpu = dict.fromkeys(self.KINDS, 0.0)
        self.attempted = 0
        self.problems: list[str] = []
        self.rss_kib = 0

    def add(self, wall: dict, problem: str | None) -> None:
        self.attempted += 1
        for kind in self.KINDS:
            self.busy[kind] += wall[kind]
            if problem is None:
                self.walls[kind].append(wall[kind])
        if problem is not None:
            self.problems.append(problem)

    def metrics(self, kind: str) -> dict:
        walls = self.walls[kind]
        return {
            "op_p50_s": statistics.median(walls) if walls else 0.0,
            "ops_per_s": len(walls) / self.busy[kind],
            "cpu_per_op_s": self.cpu[kind] / self.attempted,
        }


def tail(walls: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(walls)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(len(ordered) * pct / 100)
        beyond = len(ordered) - rank
        if rank >= 1 and beyond >= 10:
            return {"percentile": pct, "value_s": ordered[rank - 1], "samples": len(ordered),
                    "beyond": beyond}
    return None


def timed_cli(steps: list[dict], seconds: float, env: dict) -> Tally:
    """Closed loop; one operation runs every CLI command in steps."""
    tally = Tally()
    cal = calibrate()
    start = perf_counter()
    while perf_counter() - start < seconds:
        wall = dict.fromkeys(Tally.KINDS, 0.0)
        problem = None
        for expect in steps:
            argv = [sys.executable, "-m", "codlab.cli", *expect["argv"]]
            code, out, err, w, cpu, rss = run_child(argv, env)
            after = calibrate()
            k = scale(cal, after)
            cal = after
            wall["raw"] += w
            wall["cal"] += w * k
            tally.cpu["raw"] += cpu
            tally.cpu["cal"] += cpu * k
            tally.rss_kib = max(tally.rss_kib, rss)
            if code != 0:
                problem = problem or f"{' '.join(expect['argv'])}: exit {code}: {err[-500:]!r}"
            else:
                problem = problem or output_problem(out, expect)
        tally.add(wall, problem)
    return tally


def timed_queries(seed: int, seconds: float, table: dict) -> Tally:
    """Closed loop of in-process queries, calibrated once per block of every n."""
    import codlab

    codlab.sporadic_entries()  # catalog load is set-up, not part of any query
    stream = query_stream(seed)
    tally = Tally()
    cal = calibrate(1)
    start = perf_counter()
    while perf_counter() - start < seconds:
        block = []
        usage = resource.getrusage(resource.RUSAGE_SELF)
        for _ in QUERY_N:  # whole blocks only, so every n appears equally often
            label, n = next(stream)
            t0 = perf_counter()
            try:
                result = codlab.check_subset(codlab.parse_group_label(label), n)
            except Exception as exc:  # a failing query is counted, not fatal
                result = exc
            wall = perf_counter() - t0
            if isinstance(result, Exception):
                problem = f"check_subset({label}, {n}) raised {result!r}"
            else:
                problem = query_problem(result, label, n, table)
            block.append((wall, problem))
        end = resource.getrusage(resource.RUSAGE_SELF)
        after = calibrate(1)
        k = scale(cal, after)
        cal = after
        cpu = (end.ru_utime - usage.ru_utime) + (end.ru_stime - usage.ru_stime)
        tally.cpu["raw"] += cpu
        tally.cpu["cal"] += cpu * k
        for wall, problem in block:
            tally.add({"raw": wall, "cal": wall * k}, problem)
    tally.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally


def default_threads() -> int | None:
    """The --threads value codlab's CLI picks when none is given."""
    import codlab.cli

    build = getattr(codlab.cli, "build_parser", None)
    if build is None:
        return None
    return getattr(build().parse_args(["search", "all"]), "threads", None)


def run_timed(workload: str, seed: int, seconds: float, oracle: dict) -> tuple[dict, dict]:
    env = cli_env()
    setup_s, setup_raw_s = measure_setup(env)
    if workload == "queries":
        tally = timed_queries(seed, seconds, oracle["queries"]["table"])
    elif workload == "verify":
        tally = timed_cli([oracle["verify"]], seconds, env)
    else:
        tally = timed_cli(oracle["alt-tables"], seconds, env)
    failed = len(tally.problems)
    values = {"setup_s": setup_s, **tally.metrics("cal"), "peak_rss_mb": tally.rss_kib / 1024}
    units = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "cpu_per_op_s": "s",
             "peak_rss_mb": "MB"}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "ops": len(tally.walls["raw"]),
        "fail_frac": failed / tally.attempted,
        "op_tail": tail(tally.walls["cal"]),
        "uncalibrated": {"setup_s": setup_raw_s, **tally.metrics("raw"),
                         "op_tail": tail(tally.walls["raw"])},
        "default_threads": default_threads(),
        "problems": tally.problems[:5],
    }
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    return result, info


# ---------------------------------------------------------------------------
# Traced runs (--trace 1).


def run_main(argv) -> tuple[int, bytes]:
    """codlab.cli.main in-process, stdout captured as UTF-8 bytes."""
    import codlab.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = codlab.cli.main(list(argv))
    return code, buf.getvalue().encode("utf-8")


def trace_ops(workload: str, seed: int, oracle: dict) -> list:
    """The fixed operations of a traced run; each returns (problem, stdout bytes)."""
    import codlab

    def cli(expect):
        def op():
            code, out = run_main(expect["argv"])
            problem = f"{' '.join(expect['argv'])}: exit {code}" if code else None
            return problem or output_problem(out, expect), len(out)
        return op

    def query(label, n):
        table = oracle["queries"]["table"]

        def op():
            result = codlab.check_subset(codlab.parse_group_label(label), n)
            return query_problem(result, label, n, table), 0
        return op

    if workload == "verify":
        return [cli(oracle["verify"])]
    if workload == "alt-tables":
        return [cli(expect) for expect in oracle["alt-tables"]]
    return [query(label, n) for label, n in query_blocks(seed, TRACE_QUERY_BLOCKS)]


def run_ops(ops: list) -> tuple[float, list[str], int]:
    problems = []
    stdout_bytes = 0
    start = perf_counter()
    for op in ops:
        try:
            problem, nbytes = op()
        except Exception as exc:  # a failing operation is counted, not fatal
            problem, nbytes = f"operation raised {exc!r}", 0
        stdout_bytes += nbytes
        if problem is not None:
            problems.append(problem)
    return perf_counter() - start, problems, stdout_bytes


def layer_metrics(summary: dict, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced run.  Times are inclusive seconds
    unless named self; a generator's time is the time spent inside it."""
    by_home, by_name = summary["by_home"], summary["by_name"]
    extra, under = summary["extra"], summary["under"]
    none = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "yields": 0, "argsum": 0, "args": set()}

    def f(home: str) -> dict:
        return by_home.get(home, none)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    fact_search = by_name.get(("exactnum.factorial", "search"), none)
    points = extra.get("search.points", 0)
    feasible = f("search.candidate_n_range")["calls"]
    enumerated = f("partitions.enumerate_partitions")["yields"]
    irr = f("alt_codegrees.alt_irr_entries")
    sweep = f("search.sweep_family")["incl_s"] + f("search.sweep_sporadic")["incl_s"]
    sweep -= under.get(("search.derive_family_bounds", "search.sweep_family"), 0.0)
    render_self = sum((s["self_s"] for home, s in by_home.items() if home.startswith("cli.")), 0.0)
    values = {
        "search.points": (points, "count"),
        "search.feasible_points": (feasible, "count"),
        "search.feasible_ratio": (ratio(feasible, points), "ratio"),
        "search.rows": (extra.get("search.rows", 0), "count"),
        "search.bounds_s": (f("search.derive_family_bounds")["incl_s"], "s"),
        "search.sweep_s": (sweep, "s"),
        "search.discharge_s": (f("search.discharge_rows")["incl_s"], "s"),
        "search.factorial_calls": (fact_search["calls"], "count"),
        "search.factorial_n_sum": (fact_search["argsum"], "count"),
        "partitions.enumerated": (enumerated, "count"),
        "partitions.enumerate_s": (f("partitions.enumerate_partitions")["incl_s"], "s"),
        "partitions.conjugate_calls": (f("partitions.conjugate")["calls"], "count"),
        "partitions.conjugate_s": (f("partitions.conjugate")["incl_s"], "s"),
        "partitions.hook_product_calls": (f("partitions.hook_product")["calls"], "count"),
        "partitions.hook_product_s": (f("partitions.hook_product")["incl_s"], "s"),
        "partitions.hook_products_per_shape": (
            ratio(f("partitions.hook_product")["calls"], enumerated), "ratio"),
        "alt_codegrees.codegree_set_calls": (f("alt_codegrees.alt_codegree_set")["calls"], "count"),
        "alt_codegrees.codegree_set_s": (f("alt_codegrees.alt_codegree_set")["incl_s"], "s"),
        "alt_codegrees.min_codegree_calls": (
            f("alt_codegrees.min_nontrivial_codegree")["calls"], "count"),
        "alt_codegrees.min_codegree_s": (f("alt_codegrees.min_nontrivial_codegree")["incl_s"], "s"),
        "alt_codegrees.entries": (irr["yields"], "count"),
        "alt_codegrees.sym_degree_calls": (f("alt_codegrees.sym_degree")["calls"], "count"),
        "alt_codegrees.distinct_n_ratio": (ratio(len(irr["args"]), irr["calls"]), "ratio"),
        "exactnum.factorial_calls": (f("exactnum.factorial")["calls"], "count"),
        "exactnum.factorial_s": (f("exactnum.factorial")["incl_s"], "s"),
        "exactnum.format_factored_calls": (f("exactnum.format_factored")["calls"], "count"),
        "exactnum.format_factored_s": (f("exactnum.format_factored")["incl_s"], "s"),
        "exactnum.is_prime_calls": (f("exactnum.is_prime")["calls"], "count"),
        "catalog.parse_calls": (f("catalog.parse_group_label")["calls"], "count"),
        "catalog.parse_s": (f("catalog.parse_group_label")["incl_s"], "s"),
        "catalog.lie_calls": (f("catalog.lie")["calls"], "count"),
        "catalog.group_order_calls": (f("catalog.group_order")["calls"], "count"),
        "catalog.group_order_s": (f("catalog.group_order")["incl_s"], "s"),
        "catalog.class_number_bound_s": (f("catalog.class_number_bound")["incl_s"], "s"),
        "catalog.simple_codegree_set_s": (f("catalog.simple_codegree_set")["incl_s"], "s"),
        "cli.main_s": (f("cli.main")["incl_s"], "s"),
        "cli.render_self_s": (render_self, "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_traced(workload: str, seed: int, oracle: dict) -> tuple[dict, dict]:
    import codlab
    from tracer import Tracer, namespace_snapshot

    codlab.sporadic_entries()
    ops = trace_ops(workload, seed, oracle)
    before = namespace_snapshot()
    cal = [calibrate()]
    untraced_s, problems, _ = run_ops(ops)
    cal.append(calibrate())
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_problems, stdout_bytes = run_ops(ops)
    finally:
        tracer.uninstall()
    cal.append(calibrate())
    after = namespace_snapshot()
    problems += traced_problems
    if before.keys() != after.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append("tracer left a wrapper installed")
    spans_file = OUT_DIR / f"spans-{workload}.bin"
    tracer.write_spans(spans_file)
    metrics = layer_metrics(tracer.summary(), stdout_bytes)
    untraced_cal = untraced_s * scale(cal[0], cal[1])
    traced_cal = traced_s * scale(cal[1], cal[2])
    attempted = 2 * len(ops)
    failed = len(problems)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "ops": len(ops),
        "fail_frac": failed / attempted,
        "uncalibrated": {"untraced_s": untraced_s, "traced_s": traced_s},
        "untraced_s": untraced_cal,
        "traced_s": traced_cal,
        "trace_overhead_s": traced_cal - untraced_cal,
        "trace_overhead_frac": (traced_cal - untraced_cal) / untraced_cal,
        "spans": tracer.span_count(),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "default_threads": default_threads(),
        "problems": problems[:5],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def prepare() -> str | None:
    """Make the checkout's codlab importable; None on success, else the problem."""
    if not (SRC / "codlab" / "cli.py").is_file():
        return f"no codlab sources under {SRC}; run from the repository root"
    sys.path.insert(0, str(SRC))
    import codlab

    if Path(codlab.__file__).resolve().parent != (SRC / "codlab").resolve():
        return f"imported codlab from {codlab.__file__}, not from {SRC}"
    OUT_DIR.mkdir(exist_ok=True)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    problem = prepare()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # Run this process and every child on one core, so that the calibration
    # kernel measures the speed of the core the operations ran on.
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    oracle = load_oracle()
    if args.trace:
        result, info = run_traced(args.workload, args.seed, oracle)
    else:
        result, info = run_timed(args.workload, args.seed, args.seconds, oracle)
    info.update(python=platform.python_version(), nproc=nproc, cpu_count=os.cpu_count(),
                pinned_cpu=cpu)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
