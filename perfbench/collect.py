#!/usr/bin/env python3
"""Run every workload over several seeds and print every metric.

Run from the repository root:

    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline.json

For each workload in BENCHMARK.json this makes one timed run per seed
(``--trace 0``, ``run_seconds`` from BENCHMARK.json) and two traced runs on
the first seed.  It prints each end-to-end metric by name and unit with its
median, quartiles and spread (quartile distance over median, against the
metric's bound), the failure fraction and tail latency, and each per-layer
metric of the traced run, checking that the counters of the two traced
runs are identical.  ``--out`` writes all of it, with the commit, Python
version and core count, as JSON.  Exits 1 if any output was wrong, a
spread exceeded its bound or a counter did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    return {"seed": seed, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="timed runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    ok = True
    report = {
        "format": "perfbench-collect",
        "meta": {
            "commit": git("rev-parse", "HEAD"),
            "src_modified": git("status", "--porcelain", "--", "src") not in ("", None),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
        },
        "workloads": {},
    }
    for workload in names:
        runs = [bench_run(spec, workload, seed, 0) for seed in seeds]
        report["meta"]["default_threads"] = runs[0]["info"]["default_threads"]
        traced = [bench_run(spec, workload, seeds[0], 1) for _ in range(2)]
        attempted = sum(r["result"]["attempted"] for r in runs + traced)
        failed = sum(r["result"]["failed"] for r in runs + traced)
        print(f"\n== {workload}: {len(runs)} timed runs, seeds {seeds[0]}..{seeds[-1]}; "
              f"fail_frac {failed / attempted:g} ({failed}/{attempted})")
        ok &= failed == 0
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            s.update(unit=metric["unit"], bound=metric["bound"], better=metric["better"])
            summary[name] = s
            steady = name == "setup_s" or s["spread"] <= metric["bound"] / 3
            ok &= name == "setup_s" or s["spread"] <= metric["bound"]
            print(f"  {name:<14} {s['median']:>12.6g} {metric['unit']:<5} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f} "
                  f"(bound {metric['bound']}){'' if steady else '  NOT STEADY'}")
        tails = [r["info"]["op_tail"] for r in runs if r["info"]["op_tail"]]
        if tails:
            pct = min(t["percentile"] for t in tails)
            values = [t["value_s"] for t in tails if t["percentile"] == pct]
            print(f"  op_tail_s      {statistics.median(values):>12.6g} s     p{pct:g}, "
                  f"median over {len(values)} runs of ~{tails[0]['samples']} ops each")
        else:
            print("  op_tail_s      (omitted: no run has ten samples above the median)")
        first, second = (t["result"]["metrics"] for t in traced)
        counts = {k for k, v in first.items() if v["unit"] in ("count", "bytes", "ratio")}
        repeat = all(first[k] == second[k] for k in counts)
        ok &= repeat
        overhead = [t["info"]["trace_overhead_frac"] for t in traced]
        print(f"  traced (seed {seeds[0]}): counters repeat exactly: {repeat}; "
              f"tracing overhead {min(overhead):.1%}..{max(overhead):.1%}")
        for name, m in first.items():
            print(f"    {name:<38} {m['value']:>14.6g} {m['unit']}")
        report["workloads"][workload] = {
            "summary": summary, "fail_frac": failed / attempted, "counters_repeat": repeat,
            "runs": runs, "traced": traced,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    print(f"\n{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
