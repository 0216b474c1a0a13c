"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --runs 10 [--sets 2] [--workloads clugp_web,social_all]
                                [--seed0 0] [--overhead]

One untimed priming run compiles bytecode and warms the file cache.
Then each set makes ``--runs`` runs of every workload, run i with seed
``seed0 + i``; the workload order alternates from run to run.  For each
workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread (q3 − q1) / median, and that
spread as a share of the metric's bound, per set; ``shift`` is how far
a set's median moved from the first set's, in the metric's worse
direction, as a share of the bound.  ``--overhead`` adds one traced run
per workload and prints its round time against the untraced median.
Raw results go to ``perfbench/out/spread-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    print(f"  {workload:11s} seed {seed:3d} trace {trace}  {wall:6.1f} s  "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
          flush=True)
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seconds = spec["run_seconds"]

    print("priming run (not counted)")
    run_once(spec, workloads[0], args.seed0, 1, 0)
    results = []
    for s in range(args.sets):
        print(f"set {s + 1}")
        for i in range(args.runs):
            order = workloads if (s * args.runs + i) % 2 == 0 else workloads[::-1]
            for w in order:
                results.append(dict(run_once(spec, w, args.seed0 + i, seconds, 0), set=s))
    if args.overhead:
        print("traced runs")
        for w in workloads:
            results.append(dict(run_once(spec, w, args.seed0, seconds, 1), set=None))

    out = ROOT / "perfbench" / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    for w in workloads:
        print(f"\n{w}")
        sets = [[r for r in results if r["workload"] == w and r["set"] == s]
                for s in range(args.sets)]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"  failed share over all runs: {sorted(shares)}; "
              f"all correct: {all(r['correct'] for runs in sets for r in runs)}")
        print(f"  {'metric':22s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'/bound':>7s} {'shift':>7s}")
        for m in spec["end_to_end"]:
            sign = 1 if m["better"] == "lower" else -1
            first = None
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][m["name"]]["value"] for r in runs])
                first = med if first is None else first
                shift = sign * (med - first) / first / m["bound"]
                print(f"  {m['name']:22s} {s + 1:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {spread / m['bound']:7.2f} {shift:7.2f}")
        if args.overhead:
            traced = [r for r in results if r["workload"] == w and r["trace"] == 1]
            untraced = statistics.median(r["metrics"]["run_s"]["value"] for r in sets[0])
            for r in traced:
                t = r["metrics"]["trace.run_s"]["value"]
                print(f"  tracing: traced round {t:.3f} s vs untraced median {untraced:.3f} s "
                      f"({(t - untraced) / untraced:+.1%})")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
