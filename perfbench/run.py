"""Run one benchmark workload in this process and print one JSON result.

    python3 perfbench/run.py --workload clugp_web --seed 0 --seconds 12 --trace 0

Set-up (imports, input generation, and for ``spark_e2e`` the session,
a warm-up pipeline and the cached input) is timed first; the parts that
can be repeated in one process are, and their medians count.  Then whole
rounds of the workload run, a new one starting while less than
``--seconds`` have passed since the first began.  Every output is checked
against computations made apart from the program.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  A traced run also writes its spans
to ``perfbench/out/trace-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Input generation is repeated and its median counts towards setup_s.
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def layer_sums(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one group of spans (a round, the replay, set-up)."""
    sums: dict[str, float] = defaultdict(float)
    means: dict[str, list[float]] = defaultdict(list)
    edges: dict[str, float] = defaultdict(float)
    for rec in spans:
        name = rec["name"]
        sums[f"{name}.s"] += rec["end"] - rec["start"]
        edges[name] += rec.get("edges", 0)
        for attr in ("score_ops", "replica_entries", "clusters", "mirrors", "rounds",
                     "moves", "stages", "max_part_edges", "max_part_mirror_msgs"):
            if attr in rec:
                sums[f"{name}.{attr}"] += rec[attr]
        if "space_mb" in rec:
            sums[f"{name}.space_mb"] = max(sums[f"{name}.space_mb"], rec["space_mb"])
        if "rf" in rec:
            means[f"{name}.rf"].append(rec["rf"])
        for attr in ("jobs", "stages", "tasks"):
            sums[f"spark.{attr}"] += rec.get(attr, 0)
        if "sim_s" in rec:
            means["costmodel.pagerank_sim_s"].append(rec["sim_s"])
            means["costmodel.messages"].append(rec["messages"])
    for name in ("clustering", "transform"):
        if sums.get(f"{name}.s"):
            sums[f"{name}.edges_per_s"] = edges[name] / sums[f"{name}.s"]
    for key, vals in means.items():
        sums[key] = statistics.fmean(vals)
    return sums


def per_layer(tracer, rounds, spec: dict, pr_iters: int) -> dict[str, float]:
    """Medians over rounds of each round's sums, plus replay and set-up."""
    groups = tracer.by_run()
    per_round = [layer_sums(groups.get(f"r{i + 1}", [])) for i in range(len(rounds))]
    merged = {}
    for key in {k for r in per_round for k in r}:
        merged[key] = statistics.median(r.get(key, 0.0) for r in per_round)
    merged.update(layer_sums(groups.get("replay", [])))
    merged["generators.s"] = layer_sums(groups.get("setup", [])).get("generators.s", 0.0)
    merged["pagerank.superstep_s"] = merged.get("pagerank.s", 0.0) / pr_iters
    merged["trace.run_s"] = min(r.seconds for r in rounds)
    return {m["name"]: merged.get(m["name"], 0) for m in spec["per_layer"]}


def end_to_end(rounds, setup_s: float, rss_mb: float, spec: dict) -> dict[str, float]:
    """The fastest round counts: the host's noise only ever adds time, and
    the fastest of a run's rounds moved half as much from run to run as
    their median."""
    def edges_per_s(r):
        ops = [o for o in r.ops if o.partitioner and o.error is None]
        return sum(o.edges for o in ops) / sum(o.seconds for o in ops)

    quality = rounds[0].quality
    values = {
        "run_s": min(r.seconds for r in rounds),
        "setup_s": setup_s,
        "partition_edges_per_s": max(edges_per_s(r) for r in rounds),
        "replication_factor": statistics.fmean(rf for rf, _ in quality),
        "relative_balance": max(b for _, b in quality),
        "peak_rss_mb": rss_mb,
    }
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} holds no src/repro to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T0
    wl = workloads.WORKLOADS[args.workload](args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(args.trace == 1)
    try:
        prepare_s = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare(tracer if i == SETUP_REPEATS - 1 else Tracer(False))
            prepare_s.append(time.perf_counter() - t0)
        setup_s = imports_s + statistics.median(prepare_s) + wl.start(tracer, OUT)

        rounds = []
        loop_t0 = time.perf_counter()
        while True:
            tracer.run_id = f"r{len(rounds) + 1}"
            rounds.append(wl.run_round(tracer))
            if time.perf_counter() - loop_t0 >= args.seconds:
                break
        if tracer.enabled:
            tracer.run_id = "replay"
            wl.replay(tracer, rounds[0])
        rss_mb = peak_rss_mb() + wl.extra_rss_mb()
    finally:
        wl.close()

    ops = [o for r in rounds for o in r.ops]
    for o in ops:
        for msg in ([o.error] if o.error else []) + o.problems:
            print(f"perfbench: {o.name}: {msg}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, rounds, spec, workloads.PR_ITERS)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(rounds, setup_s, rss_mb, spec)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{time.perf_counter() - T0:.1f} s in all", file=sys.stderr)
    print(json.dumps({
        "correct": not any(o.wrong for o in ops),
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
