"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``prepare`` (timed as
part of set-up), runs one round of calls into the program per
``run_round`` (the timed region), and checks that round's outputs after
the region ends.  In traced runs, ``replay`` also calls CLUGP's passes
one by one on the first round's inputs and checks what they return.  Why each
workload exists is written in ``BENCHMARK.json`` and the README.
"""
from __future__ import annotations

import importlib.util
import math
import os
import shlex
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

from repro.core.clugp import clugp_partition_spark
from repro.core.clustering import cluster_graph, stream_cluster
from repro.core.game import play_game
from repro.core.transform import transform
from repro.engine.cc import connected_components
from repro.engine.costmodel import CostModel, simulate
from repro.engine.gas import layout, layout_local
from repro.engine.pagerank import pagerank
from repro.experiments.harness import ordered_stream
from repro.graphs.generators import EdgeStream, dataset
from repro.metrics.quality import quality, quality_local
from repro.partitioners import all_partitioners, get_partitioner, partition_spark

WEB_SF = 0.005           # dataset("it"): 48k edges, crawl order
WEB_KS = (4, 64, 256)
SOCIAL_SF = 0.005        # dataset("twitter"): 45k edges
SOCIAL_K = 64
#: Every partitioner with a paper stream order (§VI-A); the ablations
#: clugp_s/clugp_g only run on the empty stream.
SOCIAL_ALGOS = ("hashing", "dbh", "greedy", "hdrf", "mint", "clugp")
SPARK_SF = 0.01          # dataset("uk"): 30k edges
SPARK_WARM_SF = 0.001    # dataset("uk"): 3k edges, for the warm-up job
SPARK_K = 64
SPARK_NODES = 4
#: Each lift runs this many times per round, the last result feeding the
#: pipeline: one call is about a second, too short to time steadily.
LIFT_CALLS = 2
PR_ITERS = 5
COST_MODEL = CostModel(rtt=0.01)  # the 10 ms RTT of jobs/distributed_clugp.py


@dataclass
class Op:
    """One call into the program; failed when it raised or a check failed.

    A raise is a wrong output unless ``may_raise``: only the calls on the
    empty stream may raise without making the run incorrect.
    """

    name: str
    seconds: float = 0.0
    edges: int = 0                 # edges streamed, for partitioner calls
    partitioner: bool = False
    may_raise: bool = False
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def wrong(self) -> bool:
        return bool(self.problems) or (self.error is not None and not self.may_raise)


@dataclass
class Round:
    ops: list[Op]
    seconds: float                 # wall time of the timed region
    quality: list[tuple[float, float]]  # (RF, balance) per (partitioner, k) point
    points: list[dict] = field(default_factory=list)  # local outputs, for replay()


def call(tr: Tracer, ops: list[Op], name: str, fn, *, edges=0, partitioner=False,
         may_raise=False, **attrs):
    """Time one call into the program, inside a span when tracing."""
    op = Op(name, edges=edges, partitioner=partitioner, may_raise=may_raise)
    ops.append(op)
    with tr.span(name, **attrs) as rec:
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a call that raises is a failed operation
            value, op.error = None, f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
    return value, op, rec


def skip(ops: list[Op], names, why: str) -> None:
    """Count the calls a failed call made impossible as failed too."""
    ops.extend(Op(n, error=f"skipped: {why}") for n in names)


# -- local workloads ------------------------------------------------------

def run_point(tr: Tracer, ops, algo: str, stream: EdgeStream, k: int, seed: int):
    """A registry partitioner, then ``quality_local`` on its assignment."""
    res, op, rec = call(
        tr, ops, algo, lambda: get_partitioner(algo)(stream, k, seed=seed),
        edges=stream.n_edges, partitioner=True, k=k,
    )
    if res is None:
        skip(ops, ["quality_local"], f"{algo} failed")
        return None
    q, qop, _ = call(tr, ops, "quality_local", lambda: quality_local(stream, res.edge_partition, k), k=k)
    return {"algo": algo, "k": k, "stream": stream, "res": res, "q": q,
            "op": op, "qop": qop, "rec": rec}


def check_point(tr: Tracer, pt: dict) -> None:
    stream, k, parts = pt["stream"], pt["k"], pt["res"].edge_partition
    op = pt["op"]
    op.problems += checks.check_assignment(parts, stream.n_edges, k)
    if op.problems:
        return
    if pt["algo"] == "clugp":
        # Algorithm 1's L_max = τ|E|/k with τ = 1.
        op.problems += checks.check_max_load(parts, k, math.ceil(stream.n_edges / k), "clugp L_max")
    if pt["q"] is not None:
        pt["qop"].problems += checks.check_quality(
            pt["q"], checks.own_quality(stream.src, stream.dst, parts, k)
        )
    if tr.enabled:
        res, rec = pt["res"], pt["rec"]
        rec["score_ops"] = int(res.extra.get("score_ops", 0))
        rec["space_mb"] = res.space_bytes / 2**20
        rec["replica_entries"] = int(res.extra.get("replica_entries", 0))
        if pt["q"] is not None:
            rec["rf"] = pt["q"]["replication_factor"]
        sim = simulate(layout_local(stream, parts, k), iterations=PR_ITERS, model=COST_MODEL)
        rec["sim_s"], rec["messages"] = sim.total_s, sim.messages


def replay_clugp(tr: Tracer, pt: dict, seed: int) -> None:
    """Run CLUGP's passes one by one, as ``clugp_partition`` does.

    The passes are only reachable inside ``clugp_partition``, so this is
    how the traced run times them.  The replay must reproduce the
    registry's assignment, and its game must end at a Nash equilibrium.
    """
    stream, k, op = pt["stream"], pt["k"], pt["op"]
    n = stream.n_edges
    try:
        with tr.span("clustering", k=k, edges=n) as rec:
            clus = stream_cluster(stream, v_max=max(1.0, n / k))
        rec.update(clusters=clus.n_clusters, mirrors=clus.n_mirrors)
        with tr.span("cluster_graph", k=k):
            sizes, adj = cluster_graph(clus)
        with tr.span("game", k=k) as rec:
            game = play_game(sizes, adj, k, seed=seed)
        rec.update(rounds=game.rounds, moves=game.moves, score_ops=game.score_ops)
        with tr.span("transform", k=k, edges=n):
            out = transform(stream, clus, game.assignment, k)
    except Exception as exc:  # the check fails; the run goes on
        op.problems.append(f"clugp replay raised {type(exc).__name__}: {exc}")
        return
    if not np.array_equal(out.edge_partition, pt["res"].edge_partition):
        op.problems.append(f"clugp k={k}: the passes run one by one disagree with clugp_partition")
    op.problems += checks.check_cluster_graph(clus.edge_cu, clus.edge_cv, clus.n_clusters, sizes, adj)
    op.problems += checks.check_nash(clus.edge_cu, clus.edge_cv, clus.n_clusters,
                                     game.assignment, game.lam, k)


class LocalWorkload:
    """Shared shape of the workloads that run in this process, without Spark."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def start(self, tr: Tracer, out_dir: Path) -> float:
        """Set-up beyond ``prepare``; none for the local workloads."""
        return 0.0

    def points(self, tr: Tracer, ops: list[Op]) -> list[dict]:
        raise NotImplementedError

    def run_round(self, tr: Tracer) -> Round:
        ops: list[Op] = []
        t0 = time.perf_counter()
        pts = self.points(tr, ops)
        seconds = time.perf_counter() - t0
        pts = [p for p in pts if p is not None]
        for p in pts:
            check_point(tr, p)
        self.check_extra(ops)
        qual = [(p["q"]["replication_factor"], p["q"]["relative_balance"])
                for p in pts if p["q"] is not None]
        return Round(ops, seconds, qual, pts)

    def check_extra(self, ops: list[Op]) -> None:
        pass

    def replay(self, tr: Tracer, first: Round) -> None:
        for pt in first.points:
            if pt["algo"] == "clugp" and not pt["op"].failed:
                replay_clugp(tr, pt, self.seed)

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


class ClugpWeb(LocalWorkload):
    name = "clugp_web"

    def prepare(self, tr: Tracer) -> None:
        with tr.span("generators"):
            self.stream = dataset("it", sf=WEB_SF, seed_offset=self.seed)

    def points(self, tr, ops):
        return [run_point(tr, ops, "clugp", self.stream, k, self.seed) for k in WEB_KS]


class SocialAll(LocalWorkload):
    name = "social_all"

    def prepare(self, tr: Tracer) -> None:
        with tr.span("generators"):
            base = dataset("twitter", sf=SOCIAL_SF, seed_offset=self.seed)
            self.streams = {a: ordered_stream(base, a, seed=self.seed) for a in SOCIAL_ALGOS}
        self.empty = EdgeStream(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    def points(self, tr, ops):
        pts = [run_point(tr, ops, a, self.streams[a], SOCIAL_K, self.seed) for a in SOCIAL_ALGOS]
        self.empty_results = []
        for algo in all_partitioners():
            res, op, _ = call(
                tr, ops, f"empty.{algo}",
                lambda: get_partitioner(algo)(self.empty, SOCIAL_K, seed=self.seed),
                partitioner=True, may_raise=True,
            )
            self.empty_results.append((res, op))
        return pts

    def check_extra(self, ops):
        for res, op in self.empty_results:
            if res is not None:
                op.problems += checks.check_assignment(res.edge_partition, 0, SOCIAL_K)


# -- the Spark pipeline ---------------------------------------------------

def start_spark(out_dir: Path):
    """The jobs' session (``jobs/common.get_spark``), local, with its
    scratch files under ``out_dir``.

    Only what the jobs leave to ``spark-submit`` is set here, through the
    submit arguments: the master, the driver's memory and temporary
    directory, and enough retained job and stage records for the status
    tracker to count a round.
    """
    slots = min(4, os.cpu_count() or 1)
    root = Path(__file__).resolve().parent.parent
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(out_dir / "spark-local")
    # Python workers import repro from this checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{slots}]",
        "--driver-memory 1g",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf spark.ui.retainedJobs=100000",
        "--conf spark.ui.retainedStages=100000",
        "pyspark-shell",
    ])
    spec = importlib.util.spec_from_file_location("jobs_common", root / "jobs" / "common.py")
    jobs_common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs_common)
    spark = jobs_common.get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def materialise(df):
    df = df.cache()
    df.count()
    return df


class SparkE2E:
    """``jobs/distributed_clugp.py``'s pipeline, plus the single-task lift."""

    name = "spark_e2e"

    def __init__(self, seed: int):
        self.seed = seed
        self.spark = None
        self.reference: dict | None = None

    def prepare(self, tr: Tracer) -> None:
        with tr.span("generators"):
            self.stream = dataset("uk", sf=SPARK_SF, seed_offset=self.seed)
            self.warm = dataset("uk", sf=SPARK_WARM_SF, seed_offset=self.seed)

    def start(self, tr: Tracer, out_dir: Path) -> float:
        """Session start, a warm-up job, and the cached input.

        Returns their set-up seconds, with the median of three input
        caches, since only that part can be repeated in one JVM.
        """
        t0 = time.perf_counter()
        self.spark = start_spark(out_dir)
        session_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm = materialise(self.warm.to_spark(self.spark))
        self.lifts(Tracer(False), [], warm, self.warm.n_edges, calls=1)
        self.spark.catalog.clearCache()
        warmup_s = time.perf_counter() - t0

        cache_s = []
        for _ in range(3):
            if cache_s:
                self.edges.unpersist()
            t0 = time.perf_counter()
            self.edges = materialise(self.stream.to_spark(self.spark))
            cache_s.append(time.perf_counter() - t0)
        return session_s + warmup_s + statistics.median(cache_s)

    def job_counts(self, group: str) -> dict:
        """Jobs, stages and tasks Spark ran for one job group."""
        st = self.spark.sparkContext.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stages = tasks = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for s in info.stageIds if info else []:
                si = st.getStageInfo(s)
                if si is not None and si.numCompletedTasks > 0:
                    stages += 1
                    tasks += si.numCompletedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks}

    def spark_call(self, tr: Tracer, ops: list[Op], name: str, fn, **kw):
        """``call`` in its own job group, whose counts a traced run keeps."""
        group = f"{tr.run_id}/{len(ops)}/{name}"
        self.spark.sparkContext.setJobGroup(group, name)
        value, op, rec = call(tr, ops, name, fn, **kw)
        if tr.enabled:
            rec.update(self.job_counts(group))
        return value, rec

    def lifts(self, tr: Tracer, ops: list[Op], edges, n_e: int, calls: int) -> dict:
        """Both mapInPandas lifts, ``calls`` times each; the last results count.

        The warm-up makes one call of each: that starts the Python workers
        and loads Arrow, a cost a user pays once per session.
        """
        out = {}
        for i in range(calls):
            if i:
                for df in (out["assign"], out["hashed"]):
                    if df is not None:
                        df.unpersist()
            out["assign"], _ = self.spark_call(
                tr, ops, "clugp_spark",
                lambda: materialise(clugp_partition_spark(edges, SPARK_K, n_nodes=SPARK_NODES, seed=self.seed)),
                edges=n_e, partitioner=True,
            )
            out["hashed"], _ = self.spark_call(
                tr, ops, "partition_spark",
                lambda: materialise(partition_spark(edges, "hashing", SPARK_K, seed=self.seed)),
                edges=n_e, partitioner=True,
            )
        return out

    def pipeline(self, tr: Tracer, ops: list[Op], edges, n_e: int) -> dict:
        """One pass of the pipeline: the lifts, then the jobs' steps on
        the last CLUGP assignment."""
        spark_call = partial(self.spark_call, tr, ops)
        out = self.lifts(tr, ops, edges, n_e, LIFT_CALLS)
        assign = out["assign"]
        if assign is None:
            skip(ops, ["quality", "layout", "pagerank", "cc"], "clugp_spark failed")
            return out
        out["quality"], _ = spark_call("quality", lambda: quality(assign, SPARK_K))
        out["layout"], out["layout_rec"] = spark_call("layout", lambda: layout(assign, SPARK_K))
        out["ranks"], _ = spark_call(
            "pagerank", lambda: pagerank(assign, iterations=PR_ITERS).collect()
        )

        def cc():
            labels, rounds = connected_components(assign, max_iters=50)
            return labels.collect(), rounds

        out["cc"], cc_rec = spark_call("cc", cc)
        if out["cc"] is not None:
            cc_rec["rounds"] = out["cc"][1]
        return out

    def run_round(self, tr: Tracer) -> Round:
        ops: list[Op] = []
        t0 = time.perf_counter()
        out = self.pipeline(tr, ops, self.edges, self.stream.n_edges)
        seconds = time.perf_counter() - t0
        points = self.check(tr, ops, out)
        # Drop every cached result, the leaked CC label tables too, so the
        # next round recomputes; then cache the input again.
        self.spark.catalog.clearCache()
        self.edges = materialise(self.edges)
        return Round(ops, seconds, points)

    def check(self, tr: Tracer, ops: list[Op], out: dict) -> list[tuple[float, float]]:
        src, dst = self.stream.src, self.stream.dst
        if self.reference is None:
            self.reference = {
                "ranks": checks.own_pagerank(src, dst, iterations=PR_ITERS),
                "cc": checks.own_components(src, dst),
            }
        op = {o.name: o for o in ops}
        if out.get("hashed") is not None:
            op["partition_spark"].problems += checks.check_returned_edges(
                out["hashed"].toPandas(), src, dst, SPARK_K
            )
        if out.get("assign") is None:
            return []
        pdf = out["assign"].toPandas()
        op["clugp_spark"].problems += checks.check_returned_edges(pdf, src, dst, SPARK_K)
        if op["clugp_spark"].problems:
            return []
        parts = pdf.sort_values("pos")["partition"].to_numpy()
        # §III-C: each node balances its own substream, so the global
        # maximum load may exceed |E|/k by at most one edge per node.
        op["clugp_spark"].problems += checks.check_max_load(
            parts, SPARK_K, len(parts) / SPARK_K + SPARK_NODES, "distributed clugp"
        )
        own = checks.own_quality(src, dst, parts, SPARK_K)
        q, lay = out.get("quality"), out.get("layout")
        if q is not None:
            op["quality"].problems += checks.check_quality(q, own)
        if lay is not None:
            op["layout"].problems += checks.check_layout(lay, own)
            if tr.enabled:
                sim = simulate(lay, iterations=PR_ITERS, model=COST_MODEL)
                out["layout_rec"].update(
                    mirrors=lay.n_mirrors, max_part_edges=lay.max_part_edges,
                    max_part_mirror_msgs=lay.max_part_mirror_msgs,
                    sim_s=sim.total_s, messages=sim.messages,
                )
        if out.get("ranks") is not None:
            op["pagerank"].problems += checks.check_pagerank(
                [(r["v"], r["rank"]) for r in out["ranks"]], self.reference["ranks"]
            )
        if out.get("cc") is not None:
            op["cc"].problems += checks.check_components(
                [(r["v"], r["component"]) for r in out["cc"][0]], self.reference["cc"]
            )
        if q is None:
            return []
        return [(q["replication_factor"], q["relative_balance"])]

    def replay(self, tr: Tracer, first: Round) -> None:
        pass

    def extra_rss_mb(self) -> float:
        """High-water resident memory of the Spark JVM."""
        pid = self.spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        return 0.0

    def close(self) -> None:
        """Stop the session and wait for the JVM to exit."""
        if self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        self.spark.stop()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()  # the gateway exits on EOF
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


WORKLOADS = {w.name: w for w in (ClugpWeb, SocialAll, SparkE2E)}
