"""Output checks, computed apart from the program.

Each ``check_*`` returns a list of problems (empty when the output is
right).  The reference values come from the benchmark's own numpy or
pure-Python code over the input stream, or from a property the method
guarantees; none of them calls into ``repro``.
"""
from __future__ import annotations

import math

import numpy as np


def check_assignment(parts, n_edges: int, k: int) -> list[str]:
    """Every edge gets exactly one partition id in [0, k)."""
    parts = np.asarray(parts)
    if parts.shape != (n_edges,):
        return [f"assignment has shape {parts.shape}, expected ({n_edges},)"]
    if n_edges and (parts.min() < 0 or parts.max() >= k):
        return [f"partition ids span [{parts.min()}, {parts.max()}], outside [0, {k})"]
    return []


def own_quality(src, dst, parts, k: int) -> dict:
    """Replica and load counts of an assignment, by the benchmark's packing."""
    v = np.concatenate([src, dst]).astype(np.int64)
    p = np.concatenate([parts, parts]).astype(np.int64)
    n_replicas = len(np.unique(v * k + p))
    n_vertices = len(np.unique(v))
    loads = np.bincount(np.asarray(parts, dtype=np.int64), minlength=k)
    n_e = len(parts)
    return {
        "n_replicas": n_replicas,
        "n_vertices": n_vertices,
        "replication_factor": n_replicas / n_vertices if n_vertices else 1.0,
        "relative_balance": k * int(loads.max()) / n_e if n_e else 1.0,
        "max_part_edges": int(loads.max()) if n_e else 0,
    }


def check_quality(got: dict, own: dict) -> list[str]:
    """RF, balance and counts reported by the program equal our own."""
    bad = []
    for key in ("n_replicas", "n_vertices"):
        if int(got[key]) != own[key]:
            bad.append(f"{key}: program {got[key]} != benchmark {own[key]}")
    for key in ("replication_factor", "relative_balance"):
        if not math.isclose(got[key], own[key], rel_tol=1e-12):
            bad.append(f"{key}: program {got[key]!r} != benchmark {own[key]!r}")
    return bad


def check_max_load(parts, k: int, cap: float, what: str) -> list[str]:
    loads = np.bincount(np.asarray(parts, dtype=np.int64), minlength=k)
    if len(parts) and loads.max() > cap:
        return [f"{what}: max load {loads.max()} > {cap}"]
    return []


def check_nash(edge_cu, edge_cv, n_clusters: int, assignment, lam: float, k: int) -> list[str]:
    """No cluster lowers its Eq-11 cost by moving alone.

    Cluster sizes, cut counts and loads are rebuilt from the stream-time
    endpoint clusters of pass 1, not taken from ``cluster_graph``:

        cost(i, p) = (λ/k)·|c_i|·(load_p without c_i + |c_i|)
                     + ½·(ext_i − cut_i(p))
    """
    cu = np.asarray(edge_cu, dtype=np.int64)
    cv = np.asarray(edge_cv, dtype=np.int64)
    a = np.asarray(assignment, dtype=np.int64)
    m = n_clusters
    intra = cu == cv
    sizes = np.bincount(cu[intra], minlength=m).astype(np.float64)
    iu, iv = cu[~intra], cv[~intra]
    ext = np.bincount(np.concatenate([iu, iv]), minlength=m).astype(np.float64)
    cut = np.bincount(
        np.concatenate([iu * k + a[iv], iv * k + a[iu]]), minlength=m * k
    ).astype(np.float64).reshape(m, k)
    loads = np.bincount(a, weights=sizes, minlength=k)
    rows = np.arange(m)
    load_wo = np.broadcast_to(loads, (m, k)).copy()
    load_wo[rows, a] -= sizes
    cost = (lam / k) * sizes[:, None] * (load_wo + sizes[:, None]) + 0.5 * (ext[:, None] - cut)
    own = cost[rows, a]
    best = cost.min(axis=1)
    tol = 1e-9 * np.maximum(1.0, np.abs(own))
    unstable = np.flatnonzero(best < own - tol)
    if len(unstable):
        i = int(unstable[0])
        return [
            f"game: {len(unstable)} of {m} clusters can lower their cost alone "
            f"(cluster {i}: {own[i]:.6g} -> {best[i]:.6g})"
        ]
    return []


def check_cluster_graph(edge_cu, edge_cv, n_clusters: int, sizes, adj) -> list[str]:
    """``cluster_graph`` equals the benchmark's own collapse of the stream."""
    cu = np.asarray(edge_cu, dtype=np.int64)
    cv = np.asarray(edge_cv, dtype=np.int64)
    intra = cu == cv
    own_sizes = np.bincount(cu[intra], minlength=n_clusters)
    bad = []
    if not np.array_equal(own_sizes, sizes):
        bad.append("cluster_graph: cluster sizes differ from the stream's intra-cluster edges")
    indptr, cols, ws = adj
    rows = np.repeat(np.arange(n_clusters), np.diff(indptr))
    got_keys = rows * n_clusters + cols
    order = np.argsort(got_keys)
    iu, iv = cu[~intra], cv[~intra]
    own_keys, own_ws = np.unique(
        np.concatenate([iu * n_clusters + iv, iv * n_clusters + iu]), return_counts=True
    )
    if not (np.array_equal(got_keys[order], own_keys) and np.array_equal(ws[order], own_ws)):
        bad.append("cluster_graph: adjacency weights differ from the stream's inter-cluster edges")
    return bad


def check_returned_edges(pdf, src, dst, k: int) -> list[str]:
    """A Spark lift returns every input ``pos`` once, with its own edge."""
    n = len(src)
    pos = pdf["pos"].to_numpy()
    if len(pos) != n or not np.array_equal(np.sort(pos), np.arange(n)):
        return [f"lift returned {len(pos)} rows, {len(np.unique(pos))} distinct pos, for {n} edges"]
    order = np.argsort(pos)
    bad = []
    if not (np.array_equal(pdf["src"].to_numpy()[order], src)
            and np.array_equal(pdf["dst"].to_numpy()[order], dst)):
        bad.append("lift returned an edge under another edge's pos")
    return bad + check_assignment(pdf["partition"].to_numpy()[order], n, k)


def own_pagerank(src, dst, *, iterations: int, damping: float = 0.85) -> dict[int, float]:
    """Power iteration over the edge multiset, no dangling redistribution."""
    ids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    n = len(ids)
    s, d = inv[: len(src)], inv[len(src):]
    outdeg = np.bincount(s, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    for _ in range(iterations):
        r = (1.0 - damping) / n + damping * np.bincount(d, weights=r[s] / outdeg[s], minlength=n)
    return dict(zip(ids.tolist(), r.tolist()))


def check_pagerank(rows, own: dict[int, float]) -> list[str]:
    got = {int(v): float(rank) for v, rank in rows}
    if got.keys() != own.keys():
        return [f"pagerank: {len(got)} vertices ranked, expected {len(own)}"]
    worst = max((abs(got[v] - own[v]) for v in own), default=0.0)
    return [f"pagerank: max |rank - reference| = {worst:.3g} > 1e-9"] if worst > 1e-9 else []


def own_components(src, dst) -> dict[int, int]:
    """Union-find over undirected edges; component id = smallest vertex id."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(src.tolist(), dst.tolist()):
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in parent}


def check_components(rows, own: dict[int, int]) -> list[str]:
    got = {int(v): int(c) for v, c in rows}
    if got.keys() != own.keys():
        return [f"cc: {len(got)} vertices labelled, expected {len(own)}"]
    wrong = sum(got[v] != own[v] for v in own)
    return [f"cc: {wrong} vertices carry a wrong component label"] if wrong else []


def check_layout(lay, own: dict) -> list[str]:
    """Layout counters equal our counts; master placement is not checked."""
    bad = []
    for key in ("n_replicas", "n_vertices", "max_part_edges"):
        if getattr(lay, key) != own[key]:
            bad.append(f"layout.{key}: program {getattr(lay, key)} != benchmark {own[key]}")
    if lay.n_mirrors != own["n_replicas"] - own["n_vertices"]:
        bad.append(f"layout.n_mirrors {lay.n_mirrors} != n_replicas - n_vertices")
    return bad
