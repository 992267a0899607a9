"""Seeded inputs for the pipeline benchmark's workloads.

Every workload starts from the downward-trend graph of the acceptance suite,
``gen_synthetic("scale_free", 2000, seed)``, and its settings (dims 1:2,2:16,3:32,
3 epochs, walk length 20, 2 walks per node, context 5, SDNE batch 256).
Candidate centers are drawn uniformly without replacement from the seed, as
the acceptance test draws its 20 centers. Ego-graph sizes of a scale-free
graph vary several-fold between seeds, so each workload keeps the drawn
centers whose largest-hop ego graph is nearest a fixed node count; this keeps
its amount of work nearly the same for every seed, where the run-to-run
spread across seeds would otherwise swamp any bound.

The program receives only the files written here: ``graph.tsv``, the
manifest ``run.cfg`` and, for ``batch-small``, a similarity and an analogy
dataset whose words are the centers.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRAPH_NODES = 2000
OPTIONS = (
    "dim_schedule = 1:2,2:16,3:32",
    "epochs = 3",
    "node2vec.walk_length = 20",
    "node2vec.walks_per_node = 2",
    "node2vec.context_size = 5",
    "sdne.batch_size = 256",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    hops: tuple[int, ...]
    algorithms: tuple[str, ...]
    workers: int
    # scale -> (node count its largest-hop ego graphs are picked nearest, centers);
    # the tiny scale serves the self-tests.
    centers: dict
    # centers come from a similarity and an analogy dataset instead of the manifest
    from_datasets: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recon-dense",
            "lap/lle/hope on dense 3-hop ego graphs: n^2 pair scoring, ranking and diff dominate "
            "run time; the graph of ~95k kept predictions and its diff set peak memory",
            hops=(3,), algorithms=("lap", "lle", "hope"), workers=1,
            centers={"full": (330, 2), "tiny": (40, 1)},
        ),
        Workload(
            "batch-small",
            "many small cells from dataset words, all five algorithms, semantic stage, "
            "2 workers: Jacobi eigensolves, SGNS and per-cell file overhead",
            hops=(1, 2), algorithms=("node2vec", "hope", "sdne", "lap", "lle"), workers=2,
            centers={"full": (32, 16), "tiny": (24, 2)}, from_datasets=True,
        ),
    )
}


@dataclass
class Inputs:
    workload: Workload
    manifest: Path
    sizes: dict
    digest: str


def ego_sizes(g, max_hops: int = 3) -> np.ndarray:
    """sizes[h, v] = node count of v's h-hop ego graph (edge direction ignored),
    the node set `khop_ego_subgraph` keeps."""
    n = g.node_count
    adj = np.zeros((n, n), dtype=np.float32)
    src = np.repeat(np.arange(n), np.diff(g.out_indptr))
    adj[src, g.out_indices] = 1.0
    step = np.maximum(adj, adj.T)
    np.fill_diagonal(step, 1.0)
    reach = step
    sizes = [np.ones(n, dtype=np.int64), step.sum(axis=1).astype(np.int64)]
    for _ in range(max_hops - 1):
        reach = (reach @ step > 0).astype(np.float32)
        sizes.append(reach.sum(axis=1).astype(np.int64))
    return np.stack(sizes)


def nearest_size(sizes: np.ndarray, order: np.ndarray, target: int, count: int) -> list[int]:
    """The `count` candidates whose size is closest to `target`, ties in draw order."""
    rank = sorted(range(len(order)), key=lambda pos: (abs(int(sizes[order[pos]]) - target), pos))
    return [int(order[pos]) for pos in rank[:count]]


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(name: str, seed: int, dest: Path, scale: str = "full") -> Inputs:
    """Write one workload's input files under `dest`; same seed, same bytes."""
    from restore.graph import gen_synthetic

    workload = WORKLOADS[name]
    dest.mkdir(parents=True, exist_ok=True)
    g = gen_synthetic("scale_free", GRAPH_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    order = rng.choice(g.node_count, size=g.node_count, replace=False)
    sizes = ego_sizes(g)

    centers = nearest_size(sizes[max(workload.hops)], order, *workload.centers[scale])

    # Centers resolved from dataset words need the ConceptNet-style labels
    # that the default word mapper produces.
    label = (lambda i: f"/c/en/w{i}") if workload.from_datasets else g.label_of
    _write(dest / "graph.tsv", [f"{label(i)}\trel\t{label(int(j))}" for i, j in g.edges()])

    manifest = ["graph_path = graph.tsv"]
    if workload.from_datasets:
        words = [f"w{c}" for c in centers]
        scores = np.random.default_rng([seed, 1]).uniform(0.0, 10.0, len(words))
        k = len(words)
        _write(dest / "similarity.tsv",
               [f"{words[i]}\t{words[(i + 1) % k]}\t{float(scores[i])!r}" for i in range(k)])
        _write(dest / "analogy.txt",
               [" ".join(words[(i + o) % k] for o in range(4)) for i in range(k)])
        manifest += ["dataset = sim similarity similarity.tsv",
                     "dataset = analogy analogy analogy.txt"]
    else:
        manifest += ["centers = explicit"] + [f"center = {label(c)}" for c in centers]
    manifest += [f"hop = {h}" for h in workload.hops]
    manifest += [f"algorithm = {a}" for a in workload.algorithms]
    manifest += [f"seed = {seed}", *OPTIONS]
    _write(dest / "run.cfg", manifest)

    digest = hashlib.sha256()
    for path in sorted(dest.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cell_nodes = [int(sizes[h][c]) for c in centers for h in workload.hops]
    algos = len(workload.algorithms)
    return Inputs(
        workload=workload,
        manifest=dest / "run.cfg",
        sizes={
            "nodes": g.node_count,
            "edges": g.edge_count,
            "centers": len(centers),
            "cells": len(cell_nodes) * algos,
            "cell_nodes_max": max(cell_nodes),
            "scored_pairs": algos * sum(n * (n - 1) for n in cell_nodes),
        },
        digest=digest.hexdigest(),
    )
