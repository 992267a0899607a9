"""Directed unweighted graphs: construction, k-hop ego extraction, diffs.

Graphs are immutable after construction and safe to share across workers.
Adjacency is stored CSR-style in both directions with sorted rows, so
neighbor lookups can binary-search and kernels can consume the raw arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass
class GraphDiff:
    """Added/missing nodes and edges of a reconstructed graph vs the original."""

    added_nodes: int
    missing_nodes: int
    added_edges: int
    missing_edges: int
    added_edge_list: list[tuple[str, str]] = field(default_factory=list)
    missing_edge_list: list[tuple[str, str]] = field(default_factory=list)


class DiGraph:
    """Directed, unweighted graph with a bijective label/index mapping.

    The constructor is the one place where edges are normalised: it takes
    (src, dst) index pairs in any order, drops self-loops (reconstruction
    never scores the diagonal) and collapses repeated pairs. It admits graphs
    without edges, such as a reconstruction that predicts no pair;
    :func:`graph_from_labeled_edges` builds one from label pairs.
    """

    __slots__ = ("_labels", "_index", "out_indptr", "out_indices", "in_indptr", "in_indices")

    def __init__(self, labels: Sequence[str], edge_pairs: np.ndarray):
        self._labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise ValueError("duplicate node labels")
        n = len(self._labels)
        pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoint outside the node index range")
        # src * n + dst sorts edges by source, then target; np.unique is
        # avoided because its hash path is slow on millions of keys
        keys = np.sort((pairs[:, 0] * n + pairs[:, 1])[pairs[:, 0] != pairs[:, 1]])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        src, self.out_indices = np.divmod(keys, max(n, 1))
        self.out_indptr = np.searchsorted(src, np.arange(n + 1))
        by_dst = np.argsort(self.out_indices, kind="stable")  # keeps sources sorted per row
        self.in_indices = src[by_dst]
        self.in_indptr = np.searchsorted(self.out_indices[by_dst], np.arange(n + 1))

    # -- basic shape -------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return int(self.out_indices.shape[0])

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown node label: {label!r}") from None

    def has_label(self, label: str) -> bool:
        return label in self._index

    def label_of(self, index: int) -> str:
        return self._labels[index]

    # -- adjacency ---------------------------------------------------

    def out_neighbors(self, i: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[i]:self.out_indptr[i + 1]]

    def in_neighbors(self, i: int) -> np.ndarray:
        return self.in_indices[self.in_indptr[i]:self.in_indptr[i + 1]]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) of every edge, sorted by source, then target."""
        return np.repeat(np.arange(self.node_count), np.diff(self.out_indptr)), self.out_indices

    def edges(self) -> Iterator[tuple[int, int]]:
        src, dst = self.edge_array()
        return zip(src.tolist(), dst.tolist())

    def edge_label_pairs(self) -> list[tuple[str, str]]:
        return [(self._labels[i], self._labels[j]) for i, j in self.edges()]

    def adjacency_matrix(self, dtype=np.float64) -> np.ndarray:
        """Dense 0/1 adjacency, row i = out-edges of node i."""
        a = np.zeros((self.node_count, self.node_count), dtype=dtype)
        a[self.edge_array()] = 1
        return a


def graph_from_labeled_edges(
    edges: Iterable[tuple[str, str]], extra_nodes: Iterable[str] = ()
) -> DiGraph:
    """Deduplicated graph from (src, dst) label pairs plus `extra_nodes`.

    It admits isolated nodes and an empty edge set. Indices are assigned in
    first-seen order, source before target.
    """
    index: dict[str, int] = {}
    pairs = [(index.setdefault(src, len(index)), index.setdefault(dst, len(index)))
             for src, dst in edges]
    for label in extra_nodes:
        index.setdefault(label, len(index))
    return DiGraph(list(index), pairs)


def khop_ego_subgraph(g: DiGraph, center: str, hops: int) -> DiGraph:
    """Induced subgraph over nodes within `hops` undirected steps of center.

    Expansion ignores edge direction (both in- and out-neighbors count as one
    step) but the retained edges keep their direction; the edge set is every
    original edge whose endpoints both fall inside the node set.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    c = g.index_of(center)

    seen = {c}
    frontier = {c}
    for _ in range(hops):
        nxt: set[int] = set()
        for u in frontier:
            nxt.update(g.out_neighbors(u).tolist())
            nxt.update(g.in_neighbors(u).tolist())
        nxt -= seen
        if not nxt:
            break
        seen |= nxt
        frontier = nxt

    keep = sorted(seen)
    remap = {old: new for new, old in enumerate(keep)}
    labels = [g.label_of(i) for i in keep]
    pairs = [
        (remap[i], remap[j])
        for i in keep
        for j in g.out_neighbors(i).tolist()
        if j in remap
    ]
    return DiGraph(labels, pairs)


def graph_diff(original: DiGraph, reconstructed: DiGraph) -> GraphDiff:
    """Added = edges only in reconstructed; missing = edges only in original.

    Both graphs are over the same nodes, in the same order (ValueError
    otherwise), so no node is ever added. A node counts as missing when no
    reconstructed edge touches it. Both edge lists come out sorted by
    (source label, target label).
    """
    if reconstructed.labels != original.labels:
        raise ValueError("graph_diff needs two graphs over the same node labels")
    n = original.node_count
    # numbered in label order, src * n + dst sorts edges by their labels
    labels = np.array(original.labels, dtype=object)
    by_label = np.argsort(labels)
    rank = np.empty(n, dtype=np.int64)
    rank[by_label] = np.arange(n)
    sorted_labels = labels[by_label]

    def edge_keys(g: DiGraph) -> np.ndarray:
        # sorted and, since a DiGraph holds each edge once, unique
        src, dst = g.edge_array()
        return np.sort(rank[src] * n + rank[dst])

    def edge_list(keys: np.ndarray, drop: np.ndarray) -> list[tuple[str, str]]:
        # with assume_unique, setdiff1d keeps the sorted order of `keys`
        src, dst = np.divmod(np.setdiff1d(keys, drop, assume_unique=True), n)
        return list(zip(sorted_labels[src].tolist(), sorted_labels[dst].tolist()))

    orig_keys, recon_keys = edge_keys(original), edge_keys(reconstructed)
    added_edges = edge_list(recon_keys, orig_keys)
    missing_edges = edge_list(orig_keys, recon_keys)
    touched = np.diff(reconstructed.out_indptr) + np.diff(reconstructed.in_indptr) > 0
    return GraphDiff(
        added_nodes=0,
        missing_nodes=n - int(np.count_nonzero(touched)),
        added_edges=len(added_edges),
        missing_edges=len(missing_edges),
        added_edge_list=added_edges,
        missing_edge_list=missing_edges,
    )


def gen_synthetic(kind: str, n: int, seed: int) -> DiGraph:
    """Deterministic synthetic graphs: path, cycle, star, erdos, scale_free."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = [f"n{i}" for i in range(n)]
    if kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif kind == "erdos":
        rng = np.random.default_rng(seed)
        p = min(1.0, 4.0 / max(1, n - 1))
        pairs = np.argwhere(rng.random((n, n)) < p)
    elif kind == "scale_free":
        # Preferential attachment: each new node sends 3 edges toward existing
        # nodes sampled by degree, seeded by a small cycle so every node keeps
        # a positive out-degree. m=3 keeps 1-hop neighborhoods denser than
        # bare stars, which distance-based scorers need.
        rng = np.random.default_rng(seed)
        m = 3
        core = m + 1
        if n <= core:
            pairs = [(i, (i + 1) % n) for i in range(n)]
        else:
            pairs = [(i, (i + 1) % core) for i in range(core)]
            degree = np.zeros(n, dtype=np.float64)
            degree[:core] = 2.0
            for v in range(core, n):
                weights = degree[:v] + 1.0
                probs = weights / weights.sum()
                targets = rng.choice(v, size=min(m, v), replace=False, p=probs)
                for t in targets:
                    pairs.append((v, int(t)))
                    degree[v] += 1.0
                    degree[t] += 1.0
    else:
        raise ValueError(f"unknown synthetic kind: {kind!r}")
    return DiGraph(labels, pairs)
