"""Node2Vec: second-order biased random walks feeding SGNS.

Walks follow out-edges only; a dead end truncates the walk. Each walk draws
its randomness from a numpy generator seeded per (node, walk), so walk
generation can be sharded without changing results. SGNS trains on
mini-batches of (center, context) pairs with array operations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .factorization import EmbeddingMatrix, clamp_dim
from .graph import DiGraph


@dataclass
class WalkCorpus:
    walks: list[np.ndarray]


@dataclass
class Node2VecConfig:
    """Node2Vec walk and SGNS settings; the defaults are the pipeline's fixed choices."""

    walk_length: int = 80
    walks_per_node: int = 10
    context_size: int = 10
    p: float = 1.0
    q: float = 1.0
    negatives_per_positive: int = 5
    learning_rate: float = 0.025
    epochs: int = 50

    def __post_init__(self):
        for name in ("walk_length", "walks_per_node", "context_size", "negatives_per_positive",
                     "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("p", "q", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


# -- walk generation ----------------------------------------------------


def _walk(g: DiGraph, start: int, p: float, q: float, uniforms: np.ndarray) -> np.ndarray:
    """The walk from `start` that takes one step per uniform draw, cut short at a dead end."""
    walk = [start]
    prev = -1
    for u in uniforms.tolist():
        cur = walk[-1]
        lo, hi = int(g.out_indptr[cur]), int(g.out_indptr[cur + 1])
        deg = hi - lo
        if deg == 0:
            break
        nbrs = g.out_indices[lo:hi]
        if prev < 0 or (p == 1.0 and q == 1.0):
            idx = min(int(u * deg), deg - 1)
        else:
            adjacent = np.isin(nbrs, g.out_neighbors(prev)) | np.isin(nbrs, g.in_neighbors(prev))
            wgt = np.where(adjacent, 1.0, 1.0 / q)
            wgt = np.where(nbrs == prev, 1.0 / p, wgt)
            cum = np.cumsum(wgt)
            pick = u * cum[-1]
            idx = min(int(np.searchsorted(cum, pick, side="right")), deg - 1)
        prev = cur
        walk.append(int(nbrs[idx]))
    return np.array(walk, dtype=np.int64)


def generate_walks(g: DiGraph, params: Node2VecConfig, seed: int) -> WalkCorpus:
    """params.walks_per_node biased walks from every node, deterministic for a seed.

    Transitions from (prev, cur) to x are weighted 1/p when x == prev, 1 when
    x is adjacent to prev in either direction, 1/q otherwise, normalized over
    cur's out-neighbors; with p = q = 1 this is a uniform out-edge walk.
    """
    steps = params.walk_length - 1
    return WalkCorpus(walks=[
        _walk(g, node, params.p, params.q, np.random.default_rng((seed, node, w)).random(steps))
        for node in range(g.node_count)
        for w in range(params.walks_per_node)
    ])


# -- skip-gram with negative sampling ------------------------------------


# Largest mini-batch; smaller corpora use pairs // 100 so they still take
# about a hundred updates per epoch (a fixed 1024 gives a 200-pair corpus one).
SGNS_MAX_BATCH = 1024


def _add_rows_normalized(target: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """target[r] += (sum of r's updates) / sqrt(count of r) for each distinct row r.

    A hub row can appear hundreds of times in one batch; adding the plain sum
    of its updates overshoots and overflows to NaN. `target` must be
    C-contiguous: the updates are scattered through a flat view of it, where
    np.add.at is several times faster than on rows.
    """
    counts = np.bincount(rows, minlength=target.shape[0])
    d = target.shape[1]
    flat_index = (rows[:, None] * d + np.arange(d)).ravel()
    np.add.at(target.reshape(-1), flat_index, (updates / np.sqrt(counts[rows])[:, None]).ravel())


def _sgns_epoch(vin, vout, centers, contexts, order, negs, lr0, lr_floor, step0, total_steps, batch):
    """One SGNS epoch over the pairs in `order`, in mini-batches of `batch`.

    Pair t of the epoch carries the learning rate of update step0 + t, decayed
    linearly to the floor. Each batch computes every gradient from the vectors
    as they stood at its start, then applies the row updates.
    """
    n, d = order.shape[0], vin.shape[1]
    target = np.zeros(1 + negs.shape[1])
    target[0] = 1.0  # column 0 is the observed context, the rest are negatives
    in_rows = centers[order]
    out_rows = np.concatenate((contexts[order][:, None], negs), axis=1)
    lr = np.maximum(lr0 * (1.0 - (step0 + np.arange(n)) / total_steps), lr_floor)[:, None]
    for start in range(0, n, batch):
        c = in_rows[start:start + batch]
        outs = out_rows[start:start + batch]
        v = vin[c]
        u = vout[outs]
        f = np.clip(np.einsum("bd,bjd->bj", v, u), -50.0, 50.0)
        g = (target - 1.0 / (1.0 + np.exp(-f))) * lr[start:start + batch]
        _add_rows_normalized(vin, c, np.einsum("bj,bjd->bd", g, u))
        _add_rows_normalized(vout, outs.ravel(), (g[:, :, None] * v[:, None, :]).reshape(-1, d))


def corpus_pairs(corpus: WalkCorpus, context_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) index arrays for every pair within the window."""
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for walk in corpus.walks:
        n = walk.shape[0]
        for off in range(1, min(context_size, n - 1) + 1):
            a, b = walk[:-off], walk[off:]
            centers.append(a)
            contexts.append(b)
            centers.append(b)
            contexts.append(a)
    if not centers:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(centers), np.concatenate(contexts)


def _noise_distribution(corpus: WalkCorpus, node_count: int) -> np.ndarray:
    """Unigram corpus frequency raised to 3/4, the standard SGNS noise."""
    steps = np.concatenate([np.zeros(0, dtype=np.int64), *corpus.walks])
    powered = np.bincount(steps, minlength=node_count).astype(np.float64) ** 0.75
    total = powered.sum()
    if total == 0.0:
        return np.full(node_count, 1.0 / node_count)
    return powered / total


def train_sgns(
    corpus: WalkCorpus,
    d: int,
    params: Node2VecConfig,
    labels: Sequence[str],
    seed: int,
    on_epoch: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> EmbeddingMatrix:
    """Mini-batch SGD ascent on the SGNS objective; returns one input vector per label.

    Only the SGNS settings of `params` are read. Each epoch visits every
    (center, context) pair once in a seeded random order, with freshly drawn
    negatives, in batches of min(1024, pairs // 100) pairs. The learning rate
    decays linearly over epochs * pairs pair steps down to a floor of 1e-4 of
    the initial rate. Deterministic for a fixed seed.
    """
    if not corpus.walks:
        raise ValueError("empty corpus")
    node_count = len(labels)
    d_eff = clamp_dim(d, node_count)
    rng = np.random.default_rng(seed)
    vin = (rng.random((node_count, d_eff)) - 0.5) / d_eff
    vout = np.zeros((node_count, d_eff))

    centers, contexts = corpus_pairs(corpus, params.context_size)
    n_pairs = centers.shape[0]
    if n_pairs == 0:
        return EmbeddingMatrix(labels=tuple(labels), vectors=vin, algorithm_tag="node2vec")

    noise = _noise_distribution(corpus, node_count)
    noise_cum = np.cumsum(noise)
    k = params.negatives_per_positive
    total_steps = params.epochs * n_pairs
    lr0 = params.learning_rate
    lr_floor = lr0 * 1e-4
    batch = max(1, min(SGNS_MAX_BATCH, n_pairs // 100))
    if on_epoch is not None:
        on_epoch(0, vin, vout)
    for epoch in range(params.epochs):
        order = rng.permutation(n_pairs)
        draws = rng.random((n_pairs, k))
        negs = np.minimum(
            np.searchsorted(noise_cum, draws.ravel(), side="right"), node_count - 1
        ).reshape(n_pairs, k).astype(np.int64)
        _sgns_epoch(
            vin, vout, centers, contexts, order, negs,
            lr0, lr_floor, epoch * n_pairs, total_steps, batch,
        )
        if on_epoch is not None:
            on_epoch(epoch + 1, vin, vout)
    return EmbeddingMatrix(labels=tuple(labels), vectors=vin, algorithm_tag="node2vec")


def node2vec_embed(g: DiGraph, d: int, params: Node2VecConfig, seed: int) -> EmbeddingMatrix:
    """Walk generation composed with SGNS training, both under `seed`."""
    return train_sgns(generate_walks(g, params, seed), d, params, g.labels, seed)
