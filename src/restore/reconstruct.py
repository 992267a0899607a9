"""Graph reconstruction from embeddings and its scoring.

Pairwise proximity scores are min-max normalized over all off-diagonal pairs,
thresholded, and ranked; the ranked predictions are scored with precision at
fractional k and mean average precision against the observed edges, and the
predicted edge set is diffed against the original graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factorization import EmbeddingMatrix
from .graph import DiGraph, GraphDiff, graph_diff

DEFAULT_FRACTIONS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)

SCORERS = ("dot", "asym_dot", "neg_distance")


@dataclass
class ScoreMatrix:
    """Pairwise scores with an undefined (NaN) diagonal."""

    values: np.ndarray
    normalized: bool = False

    @property
    def node_count(self) -> int:
        return int(self.values.shape[0])

    def pair_count(self) -> int:
        n = self.node_count
        return n * n - n


@dataclass
class RankedPredictions:
    """(src, dst, score) rows sorted by score descending, ties by index."""

    src: np.ndarray
    dst: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return int(self.src.shape[0])

    def rows(self) -> list[tuple[int, int, float]]:
        return [
            (int(s), int(t), float(w))
            for s, t, w in zip(self.src, self.dst, self.score)
        ]


@dataclass
class ReconReport:
    prec_at: dict[float, float]
    map_score: float
    diff: GraphDiff
    prediction_count: int = 0


def pairwise_scores(emb: EmbeddingMatrix, scorer: str) -> ScoreMatrix:
    """Raw (unnormalized) pairwise scores; the diagonal is never scored.

    dot      -> y_i . y_j
    asym_dot -> Y_s[i] . Y_t[j]  (requires a source/target embedding pair)
    neg_distance -> -||y_i - y_j||_2
    """
    if scorer == "asym_dot":
        if emb.target is None:
            raise ValueError("asym_dot requires a source/target embedding pair")
        raw = emb.vectors @ emb.target.T
    elif emb.target is not None:
        raise ValueError(f"scorer {scorer!r} expects a symmetric embedding")
    elif scorer == "dot":
        raw = emb.vectors @ emb.vectors.T
    elif scorer == "neg_distance":
        y = emb.vectors
        sq = (y * y).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y @ y.T), 0.0)
        raw = -np.sqrt(d2)
    else:
        raise ValueError(f"unknown scorer {scorer!r}; expected one of {SCORERS}")
    raw = np.asarray(raw, dtype=np.float64)
    np.fill_diagonal(raw, np.nan)
    return ScoreMatrix(values=raw, normalized=False)


def normalize_scores(raw: ScoreMatrix) -> ScoreMatrix:
    """Min-max over all off-diagonal entries into [0, 1]; a constant score
    surface maps to 0.5 uniformly."""
    if raw.pair_count() == 0:
        raise ValueError("no scored pairs to normalize")
    vals = raw.values
    lo = float(np.nanmin(vals))
    hi = float(np.nanmax(vals))
    if hi > lo:
        vals = (vals - lo) / (hi - lo)
    else:
        vals = np.where(np.isnan(vals), np.nan, 0.5)
    return ScoreMatrix(values=vals, normalized=True)


def predict_edges(scores: ScoreMatrix, threshold: float = 0.5) -> RankedPredictions:
    """All pairs scoring >= threshold, ranked by score descending with a
    deterministic (src, dst) tie-break."""
    if not scores.normalized:
        raise ValueError("predict_edges expects normalized scores")
    vals = scores.values
    mask = vals >= threshold
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    picked = vals[src, dst]
    order = np.argsort(-picked, kind="stable")  # nonzero yields (src, dst) order
    return RankedPredictions(src=src[order], dst=dst[order], score=picked[order])


def _hits(preds: RankedPredictions, observed: DiGraph) -> np.ndarray:
    """hits[r] is True when the rank-r prediction is an observed edge."""
    return observed.adjacency_matrix(bool)[preds.src, preds.dst]


def precision_at_k(
    preds: RankedPredictions,
    observed: DiGraph,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
) -> dict[float, float]:
    """Prec@k with k = ceil(fraction * |V|); the denominator stays k even when
    fewer predictions exist."""
    n = observed.node_count
    cum = np.cumsum(_hits(preds, observed))
    out: dict[float, float] = {}
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fractions must lie in (0, 1], got {f}")
        k = math.ceil(f * n)
        correct = int(cum[min(k, len(preds)) - 1]) if len(preds) and k else 0
        out[f] = correct / k if k else 0.0
    return out


def mean_average_precision(preds: RankedPredictions, observed: DiGraph) -> float:
    """Mean over nodes of the average precision of their ranked out-edge
    predictions; nodes with no observed out-edges are excluded, and observed
    edges missing from the predictions contribute zero precision.

    A node's average precision sums found/rank over the hits of its own ranked
    row, in rank order, and divides by its observed out-degree.
    """
    n = observed.node_count
    order = np.argsort(preds.src, kind="stable")  # group by node, keep rank order
    hit = _hits(preds, observed)[order]
    bounds = np.searchsorted(preds.src[order], np.arange(n + 1)).tolist()
    out_deg = np.diff(observed.out_indptr).tolist()
    ap_values = []
    for node in np.flatnonzero(out_deg).tolist():
        ranks = (np.flatnonzero(hit[bounds[node]:bounds[node + 1]]) + 1).tolist()
        found_over_rank = (found / rank for found, rank in enumerate(ranks, start=1))
        ap_values.append(sum(found_over_rank) / out_deg[node])
    if not ap_values:
        return 0.0
    return sum(ap_values) / len(ap_values)


def predictions_to_graph(preds: RankedPredictions, labels: tuple[str, ...]) -> DiGraph:
    """Graph over the scored subgraph's nodes `labels` with the predicted
    pairs as its edges; a node no prediction touches stays, isolated."""
    return DiGraph(labels, np.column_stack((preds.src, preds.dst)))


def reconstruction_report(
    emb: EmbeddingMatrix,
    g: DiGraph,
    scorer: str,
    threshold: float = 0.5,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
) -> ReconReport:
    """Score -> normalize -> threshold -> rank -> Prec@k + mAP + diff."""
    if emb.labels != g.labels:
        raise ValueError("embedding and graph differ in their node labels or their order")
    if g.node_count < 2:
        preds = RankedPredictions(
            src=np.zeros(0, dtype=np.int64),
            dst=np.zeros(0, dtype=np.int64),
            score=np.zeros(0),
        )
    else:
        scores = normalize_scores(pairwise_scores(emb, scorer))
        preds = predict_edges(scores, threshold)
    prec = precision_at_k(preds, g, fractions)
    map_score = mean_average_precision(preds, g)
    recon = predictions_to_graph(preds, g.labels)
    return ReconReport(
        prec_at=prec,
        map_score=map_score,
        diff=graph_diff(g, recon),
        prediction_count=len(preds),
    )
