"""Factorization-family embeddings: LLE, Laplacian eigenmaps, and HOPE.

LLE and the Laplacian map are symmetric objectives, so directed input is
symmetrized before solving; HOPE is the family member that keeps direction:
its embedding carries a target matrix Y_t beside the source vectors Y_s, so
that Y_s @ Y_t.T approximates the Katz similarity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DiGraph
from .linalg import katz_similarity, sym_eig_smallest, truncated_svd


@dataclass
class EmbeddingMatrix:
    """Per-node d-dimensional vectors, row-aligned with the graph's node order.

    HOPE's `vectors` are its source vectors and `target` its target vectors,
    both (node_count, dim); every other embedding has no target.
    """

    labels: tuple[str, ...]
    vectors: np.ndarray  # (node_count, dim)
    algorithm_tag: str
    target: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def matrices(self) -> list[np.ndarray]:
        return [self.vectors] if self.target is None else [self.vectors, self.target]

    def vector_for(self, label: str) -> np.ndarray:
        """The label's row; [source | target] for HOPE, for distance-based evaluation."""
        i = self.labels.index(label)
        return np.concatenate([m[i] for m in self.matrices()])


def clamp_dim(d: int, node_count: int) -> int:
    """Effective dimension: requested d capped at max(1, node_count - 1)."""
    if d < 1:
        raise ValueError("embedding dimension must be >= 1")
    return min(d, max(1, node_count - 1))


def _symmetrized_adjacency(g: DiGraph) -> np.ndarray:
    a = g.adjacency_matrix()
    return np.maximum(a, a.T)


def _spectral_embed(g: DiGraph, d: int, tag: str, use_normalized_laplacian: bool) -> EmbeddingMatrix:
    """Shared LLE/LAP machinery: solve on non-isolated nodes, zero-fill the rest.

    Both objectives reduce to the smallest eigenpairs of a symmetric system
    whose first eigenvector is trivial (constant); eigenvectors 2..d+1 form
    the embedding. Isolated nodes have no constraint and get zero vectors.
    """
    n = g.node_count
    d_eff = clamp_dim(d, n)
    out = np.zeros((n, d_eff), dtype=np.float64)
    w = _symmetrized_adjacency(g)
    degree = w.sum(axis=1)
    active = np.flatnonzero(degree > 0)
    m = active.shape[0]
    if m >= 2:
        ws = w[np.ix_(active, active)]
        deg = degree[active]
        if use_normalized_laplacian:
            dis = 1.0 / np.sqrt(deg)
            system = np.eye(m) - (dis[:, None] * ws) * dis[None, :]
        else:
            wn = ws / deg[:, None]
            iw = np.eye(m) - wn
            system = iw.T @ iw
        take = min(d_eff, m - 1)
        _, vectors = sym_eig_smallest(system, take + 1)
        sub = vectors[:, 1:take + 1]
        if use_normalized_laplacian:
            sub = sub * dis[:, None]
        out[active, :take] = sub
    return EmbeddingMatrix(labels=g.labels, vectors=out, algorithm_tag=tag)


def lle_embed(g: DiGraph, d: int) -> EmbeddingMatrix:
    """Locally linear embedding with row-normalized adjacency as the weight matrix.

    Minimizes sum_i |y_i - sum_j W_ij y_j|^2 via the smallest eigenvectors of
    (I - W)^T (I - W), skipping the trivial constant eigenvector.
    """
    return _spectral_embed(g, d, "lle", use_normalized_laplacian=False)


def lap_embed(g: DiGraph, d: int) -> EmbeddingMatrix:
    """Laplacian eigenmaps via the symmetric normalized problem D^-1/2 L D^-1/2.

    Eigenvectors 2..d+1 are mapped back by D^-1/2 so the generalized problem
    L y = lambda D y is solved; isolated nodes get zero vectors.
    """
    return _spectral_embed(g, d, "lap", use_normalized_laplacian=True)


def hope_embed(g: DiGraph, d: int, beta: float = 0.01) -> EmbeddingMatrix:
    """Katz-similarity factorization preserving asymmetric transitivity.

    S = katz(g, beta); (U, Sigma, V) = truncated SVD of S; the source and
    target matrices are U sqrt(Sigma) and V sqrt(Sigma), so Y_s @ Y_t.T is the
    best rank-d approximation of S.
    """
    u, sigma, v = truncated_svd(katz_similarity(g, beta), clamp_dim(d, g.node_count))
    half = np.sqrt(sigma)
    return EmbeddingMatrix(labels=g.labels, vectors=u * half, algorithm_tag="hope", target=v * half)
