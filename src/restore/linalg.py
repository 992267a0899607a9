"""Dense numerical kernels: symmetric eigensolver, truncated SVD, Katz similarity.

The truncated SVD is LAPACK's at every size. The symmetric eigensolver is
LAPACK's (`eigh`) above JACOBI_MAX_N and a cyclic Jacobi iteration below it.
Jacobi stays there because it decides which basis a repeated eigenvalue
gets, and the small ego graphs that LAP and LLE solve have many: `eigh`
picks another basis and lowers their reconstruction scores. Jacobi stacks
the matrix on its eigenvectors, so a rotation writes two columns of both at
once, then two rows of the matrix.
"""
from __future__ import annotations

import math

import numpy as np

from .graph import DiGraph

# Above this order, full Jacobi sweeps stop being worth it and eigh takes over.
JACOBI_MAX_N = 128

_SWEEP_LIMIT = 64


def _jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on symmetric `a`: (values, vectors) as `np.linalg.eigh`
    returns them, but unsorted. The matrix sits on its eigenvectors in one
    (2n, n) array, so one column write rotates both."""
    n = a.shape[0]
    w = np.vstack((a, np.eye(n)))
    a = w[:n]
    tol = 1e-14 * max(1.0, float(np.linalg.norm(a)))
    for _ in range(_SWEEP_LIMIT):
        if math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2))) <= tol:
            return np.diag(a), w[n:]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = 1.0 / (theta - math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                cp, cq = w[:, p], w[:, q]
                w[:, p], w[:, q] = c * cp - s * cq, s * cp + c * cq
                rp, rq = a[p], a[q]
                a[p], a[q] = c * rp - s * rq, s * rp + c * rq
                a[p, q] = a[q, p] = 0.0
    raise RuntimeError("jacobi eigensolver failed to converge")


def _column_signs(vectors: np.ndarray) -> np.ndarray:
    """±1 per column, so that multiplying makes its first significant
    component positive; an all-zero column keeps +1."""
    mag = np.abs(vectors)
    first = (mag > 1e-12 * mag.max(axis=0, initial=0.0)).argmax(axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    return np.where(lead < 0.0, -1.0, 1.0)


def _check_symmetric(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10")


def sym_eig_smallest(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of a symmetric matrix: (values, vectors).

    Values ascend, shape (k,); vectors are column-orthonormal, shape (n, k).
    Signs follow the convention that the first significant component of each
    eigenvector is positive, so repeated runs agree exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    _check_symmetric(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for a {n}x{n} matrix")
    vals, vecs = np.linalg.eigh(a) if n > JACOBI_MAX_N else _jacobi_eigh(a)
    order = np.argsort(vals, kind="stable")[:k]
    vals, vecs = vals[order], vecs[:, order]
    return vals, vecs * _column_signs(vecs)


def truncated_svd(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top-k singular triplets of `a` by LAPACK's SVD: (u, sigma, v).

    u is (m, k) and v is (n, k), both column-orthonormal; sigma is
    non-negative and descending. V's signs follow the eigenvector convention
    and U takes the same signs, so u @ diag(sigma) @ v.T is unchanged.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    v = vt[:k].T
    signs = _column_signs(v)
    return u[:, :k] * signs, sigma[:k], v * signs


def spectral_radius_estimate(a: np.ndarray, iters: int = 100) -> float:
    """Power-iteration estimate of the spectral radius of a non-negative matrix."""
    n = a.shape[0]
    if n == 0:
        return 0.0
    x = np.ones(n, dtype=np.float64)
    est = 0.0
    for _ in range(iters):
        y = a @ x
        peak = float(np.abs(y).max())
        if peak == 0.0:
            return 0.0
        est = peak
        x = y / peak
    return est


def katz_similarity(g: DiGraph, beta: float) -> np.ndarray:
    """Katz similarity S = (I - beta*A)^-1 * beta*A by direct linear solve.

    Converges only when beta * spectral_radius(A) < 1; the radius is estimated
    by power iteration and the bound enforced up front.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    a = g.adjacency_matrix()
    radius = spectral_radius_estimate(a)
    if beta * radius >= 1.0:
        raise ValueError(
            f"katz series diverges: beta={beta} with spectral radius ~{radius:.6g} "
            f"violates beta * spectral_radius < 1 (beta must be < {1.0 / radius:.6g})"
        )
    n = g.node_count
    ba = beta * a
    s = np.linalg.solve(np.eye(n) - ba, ba)
    if not np.isfinite(s).all():
        raise ValueError("katz solve produced non-finite entries (series diverges)")
    worst = float(s.min(initial=0.0))
    if worst < -1e-8 * max(1.0, float(np.abs(s).max())):
        raise ValueError("katz solve produced negative similarities (series diverges)")
    return np.maximum(s, 0.0)
