"""Dense numerical kernels: symmetric eigensolver, truncated SVD, Katz similarity.

The eigensolver is a cyclic Jacobi iteration, chosen for unconditional
convergence and easy residual testing; each rotation updates whole rows and
columns with numpy. Matrices larger than JACOBI_MAX_N are delegated to
LAPACK, which the desk scale of the ego-graph pipeline occasionally exceeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DiGraph

# Above this order, full Jacobi sweeps stop being worth it and eigh takes over.
JACOBI_MAX_N = 128

_SWEEP_LIMIT = 64


@dataclass
class EigenResult:
    values: np.ndarray   # ascending, shape (k,)
    vectors: np.ndarray  # column-orthonormal, shape (n, k)


@dataclass
class SvdResult:
    u: np.ndarray        # (m, k)
    sigma: np.ndarray    # non-negative, descending, (k,)
    v: np.ndarray        # (n, k)


def _jacobi_sweeps(a, v, tol, max_sweeps):
    """Cyclic Jacobi on symmetric `a` (in place), accumulating rotations in `v`.

    Returns the number of sweeps taken before the off-diagonal norm fell to
    `tol`, or max_sweeps if it never did.
    """
    n = a.shape[0]
    for sweep in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        if math.sqrt(2.0 * off) <= tol:
            return sweep
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
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return max_sweeps


def _column_signs(vectors: np.ndarray) -> np.ndarray:
    """±1 per column, so that multiplying makes its first significant
    component positive; an all-zero column keeps +1."""
    mag = np.abs(vectors)
    first = (mag > 1e-12 * mag.max(axis=0, initial=0.0)).argmax(axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    return np.where(lead < 0.0, -1.0, 1.0)


def _sym_eig_full(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs, ascending, deterministic signs."""
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if n > JACOBI_MAX_N:
        vals, vecs = np.linalg.eigh(a)
    else:
        work = np.array(a, dtype=np.float64, copy=True)
        vecs = np.eye(n, dtype=np.float64)
        tol = 1e-14 * max(1.0, float(np.linalg.norm(work)))
        sweeps = _jacobi_sweeps(work, vecs, tol, _SWEEP_LIMIT)
        if sweeps >= _SWEEP_LIMIT:
            raise RuntimeError("jacobi eigensolver failed to converge")
        vals = np.diag(work).copy()
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
    return vals, vecs * _column_signs(vecs)


def _check_symmetric(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 1.0)
    if a.size and float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10")


def sym_eig_smallest(a: np.ndarray, k: int) -> EigenResult:
    """The k smallest eigenpairs of a symmetric matrix, ascending.

    Signs follow the convention that the first significant component of each
    eigenvector is positive, so repeated runs agree exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    _check_symmetric(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for a {n}x{n} matrix")
    vals, vecs = _sym_eig_full(a)
    return EigenResult(values=vals[:k].copy(), vectors=vecs[:, :k].copy())


def truncated_svd(a: np.ndarray, k: int) -> SvdResult:
    """Top-k singular triplets via the eigendecomposition of AᵀA.

    Reuses the Jacobi kernel on the Gram matrix of the thinner side; columns
    whose singular value is numerically zero get deterministic orthonormal
    fill-ins so U stays a basis.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, n = a.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")

    if m < n:
        flipped = truncated_svd(a.T, k)
        u, sigma, v = flipped.v, flipped.sigma, flipped.u
    else:
        gram = a.T @ a
        vals, vecs = _sym_eig_full(gram)
        order = np.argsort(-vals, kind="stable")[:k]
        lam = np.maximum(vals[order], 0.0)
        sigma = np.sqrt(lam)
        v = vecs[:, order]
        u = np.zeros((m, k), dtype=np.float64)
        smax = sigma[0] if k else 0.0
        cutoff = max(m, n) * np.finfo(np.float64).eps * smax
        for i in range(k):
            if sigma[i] > cutoff and sigma[i] > 0.0:
                u[:, i] = (a @ v[:, i]) / sigma[i]
            else:
                u[:, i] = _orthonormal_fill(u[:, :i], m)

    # Deterministic signs on V, mirrored into U so the product is unchanged.
    signs = _column_signs(v)
    return SvdResult(u=u * signs, sigma=sigma, v=v * signs)


def _orthonormal_fill(existing: np.ndarray, m: int) -> np.ndarray:
    """First canonical basis vector orthogonalized against `existing` columns."""
    for idx in range(m):
        cand = np.zeros(m)
        cand[idx] = 1.0
        if existing.shape[1]:
            cand -= existing @ (existing.T @ cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            return cand / nrm
    raise RuntimeError("failed to complete orthonormal basis")


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
