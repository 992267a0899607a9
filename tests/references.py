"""Reference implementations that the tests check the program against.

None of this runs in the pipeline. Each piece is an independent way to state
a quantity the program computes or relies on: the Katz power series, the
copy-based Jacobi eigensolver that the program's must match bit for bit, the
SGNS and SDNE losses and their finite-difference gradient checks, a label-checked
graph builder, degree statistics, edge membership, and how much of a dataset's
vocabulary a graph holds. Unlike `oracles.py`, these use numpy.
"""
import math
from dataclasses import dataclass

import numpy as np

import restore.sdne as sdne
from restore.graph import DiGraph, graph_from_labeled_edges
from restore.linalg import _column_signs
from restore.semantic import default_label_mapper


# -- graphs ---------------------------------------------------------------


def build_graph(edges):
    """Deduplicated directed graph from non-empty (src, dst) label pairs.

    Indices are assigned in first-seen order; self-loops are dropped because
    reconstruction never scores the diagonal.
    """
    def checked(label):
        if not isinstance(label, str) or not label:
            raise ValueError(f"node labels must be non-empty text, got {label!r}")
        return label

    g = graph_from_labeled_edges((checked(src), checked(dst)) for src, dst in edges)
    if g.node_count == 0:
        raise ValueError("empty graph")
    return g


def has_edge(g: DiGraph, i: int, j: int) -> bool:
    row = g.out_neighbors(i)
    pos = np.searchsorted(row, j)
    return bool(pos < row.shape[0] and row[pos] == j)


@dataclass
class GraphStats:
    node_count: int
    edge_count: int
    out_degree_min: int
    out_degree_avg: float
    out_degree_max: int
    in_degree_min: int
    in_degree_avg: float
    in_degree_max: int


def graph_stats(g: DiGraph) -> GraphStats:
    n = g.node_count
    out_deg = np.diff(g.out_indptr)
    in_deg = np.diff(g.in_indptr)
    return GraphStats(
        node_count=n,
        edge_count=g.edge_count,
        out_degree_min=int(out_deg.min()) if n else 0,
        out_degree_avg=float(out_deg.mean()) if n else 0.0,
        out_degree_max=int(out_deg.max()) if n else 0,
        in_degree_min=int(in_deg.min()) if n else 0,
        in_degree_avg=float(in_deg.mean()) if n else 0.0,
        in_degree_max=int(in_deg.max()) if n else 0,
    )


def vocab_overlap(dataset_vocab, graph: DiGraph, label_mapper=default_label_mapper) -> dict:
    """How many dataset words map to a graph node, as a count and a percentage."""
    count = sum(1 for w in dataset_vocab if graph.has_label(label_mapper(w)))
    pct = 100.0 * count / len(dataset_vocab) if dataset_vocab else 0.0
    return {"overlap_count": count, "percentage": pct}


# -- Katz -----------------------------------------------------------------


def katz_series(a, beta, cutoff=1e-13, max_terms=10_000):
    """Brute-force partial sum of beta^t * A^t, independent of the solve path."""
    s = np.zeros_like(a, dtype=np.float64)
    term = beta * a
    for _ in range(max_terms):
        s += term
        if np.abs(term).max() < cutoff:
            break
        term = beta * (term @ a)
    return s


# -- eigensolver ---------------------------------------------------------


def _jacobi_sweeps(a, v, tol, max_sweeps):
    """Cyclic Jacobi on symmetric `a` (in place), accumulating rotations in `v`.

    This is the solver as it stood before it took one stacked workspace; it
    updates the columns, then the rows, then the eigenvectors, each from
    copies. Returns the number of sweeps taken, or max_sweeps.
    """
    n = a.shape[0]
    for sweep in range(max_sweeps):
        if math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2))) <= tol:
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


def sym_eig_reference(a, k):
    """The k smallest eigenpairs by the copy-based Jacobi above (eigh above
    128 nodes), sorted, sliced and signed the same way as the program."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n > 128:
        vals, vecs = np.linalg.eigh(a)
    else:
        work = a.copy()
        vecs = np.eye(n, dtype=np.float64)
        tol = 1e-14 * max(1.0, float(np.linalg.norm(work)))
        if _jacobi_sweeps(work, vecs, tol, 64) >= 64:
            raise RuntimeError("jacobi eigensolver failed to converge")
        vals = np.diag(work)
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
    vecs = vecs[:, :k]
    return vals[:k], vecs * _column_signs(vecs)


# -- SGNS -----------------------------------------------------------------


def sgns_pair_gradients(v_center, u_context, u_negatives):
    """Loss and analytic gradients of one (center, context, negatives) sample.

    loss = -log sigmoid(u_ctx . v) - sum_n log sigmoid(-u_n . v); gradients
    returned for v, u_ctx and each negative row.
    """
    f_pos = float(u_context @ v_center)
    loss = float(np.logaddexp(0.0, -f_pos))
    s_pos = 1.0 / (1.0 + np.exp(-f_pos))
    grad_v = -(1.0 - s_pos) * u_context
    grad_ctx = -(1.0 - s_pos) * v_center
    grad_negs = np.zeros_like(u_negatives)
    for i in range(u_negatives.shape[0]):
        f_neg = float(u_negatives[i] @ v_center)
        loss += float(np.logaddexp(0.0, f_neg))
        s_neg = 1.0 / (1.0 + np.exp(-f_neg))
        grad_v = grad_v + s_neg * u_negatives[i]
        grad_negs[i] = s_neg * v_center
    return loss, grad_v, grad_ctx, grad_negs


def sgns_corpus_loss(vin, vout, centers, contexts, noise_probs, negatives_per_positive) -> float:
    """Full-pair-set loss with the negative term taken in expectation.

    Replacing sampled negatives by k * E_noise[log sigmoid(-u_n . v)] makes
    the value deterministic, which the monotonicity checks need.
    """
    if centers.shape[0] == 0:
        return 0.0
    pos_scores = np.einsum("ij,ij->i", vout[contexts], vin[centers])
    loss = float(np.logaddexp(0.0, -pos_scores).sum())
    all_scores = vin[centers] @ vout.T  # (pairs, vocab)
    neg_term = np.logaddexp(0.0, all_scores) @ noise_probs
    loss += negatives_per_positive * float(neg_term.sum())
    return loss


# -- SDNE -----------------------------------------------------------------


@dataclass
class SdneLoss:
    total: float
    second_order: float
    first_order: float
    reg: float


def _loss_terms(acts, x, b, coupling, stack, params) -> SdneLoss:
    x_hat = acts[-1]
    y = acts[stack.bottleneck_index]
    second = float((((x_hat - x) * b) ** 2).sum())
    first = params.alpha * float(np.einsum("ij,ik,kj->", y, coupling, y))
    reg = sum(params.l2_reg * float((w ** 2).sum()) + params.l1_reg * float(np.abs(w).sum())
              for w in stack.weights)
    return SdneLoss(total=second + first + reg, second_order=second, first_order=first, reg=float(reg))


def sdne_loss(g: DiGraph, stack, params) -> SdneLoss:
    """Full-graph loss decomposition: total = second_order + first_order + reg."""
    x = g.adjacency_matrix()
    if stack.layer_dims[0] != x.shape[1]:
        raise ValueError(
            f"stack input dim {stack.layer_dims[0]} != node count {x.shape[1]}"
        )
    acts = sdne._forward(stack, x)
    b = sdne.penalty_matrix(x, params.beta_penalty)
    coupling = sdne._first_order_coupling(x)
    return _loss_terms(acts, x, b, coupling, stack, params)


def gradient_check(stack, g: DiGraph, params, h: float = 1e-5) -> float:
    """Max relative error between `sdne._backward` and central finite differences.

    The error denominator is floored at 1e-6 of the overall gradient scale:
    central differences cannot resolve components below their own roundoff
    (~eps * loss / h), so comparing those against per-component magnitudes
    would only measure noise. Intended for small graphs; the difference pass
    evaluates the loss twice per parameter. The program's functions are looked
    up on the module at call time, so a test can substitute a broken one.
    """
    if g.node_count > 16:
        raise ValueError("gradient_check is limited to graphs with <= 16 nodes")
    x = g.adjacency_matrix()
    b = sdne.penalty_matrix(x, params.beta_penalty)
    coupling = sdne._first_order_coupling(x)
    acts = sdne._forward(stack, x)
    grads_w, grads_b = sdne._backward(stack, acts, x, b, coupling, params)

    def total_loss() -> float:
        return _loss_terms(sdne._forward(stack, x), x, b, coupling, stack, params).total

    grad_scale = 0.0
    for grads in (grads_w, grads_b):
        for grad in grads:
            if grad.size:
                grad_scale = max(grad_scale, float(np.abs(grad).max()))
    floor = 1e-6 * (1.0 + grad_scale)

    worst = 0.0
    for arrays, grads in ((stack.weights, grads_w), (stack.biases, grads_b)):
        for arr, grad in zip(arrays, grads):
            flat = arr.ravel()
            gflat = grad.ravel()
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + h
                up = total_loss()
                flat[i] = orig - h
                down = total_loss()
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                denom = max(floor, abs(fd) + abs(gflat[i]))
                worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
