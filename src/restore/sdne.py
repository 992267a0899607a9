"""Coupled deep autoencoder embedding (SDNE) with hand-rolled forward/backward.

The autoencoder reads adjacency rows, reconstructs them under a penalty that
weights observed edges more heavily, and couples the bottleneck codes of
adjacent nodes with a Laplacian-style first-order term. Everything is dense
numpy; the cost is matmul-dominated so no loop kernel is needed here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .factorization import EmbeddingMatrix, clamp_dim
from .graph import DiGraph


@dataclass
class SdneParams:
    alpha: float = 1e-5          # first-order proximity weight
    beta_penalty: float = 5.0    # reconstruction weight on nonzero entries
    l1_reg: float = 1e-6
    l2_reg: float = 1e-6
    rho: float = 0.3             # momentum coefficient
    xeta: float = 0.01           # learning rate
    batch_size: int = 100
    epochs: int = 50

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("alpha", "beta_penalty", "l1_reg", "l2_reg", "rho", "xeta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class MlpStack:
    """Sigmoid MLP, encoder dims mirrored by the decoder."""

    layer_dims: list[int]                 # e.g. [n, 50, d, 50, n]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    @property
    def bottleneck_index(self) -> int:
        return (len(self.layer_dims) - 1) // 2


def hidden_schedule(d: int) -> tuple[int, int]:
    """Hidden widths (mid, bottleneck): (50, d) while d fits under the default
    15-unit bottleneck, (2d, d) beyond it."""
    d = max(d, 1)
    return (50, d) if d <= 15 else (2 * d, d)


def init_stack(node_count: int, d: int, seed: int) -> MlpStack:
    """Symmetric-uniform fan-in initialization, seeded for determinism."""
    mid, bottleneck = hidden_schedule(d)
    dims = [node_count, mid, bottleneck, mid, node_count]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpStack(layer_dims=dims, weights=weights, biases=biases)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50.0, 50.0)))


def _forward(stack: MlpStack, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, index 0 = input."""
    acts = [x]
    h = x
    for w, b in zip(stack.weights, stack.biases):
        h = _sigmoid(h @ w + b)
        acts.append(h)
    return acts


def penalty_matrix(adj: np.ndarray, beta_penalty: float) -> np.ndarray:
    """b_ij = beta_penalty where an edge exists, 1 elsewhere."""
    return np.where(adj != 0.0, beta_penalty, 1.0)


def _first_order_coupling(adj: np.ndarray) -> np.ndarray:
    """Symmetric matrix H with sum_{(i,j) in E} ||y_i - y_j||^2 = tr(Y^T H Y)."""
    sym = adj + adj.T
    degs = sym.sum(axis=1)
    return np.diag(degs) - sym


def _backward(
    stack: MlpStack,
    acts: list[np.ndarray],
    x: np.ndarray,
    b: np.ndarray,
    coupling: np.ndarray,
    params: SdneParams,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the total loss w.r.t. every weight and bias."""
    n_layers = len(stack.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers

    x_hat = acts[-1]
    delta = 2.0 * (x_hat - x) * (b * b) * x_hat * (1.0 - x_hat)
    for layer in range(n_layers - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta + 2.0 * params.l2_reg * stack.weights[layer] \
            + params.l1_reg * np.sign(stack.weights[layer])
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ stack.weights[layer].T) * acts[layer] * (1.0 - acts[layer])
            if layer == stack.bottleneck_index:
                y = acts[stack.bottleneck_index]
                first_grad = 2.0 * params.alpha * (coupling @ y)
                delta = delta + first_grad * y * (1.0 - y)
    return grads_w, grads_b


def sdne_train(
    g: DiGraph,
    d: int,
    params: SdneParams,
    seed: int,
    on_epoch: Callable[[int, MlpStack], None] | None = None,
) -> EmbeddingMatrix:
    """Mini-batch gradient descent with momentum; rows of the adjacency are the
    batch unit and the embedding is the bottleneck activation of each row.

    `on_epoch(epoch, stack)` sees the stack before training (epoch 0) and
    after each epoch."""
    n = g.node_count
    d_eff = clamp_dim(d, n)
    stack = init_stack(n, d_eff, seed)
    x_full = g.adjacency_matrix()
    b_full = penalty_matrix(x_full, params.beta_penalty)
    coupling_full = _first_order_coupling(x_full)

    vel_w = [np.zeros_like(w) for w in stack.weights]
    vel_b = [np.zeros_like(bb) for bb in stack.biases]
    rng = np.random.default_rng(seed)
    if on_epoch is not None:
        on_epoch(0, stack)
    for epoch in range(params.epochs):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            rows = order[start:start + params.batch_size]
            x = x_full[rows]
            b = b_full[rows]
            coupling = coupling_full[np.ix_(rows, rows)]
            acts = _forward(stack, x)
            grads_w, grads_b = _backward(stack, acts, x, b, coupling, params)
            for i in range(len(stack.weights)):
                vel_w[i] = params.rho * vel_w[i] - params.xeta * grads_w[i]
                stack.weights[i] = stack.weights[i] + vel_w[i]
                vel_b[i] = params.rho * vel_b[i] - params.xeta * grads_b[i]
                stack.biases[i] = stack.biases[i] + vel_b[i]
        if on_epoch is not None:
            on_epoch(epoch + 1, stack)

    codes = _forward(stack, x_full)[stack.bottleneck_index]
    return EmbeddingMatrix(labels=g.labels, vectors=codes, algorithm_tag="sdne")
