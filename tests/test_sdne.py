import numpy as np
import pytest

from references import build_graph, gradient_check, sdne_loss
from restore.graph import gen_synthetic, graph_from_labeled_edges
from restore.sdne import (
    MlpStack,
    SdneParams,
    hidden_schedule,
    init_stack,
    penalty_matrix,
    sdne_train,
)


def reference_loss(g, stack, params):
    """Straight-line recomputation of the three loss terms, loops instead of
    matrix identities, as an independent double-entry check."""
    x = g.adjacency_matrix()
    acts = [x]
    h = x
    for w, b in zip(stack.weights, stack.biases):
        h = 1.0 / (1.0 + np.exp(-np.clip(h @ w + b, -50, 50)))
        acts.append(h)
    x_hat = acts[-1]
    y = acts[stack.bottleneck_index]
    second = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            b_ij = params.beta_penalty if x[i, j] != 0 else 1.0
            second += ((x_hat[i, j] - x[i, j]) * b_ij) ** 2
    first = 0.0
    for i, j in g.edges():
        first += float(((y[i] - y[j]) ** 2).sum())
    first *= params.alpha
    reg = 0.0
    for w in stack.weights:
        reg += params.l2_reg * float((w ** 2).sum()) + params.l1_reg * float(np.abs(w).sum())
    return second + first + reg


class TestLoss:
    def test_penalty_matrix_row(self):
        adj = np.array([[0.0, 1.0, 0.0]])
        assert penalty_matrix(adj, 5.0).tolist() == [[1.0, 5.0, 1.0]]

    def test_zero_weight_stack_on_empty_graph(self):
        g = graph_from_labeled_edges([])
        stack = init_stack(0, 2, seed=0)
        for w in stack.weights:
            w[:] = 0.0
        res = sdne_loss(g, stack, SdneParams())
        assert res.total == 0.0

    def test_double_entry_against_reference(self):
        g = gen_synthetic("erdos", 6, seed=9)
        stack = init_stack(g.node_count, 3, seed=4)
        params = SdneParams(alpha=1e-3, beta_penalty=5.0)
        res = sdne_loss(g, stack, params)
        assert abs(res.total - reference_loss(g, stack, params)) < 1e-10
        assert abs(res.total - (res.second_order + res.first_order + res.reg)) < 1e-12

    def test_dim_mismatch_errors(self):
        g = build_graph([("a", "b")])
        stack = init_stack(5, 2, seed=0)
        with pytest.raises(ValueError, match="input dim"):
            sdne_loss(g, stack, SdneParams())

    def test_beta_penalty_monotone(self):
        g = gen_synthetic("erdos", 8, seed=2)
        stack = init_stack(8, 2, seed=1)
        params_lo = SdneParams(beta_penalty=2.0)
        params_hi = SdneParams(beta_penalty=6.0)
        assert sdne_loss(g, stack, params_hi).second_order >= sdne_loss(
            g, stack, params_lo
        ).second_order


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        for seed in range(3):
            g = gen_synthetic("erdos", 5, seed=seed)
            stack = init_stack(g.node_count, 2, seed=seed + 10)
            err = gradient_check(stack, g, SdneParams(alpha=1e-3))
            assert err <= 1e-4

    def test_corrupted_gradient_detected(self):
        g = gen_synthetic("erdos", 5, seed=1)
        stack = init_stack(g.node_count, 2, seed=3)
        params = SdneParams(alpha=1e-3)

        import restore.sdne as sdne_mod

        orig_backward = sdne_mod._backward

        def corrupted(*args, **kwargs):
            gw, gb = orig_backward(*args, **kwargs)
            gw[1] = -gw[1]  # sign flip on one layer
            return gw, gb

        sdne_mod._backward = corrupted
        try:
            err = gradient_check(stack, g, params)
        finally:
            sdne_mod._backward = orig_backward
        assert err > 1e-1

    def test_zero_graph_zero_weights_exact(self):
        g = graph_from_labeled_edges([])
        stack = init_stack(0, 2, seed=0)
        for w in stack.weights:
            w[:] = 0.0
        assert gradient_check(stack, g, SdneParams()) == 0.0

    def test_rejects_large_graphs(self):
        g = gen_synthetic("erdos", 20, seed=0)
        with pytest.raises(ValueError, match="16"):
            gradient_check(init_stack(20, 2, seed=0), g, SdneParams())


class TestTraining:
    def test_loss_decreases(self):
        g = gen_synthetic("erdos", 20, seed=8)
        params = SdneParams(epochs=30)
        losses = []

        def track(epoch, stack):
            losses.append(sdne_loss(g, stack, params).total)

        emb = sdne_train(g, 4, params, seed=5, on_epoch=track)
        assert np.isfinite(emb.vectors).all()
        assert len(losses) == params.epochs + 1
        assert losses[0] == sdne_loss(g, init_stack(g.node_count, 4, seed=5), params).total
        assert losses[-1] < losses[0]

    def test_momentum_carries_the_previous_step(self):
        # one batch per epoch: velocity starts at zero, so rho first shows in
        # the second epoch's update
        g = gen_synthetic("erdos", 12, seed=4)
        weights = {}
        for rho in (0.0, 0.3):
            def keep(epoch, stack, rho=rho):
                weights[rho, epoch] = [w.copy() for w in stack.weights]

            sdne_train(g, 3, SdneParams(epochs=2, batch_size=12, rho=rho), seed=2, on_epoch=keep)
        for a, b in zip(weights[0.0, 1], weights[0.3, 1]):
            assert np.array_equal(a, b)
        assert not all(np.array_equal(a, b) for a, b in zip(weights[0.0, 2], weights[0.3, 2]))

    def test_embedding_dim_clamped(self):
        g = build_graph([("a", "b"), ("b", "c")])
        emb = sdne_train(g, 64, SdneParams(epochs=2), seed=1)
        assert emb.dim == 2
        assert np.isfinite(emb.vectors).all()

    def test_deterministic(self):
        g = gen_synthetic("erdos", 10, seed=3)
        params = SdneParams(epochs=5)
        e1 = sdne_train(g, 3, params, seed=11)
        e2 = sdne_train(g, 3, params, seed=11)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_disjoint_cliques_separate(self):
        edges = []
        for names in ("abcde", "vwxyz"):
            for s in names:
                for t in names:
                    if s != t:
                        edges.append((s, t))
        g = build_graph(edges)
        wins = 0
        for seed in range(3):
            emb = sdne_train(g, 2, SdneParams(epochs=50), seed=seed)
            v = emb.vectors
            intra, inter = [], []
            for i in range(10):
                for j in range(i + 1, 10):
                    dist = np.linalg.norm(v[i] - v[j])
                    (intra if (i < 5) == (j < 5) else inter).append(dist)
            if np.mean(intra) < np.mean(inter):
                wins += 1
        assert wins >= 2

    def test_hidden_schedule(self):
        assert hidden_schedule(2) == (50, 2)
        assert hidden_schedule(15) == (50, 15)
        assert hidden_schedule(64) == (128, 64)

