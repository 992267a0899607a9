import numpy as np
import pytest

from references import build_graph
from restore.factorization import clamp_dim, hope_embed, lap_embed, lle_embed
from restore.graph import gen_synthetic, graph_from_labeled_edges

RT2 = 1.0 / np.sqrt(2.0)


def permuted_copy(g, perm_labels):
    pairs = [(a, b) for a, b in g.edge_label_pairs()]
    order = {lab: i for i, lab in enumerate(perm_labels)}
    pairs.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return build_graph(pairs)


class TestLle:
    def test_two_node_hand_solved(self):
        g = build_graph([("a", "b"), ("b", "a")])
        emb = lle_embed(g, 1)
        assert np.allclose(emb.vectors[:, 0], [RT2, -RT2], atol=1e-10)

    def test_isolated_nodes_all_zero(self):
        g = graph_from_labeled_edges([], extra_nodes=["a", "b", "c", "d"])
        emb = lle_embed(g, 2)
        assert np.allclose(emb.vectors, 0.0)

    def test_connected_graph_skips_constant_mode(self):
        # row-stochastic W annihilates constants, so (I-W)^T(I-W) has a zero
        # eigenvalue with constant eigenvector; the embedding must not be it.
        g = gen_synthetic("cycle", 6, seed=0)
        emb = lle_embed(g, 2)
        col = emb.vectors[:, 0]
        assert not np.allclose(col, col[0])
        assert abs(col.sum()) < 1e-8

    def test_dim_clamp(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
        emb = lle_embed(g, 64)
        assert emb.dim == 2
        assert clamp_dim(64, 3) == 2


class TestLap:
    def test_two_node_hand_solved(self):
        g = build_graph([("a", "b"), ("b", "a")])
        emb = lap_embed(g, 1)
        ya, yb = emb.vectors[0, 0], emb.vectors[1, 0]
        assert abs(ya + yb) < 1e-10
        assert abs(ya) > 0.1

    def test_two_cliques_separate(self):
        g = build_graph(
            [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]
        )
        emb = lap_embed(g, 1)
        # brute-force oracle on the 4x4 normalized laplacian
        w = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        lsym = np.eye(4) - w  # degrees are all 1
        vals = np.linalg.eigvalsh(lsym)
        assert np.allclose(sorted(vals)[:2], [0.0, 0.0], atol=1e-12)
        y = emb.vectors[:, 0]
        intra = max(abs(y[0] - y[1]), abs(y[2] - y[3]))
        inter = abs(y[0] - y[2])
        assert intra < inter

    def test_single_node_zero_vector(self):
        g = graph_from_labeled_edges([], extra_nodes=["only"])
        emb = lap_embed(g, 3)
        assert emb.dim == 1
        assert np.allclose(emb.vectors, 0.0)


class TestHope:
    def test_single_edge_hand_solved(self):
        g = build_graph([("a", "b")])
        emb = hope_embed(g, 1, beta=0.01)
        assert np.allclose(emb.vectors[:, 0], [0.1, 0.0], atol=1e-12)
        assert np.allclose(emb.target[:, 0], [0.0, 0.1], atol=1e-12)
        score = emb.vectors @ emb.target.T
        assert abs(score[0, 1] - 0.01) < 1e-12

    def test_asymmetry_on_single_edge(self):
        g = build_graph([("a", "b")])
        emb = hope_embed(g, 1)
        scores = emb.vectors @ emb.target.T
        assert scores[0, 1] > scores[1, 0]

    def test_empty_graph_zero(self):
        g = graph_from_labeled_edges([], extra_nodes=["a", "b"])
        emb = hope_embed(g, 1)
        assert np.allclose(emb.vectors, 0.0)
        assert np.allclose(emb.target, 0.0)

    def test_full_rank_dag_reconstructs_katz(self):
        from restore.linalg import katz_similarity

        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 6
            mask = np.triu(rng.random((n, n)) < 0.5, k=1)
            edges = [(f"v{i}", f"v{j}") for i, j in np.argwhere(mask)]
            if not edges:
                continue
            g = build_graph(edges)
            s = katz_similarity(g, 0.01)
            emb = hope_embed(g, g.node_count, beta=0.01)
            approx = emb.vectors @ emb.target.T
            norm = np.linalg.norm(s)
            assert np.linalg.norm(s - approx) <= 1e-8 * max(norm, 1e-30)

    def test_propagates_divergence(self):
        g = build_graph([("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="diverges"):
            hope_embed(g, 1, beta=2.0)


class TestInvariants:
    @pytest.mark.parametrize("embedder", [lle_embed, lap_embed])
    def test_permutation_invariance(self, embedder):
        g = gen_synthetic("erdos", 12, seed=21)
        emb = embedder(g, 3)
        perm_labels = list(g.labels)[::-1]
        gp = permuted_copy(g, perm_labels)
        emb_p = embedder(gp, 3)
        back = np.array([emb_p.vectors[gp.labels.index(lab)] for lab in g.labels])
        for j in range(emb.dim):
            a, b = emb.vectors[:, j], back[:, j]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-7

    def test_all_outputs_finite(self):
        g = gen_synthetic("scale_free", 30, seed=4)
        for emb in (lle_embed(g, 8), lap_embed(g, 8)):
            assert np.isfinite(emb.vectors).all()
        hope = hope_embed(g, 8)
        assert np.isfinite(hope.vectors).all()
        assert np.isfinite(hope.target).all()

    def test_clamp_rule(self):
        assert clamp_dim(5, 10) == 5
        assert clamp_dim(10, 10) == 9
        assert clamp_dim(64, 3) == 2
        assert clamp_dim(1, 1) == 1
        with pytest.raises(ValueError):
            clamp_dim(0, 5)
