import numpy as np
import pytest

from references import build_graph, has_edge, sgns_corpus_loss, sgns_pair_gradients
from restore import randomwalk
from restore.graph import gen_synthetic
from restore.randomwalk import (
    Node2VecConfig,
    WalkCorpus,
    corpus_pairs,
    generate_walks,
    node2vec_embed,
    train_sgns,
    _noise_distribution,
)


def labels_of(g, walk):
    return [g.label_of(int(i)) for i in walk]


class TestWalks:
    def test_dead_end_truncates(self):
        g = build_graph([("a", "b")])
        corpus = generate_walks(g, Node2VecConfig(walk_length=5, walks_per_node=1), seed=0)
        from_a = [w for w in corpus.walks if g.label_of(int(w[0])) == "a"]
        assert labels_of(g, from_a[0]) == ["a", "b"]

    def test_two_cycle_forced_path(self):
        g = build_graph([("a", "b"), ("b", "a")])
        corpus = generate_walks(g, Node2VecConfig(walk_length=4, walks_per_node=1), seed=3)
        from_a = [w for w in corpus.walks if g.label_of(int(w[0])) == "a"][0]
        assert labels_of(g, from_a) == ["a", "b", "a", "b"]

    def test_star_uniform_frequency(self):
        g = build_graph([("c", "x"), ("c", "y"), ("c", "z")])
        corpus = generate_walks(g, Node2VecConfig(walk_length=2, walks_per_node=10_000), seed=11)
        seconds = [
            g.label_of(int(w[1]))
            for w in corpus.walks
            if g.label_of(int(w[0])) == "c" and w.shape[0] > 1
        ]
        assert len(seconds) == 10_000
        for leaf in ("x", "y", "z"):
            freq = seconds.count(leaf) / len(seconds)
            assert abs(freq - 1 / 3) < 0.05

    def test_walks_respect_out_edges(self):
        g = gen_synthetic("scale_free", 40, seed=5)
        params = Node2VecConfig(walk_length=10, walks_per_node=3, p=0.5, q=2.0)
        corpus = generate_walks(g, params, seed=9)
        for walk in corpus.walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert has_edge(g, int(a), int(b))
            if walk.shape[0] < params.walk_length:  # short only at a dead end
                assert g.out_neighbors(int(walk[-1])).shape[0] == 0

    def test_seed_determinism(self):
        g = gen_synthetic("erdos", 15, seed=1)
        params = Node2VecConfig(walk_length=10, walks_per_node=2)
        c1 = generate_walks(g, params, seed=42)
        c2 = generate_walks(g, params, seed=42)
        assert all(np.array_equal(a, b) for a, b in zip(c1.walks, c2.walks))
        c3 = generate_walks(g, params, seed=43)
        assert any(not np.array_equal(a, b) for a, b in zip(c1.walks, c3.walks))

    def test_bias_parameters_change_distribution(self):
        # low q favors moving away from prev; high q favors staying local
        g = build_graph(
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a"),
             ("c", "d"), ("d", "c")]
        )
        wide = generate_walks(g, Node2VecConfig(walk_length=6, walks_per_node=400, q=0.1), seed=2)
        tight = generate_walks(g, Node2VecConfig(walk_length=6, walks_per_node=400, q=10.0), seed=2)

        def visits(corpus, label):
            idx = g.index_of(label)
            return sum(int((w == idx).sum()) for w in corpus.walks)

        assert visits(wide, "d") > visits(tight, "d")

    def test_rejects_bad_parameters(self):
        g = build_graph([("a", "b")])
        with pytest.raises(ValueError):
            generate_walks(g, Node2VecConfig(walk_length=0, walks_per_node=1), seed=0)
        with pytest.raises(ValueError):
            generate_walks(g, Node2VecConfig(walk_length=5, walks_per_node=1, p=0.0), seed=0)


class TestSgns:
    def test_cooccurrence_ordering(self):
        walks = [np.array([0, 1], dtype=np.int64)] * 50 + [
            np.array([2, 3], dtype=np.int64)
        ] * 50
        corpus = WalkCorpus(walks=walks)
        params = Node2VecConfig(context_size=2, negatives_per_positive=3, epochs=30)
        emb = train_sgns(corpus, 3, params, ("a", "b", "c", "d"), seed=1)

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        v = emb.vectors
        assert cosine(v[0], v[1]) > cosine(v[0], v[2])

    def test_single_node_corpus(self):
        corpus = WalkCorpus(walks=[np.array([0], dtype=np.int64)])
        emb = train_sgns(corpus, 4, Node2VecConfig(), ("a",), seed=0)
        assert emb.vectors.shape == (1, 1)
        assert np.isfinite(emb.vectors).all()

    def test_empty_corpus_errors(self):
        corpus = WalkCorpus(walks=[])
        with pytest.raises(ValueError, match="empty corpus"):
            train_sgns(corpus, 2, Node2VecConfig(), ("a", "b", "c"), seed=0)

    def test_noise_is_unigram_to_three_quarters(self):
        # node 1 appears 4 times, node 0 twice, node 3 once, node 2 never
        corpus = WalkCorpus(walks=[np.array([1, 0, 1]), np.array([1, 1, 0, 3])])
        powered = np.array([2.0, 4.0, 0.0, 1.0]) ** 0.75
        noise = _noise_distribution(corpus, 4)
        assert np.allclose(noise, powered / powered.sum(), rtol=0, atol=1e-15)

    def test_learning_rate_schedule_handed_to_epochs(self, monkeypatch):
        # the rate decays over epochs * pairs steps to a floor of 1e-4 of lr0
        calls = []
        real_epoch = randomwalk._sgns_epoch

        def spy(vin, vout, centers, contexts, order, negs, lr0, lr_floor, step0, total, batch):
            calls.append((lr0, lr_floor, step0, total))
            real_epoch(vin, vout, centers, contexts, order, negs, lr0, lr_floor, step0, total, batch)

        monkeypatch.setattr(randomwalk, "_sgns_epoch", spy)
        corpus = WalkCorpus(walks=[np.array([0, 1, 2])])  # 6 pairs at context 2
        params = Node2VecConfig(context_size=2, learning_rate=0.05, epochs=3)
        train_sgns(corpus, 2, params, ("a", "b", "c"), seed=0)
        assert calls == [(0.05, 0.05 * 1e-4, 6 * epoch, 18) for epoch in range(3)]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(10):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, 5))
            v = rng.standard_normal(d)
            u_ctx = rng.standard_normal(d)
            u_negs = rng.standard_normal((k, d))
            _, grad_v, grad_ctx, grad_negs = sgns_pair_gradients(v, u_ctx, u_negs)

            def loss_at(vv, cc, nn):
                return sgns_pair_gradients(vv, cc, nn)[0]

            for j in range(d):
                for vec, grad, setter in (
                    (v, grad_v, "v"),
                    (u_ctx, grad_ctx, "c"),
                ):
                    bumped_p = vec.copy(); bumped_p[j] += h
                    bumped_m = vec.copy(); bumped_m[j] -= h
                    if setter == "v":
                        fd = (loss_at(bumped_p, u_ctx, u_negs) - loss_at(bumped_m, u_ctx, u_negs)) / (2 * h)
                    else:
                        fd = (loss_at(v, bumped_p, u_negs) - loss_at(v, bumped_m, u_negs)) / (2 * h)
                    denom = max(1e-8, abs(fd) + abs(grad[j]))
                    assert abs(fd - grad[j]) / denom <= 1e-4
            for i in range(k):
                for j in range(d):
                    bp = u_negs.copy(); bp[i, j] += h
                    bm = u_negs.copy(); bm[i, j] -= h
                    fd = (loss_at(v, u_ctx, bp) - loss_at(v, u_ctx, bm)) / (2 * h)
                    denom = max(1e-8, abs(fd) + abs(grad_negs[i, j]))
                    assert abs(fd - grad_negs[i, j]) / denom <= 1e-4

    def test_loss_nonincreasing_at_small_lr(self):
        g = gen_synthetic("erdos", 20, seed=6)
        corpus = generate_walks(g, Node2VecConfig(walk_length=10, walks_per_node=3), seed=6)
        centers, contexts = corpus_pairs(corpus, 3)
        noise = _noise_distribution(corpus, g.node_count)
        losses = []

        def track(epoch, vin, vout):
            losses.append(sgns_corpus_loss(vin, vout, centers, contexts, noise, 3))

        params = Node2VecConfig(context_size=3, negatives_per_positive=3,
                                learning_rate=1e-3, epochs=8)
        train_sgns(corpus, 4, params, g.labels, seed=6, on_epoch=track)
        assert len(losses) == 9
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-9 * max(1.0, abs(before))

    def test_hub_heavy_graph_stays_finite(self):
        # every second corpus position is the hub, so a batch repeats its row
        # hundreds of times; summed unscaled updates would overflow to NaN
        leaves = [f"leaf{i}" for i in range(400)]
        g = build_graph([("hub", x) for x in leaves] + [(x, "hub") for x in leaves])
        cfg = Node2VecConfig(walk_length=20, walks_per_node=2, context_size=5, epochs=3)
        e1 = node2vec_embed(g, 32, cfg, seed=4)
        e2 = node2vec_embed(g, 32, cfg, seed=4)
        assert np.isfinite(e1.vectors).all()
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_training_deterministic(self):
        g = gen_synthetic("erdos", 12, seed=2)
        cfg = Node2VecConfig(walk_length=8, walks_per_node=2, context_size=3, epochs=5)
        e1 = node2vec_embed(g, 4, cfg, seed=77)
        e2 = node2vec_embed(g, 4, cfg, seed=77)
        assert np.array_equal(e1.vectors, e2.vectors)


class TestNode2Vec:
    def test_default_config_echo(self):
        cfg = Node2VecConfig()
        assert (cfg.walk_length, cfg.context_size, cfg.p, cfg.q) == (80, 10, 1.0, 1.0)
        assert cfg.epochs == 50

    def test_dim_clamp(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
        cfg = Node2VecConfig(walk_length=6, walks_per_node=2, context_size=2, epochs=2)
        emb = node2vec_embed(g, 64, cfg, seed=0)
        assert emb.dim == 2

    def test_disjoint_cliques_separate(self):
        edges = []
        for block, names in enumerate((list("abcd"), list("wxyz"))):
            for s in names:
                for t in names:
                    if s != t:
                        edges.append((s, t))
        g = build_graph(edges)
        wins = 0
        for seed in range(3):
            cfg = Node2VecConfig(walk_length=12, walks_per_node=6, context_size=3, epochs=12)
            emb = node2vec_embed(g, 2, cfg, seed=seed)
            v = emb.vectors
            intra, inter = [], []
            for i in range(8):
                for j in range(i + 1, 8):
                    dist = np.linalg.norm(v[i] - v[j])
                    same = (i < 4) == (j < 4)
                    (intra if same else inter).append(dist)
            if np.mean(intra) < np.mean(inter):
                wins += 1
        assert wins >= 2
