"""Acceptance suite: one test per release criterion, each printing a PASS line.

Full-scale corpus numbers (millions of nodes, thousands of ego graphs,
stochastic training at scale) are not reproducible on a desk machine; these
criteria substitute exact oracles, recovery guarantees, and qualitative
trends at desk scale. Run with -s to see the per-criterion lines.
"""
import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_mean_average_precision, oracle_precision_at_fractions
from references import build_graph, gradient_check, katz_series, sgns_pair_gradients
from restore.cli import main as cli_main
from restore.config import DEFAULT_SCORERS
from restore.factorization import hope_embed, lap_embed, lle_embed
from restore.graph import gen_synthetic, khop_ego_subgraph
from restore.linalg import katz_similarity, sym_eig_smallest, truncated_svd
from restore.pipeline import cell_seed
from restore.randomwalk import Node2VecConfig, node2vec_embed
from restore.reconstruct import (
    ScoreMatrix,
    mean_average_precision,
    normalize_scores,
    precision_at_k,
    predict_edges,
    reconstruction_report,
)
from restore.sdne import SdneParams, init_stack, sdne_train
from restore.semantic import (
    dataset_vocab,
    euclidean_distance,
    load_analogy_dataset,
    load_similarity_dataset,
)


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s / budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def two_clique_graph(size: int = 5):
    edges = []
    for block in range(2):
        names = [f"c{block}_{i}" for i in range(size)]
        for s in names:
            for t in names:
                if s != t:
                    edges.append((s, t))
    return build_graph(edges)


def separation(vectors: np.ndarray, block: int):
    intra, inter = [], []
    n = vectors.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(vectors[i] - vectors[j]))
            (intra if (i < block) == (j < block) else inter).append(d)
    return float(np.mean(intra)), float(np.mean(inter))


def test_full_corpus_tsv_accepted(tmp_path):
    """The CLI must swallow a KGTK-style TSV so the full corpus pipeline is
    runnable when the data is available; full-scale score magnitudes are
    documentation targets (see README), not assertions."""
    with criterion("full-corpus-tsv-accepted", budget_seconds=60):
        words = ["cat", "dog", "fish", "bird", "tree", "car"]
        lines = ["id\tnode1\trelation\tnode2"]
        rng = np.random.default_rng(3)
        for i, w in enumerate(words):
            for v in words[:3]:
                if v != w:
                    lines.append(f"e{i}\t/c/en/{w}\t/r/RelatedTo\t/c/en/{v}")
        (tmp_path / "corpus.tsv").write_text("\n".join(lines) + "\n")
        (tmp_path / "sim.tsv").write_text("cat\tdog\t8.0\nfish\tbird\t5.0\n")
        manifest = tmp_path / "run.cfg"
        manifest.write_text(
            f"graph_path = {tmp_path / 'corpus.tsv'}\n"
            "graph_format = tsv_kgtk\n"
            f"dataset = sim similarity {tmp_path / 'sim.tsv'}\n"
            "hop = 1\nhop = 2\n"
            "algorithm = hope\nalgorithm = lap\n"
            "dim_schedule = 1:2,2:4\n"
            "seed = 1\n"
        )
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["reconstruction"]["cells"]


def test_metric_oracle_equivalence():
    """precision_at_k and mean_average_precision equal an exhaustive
    brute-force implementation on 200 random instances with |V| <= 20."""
    with criterion("metric-oracle-equivalence", budget_seconds=10):
        rng = np.random.default_rng(7)
        fractions = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 21))
            adj = rng.random((n, n)) < (0.05 + 0.5 * rng.random())
            np.fill_diagonal(adj, False)
            if not adj.any():
                continue
            observed = build_graph([(f"n{i}", f"n{j}") for i, j in np.argwhere(adj)])
            m = observed.node_count
            vals = rng.random((m, m))
            np.fill_diagonal(vals, np.nan)
            threshold = float(rng.random() * 0.9)
            preds = predict_edges(normalize_scores(ScoreMatrix(vals)), threshold)
            rows = preds.rows()
            obs_pairs = {
                (observed.index_of(a), observed.index_of(b))
                for a, b in observed.edge_label_pairs()
            }
            assert precision_at_k(preds, observed, fractions) == \
                oracle_precision_at_fractions(rows, obs_pairs, m, fractions)
            assert mean_average_precision(preds, observed) == \
                oracle_mean_average_precision(rows, obs_pairs, m)
            checked += 1


def test_exact_recovery_hope_dags():
    """Full-rank HOPE on small random DAGs recovers the graph: mAP >= 0.99
    through the source-target dot scorer, 50 seeds."""
    with criterion("hope-exact-recovery", budget_seconds=5):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 7))
            while True:
                mask = np.triu(rng.random((n, n)) < 0.5, k=1)
                if mask.any():
                    break
            g = build_graph([(f"v{i}", f"v{j}") for i, j in np.argwhere(mask)])
            emb = hope_embed(g, g.node_count, beta=0.01)
            report = reconstruction_report(emb, g, "asym_dot")
            assert report.map_score >= 0.99, f"seed {seed}: mAP {report.map_score}"


def test_numerical_kernels():
    """Eigen residuals/orthonormality at 1e-8 on 100 random symmetric
    matrices up to 64x64; full-rank SVD reconstruction at 1e-8 * ||A||_F;
    Katz against the truncated power-series oracle at 1e-10."""
    with criterion("numerical-kernels", budget_seconds=30):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(2, 65))
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2.0
            k = int(rng.integers(1, n + 1))
            values, vectors = sym_eig_smallest(a, k)
            for i in range(k):
                lam, vec = values[i], vectors[:, i]
                assert np.linalg.norm(a @ vec - lam * vec) <= 1e-8 * max(1.0, abs(lam))
            gram = vectors.T @ vectors
            assert np.abs(gram - np.eye(k)).max() <= 1e-8
        for trial in range(20):
            r = int(rng.integers(2, 40))
            c = int(rng.integers(2, 40))
            a = rng.standard_normal((r, c))
            u, sigma, v = truncated_svd(a, min(r, c))
            err = np.linalg.norm(a - u @ np.diag(sigma) @ v.T)
            assert err <= 1e-8 * np.linalg.norm(a)
        for seed in range(10):
            g = gen_synthetic("erdos", int(5 + 3 * seed), seed=seed)
            s = katz_similarity(g, 0.01)
            oracle = katz_series(g.adjacency_matrix(), 0.01)
            assert np.abs(s - oracle).max() <= 1e-10


def test_gradient_correctness():
    """Backprop through the autoencoder loss and per-sample SGNS gradients
    both match central finite differences at 1e-4, 10 random fixtures each."""
    with criterion("gradient-correctness", budget_seconds=60):
        for seed in range(10):
            g = gen_synthetic("erdos", int(4 + (seed % 3)), seed=seed)
            stack = init_stack(g.node_count, 2, seed=seed + 50)
            err = gradient_check(stack, g, SdneParams(alpha=1e-3))
            assert err <= 1e-4, f"sdne seed {seed}: rel err {err}"
        h = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            d = int(rng.integers(2, 10))
            k = int(rng.integers(1, 6))
            v = rng.standard_normal(d)
            u_ctx = rng.standard_normal(d)
            u_negs = rng.standard_normal((k, d))
            _, grad_v, grad_ctx, grad_negs = sgns_pair_gradients(v, u_ctx, u_negs)
            worst = 0.0
            for j in range(d):
                vp, vm = v.copy(), v.copy()
                vp[j] += h
                vm[j] -= h
                fd = (sgns_pair_gradients(vp, u_ctx, u_negs)[0]
                      - sgns_pair_gradients(vm, u_ctx, u_negs)[0]) / (2 * h)
                worst = max(worst, abs(fd - grad_v[j]) / max(1e-8, abs(fd) + abs(grad_v[j])))
                cp, cm = u_ctx.copy(), u_ctx.copy()
                cp[j] += h
                cm[j] -= h
                fd = (sgns_pair_gradients(v, cp, u_negs)[0]
                      - sgns_pair_gradients(v, cm, u_negs)[0]) / (2 * h)
                worst = max(worst, abs(fd - grad_ctx[j]) / max(1e-8, abs(fd) + abs(grad_ctx[j])))
            for i in range(k):
                for j in range(d):
                    bp, bm = u_negs.copy(), u_negs.copy()
                    bp[i, j] += h
                    bm[i, j] -= h
                    fd = (sgns_pair_gradients(v, u_ctx, bp)[0]
                          - sgns_pair_gradients(v, u_ctx, bm)[0]) / (2 * h)
                    worst = max(
                        worst,
                        abs(fd - grad_negs[i, j]) / max(1e-8, abs(fd) + abs(grad_negs[i, j])),
                    )
            assert worst <= 1e-4, f"sgns seed {seed}: rel err {worst}"


def test_downward_trend_across_hops():
    """On a seeded ~2000-node scale-free graph with 20 sampled centers, the
    mean mAP of every algorithm must not increase with hop count, allowing
    one inversion per algorithm."""
    with criterion("downward-trend", budget_seconds=600):
        g = gen_synthetic("scale_free", 2000, seed=101)
        rng = np.random.default_rng(2024)
        centers = rng.choice(g.node_count, size=20, replace=False)
        dims = {1: 2, 2: 16, 3: 32}
        n2v = dict(walk_length=20, walks_per_node=2, context_size=5, epochs=3)
        sdne_params = SdneParams(epochs=5, batch_size=256)
        maps = {algo: {h: [] for h in (1, 2, 3)} for algo in DEFAULT_SCORERS}
        for c in centers:
            label = g.label_of(int(c))
            for hop in (1, 2, 3):
                sub = khop_ego_subgraph(g, label, hop)
                for algo in ("hope", "lap", "lle", "node2vec", "sdne"):
                    seed = cell_seed(0, label, hop, algo)
                    if algo == "hope":
                        emb = hope_embed(sub, dims[hop])
                    elif algo == "lap":
                        emb = lap_embed(sub, dims[hop])
                    elif algo == "lle":
                        emb = lle_embed(sub, dims[hop])
                    elif algo == "node2vec":
                        emb = node2vec_embed(sub, dims[hop], Node2VecConfig(**n2v), seed)
                    else:
                        emb = sdne_train(sub, dims[hop], sdne_params, seed=seed)
                    rep = reconstruction_report(emb, sub, DEFAULT_SCORERS[algo])
                    maps[algo][hop].append(rep.map_score)
        for algo, by_hop in maps.items():
            means = [float(np.mean(by_hop[h])) for h in (1, 2, 3)]
            inversions = sum(1 for a, b in zip(means, means[1:]) if a < b)
            print(f"  trend {algo}: " + " ".join(f"{v:.3f}" for v in means))
            assert inversions <= 1, f"{algo}: means {means} invert more than once"


def test_community_separation():
    """Two disjoint 5-cliques: intra-clique mean distance < inter-clique mean
    distance in >= 4 of 5 seeds for Node2Vec and SDNE; deterministically for
    the Laplacian map."""
    with criterion("community-separation", budget_seconds=60):
        g = two_clique_graph(5)
        n2v_wins = 0
        for seed in range(5):
            cfg = Node2VecConfig(walk_length=20, walks_per_node=10, context_size=5, epochs=15)
            intra, inter = separation(node2vec_embed(g, 2, cfg, seed).vectors, block=5)
            n2v_wins += intra < inter
        assert n2v_wins >= 4, f"node2vec separated in only {n2v_wins}/5 seeds"
        sdne_wins = 0
        for seed in range(5):
            emb = sdne_train(g, 2, SdneParams(epochs=50), seed=seed)
            intra, inter = separation(emb.vectors, block=5)
            sdne_wins += intra < inter
        assert sdne_wins >= 4, f"sdne separated in only {sdne_wins}/5 seeds"
        intra, inter = separation(lap_embed(g, 2).vectors, block=5)
        assert intra < inter, "laplacian map failed to separate the cliques"


def test_semantic_arithmetic():
    """Metric axioms on 1000 random triples; scaling all embeddings by c
    scales every mean by exactly c (1e-12); loaders count vocabulary the way
    the batch pipeline expects."""
    with criterion("semantic-arithmetic", budget_seconds=30):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x, y, z = rng.standard_normal((3, int(rng.integers(1, 16))))
            dxy = euclidean_distance(x, y)
            assert dxy >= 0.0
            assert dxy == euclidean_distance(y, x)
            assert euclidean_distance(x, x) == 0.0
            assert dxy <= euclidean_distance(x, z) + euclidean_distance(z, y) + 1e-12
        from restore.semantic import SimilarityPair, similarity_mean_distance

        lookup = {f"/c/en/w{i}": rng.standard_normal(8) for i in range(40)}
        pairs = [SimilarityPair(f"w{i}", f"w{i + 1}", 1.0) for i in range(39)]
        base = similarity_mean_distance(pairs, lookup).mean_distance
        for c in (2.0, 7.5):
            scaled = {k: c * v for k, v in lookup.items()}
            got = similarity_mean_distance(pairs, scaled).mean_distance
            assert abs(got - c * base) <= 1e-12 * max(1.0, c * base)


def test_public_dataset_vocab_counts():
    """With the public word datasets provided (RESTORE_DATASET_DIR), the
    loaders reproduce the published unique-vocabulary counts."""
    data_dir = os.environ.get("RESTORE_DATASET_DIR")
    if not data_dir:
        pytest.skip("public dataset files not provided (set RESTORE_DATASET_DIR)")
    with criterion("public-dataset-vocab-counts", budget_seconds=30):
        expectations = {
            "rg65": ("similarity", 48),
            "men": ("similarity", 751),
            "google_analogy": ("analogy", 919),
            "msr_analogy": ("analogy", 982),
        }
        for stem, (kind, expected) in expectations.items():
            candidates = [p for p in Path(data_dir).glob(f"{stem}.*")]
            assert candidates, f"{stem} file missing under {data_dir}"
            path = candidates[0]
            if kind == "similarity":
                fmt = "csv" if path.suffix == ".csv" else "tsv"
                records, _ = load_similarity_dataset(path, fmt)
            else:
                records, _ = load_analogy_dataset(path)
            vocab = dataset_vocab(records)
            assert len(vocab) == expected, f"{stem}: {len(vocab)} != {expected}"


def test_end_to_end_determinism(tmp_path):
    """run-all twice with the same config and seed produces byte-identical
    canonical JSON."""
    with criterion("end-to-end-determinism", budget_seconds=120):
        (tmp_path / "graph.tsv").write_text(
            "/c/en/cat\tr\t/c/en/dog\n/c/en/dog\tr\t/c/en/cat\n"
            "/c/en/dog\tr\t/c/en/fish\n/c/en/fish\tr\t/c/en/bird\n"
            "/c/en/bird\tr\t/c/en/tree\n/c/en/tree\tr\t/c/en/cat\n"
            "/c/en/cat\tr\t/c/en/fish\n/c/en/bird\tr\t/c/en/dog\n"
        )
        (tmp_path / "sim.tsv").write_text("cat\tdog\t8.5\ndog\tfish\t4.0\n")
        (tmp_path / "an.txt").write_text("cat dog fish bird\n")
        manifest = tmp_path / "run.cfg"
        manifest.write_text(
            f"graph_path = {tmp_path / 'graph.tsv'}\n"
            f"dataset = toysim similarity {tmp_path / 'sim.tsv'}\n"
            f"dataset = toyan analogy {tmp_path / 'an.txt'}\n"
            "hop = 1\nhop = 2\n"
            "algorithm = node2vec\nalgorithm = hope\nalgorithm = sdne\n"
            "algorithm = lap\nalgorithm = lle\n"
            "seed = 17\n"
            "dim_schedule = 1:1,2:2,3:4\n"
            "epochs = 3\n"
            "node2vec.walk_length = 8\nnode2vec.walks_per_node = 2\n"
            "node2vec.context_size = 2\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out1)]) == 0
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out2)]) == 0
        b1 = (out1 / "report.json").read_bytes()
        b2 = (out2 / "report.json").read_bytes()
        assert b1 == b2, "report.json differs between identical runs"
