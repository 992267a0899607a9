import math
import re

import numpy as np
import pytest

from oracles import (
    oracle_graph_diff,
    oracle_mean_average_precision,
    oracle_precision_at_fractions,
)
from references import build_graph
from restore.dot import render_dot
from restore.factorization import EmbeddingMatrix, hope_embed, lap_embed
from restore.graph import gen_synthetic, graph_from_labeled_edges, khop_ego_subgraph
from restore.reconstruct import (
    RankedPredictions,
    ScoreMatrix,
    mean_average_precision,
    normalize_scores,
    pairwise_scores,
    precision_at_k,
    predict_edges,
    predictions_to_graph,
    reconstruction_report,
)


def emb_of(vectors, tag="test"):
    v = np.asarray(vectors, dtype=float)
    return EmbeddingMatrix(labels=tuple(f"n{i}" for i in range(v.shape[0])), vectors=v, algorithm_tag=tag)


def preds_of(rows):
    rows = list(rows)
    return RankedPredictions(
        src=np.array([r[0] for r in rows], dtype=np.int64),
        dst=np.array([r[1] for r in rows], dtype=np.int64),
        score=np.array([r[2] for r in rows], dtype=float),
    )


class TestPairwiseScores:
    def test_dot_identical_unit_vectors(self):
        emb = emb_of([[1.0, 0.0], [1.0, 0.0]])
        s = pairwise_scores(emb, "dot")
        assert s.values[0, 1] == 1.0
        assert np.isnan(s.values[0, 0])

    def test_asym_dot_hope_single_edge(self):
        g = build_graph([("a", "b")])
        hope = hope_embed(g, 1, beta=0.01)
        s = pairwise_scores(hope, "asym_dot")
        assert abs(s.values[0, 1] - 0.01) < 1e-12
        assert abs(s.values[1, 0]) < 1e-12

    def test_neg_distance_identical_vectors(self):
        emb = emb_of([[2.0, 3.0], [2.0, 3.0]])
        s = pairwise_scores(emb, "neg_distance")
        assert s.values[0, 1] == 0.0

    def test_asym_dot_rejects_symmetric(self):
        with pytest.raises(ValueError, match="source/target"):
            pairwise_scores(emb_of([[1.0]]), "asym_dot")

    def test_sym_scorer_rejects_asym(self):
        g = build_graph([("a", "b")])
        with pytest.raises(ValueError, match="symmetric"):
            pairwise_scores(hope_embed(g, 1), "dot")


class TestNormalize:
    def make_raw(self, triples, n):
        vals = np.full((n, n), np.nan)
        for i, j, w in triples:
            vals[i, j] = w
        return ScoreMatrix(values=vals, normalized=False)

    def test_min_max_arithmetic(self):
        raw = self.make_raw([(0, 1, 2.0), (1, 0, 4.0), (0, 2, 6.0)], 3)
        normed = normalize_scores(raw)
        assert normed.values[0, 1] == 0.0
        assert normed.values[1, 0] == 0.5
        assert normed.values[0, 2] == 1.0

    def test_constant_maps_to_half(self):
        raw = self.make_raw([(0, 1, 3.0), (1, 0, 3.0)], 2)
        normed = normalize_scores(raw)
        assert normed.values[0, 1] == 0.5
        assert normed.values[1, 0] == 0.5

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.random((5, 5))
        np.fill_diagonal(vals, np.nan)
        a = normalize_scores(ScoreMatrix(vals)).values
        b = normalize_scores(ScoreMatrix(3.5 * vals + 11.0)).values
        mask = ~np.isnan(vals)
        assert np.allclose(a[mask], b[mask], atol=1e-12)

    def test_no_pairs_errors(self):
        with pytest.raises(ValueError, match="no scored pairs"):
            normalize_scores(ScoreMatrix(np.full((1, 1), np.nan)))


class TestPredictEdges:
    def test_threshold_filters(self):
        vals = np.full((2, 2), np.nan)
        vals[0, 1] = 0.9
        vals[1, 0] = 0.4
        preds = predict_edges(ScoreMatrix(vals, normalized=True), 0.5)
        assert preds.rows() == [(0, 1, 0.9)]

    def test_empty_scores(self):
        vals = np.full((3, 3), 0.2)
        np.fill_diagonal(vals, np.nan)
        preds = predict_edges(ScoreMatrix(vals, normalized=True), 0.5)
        assert len(preds) == 0

    def test_boundary_ties_ordered_by_index(self):
        vals = np.full((3, 3), np.nan)
        vals[2, 0] = 0.5
        vals[0, 1] = 0.5
        vals[1, 2] = 0.5
        vals[2, 1] = 0.5
        vals[1, 0] = 0.9
        vals[0, 2] = 0.1
        preds = predict_edges(ScoreMatrix(vals, normalized=True), 0.5)
        # score first; ties across and within source rows by (src, dst)
        assert [(r[0], r[1]) for r in preds.rows()] == [(1, 0), (0, 1), (1, 2), (2, 0), (2, 1)]

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            predict_edges(ScoreMatrix(np.full((2, 2), np.nan)), 0.5)


class TestPrecisionAtK:
    def test_hand_enumerated(self):
        observed = build_graph([("n0", "n1"), ("n1", "n2")])
        preds = preds_of([(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.7)])
        out = precision_at_k(preds, observed, (2 / 3,))
        assert out[2 / 3] == 0.5  # k=2, one hit

    def test_perfect_predictor(self):
        observed = build_graph([("n0", "n1"), ("n1", "n2"), ("n2", "n0")])
        preds = preds_of([(0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7)])
        out = precision_at_k(preds, observed, (0.4, 1.0))
        assert out[0.4] == 1.0  # k=2 <= |E|
        assert out[1.0] == 1.0

    def test_empty_predictions(self):
        observed = build_graph([("n0", "n1")])
        preds = preds_of([])
        out = precision_at_k(preds, observed, (0.5, 1.0))
        assert out[0.5] == 0.0 and out[1.0] == 0.0

    def test_denominator_stays_k(self):
        observed = build_graph([("n0", "n1"), ("n1", "n2"), ("n2", "n3")])
        preds = preds_of([(0, 1, 0.9)])  # fewer predictions than k
        out = precision_at_k(preds, observed, (1.0,))
        assert out[1.0] == 1 / 4

    def test_rejects_bad_fraction(self):
        observed = build_graph([("n0", "n1")])
        with pytest.raises(ValueError):
            precision_at_k(preds_of([]), observed, (0.0,))


class TestMeanAveragePrecision:
    def test_hand_enumerated(self):
        observed = build_graph([("n0", "n1"), ("n1", "n2")])
        preds = preds_of([(0, 2, 0.9), (0, 1, 0.8), (1, 2, 0.7)])
        assert mean_average_precision(preds, observed) == 0.75

    def test_exact_match_is_one(self):
        observed = build_graph([("n0", "n1"), ("n1", "n2"), ("n2", "n0")])
        preds = preds_of([(0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7)])
        assert mean_average_precision(preds, observed) == 1.0

    def test_no_predictions_is_zero(self):
        observed = build_graph([("n0", "n1")])
        assert mean_average_precision(preds_of([]), observed) == 0.0

    def test_in_unit_interval_and_oracle_match(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 21))
            density = rng.random() * 0.5 + 0.05
            adj = rng.random((n, n)) < density
            np.fill_diagonal(adj, False)
            edges = [(f"n{i}", f"n{j}") for i, j in np.argwhere(adj)]
            if not edges:
                continue
            observed = build_graph([(f"n{i}", f"n{i}") for i in range(0)] + edges)
            # random score surface over the observed node count
            vals = rng.random((observed.node_count, observed.node_count))
            np.fill_diagonal(vals, np.nan)
            preds = predict_edges(
                normalize_scores(ScoreMatrix(vals)), threshold=float(rng.random() * 0.8)
            )
            rows = preds.rows()
            obs_pairs = {
                (observed.index_of(a), observed.index_of(b))
                for a, b in observed.edge_label_pairs()
            }
            got_map = mean_average_precision(preds, observed)
            want_map = oracle_mean_average_precision(rows, obs_pairs, observed.node_count)
            assert got_map == want_map
            assert 0.0 <= got_map <= 1.0
            fractions = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
            got_prec = precision_at_k(preds, observed, fractions)
            want_prec = oracle_precision_at_fractions(
                rows, obs_pairs, observed.node_count, fractions
            )
            assert got_prec == want_prec


class TestReport:
    def test_hope_full_rank_dag_recovers(self):
        g = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "e")])
        hope = hope_embed(g, g.node_count, beta=0.01)
        report = reconstruction_report(hope, g, "asym_dot")
        assert report.map_score >= 0.99
        assert report.diff.missing_edges == 0

    def test_random_embedding_schema(self):
        g = gen_synthetic("cycle", 4, seed=0)
        rng = np.random.default_rng(1)
        emb = EmbeddingMatrix(labels=g.labels, vectors=rng.random((4, 2)), algorithm_tag="rand")
        report = reconstruction_report(emb, g, "dot")
        assert set(report.prec_at) == {0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
        assert all(0.0 <= v <= 1.0 for v in report.prec_at.values())
        assert 0.0 <= report.map_score <= 1.0
        assert report.diff is not None

    def test_single_node_graph(self):
        g = graph_from_labeled_edges([], extra_nodes=["solo"])
        emb = EmbeddingMatrix(labels=("solo",), vectors=np.zeros((1, 1)), algorithm_tag="z")
        report = reconstruction_report(emb, g, "dot")
        assert report.map_score == 0.0
        assert report.prediction_count == 0

    def test_rejects_embedding_of_other_nodes(self):
        # an embedding left over from an earlier extract has the same node
        # count but other labels, or the same labels in another order
        g = gen_synthetic("erdos", 12, seed=1)
        emb = lap_embed(g, 2)
        reconstruction_report(emb, g, "neg_distance")
        for labels in (emb.labels[::-1], tuple(f"m{i}" for i in range(12))):
            other = EmbeddingMatrix(labels=labels, vectors=emb.vectors, algorithm_tag="lap")
            with pytest.raises(ValueError, match="node labels"):
                reconstruction_report(other, g, "neg_distance")

    def test_dense_ego_graph_matches_references(self):
        # 115-node scale-free ego graph; about 80% of all pairs clear 0.5
        g = khop_ego_subgraph(gen_synthetic("scale_free", 500, seed=7), "n74", 2)
        emb = lap_embed(g, 16)
        report = reconstruction_report(emb, g, "neg_distance")
        preds = predict_edges(normalize_scores(pairwise_scores(emb, "neg_distance")))
        assert len(preds) > g.node_count * (g.node_count - 1) // 2
        assert report.prediction_count == len(preds)

        rows = preds.rows()
        obs_pairs = set(g.edges())
        assert report.prec_at == oracle_precision_at_fractions(
            rows, obs_pairs, g.node_count, tuple(report.prec_at)
        )
        assert report.map_score == oracle_mean_average_precision(rows, obs_pairs, g.node_count)

        label_rows = [(g.labels[i], g.labels[j]) for i, j, _w in rows]
        recon = predictions_to_graph(preds, g.labels)
        assert recon.labels == g.labels
        assert list(recon.edges()) == sorted((i, j) for i, j, _w in rows)

        added_nodes, missing_nodes, added, missing = oracle_graph_diff(
            g.labels, g.edge_label_pairs(),
            [lab for pair in label_rows for lab in pair], label_rows,
        )
        got = report.diff
        assert got.added_nodes == added_nodes
        assert got.missing_nodes == missing_nodes
        assert got.added_edges == len(added)
        assert got.missing_edges == len(missing)
        assert got.added_edge_list == added
        assert got.missing_edge_list == missing

        # the --dot render draws the reconstruction from the original and the diff
        rendered = render_dot(g, got)
        assert rendered is not None
        drawn = re.findall(r'^    "r:([^"]*)" -> "r:([^"]*)"(?: \[color=red\])?;$', rendered, re.M)
        assert len(drawn) == len(set(drawn))
        assert set(drawn) == set(recon.edge_label_pairs())

    def test_rank_invariance_under_affine_transform(self):
        rng = np.random.default_rng(9)
        g = gen_synthetic("erdos", 10, seed=4)
        emb = EmbeddingMatrix(labels=g.labels, vectors=rng.random((10, 3)), algorithm_tag="r")
        r1 = reconstruction_report(emb, g, "dot")
        scaled = EmbeddingMatrix(labels=g.labels, vectors=emb.vectors * 2.0, algorithm_tag="r")
        r2 = reconstruction_report(scaled, g, "dot")
        # dot scores scale by 4 (positive affine), so ranking and metrics agree
        assert r1.map_score == pytest.approx(r2.map_score, abs=1e-12)
        assert r1.prec_at == r2.prec_at

    def test_prec_monotone_as_observed_edges_removed(self):
        rng = np.random.default_rng(3)
        n = 8
        vals = rng.random((n, n))
        np.fill_diagonal(vals, np.nan)
        preds = predict_edges(normalize_scores(ScoreMatrix(vals)), threshold=0.0)
        assert len(preds) >= n
        edges = [(f"n{i}", f"n{j}") for i, j in zip(preds.src, preds.dst)][: n + 4]
        prev = None
        while len(edges) > 1:
            observed = build_graph(edges)
            # rebuild predictions in the observed graph's index space
            rows = [
                (observed.index_of(f"n{i}"), observed.index_of(f"n{j}"), w)
                for i, j, w in zip(preds.src, preds.dst, preds.score)
                if observed.has_label(f"n{i}") and observed.has_label(f"n{j}")
            ]
            cur = oracle_precision_at_fractions(
                rows, {(observed.index_of(a), observed.index_of(b)) for a, b in observed.edge_label_pairs()},
                observed.node_count, (1.0,),
            )[1.0]
            got = precision_at_k(preds_of(rows), observed, (1.0,))[1.0]
            assert got == cur
            if prev is not None and observed.node_count == prev[1]:
                assert got <= prev[0]
            prev = (got, observed.node_count)
            edges = edges[:-1]
