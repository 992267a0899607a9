import numpy as np
import pytest

from references import build_graph, katz_series
from restore.graph import gen_synthetic, graph_from_labeled_edges
from restore.linalg import katz_similarity, sym_eig_smallest, truncated_svd

RT2 = 1.0 / np.sqrt(2.0)


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def first_significant_positive(vectors):
    """The sign convention: each column's first entry above 1e-12 of the
    column's largest magnitude is positive."""
    for col in vectors.T:
        lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
        assert lead > 0.0


class TestSymEig:
    def test_identity(self):
        values, _ = sym_eig_smallest(np.eye(3), 2)
        assert np.allclose(values, [1.0, 1.0])

    def test_diagonal_picks_smallest(self):
        values, vectors = sym_eig_smallest(np.diag([3.0, 1.0, 2.0]), 1)
        assert np.allclose(values, [1.0])
        assert np.allclose(vectors[:, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_hand_solved_2x2(self):
        # char poly of [[1,-1],[-1,1]]: (1-x)^2 - 1 = 0 -> x in {0, 2}
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        values, vectors = sym_eig_smallest(a, 2)
        assert np.allclose(values, [0.0, 2.0], atol=1e-12)
        assert np.allclose(vectors[:, 0], [RT2, RT2], atol=1e-12)
        assert np.allclose(vectors[:, 1], [RT2, -RT2], atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig_smallest(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sym_eig_smallest(np.eye(3), 4)
        with pytest.raises(ValueError, match="out of range"):
            sym_eig_smallest(np.eye(3), 0)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(2, 65))
            a = random_symmetric(rng, n)
            k = int(rng.integers(1, n + 1))
            values, vectors = sym_eig_smallest(a, k)
            for i in range(k):
                lam, vec = values[i], vectors[:, i]
                resid = np.linalg.norm(a @ vec - lam * vec)
                assert resid <= 1e-8 * max(1.0, abs(lam))
            gram = vectors.T @ vectors
            assert np.abs(gram - np.eye(k)).max() <= 1e-8
            first_significant_positive(vectors)

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            a = random_symmetric(rng, n)
            values, _ = sym_eig_smallest(a, n)
            oracle = np.sort(np.linalg.eigvalsh(a))
            assert np.allclose(values, oracle, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 17)
        values1, vectors1 = sym_eig_smallest(a, 5)
        values2, vectors2 = sym_eig_smallest(a, 5)
        assert np.array_equal(values1, values2)
        assert np.array_equal(vectors1, vectors2)


class TestTruncatedSvd:
    def test_diagonal(self):
        _, sigma, _ = truncated_svd(np.diag([5.0, 3.0, 1.0]), 2)
        assert np.allclose(sigma, [5.0, 3.0], atol=1e-10)

    def test_rank_one_outer_product(self):
        x = np.array([1.0, 2.0, 2.0])
        y = np.array([3.0, 4.0])
        _, sigma, _ = truncated_svd(np.outer(x, y), 1)
        assert np.allclose(sigma, [np.linalg.norm(x) * np.linalg.norm(y)], atol=1e-10)

    def test_hand_solved_nilpotent(self):
        a = np.array([[0.0, 0.01], [0.0, 0.0]])
        u, sigma, v = truncated_svd(a, 1)
        assert np.allclose(sigma, [0.01], atol=1e-14)
        assert np.allclose(u[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(v[:, 0], [0.0, 1.0], atol=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            truncated_svd(np.eye(3), 4)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(2, 30))
            n = int(rng.integers(2, 30))
            a = rng.standard_normal((m, n))
            k = min(m, n)
            u, sigma, v = truncated_svd(a, k)
            err = np.linalg.norm(a - u @ np.diag(sigma) @ v.T)
            assert err <= 1e-8 * np.linalg.norm(a)
            first_significant_positive(v)

    def test_eckart_young_against_lapack(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            m, n = int(rng.integers(3, 25)), int(rng.integers(3, 25))
            a = rng.standard_normal((m, n))
            k = int(rng.integers(1, min(m, n) + 1))
            u, sigma, v = truncated_svd(a, k)
            approx_err = np.linalg.norm(a - u @ np.diag(sigma) @ v.T)
            sigma_full = np.linalg.svd(a, compute_uv=False)
            best = np.sqrt(np.sum(sigma_full[k:] ** 2))
            assert approx_err <= best + 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.allclose(sigma, sigma_full[:k], atol=1e-8)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((12, 8))
        u, _, v = truncated_svd(a, 8)
        assert np.abs(u.T @ u - np.eye(8)).max() <= 1e-8
        assert np.abs(v.T @ v - np.eye(8)).max() <= 1e-8

    def test_zero_matrix(self):
        u, sigma, _ = truncated_svd(np.zeros((3, 3)), 3)
        assert np.allclose(sigma, 0.0)
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-8

    @pytest.mark.parametrize("a, k", [
        (katz_similarity(gen_synthetic("star", 12, seed=0), 0.01), 6),
        (np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), 3),
    ], ids=["star12-katz", "rank1-3x3"])
    def test_rank_deficient(self, a, k):
        """Both factors stay orthonormal and the zero singular values stay
        zero to rounding, which squaring A (AᵀA) cannot give."""
        u, sigma, v = truncated_svd(a, k)
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12
        assert (sigma[1:] <= 1e-14 * sigma[0]).all()


class TestKatz:
    def test_single_edge_nilpotent(self):
        g = build_graph([("a", "b")])
        s = katz_similarity(g, 0.01)
        expected = np.zeros((2, 2))
        expected[0, 1] = 0.01
        assert np.allclose(s, expected, atol=1e-14)

    def test_empty_graph(self):
        g = graph_from_labeled_edges([], extra_nodes=["a", "b", "c"])
        s = katz_similarity(g, 0.01)
        assert np.allclose(s, 0.0)

    def test_two_cycle_geometric_series(self):
        g = build_graph([("a", "b"), ("b", "a")])
        s = katz_similarity(g, 0.1)
        off = 0.1 / (1 - 0.01)
        diag = 0.01 / (1 - 0.01)
        assert np.allclose(s, [[diag, off], [off, diag]], atol=1e-12)

    def test_matches_series_oracle(self):
        for seed in range(5):
            g = gen_synthetic("erdos", 15, seed=seed)
            beta = 0.01
            s = katz_similarity(g, beta)
            oracle = katz_series(g.adjacency_matrix(), beta)
            assert np.abs(s - oracle).max() <= 1e-10

    def test_divergent_beta_errors(self):
        g = build_graph([("a", "b"), ("b", "a")])  # spectral radius 1
        with pytest.raises(ValueError, match="spectral_radius"):
            katz_similarity(g, 1.5)

    def test_rejects_nonpositive_beta(self):
        g = build_graph([("a", "b")])
        with pytest.raises(ValueError):
            katz_similarity(g, 0.0)
