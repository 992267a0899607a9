import numpy as np
import pytest

import restore.factorization as factorization
import restore.linalg as linalg
from references import build_graph, katz_series, sym_eig_reference
from restore.graph import gen_synthetic, graph_from_labeled_edges, khop_ego_subgraph
from restore.linalg import JACOBI_MAX_N, katz_similarity, sym_eig_smallest, truncated_svd

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

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SWEEP_LIMIT", 1)
        a = random_symmetric(np.random.default_rng(5), 20)
        with pytest.raises(RuntimeError, match="jacobi"):
            sym_eig_smallest(a, 3)

    def test_eigh_branch_shares_sort_and_signs(self):
        n = JACOBI_MAX_N + 2
        a = random_symmetric(np.random.default_rng(19), n)
        k = n // 2
        values, vectors = sym_eig_smallest(a, k)
        assert (np.diff(values) >= 0.0).all()
        assert np.allclose(values, np.linalg.eigvalsh(a)[:k], atol=1e-9)
        assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-9
        first_significant_positive(vectors)


def assert_matches_reference(a, k):
    values, vectors = sym_eig_smallest(a, k)
    ref_values, ref_vectors = sym_eig_reference(a, k)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)


class TestSymEigBits:
    """The stacked Jacobi gives the copy-based one's values and vectors bit
    for bit, which keeps every LAP and LLE embedding as it was."""

    def test_random_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 65))
            assert_matches_reference(random_symmetric(rng, n), int(rng.integers(1, n + 1)))

    def test_symmetric_within_tolerance(self):
        """Inputs need only be symmetric within 1e-10. On exactly symmetric
        ones, updating the rows before the columns gives the same bits; on
        these it does not, so the update order is pinned too."""
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(2, 33))
            a = random_symmetric(rng, n) + 1e-12 * rng.standard_normal((n, n))
            assert_matches_reference(a, n)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cut_inside_repeated_eigenvalue(self, k):
        # LAP system of two disjoint 4-cliques: eigenvalue 0 twice, 4/3 six times
        clique = np.ones((4, 4)) - np.eye(4)
        adjacency = np.block([[clique, np.zeros((4, 4))], [np.zeros((4, 4)), clique]])
        assert_matches_reference(np.eye(8) - adjacency / 3.0, k)

    @pytest.mark.parametrize("embed", [factorization.lap_embed, factorization.lle_embed],
                             ids=["lap", "lle"])
    def test_ego_graph_systems(self, embed, monkeypatch):
        systems = []

        def record(a, k):
            systems.append((a.copy(), k))
            return sym_eig_smallest(a, k)

        monkeypatch.setattr(factorization, "sym_eig_smallest", record)
        g = gen_synthetic("scale_free", 2000, 0)
        for center in ("n1900", "n1050", "n1350", "n1200"):
            embed(khop_ego_subgraph(g, center, 2), 64)
        assert len(systems) == 4
        for a, k in systems:
            assert_matches_reference(a, k)


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
