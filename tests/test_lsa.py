import numpy as np
import pytest
import scipy.sparse as sp

from conceptbag.errors import LengthMismatch, RankRequestTooLarge
from conceptbag.features import bow_nb_features, log_count_ratio
from conceptbag.lsa import (
    build_lsa_matrix,
    lsa_document_features,
    lsa_fold_in,
    truncated_svd,
)

TOY_COUNTS = sp.csr_matrix(np.array([[2, 0], [0, 1]]))
TOY_LABELS = np.array([1, -1])


class TestBuildLsaMatrix:
    def test_zero_r(self):
        ratio = log_count_ratio(sp.csr_matrix(np.array([[1, 1], [1, 1]])), TOY_LABELS)
        X = build_lsa_matrix(TOY_COUNTS, ratio)
        assert np.allclose(X.toarray(), 0.0)

    def test_presence_not_count(self):
        ratio = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        counts = sp.csr_matrix(np.array([[3, 0]]))
        X = build_lsa_matrix(counts, ratio)
        assert X[0, 0] == pytest.approx(ratio.r[0])

    def test_toy_composition(self):
        ratio = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        X = build_lsa_matrix(TOY_COUNTS, ratio).toarray()
        # words x documents orientation
        assert X == pytest.approx(np.array([[0.81093, 0.0], [0.0, -0.98083]]), abs=5e-6)

    def test_length_mismatch(self):
        ratio = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        with pytest.raises(LengthMismatch):
            build_lsa_matrix(sp.csr_matrix(np.zeros((2, 3))), ratio)

    def test_transpose_of_nbsvm_features(self):
        rng = np.random.default_rng(0)
        counts = sp.csr_matrix(rng.poisson(0.7, size=(12, 9)))
        ratio = log_count_ratio(counts, np.array([1, -1] * 6))
        X = build_lsa_matrix(counts, ratio)
        assert np.array_equal(X.toarray(), bow_nb_features(counts, ratio).T.toarray())


class TestTruncatedSvd:
    def test_diagonal(self):
        X = np.diag([3.0, 2.0, 1.0])
        f = truncated_svd(X, K=2, seed=0)
        assert np.allclose(f.S, [3.0, 2.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 40))
        K = 8
        f = truncated_svd(X, K, seed=1)
        dense_s = np.linalg.svd(X, compute_uv=False)[:K]
        assert np.abs(f.S - dense_s).max() / dense_s.max() < 1e-6

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(9, 6))
        f = truncated_svd(X, K=6, seed=0)
        assert np.linalg.norm(X - f.U @ np.diag(f.S) @ f.V.T) < 1e-8

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 20))
        f = truncated_svd(X, K=5, seed=0)
        assert np.allclose(f.U.T @ f.U, np.eye(5), atol=1e-8)
        assert np.allclose(f.V.T @ f.V, np.eye(5), atol=1e-8)

    def test_non_increasing_singular_values(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 25))
        f = truncated_svd(X, K=10, seed=0)
        assert np.all(np.diff(f.S) <= 1e-12)

    def test_rank_too_large(self):
        with pytest.raises(RankRequestTooLarge):
            truncated_svd(np.zeros((3, 5)), K=4)

    def test_sparse_input(self):
        X = sp.random(40, 30, density=0.2, random_state=4, format="csr")
        f = truncated_svd(X, K=5, seed=0)
        dense_s = np.linalg.svd(X.toarray(), compute_uv=False)[:5]
        assert np.abs(f.S - dense_s).max() / dense_s.max() < 1e-6

    def test_eckart_young(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 10))
        K = 3
        f = truncated_svd(X, K, seed=0)
        err = np.linalg.norm(X - f.U @ np.diag(f.S) @ f.V.T)
        for _ in range(100):
            A = rng.normal(size=(12, K))
            B = rng.normal(size=(K, 10))
            assert err <= np.linalg.norm(X - A @ B) + 1e-9

    def test_gram_singular_values_square(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 12))
        f = truncated_svd(X, K=4, seed=0)
        g = truncated_svd(X.T @ X, K=4, seed=1)
        assert np.allclose(g.S, f.S**2, rtol=1e-8)


class TestDocumentFeatures:
    def test_diagonal_recovers_scaled_basis(self):
        X = np.diag([3.0, 2.0])
        f = truncated_svd(X, K=2, seed=0)
        feats = lsa_document_features(f)
        assert np.allclose(np.abs(feats), np.diag([3.0, 2.0]), atol=1e-10)

    def test_factorization_identity(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 8))
        f = truncated_svd(X, K=8, seed=0)
        feats = lsa_document_features(f)
        assert np.allclose(feats @ f.U.T, X.T, atol=1e-8)

    def test_toy_exact_rank_two(self):
        ratio = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        X = build_lsa_matrix(TOY_COUNTS, ratio)
        f = truncated_svd(X, K=2, seed=0)
        recon = f.U @ np.diag(f.S) @ f.V.T
        assert np.allclose(recon, X.toarray(), atol=1e-10)

    def test_fold_in_matches_train_features(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 12))
        f = truncated_svd(X, K=12, seed=0)
        folded = lsa_fold_in(f, X)
        assert np.allclose(folded, lsa_document_features(f), atol=1e-8)
