import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import conceptbag
from conceptbag.errors import RankRequestTooLarge
from conceptbag.features import bow_nb_features, log_count_ratio
from conceptbag.lsa import truncated_svd

TOY_COUNTS = sp.csr_matrix(np.array([[2, 0], [0, 1]]))
TOY_LABELS = np.array([1, -1])


class TestTruncatedSvd:
    def test_diagonal(self):
        X = np.diag([3.0, 2.0, 1.0])
        f = truncated_svd(X, K=2)
        assert np.allclose(f.S, [3.0, 2.0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 40))
        K = 8
        f = truncated_svd(X, K)
        dense_s = np.linalg.svd(X, compute_uv=False)[:K]
        assert np.abs(f.S - dense_s).max() / dense_s.max() < 1e-6

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(9, 6))
        f = truncated_svd(X, K=6)
        assert np.linalg.norm(X - f.U @ np.diag(f.S) @ f.V.T) < 1e-8

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 20))
        f = truncated_svd(X, K=5)
        assert np.allclose(f.U.T @ f.U, np.eye(5), atol=1e-8)
        assert np.allclose(f.V.T @ f.V, np.eye(5), atol=1e-8)

    def test_non_increasing_singular_values(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 25))
        f = truncated_svd(X, K=10)
        assert np.all(np.diff(f.S) <= 1e-12)

    def test_rank_too_large(self):
        with pytest.raises(RankRequestTooLarge):
            truncated_svd(np.zeros((3, 5)), K=4)

    def test_sparse_input(self):
        X = sp.random(40, 30, density=0.2, random_state=4, format="csr")
        f = truncated_svd(X, K=5)
        dense_s = np.linalg.svd(X.toarray(), compute_uv=False)[:5]
        assert np.abs(f.S - dense_s).max() / dense_s.max() < 1e-6

    def test_eckart_young(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 10))
        K = 3
        f = truncated_svd(X, K)
        err = np.linalg.norm(X - f.U @ np.diag(f.S) @ f.V.T)
        for _ in range(100):
            A = rng.normal(size=(12, K))
            B = rng.normal(size=(K, 10))
            assert err <= np.linalg.norm(X - A @ B) + 1e-9

    def test_gram_singular_values_square(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 12))
        f = truncated_svd(X, K=4)
        g = truncated_svd(X.T @ X, K=4)
        assert np.allclose(g.S, f.S**2, rtol=1e-8)

    def test_exact_on_an_nbsvm_matrix(self):
        # sparse presence×r columns: a slowly decaying spectrum, hard for approximate SVDs
        X = nbsvm_matrix(np.random.default_rng(9), docs=200, words=600, rate=0.05)
        f = truncated_svd(X, K=50)
        dense_s = np.linalg.svd(X.toarray(), compute_uv=False)[:50]
        assert np.abs(f.S - dense_s).max() <= 1e-10 * dense_s[0]

    def test_deterministic(self):
        X = nbsvm_matrix(np.random.default_rng(10), docs=60, words=90, rate=0.1)
        f, g = truncated_svd(X, K=12), truncated_svd(X, K=12)
        for a, b in ((f.U, g.U), (f.S, g.S), (f.V, g.V)):
            assert a.tobytes() == b.tobytes()


def test_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg costs every process about 10 MiB; only an LSA fit loads it
    code = "import sys, conceptbag; assert 'scipy.sparse.linalg' not in sys.modules"
    package_root = Path(conceptbag.__file__).parents[1]
    subprocess.run([sys.executable, "-c", code], check=True, cwd=package_root)


def nbsvm_matrix(rng, docs, words, rate):
    """The words × documents NBSVM matrix of Poisson(``rate``) counts with alternating labels."""
    counts = sp.csr_matrix(rng.poisson(rate, size=(docs, words)))
    labels = np.resize([1, -1], docs)
    return bow_nb_features(counts, log_count_ratio(counts, labels)).T.tocsr()


def v_times_s(factors):
    """The LSA document rows of the factored documents, V diag(S): the reference for projections."""
    return factors.V * factors.S[None, :]


class TestDocumentFeatures:
    """A document's LSA row is its column of X projected on U: Xᵀ U."""

    def test_diagonal_recovers_scaled_basis(self):
        X = np.diag([3.0, 2.0])
        f = truncated_svd(X, K=2)
        assert np.allclose(np.abs(X.T @ f.U), np.diag([3.0, 2.0]), atol=1e-10)
        assert np.allclose(X.T @ f.U, v_times_s(f), atol=1e-10)

    def test_factorization_identity(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 8))
        f = truncated_svd(X, K=8)
        feats = X.T @ f.U
        assert np.allclose(feats, v_times_s(f), atol=1e-8)
        assert np.allclose(feats @ f.U.T, X.T, atol=1e-8)

    def test_toy_exact_rank_two(self):
        ratio = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        X = bow_nb_features(TOY_COUNTS, ratio).T.tocsr()
        f = truncated_svd(X, K=2)
        recon = f.U @ np.diag(f.S) @ f.V.T
        assert np.allclose(recon, X.toarray(), atol=1e-10)

    def test_fold_in_matches_train_features(self):
        # the harness's LSA rows, NBSVM rows @ U, are V diag(S) for the training
        # documents below full rank too, since V holds converged eigenvectors of XᵀX
        rng = np.random.default_rng(8)
        counts = sp.csr_matrix(rng.poisson(0.7, size=(30, 40)))
        rows = bow_nb_features(counts, log_count_ratio(counts, np.array([1, -1] * 15)))
        f = truncated_svd(rows.T.tocsr(), K=10)
        ref = v_times_s(f)
        assert np.abs(rows @ f.U - ref).max() <= 1e-12 * np.abs(ref).max()
