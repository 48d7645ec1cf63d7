"""LSA baseline: truncated SVD of the word log-count-ratio matrix."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import RankRequestTooLarge
from .features import LogCountRatio, bow_nb_features


@dataclass
class SvdFactors:
    """Top-K factors X ~ U diag(S) V^T with orthonormal U, V columns."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def build_lsa_matrix(counts: sp.spmatrix, ratio: LogCountRatio) -> sp.csr_matrix:
    """Word-by-document matrix with entries r_i where word i occurs in doc j.

    ``counts`` is the document-by-word count matrix; the result is the
    transpose of its NBSVM features (``bow_nb_features``).
    """
    return sp.csr_matrix(bow_nb_features(counts, ratio).T)


def truncated_svd(X, K: int, oversample: int = 15, power_iters: int = 10, seed: int = 0) -> SvdFactors:
    """Randomized range-finder truncated SVD.

    Gaussian sketch of width K + oversample, ``power_iters`` QR-stabilized
    power iterations, then an exact SVD of the small projected matrix.
    """
    rows, cols = X.shape
    if K > min(rows, cols):
        raise RankRequestTooLarge(f"K={K} exceeds min{X.shape}")
    rng = np.random.default_rng(seed)
    width = min(K + oversample, min(rows, cols))
    G = rng.standard_normal((cols, width))
    Y = X @ G
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(X.T @ Q)
        Q, _ = np.linalg.qr(X @ Z)
    B = np.asarray(Q.T @ X)
    Ub, S, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return SvdFactors(U=U[:, :K], S=S[:K], V=Vt[:K].T)


def lsa_document_features(factors: SvdFactors) -> np.ndarray:
    """Document representations: rows of V diag(S)."""
    return factors.V * factors.S[None, :]


def lsa_fold_in(factors: SvdFactors, X_new) -> np.ndarray:
    """Project unseen document columns into the factor space.

    ``X_new`` is a word-by-document matrix built with the training r; returns
    one row per new document, comparable to lsa_document_features rows.
    """
    projected = np.asarray((X_new.T @ factors.U))
    return projected
