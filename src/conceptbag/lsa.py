"""LSA baseline: truncated SVD of the word log-count-ratio matrix."""

from dataclasses import dataclass

import numpy as np

from .errors import RankRequestTooLarge

_OVERSAMPLE = 15  # sketch columns beyond K
_POWER_ITERS = 10  # QR-stabilized power iterations on the sketch


@dataclass
class SvdFactors:
    """Top-K factors X ~ U diag(S) V^T with orthonormal U, V columns."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def truncated_svd(X, K: int, seed: int = 0) -> SvdFactors:
    """Randomized range-finder truncated SVD.

    Gaussian sketch of width K + _OVERSAMPLE, _POWER_ITERS QR-stabilized
    power iterations, then an exact SVD of the small projected matrix
    B = QᵀX. So Xᵀ U = V diag(S) in exact arithmetic: projecting the
    columns of X on U gives their rows of V diag(S).
    """
    rows, cols = X.shape
    if K > min(rows, cols):
        raise RankRequestTooLarge(f"K={K} exceeds min{X.shape}")
    rng = np.random.default_rng(seed)
    width = min(K + _OVERSAMPLE, min(rows, cols))
    G = rng.standard_normal((cols, width))
    Y = X @ G
    Q, _ = np.linalg.qr(Y)
    for _ in range(_POWER_ITERS):
        Z, _ = np.linalg.qr(X.T @ Q)
        Q, _ = np.linalg.qr(X @ Z)
    B = np.asarray(Q.T @ X)
    Ub, S, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return SvdFactors(U=U[:, :K], S=S[:K], V=Vt[:K].T)
