"""LSA baseline: truncated SVD of the word log-count-ratio matrix."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import RankRequestTooLarge


@dataclass
class SvdFactors:
    """Top-K factors X ~ U diag(S) V^T with orthonormal U, V columns."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def truncated_svd(X, K: int) -> SvdFactors:
    """The exact top-K singular triplets of X, dense or sparse, S in decreasing order.

    ARPACK (``scipy.sparse.linalg.svds``) from a fixed start vector, so that two
    calls give the same bits; K = min(X.shape), which ARPACK rejects, is a dense
    SVD. Either way Xᵀ U = V diag(S): projecting the columns of X on U gives
    their rows of V diag(S).
    """
    rows, cols = X.shape
    if K > min(rows, cols):
        raise RankRequestTooLarge(f"K={K} exceeds min{X.shape}")
    if K == min(rows, cols):
        U, S, Vt = np.linalg.svd(X.toarray() if sp.issparse(X) else X, full_matrices=False)
        return SvdFactors(U=U, S=S, V=Vt.T)
    # imported here: scipy.sparse.linalg adds about 10 MiB to every process that loads it
    from scipy.sparse.linalg import svds

    U, S, Vt = svds(X, k=K, v0=np.random.default_rng(0).standard_normal(min(rows, cols)))
    order = np.argsort(-S, kind="stable")
    return SvdFactors(U=U[:, order], S=S[order], V=Vt[order].T)
