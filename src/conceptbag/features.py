"""Naive-Bayes log-count ratios and bag-of-concepts document features."""

import numpy as np
import scipy.sparse as sp

from .errors import BadConfig, DimensionMismatch, LengthMismatch, SingleClass

CONCEPT_MODES = ("nb_max", "frequency")  # need an n-gram -> concept assignment
MODES = CONCEPT_MODES + ("bow_nb",)


def log_count_ratio(counts: sp.spmatrix, labels) -> np.ndarray:
    """Per-n-gram r = log((p/|p|_1) / (q/|q|_1)) with p, q the +1-smoothed class counts.

    ``counts`` holds one row per training document; ``labels`` is the aligned
    vector of +1/-1. Natural logarithm.
    """
    labels = np.asarray(labels)
    counts = sp.csr_matrix(counts)
    if counts.shape[0] != len(labels):
        raise LengthMismatch(f"{counts.shape[0]} rows vs {len(labels)} labels")
    pos = labels == 1
    neg = labels == -1
    if not pos.any() or not neg.any():
        raise SingleClass("training labels must contain both +1 and -1")
    p = 1.0 + np.asarray(counts[pos].sum(axis=0)).ravel()
    q = 1.0 + np.asarray(counts[neg].sum(axis=0)).ravel()
    return np.log(p / p.sum()) - np.log(q / q.sum())


def _concept_cells(counts: sp.spmatrix, assignment, K: int, r=None):
    """CSR counts, the assignment as an array, and each stored entry's cell ``row * K + concept``."""
    counts = sp.csr_matrix(counts)
    n = counts.shape[1]
    assignment = np.asarray(assignment)
    if len(assignment) != n or (r is not None and len(r) != n):
        r_len = "" if r is None else f", r {len(r)}"
        raise LengthMismatch(f"counts have {n} columns, assignment {len(assignment)}{r_len}")
    # any label but an integer in [0, K) would file its n-gram in another document's cells
    whole = assignment.dtype.kind in "iu"
    bad = np.flatnonzero((assignment < 0) | (assignment >= K)) if whole else np.arange(n)
    if K < 1 or len(bad):
        at = f": n-gram {bad[0]} has the {assignment.dtype} label {assignment[bad[0]]}" if len(bad) else ""
        raise DimensionMismatch(f"concept labels must be integers in [0, {K}){at}")
    rows = np.repeat(np.arange(counts.shape[0], dtype=np.int64) * K, np.diff(counts.indptr))
    return counts, assignment, rows + assignment[counts.indices].astype(np.int64)


def concept_features_nb(
    counts: sp.spmatrix, assignment: np.ndarray, r: np.ndarray, K: int
) -> np.ndarray:
    """Per-cluster signed log-count ratio of maximal magnitude.

    Entry (i, k) is the r_t with the largest |r_t| over the cluster-k n-grams
    present in document i, 0 when none is present. Ties on |r_t| break toward
    the smallest n-gram index.
    """
    counts, assignment, cells = _concept_cells(counts, assignment, K, r)
    r = np.asarray(r, dtype=np.float64)
    order = np.lexsort((-np.abs(r), assignment))  # stable: by (cluster, |r| descending, index)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    best = np.full(counts.shape[0] * K, len(order))  # an empty cell reads the trailing 0
    np.minimum.at(best, cells, rank[counts.indices])
    return np.append(r[order], 0.0)[best].reshape(counts.shape[0], K)


def concept_features_freq(counts: sp.spmatrix, assignment: np.ndarray, K: int) -> np.ndarray:
    """Entry (i, k) sums the document's occurrence counts over cluster k."""
    counts, _, cells = _concept_cells(counts, assignment, K)
    sums = np.bincount(cells, counts.data, minlength=counts.shape[0] * K)  # int64 if nothing is stored
    return sums.astype(np.float64, copy=False).reshape(counts.shape[0], K)


def bow_nb_features(counts: sp.spmatrix, r: np.ndarray) -> sp.csr_matrix:
    """Presence-binarized counts scaled per column by r (the NBSVM featurizer).

    Entry (i, j) is r_j wherever counts has a stored entry, except where r_j
    is exactly 0, which is not stored. Each row's entries are stored in the
    reverse of their order in ``counts``, the order a product with
    ``diags(r)`` gives, so sums over a row, and the fits built on them, are
    those of that product to the bit.
    """
    counts = sp.csr_matrix(counts)
    if counts.shape[1] != len(r):
        raise LengthMismatch(
            f"counts have {counts.shape[1]} columns, r has {len(r)}"
        )
    indptr = counts.indptr
    # entry k of a row starting at a and ending before b moves to a + b - 1 - k
    reverse = np.repeat(indptr[:-1] + indptr[1:] - 1, np.diff(indptr)) - np.arange(indptr[-1])
    indices = counts.indices[reverse]
    data = np.asarray(r, dtype=np.float64)[indices]
    out = sp.csr_matrix((data, indices, indptr.copy()), shape=counts.shape)
    out.eliminate_zeros()
    return out


def document_features(mode: str, counts: sp.spmatrix, r: np.ndarray, assignment=None, K=None):
    """Document rows of feature ``mode``; CONCEPT_MODES also need ``assignment`` and ``K``.

    Raises BadConfig for an unknown mode, or a concept mode without both.
    """
    if mode in CONCEPT_MODES and (assignment is None or K is None):
        raise BadConfig(f"feature mode {mode!r} needs an n-gram assignment and K")
    if mode == "nb_max":
        return concept_features_nb(counts, assignment, r, K)
    if mode == "frequency":
        return concept_features_freq(counts, assignment, K)
    if mode == "bow_nb":
        return bow_nb_features(counts, r)
    raise BadConfig(f"unknown feature mode {mode!r}; expected one of {MODES}")
