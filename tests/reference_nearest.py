"""The nearest-centroid pass that ``clustering._scorer`` replaced, kept as a test oracle.

``reference_screened_nearest(X, C, words)`` scores every row of X on every
call: it recomputes each row's bound terms, Q and its buffers per pass,
gathers the zero row for a row's -1 padding, and merges no rows. Its
labels, squared distances and count of undecided rows are what a scorer
must give, bit for bit.
"""

import numpy as np

from conceptbag.clustering import _BLOCK_ROWS, _direct_argmin


def reference_screened_nearest(X, C, words=None) -> tuple[np.ndarray, np.ndarray, int]:
    """``nearest``'s labels and squared distances, and the number of rows float32 left undecided.

    ``words`` (W, ids), if X is an n-gram table, lets ``reference_screen``
    score the rows from their words; the labels are the same bits either way.
    """
    c_sq = np.einsum("ij,ij->i", C, C)
    labels, undecided = reference_screen(X, C, c_sq, words)
    labels[undecided] = _direct_argmin(X[undecided], C)
    sq_dists = np.empty(X.shape[0])
    diff = np.empty((min(_BLOCK_ROWS, X.shape[0]), X.shape[1]))
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, X.shape[0])
        block = diff[: hi - lo]
        np.take(C, labels[lo:hi], axis=0, out=block, mode="wrap")  # labels lie in [0, K); "raise" would buffer
        np.subtract(X[lo:hi], block, out=block)
        np.einsum("ij,ij->i", block, block, out=sq_dists[lo:hi])
    return labels, sq_dists, len(undecided)


def reference_screen(X, C, c_sq, words=None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels that float32 arithmetic decides, and the undecided rows.

    Every call scores every row, from its rows or, given ``words`` = (W,
    ids), from a fresh Q = [W, 1] G stacked with Q / 2, ... and a zero row
    that the -1 padding gathers; the bound B and its derivation are those
    of ``conceptbag.clustering._screen``.
    """
    info = np.finfo(np.float32)
    rows_n, m = X.shape
    M = float(c_sq.max())
    u, t = float(info.eps) / 2, float(info.tiny)
    if words is None:
        row_sq = worst_sq = np.einsum("ij,ij->i", X, X)
        n = np.ones(rows_n, dtype=np.int64)
    else:
        W, ids = words
        ids = np.ascontiguousarray(ids.T)  # one row per word position: reductions run along rows
        w_sq = np.zeros(len(W) + 1)  # the -1 padding reads w_sq[-1], which stays 0
        np.einsum("ij,ij->i", W, W, out=w_sq[:-1])
        sq = w_sq[ids]
        n = np.count_nonzero(ids >= 0, axis=0)
        row_sq, worst_sq = sq.sum(axis=0) / n, sq.max(axis=0)
    k = (m + 2 * n + 4) * u
    k64 = (2 * m + 4 * n + 1) * 2.0**-53
    fits = n * (worst_sq + 2.0 * M) < 0.5 * float(info.max)
    labels = np.zeros(rows_n, dtype=np.int64)
    if not fits.any() or k.max() >= 0.5:
        return labels, np.arange(rows_n)
    limit = 2.0 * (k / (1.0 - k) + k64 / (1.0 - k64)) * (row_sq + 2.0 * M) + 8.0 * (m + n + 2) * t
    G = np.empty((m + 1, len(C)), dtype=np.float32)
    G[:m], G[m] = -2.0 * C.T, c_sq
    block_rows = min(_BLOCK_ROWS, rows_n)
    s_buf = np.empty((block_rows, len(C)), dtype=np.float32)
    decided = np.zeros(rows_n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that may overflow stay undecided
        if words is None:
            xs = np.ones((block_rows, m + 1), dtype=np.float32)  # [x, 1] for each row of a block
        else:
            Q = reference_word_scores(W, G, len(ids))
            ids = np.where(ids >= 0, ids + (n - 1) * len(W), -1)  # a word of an n-gram reads Q / n
            gathered = np.empty_like(s_buf)
        for lo in range(0, rows_n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, rows_n)
            s = s_buf[: hi - lo]
            if words is None:
                xs[: hi - lo, :m] = X[lo:hi]
                np.matmul(xs[: hi - lo], G, out=s)
            else:
                # "wrap" reads the -1 padding as the last row, and unlike "raise" does not buffer
                np.take(Q, ids[0, lo:hi], axis=0, out=s, mode="wrap")
                for row in ids[1:]:
                    s += np.take(Q, row[lo:hi], axis=0, out=gathered[: hi - lo], mode="wrap")
            rows = np.arange(hi - lo)
            best = s.argmin(axis=1)
            s_best = s[rows, best]
            s[rows, best] = np.inf
            decided[lo:hi] = s[rows, s.argmin(axis=1)] - s_best > limit[lo:hi]
            labels[lo:hi] = best
    return labels, np.flatnonzero(~(decided & fits))


def reference_word_scores(W, G, width):
    """Q, Q / 2, ..., Q / width for the float32 word scores Q = [W, 1] G, stacked, then a zero row."""
    V = W.shape[0]
    ws = np.ones((V, G.shape[0]), dtype=np.float32)
    ws[:, :-1] = W
    Q = np.zeros((width * V + 1, G.shape[1]), dtype=np.float32)  # the -1 padding reads the zero row
    np.matmul(ws, G, out=Q[:V])
    for j in range(2, width + 1):
        np.divide(Q[:V], j, out=Q[(j - 1) * V : j * V])
    return Q
