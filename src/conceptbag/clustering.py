"""K-means partitioning of n-gram vectors into semantic concepts."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .embeddings import NGramTable, WordVectors, save_word_vectors
from .errors import BadConfig, DimensionMismatch, NonFiniteFeature, TooFewPoints, check_int

VARIANTS = ("lloyd", "minibatch")
INITS = ("kmeanspp", "random_points")

_BLOCK_ROWS = 512  # rows per block in every nearest-centroid computation; 512 beat 1024 and 2048 (README)
_DRAW_BLOCK = 256  # rows per block sum in a k-means++ draw (``_draw``)


@dataclass
class KMeansConfig:
    K: int = 300
    iterations: int = 10
    variant: str = "lloyd"  # one of VARIANTS
    batch_size: int = 1024
    init: str = "kmeanspp"  # one of INITS
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise BadConfig(f"unknown K-means variant {self.variant!r}; expected one of {VARIANTS}")
        if self.init not in INITS:
            raise BadConfig(f"unknown K-means init {self.init!r}; expected one of {INITS}")
        for name, minimum in (("K", 1), ("iterations", 0), ("batch_size", 1)):
            check_int(f"kmeans {name}", getattr(self, name), minimum)
        check_int("kmeans seed", self.seed, 0, 2**63 - 1)


@dataclass
class KMeansResult:
    centroids: np.ndarray  # K x m
    labels: np.ndarray
    sq_dists: np.ndarray  # |x - c_label|^2 per row, from the final assignment pass
    inertia: float  # sq_dists.sum()
    inertia_trace: list[float] = field(default_factory=list)
    # per Lloyd pass before a centroid update, the rows of X that the float32
    # screen left to float64 (empty for mini-batch), each counted, also a
    # reversed bigram the screen scores as its twin (see ``_screen``); the
    # passes of a fit whose word matrix has fewer rows than X score from words
    # and bound each row by its words' mean |w|^2, not |x|^2, so they may
    # leave more, with the same labels
    rechecked: list[int] = field(default_factory=list)


def nearest(X, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid index and squared distance for every row of X, given the K x m centroids C.

    The one nearest-centroid routine, for Lloyd and mini-batch passes, ``assign``,
    ``inertia`` and the CLI, in two steps that each look at a row alone, so a
    label does not depend on the other rows of X. ``_screen`` gives each row it
    can decide in float32 its exact nearest centroid. ``_direct_argmin`` decides
    the rest, exact ties among them (a bigram halfway between the centroids of
    its two words): |x - c_k|^2 summed in float64 for every k, ties to the
    smallest index, about 75 us per row at K=300, m=100. So input beyond
    float32 range, which the screen leaves undecided, costs a direct pass.
    ``sq_dists`` is |x - c_label|^2, summed directly in float64. X is a
    matrix or an ``NGramTable``, whose X is read, as the fits read it. X and
    C are read as float64 arrays; points that are not a matrix, centroids of
    another width or none at all raise DimensionMismatch, and a NaN or
    infinite point or centroid NonFiniteFeature.
    """
    X = X.X if isinstance(X, NGramTable) else X
    X, C = np.asarray(X, dtype=np.float64), np.asarray(C, dtype=np.float64)
    if X.ndim != 2 or C.ndim != 2 or X.shape[1] != C.shape[1] or len(C) == 0:
        raise DimensionMismatch(f"points have shape {X.shape}, centroids are {C.shape}")
    if not (np.isfinite(X).all() and np.isfinite(C).all()):
        raise NonFiniteFeature("points or centroids contain NaN or inf")
    return _scorer(X, len(C))(C)[:2]


def _scorer(X, K, words=None):
    """The function C -> (labels, sq_dists, rechecked) of one ``nearest`` pass over X, set up once.

    Every nearest-centroid pass goes through a scorer: ``nearest`` builds one
    and calls it once, each mini-batch pass builds one for its batch, and a
    fit builds one for its points, which serves every Lloyd pass and the
    final pass. C is a K x m float64 matrix. ``words`` (W, ids), if X is an
    n-gram table, lets ``_screen`` score the rows from their words; the
    labels are the same bits either way. The screen may score fewer rows
    than X has (see ``_screen``); each row it merged takes the label of the
    row it scored, and the direct step decides an undecided scored row once,
    as merged rows are the same bits of X. ``rechecked`` counts rows of X
    that float32 left undecided, a scored row once for every row it stands
    for. ``sq_dists`` is |x - c_label|^2, summed directly in float64 over
    every row of X. The scorer holds no copy of X's rows.
    """
    screen, scored, inverse = _screen(X, K, words)
    weights = None if inverse is None else np.bincount(inverse, minlength=len(scored))

    def nearest_of(C):
        labels, undecided = screen(C)
        labels[undecided] = _direct_argmin(X[scored[undecided]], C)
        if inverse is None:
            rechecked = len(undecided)
        else:
            rechecked, labels = int(weights[undecided].sum()), labels[inverse]
        sq_dists = np.empty(X.shape[0])
        diff = np.empty((min(_BLOCK_ROWS, X.shape[0]), X.shape[1]))  # per pass, as the screen's buffers are held
        for lo in range(0, X.shape[0], _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, X.shape[0])
            block = diff[: hi - lo]
            np.take(C, labels[lo:hi], axis=0, out=block, mode="wrap")  # labels lie in [0, K); "raise" would buffer
            np.subtract(X[lo:hi], block, out=block)
            np.einsum("ij,ij->i", block, block, out=sq_dists[lo:hi])
        return labels, sq_dists, rechecked

    return nearest_of


def _direct_argmin(X, C) -> np.ndarray:
    """argmin_k |x - c_k|^2 for each row of X, ties to the smallest k.

    Each distance is summed over the dimensions in order, elementwise over a
    block of rows, so a row's label depends on that row alone.
    """
    labels = np.empty(X.shape[0], dtype=np.int64)
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        block = X[lo : lo + _BLOCK_ROWS]
        d = np.zeros((len(block), C.shape[0]))
        diff = np.empty_like(d)
        for j in range(C.shape[1]):
            np.subtract(block[:, j, None], C[:, j], out=diff)
            diff *= diff
            d += diff
        labels[lo : lo + len(block)] = d.argmin(axis=1)
    return labels


def _screen(X, K, words=None):
    """The float32 screen of X's rows against K centroids, set up once: (screen, scored, inverse).

    ``screen(C)`` gives the nearest-centroid labels that float32 arithmetic
    decides for the rows X[scored], and the positions among them of the
    rows it leaves undecided. Row t of X is scored row inverse[t], or row t
    itself when ``inverse`` is None.

    Each scored row gets float32 scores s_k for the exact S_k = D_k - |x|^2
    = |c_k|^2 - 2 x.c_k (D_k the exact squared distance), in blocks of
    ``_BLOCK_ROWS`` rows. Scores come from one float32 product with the
    (m + 1) x K matrix G = [-2 C^T; |c|^2], which scores a vector [w, 1] as
    |c_k|^2 - 2 w.c_k, from one of two sources:
    - rows: the block, rounded to float32, is [x, 1] G;
    - words, given ``words`` = (W, ids): one V x K product Q = [W, 1] G
      per pass, and a row whose ids name words w_1 ... w_n scores s_k =
      Q_1k / n + ... + Q_nk / n, gathered from Q / n, which is computed
      once per pass for each n.
    The row source is the word source with each row its own word (n = 1,
    w_1 = x), so one bound serves both. With Wbar = (|w_1|^2 + ... +
    |w_n|^2) / n (|x|^2 when n = 1), a row keeps the argmin j of its scores
    when the gap g between its two smallest scores exceeds

        B = 2 (gamma + gamma64) (Wbar + 2 M) + 8 (m + n + 2) t,
        gamma = (m + 2n + 4) u / (1 - (m + 2n + 4) u),
        gamma64 = (2m + 4n + 1) v / (1 - (2m + 4n + 1) v),

    with u = 2^-24 the unit roundoff of float32, v = 2^-53, t the smallest
    normal float32 and M = max |c_k|^2. For n = 1 these are the row bound.
    Why that suffices (gamma_k = k u / (1 - k u), gamma64_k likewise in v):
    Q_ik is a dot product of m + 1 terms, w_i and c_k rounded to float32
    and |c_k|^2 summed in float64 (within gamma64_m |c_k|^2 <= u |c_k|^2)
    and rounded to float32. The terms' absolute values add up to at most
    |w_i|^2 + 2 |c_k|^2, since 2 |w.c| <= |w|^2 + |c|^2, and summing them in
    any order (FMA or not) after two roundings of each input costs Q_ik at
    most gamma_{m+3} (|w_i|^2 + 2 |c_k|^2). The divisions by n (exact for n
    <= 2) and the n - 1 float32 additions put at most n roundings on a
    term, and none for n = 1, so at most 2 (n - 1): the mean errs from
    |c_k|^2 - 2 x*.c_k, x* the exact mean of the words, by at most
    gamma_{m+2n+1} (Wbar + 2 |c_k|^2). The stored row x is the float64 mean
    of its words (``NGramTable``), 2 (n - 1) roundings from x*, so 2 |(x -
    x*).c_k| <= gamma64_{2n-2} (Wbar + |c_k|^2). Each rounding that
    underflows, to a subnormal or flushed to zero, costs at most t more: m
    + 3 per word, after folding the t |w|_1 terms into u |w|^2 + m t^2 / u,
    so m + 3 over the mean, and one for the divisions (a float32 addition
    that underflows is exact). So |s_k - S_k| <= E = (gamma_{m+2n+1} +
    gamma64_{2n-2}) (Wbar + 2 M) + (m + n + 2) t for every k. A float64
    value for D_k, as |x|^2 - 2 x.c + |c|^2 or as a direct sum, in any
    order of summation, errs by at most gamma64_{2m+4} (|x|^2 + M) + (2m +
    4) 2^-1022, and |x|^2 <= (1 + gamma64_{2n-2})^2 Wbar, as |x*|^2 <=
    Wbar; together with E's float64 term that is at most gamma64_{2m+4n}
    (Wbar + 2 M). The computed gap is at most (1 + u) times the true one,
    and it and the float64 rounding of Wbar and B are within the slack of
    gamma_{m+2n+4} over gamma_{m+2n+1}. If g > B, then S_k - S_j exceeds
    twice both errors for every k != j: j is the exact nearest centroid,
    and any float64 evaluation of the distances puts it strictly first.
    The runner-up's score is read at the argmin of the scores with s_j set
    to inf, the value their minimum would give. The bound assumes nothing
    overflows: partial sums stay below n (max_i |w_i|^2 + 2 M), so rows
    where that passes half the largest float32 are not decided. So a
    word-scored pass gives the labels of a row-scored one, bit for bit, as
    long as each row of ids gives its row of X, which an ``NGramTable``'s
    construction guarantees. A fit passes ``words``, a table's (W, ids), only
    when W has fewer rows than X (see ``_check_points``), as scoring from
    words costs more otherwise.

    Merged rows share the bound because every input of it is the same bits
    for them. Rows whose ids name the same two words, in either order (a b
    and b a), are scored once, as the first of them, and the others take
    its label. IEEE addition is commutative: ``word_means`` adds the same
    two vectors to 0.0, so their X rows are the same bits, as is their
    score Q_ak / 2 + Q_bk / 2, and Wbar, max |w_i|^2 and n are a sum, a
    maximum and a count of the same values. An a a row is kept apart from
    a: their X rows agree, but n = 2 gives it another B, so the float32
    step may decide one and not the other. Rows of three words are not
    merged, as (w_a + w_b) + w_c and (w_b + w_c) + w_a may differ in the
    last bit.

    Everything the screen reads that does not depend on C is set up here,
    once: each scored row's Wbar and max |w_i|^2, the gamma and t terms of
    B for each word count n, the words' offsets into the stacked Q, Q / 2,
    ..., W as float32, and the Q, G and score buffers, which each pass
    overwrites. Only the buffer for a block's further words is made per
    pass, so that it and the distance pass's float64 block (``_scorer``)
    are never held at once. A row of n words gathers n rows of that stack
    and none for its -1 padding: a zero row added there would only turn a
    -0.0 score into +0.0, which no comparison of scores tells apart.
    """
    info = np.finfo(np.float32)
    rows_n, m = X.shape
    u, t = float(info.eps) / 2, float(info.tiny)
    if words is None:
        row_sq = worst_sq = np.einsum("ij,ij->i", X, X)
        scored, inverse, groups = np.arange(rows_n), None, [(0, rows_n, 1, None)] if rows_n else []
    else:
        W, ids = words
        V, width = len(W), ids.shape[1]
        by_position = np.ascontiguousarray(ids.T)  # one row per word position: reductions run along rows
        w_sq = np.zeros(V + 1)  # the -1 padding reads w_sq[-1], which stays 0
        np.einsum("ij,ij->i", W, W, out=w_sq[:-1])
        sq = w_sq[by_position]
        n = np.count_nonzero(by_position >= 0, axis=0)
        row_sq, worst_sq = sq.sum(axis=0) / n, sq.max(axis=0)
        scored, inverse, groups = _word_groups(ids, n, V)
        row_sq, worst_sq = row_sq[scored], worst_sq[scored]
        ws = np.ones((V, m + 1), dtype=np.float32)  # [w, 1] for each word
        with np.errstate(over="ignore"):  # a word beyond float32 range leaves its rows undecided
            ws[:, :-1] = W
        Q = np.empty((width * V, K), dtype=np.float32)  # Q, Q / 2, ..., Q / width, stacked
    bounds = []  # per group: the factor of Wbar + 2 M in B, B's underflow term, and whether B is usable
    for _, _, n, _ in groups:
        k, k64 = (m + 2 * n + 4) * u, (2 * m + 4 * n + 1) * 2.0**-53
        bounds.append((2.0 * (k / (1.0 - k) + k64 / (1.0 - k64)), 8.0 * (m + n + 2) * t, k < 0.5))
    usable = all(ok for _, _, ok in bounds)
    half_max = 0.5 * float(info.max)
    G = np.empty((m + 1, K), dtype=np.float32)
    block_rows = min(_BLOCK_ROWS, rows_n)
    block_index = np.arange(block_rows)
    s_buf = np.empty((block_rows, K), dtype=np.float32)
    if words is None:
        xs = np.ones((block_rows, m + 1), dtype=np.float32)  # [x, 1] for each row of a block
    decided, fits = np.empty(len(scored), dtype=bool), np.empty(len(scored), dtype=bool)

    def screen(C):
        c_sq = np.einsum("ij,ij->i", C, C)
        M = float(c_sq.max())
        for start, stop, n, _ in groups:
            np.less(n * (worst_sq[start:stop] + 2.0 * M), half_max, out=fits[start:stop])
        labels = np.zeros(len(scored), dtype=np.int64)
        if not (usable and fits.any()):
            return labels, np.arange(len(scored))
        G[:m], G[m] = -2.0 * C.T, c_sq
        with np.errstate(over="ignore", invalid="ignore"):  # rows that may overflow stay undecided
            if words is not None:
                np.matmul(ws, G, out=Q[:V])
                for j in range(2, width + 1):
                    np.divide(Q[:V], j, out=Q[(j - 1) * V : j * V])
                gathered = np.empty_like(s_buf)
            for (start, stop, _, offsets), (coef, floor, _) in zip(groups, bounds):
                for lo in range(start, stop, _BLOCK_ROWS):
                    hi = min(lo + _BLOCK_ROWS, stop)
                    s = s_buf[: hi - lo]
                    if offsets is None:
                        xs[: hi - lo, :m] = X[lo:hi]
                        np.matmul(xs[: hi - lo], G, out=s)
                    else:
                        # every offset is in range; "wrap", unlike "raise", does not buffer
                        words_at = offsets[:, lo - start : hi - start]
                        np.take(Q, words_at[0], axis=0, out=s, mode="wrap")
                        for word in words_at[1:]:
                            s += np.take(Q, word, axis=0, out=gathered[: hi - lo], mode="wrap")
                    rows = block_index[: hi - lo]
                    best = s.argmin(axis=1)
                    s_best = s[rows, best]
                    s[rows, best] = np.inf
                    limit = coef * (row_sq[lo:hi] + 2.0 * M) + floor
                    decided[lo:hi] = s[rows, s.argmin(axis=1)] - s_best > limit
                    labels[lo:hi] = best
        return labels, np.flatnonzero(~(decided & fits))

    return screen, scored, inverse


def _word_groups(ids, n, V):
    """The rows a word-scored screen scores, grouped by word count: (scored, inverse, groups).

    Scored row p is row scored[p] of the table, and row t is scored as
    scored row inverse[t]. Each group is (start, stop, n, offsets): scored
    rows start ... stop - 1 name n words each, and the n x (stop - start)
    array offsets names their words, in their order in ids, as rows of the
    stacked Q, Q / 2, ...: word w of an n-word row is row (n - 1) V + w.
    Rows of two words, the same two in either order, are one scored row,
    the first of them (see ``_screen``); every other row is its own.
    """
    named = np.take_along_axis(ids, np.argsort(ids < 0, axis=1, kind="stable"), axis=1)  # words, then padding
    inverse = np.empty(len(ids), dtype=np.intp)
    scored, groups, start = [np.empty(0, dtype=np.intp)], [], 0
    for j in range(1, ids.shape[1] + 1):
        rows = np.flatnonzero(n == j)
        if j == 2:
            a, b = named[rows, 0], named[rows, 1]
            pair = np.minimum(a, b) * V + np.maximum(a, b)
            _, first, merged = np.unique(pair, return_index=True, return_inverse=True)  # first: each pair's first row
            inverse[rows] = start + merged
            rows = rows[first]
        else:
            inverse[rows] = start + np.arange(len(rows))
        if len(rows):
            scored.append(rows)
            groups.append((start, start + len(rows), j, np.ascontiguousarray(named[rows, :j].T) + (j - 1) * V))
            start += len(rows)
    return np.concatenate(scored), inverse, groups


def _distances_to(X: np.ndarray, words=None):
    """The function c -> squared distance from every row of X to c, for k-means++ seeding.

    A distance is |x|^2 - 2 x.c + |c|^2, with |x|^2 computed once. Where
    that value is within rounding of zero, at most 1e-9 (|x|^2 + |c|^2),
    the row is recomputed as |x - c|^2 directly, so a row equal to c gets
    exactly 0. The rows tested against that are those at most 1e-9 (max
    |x|^2 + |c|^2), which holds them all, as rounding is monotone.

    ``words``, if given, is an ``NGramTable``'s (W, ids), whose construction
    makes row t of X the mean of the rows of W that row t of the N x width
    int array ``ids`` names, padded with -1. Then x.c is the mean over those
    rows of W c, so a call costs one product over W and a gather over
    ``ids`` in place of a product over X. Without ``words`` (a fit passes
    none when W has no fewer rows than X), X itself is the word matrix, one
    word per row, and x.c is the product X c.
    """
    n = X.shape[0]
    W, ids = words or (X, np.arange(n)[:, None])
    ids = np.ascontiguousarray(ids.T)  # one row per word position, so each gather reads a contiguous row
    lengths = np.count_nonzero(ids >= 0, axis=0).astype(np.float64)
    wc = np.zeros(len(W) + 1)  # the -1 padding reads wc[-1], which stays 0
    x_sq = np.einsum("ij,ij->i", X, X)
    x_sq_max = x_sq.max(initial=0.0)

    def sq_dists_to(c):
        np.matmul(W, c, out=wc[:-1])
        d = wc[ids[0]]
        for row in ids[1:]:
            d += wc[row]
        d /= lengths
        d *= -2.0
        d += x_sq
        c_sq = c @ c
        d += c_sq
        near = np.flatnonzero(d <= 1e-9 * (x_sq_max + c_sq))
        near = near[d[near] <= 1e-9 * (x_sq[near] + c_sq)]
        d[near] = ((X[near] - c) ** 2).sum(axis=1)
        return d

    return sq_dists_to


def _draw(blocks: np.ndarray, n: int, rng) -> int:
    """A row index below n, drawn with probability proportional to its weight; uniform if all are 0.

    ``blocks`` holds the n weights row-major, zero-padded to whole rows of
    ``_DRAW_BLOCK``. The draw is that of searchsorted(cumsum(weights),
    random() * total), but the total and the running sums come from the
    blocks' sums, and cumsum runs over the one block the draw lands in. The
    sums round differently, so a draw within rounding of a block boundary
    may move; with weights whose every partial sum is exact (integers) it
    is the same index.
    """
    ends = np.cumsum(blocks.sum(axis=1))
    if ends[-1] <= 0:
        return int(rng.integers(n))
    r = rng.random() * ends[-1]
    b = int(np.searchsorted(ends, r))
    within = np.cumsum(blocks[b])
    j = int(np.searchsorted(within, r - ends[b - 1] if b else r))
    if j == len(within):  # past the block's own running sum, by rounding: its last row of weight
        j = int(np.flatnonzero(blocks[b])[-1])
    return b * blocks.shape[1] + j


def _kmeanspp_init(X: np.ndarray, K: int, rng, words=None) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007).

    Each step draws the next centre with probability proportional to every
    row's squared distance to its closest centre so far, from
    ``_distances_to(X, words)``, by ``_draw``. A chosen point and its exact
    duplicates keep exactly zero weight, so that they are never drawn again
    and, once every row coincides with a centre, the total is 0 and the
    remaining centres are drawn uniformly.
    """
    n = X.shape[0]
    sq_dists_to = _distances_to(X, words)
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    padded = np.zeros(-(-n // _DRAW_BLOCK) * _DRAW_BLOCK)
    closest = padded[:n]
    closest[:] = sq_dists_to(centers[0])
    blocks = padded.reshape(-1, _DRAW_BLOCK)
    for k in range(1, K):
        centers[k] = X[_draw(blocks, n, rng)]
        np.minimum(closest, sq_dists_to(centers[k]), out=closest)
    return centers


def _init_centers(X: np.ndarray, config: KMeansConfig, rng, words=None) -> np.ndarray:
    if config.init == "kmeanspp":
        return _kmeanspp_init(X, config.K, rng, words)
    idx = rng.choice(X.shape[0], size=config.K, replace=False)  # "random_points"
    return X[idx].copy()


def inertia(X, C: np.ndarray) -> float:
    """Sum of squared distances from each row of X (a matrix or an ``NGramTable``) to its nearest row of C."""
    return float(nearest(X, C)[1].sum())


def assign(x: np.ndarray, C: np.ndarray) -> int:
    """Index of the row of C nearest to the single vector x; ties go to the smallest index."""
    x, C = np.asarray(x, dtype=np.float64), np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or x.shape != (C.shape[1],):
        raise DimensionMismatch(f"query has shape {x.shape}, centroids are {C.shape}")
    return int(nearest(x[None, :], C)[0][0])


def _check_points(points, K: int):
    """The points as a float64 matrix, checked, and the words a fit works from: a table's (W, ids), or None.

    An ``NGramTable``'s matrix is its X, whose rows its construction makes
    its words' means; its words are kept only when W has fewer rows than X,
    so that a product over W costs less than one over X.
    """
    if isinstance(points, NGramTable):
        X, words = points.X, ((points.W, points.ids) if len(points.W) < len(points.X) else None)
    else:
        X, words = np.asarray(points, dtype=np.float64), None
    if X.ndim != 2:
        raise DimensionMismatch(f"points have shape {X.shape}; expected a matrix, one point per row")
    if X.shape[0] < K:
        raise TooFewPoints(f"{X.shape[0]} points for K={K}")
    if not np.isfinite(X).all():
        raise NonFiniteFeature("points contain NaN or inf")
    return X, words


def kmeans_fit(points, config: KMeansConfig) -> KMeansResult:
    """Lloyd's algorithm for a fixed number of iterations.

    Before each centroid update, empty clusters are re-seeded at the point
    currently farthest from its assigned centroid. If the final assignment
    still leaves a cluster empty and X has fewer distinct rows than K,
    raises TooFewPoints: coinciding centroids tie there, and the smallest
    index takes the rows. Deterministic for a given config.seed.

    Every assignment pass, the last included, is one ``nearest`` pass, from
    one scorer set up for the fit (``_scorer``): float32 under a proven
    error bound, float64 for the rows float32 cannot order, and each row's
    own direct distances for exact ties. ``rechecked`` holds, for the pass
    before each centroid update, the number of rows of X that float32 left
    to float64, each counted, merged or not. Each iteration's trace
    value is the inertia (the sum of ``nearest``'s ``sq_dists``) of the pass
    that follows its centroid update, so the last one is the final inertia.
    Each update sets a centroid to the mean of its rows, as one sparse
    product: a K x N one-hot matrix, each cluster's rows in index order,
    times X, divided by the cluster sizes.
    ``points`` is a matrix X, or an ``NGramTable``, whose X the fit
    clusters. A table's construction makes each row the mean of its words,
    bit for bit as ``embed_all`` computes it, so when its W has fewer rows
    than X, decided once per fit, k-means++ seeding draws the same centres
    unless a draw falls within rounding of a boundary (see
    ``_distances_to``), and every pass gives the same labels (see
    ``_screen``). A table whose W is a whole vector file gets row scoring:
    the labels are correct, only speed differs.
    """
    X, words = _check_points(points, config.K)
    rng = np.random.default_rng(config.seed)
    centers = _init_centers(X, config, rng, words)
    nearest_of = _scorer(X, config.K, words)
    trace, rechecked = [], []
    labels, sq_dists, n_rechecked = nearest_of(centers)
    for _ in range(config.iterations):
        rechecked.append(n_rechecked)
        labels = _fix_empty_clusters(X, centers, labels, config.K)
        # the conversion to CSR is a stable counting sort, which keeps each cluster's rows in
        # index order, and the product adds them from 0.0 in that order, as
        # X[labels == k].mean(axis=0) does
        members = sp.coo_matrix((np.ones(len(X)), (labels, np.arange(len(X)))), shape=(config.K, len(X))).tocsr()
        sizes = np.diff(members.indptr)
        filled = sizes > 0
        centers[filled] = (members @ X)[filled] / sizes[filled, None]
        labels, sq_dists, n_rechecked = nearest_of(centers)
        trace.append(float(sq_dists.sum()))
    total = float(sq_dists.sum())
    if np.bincount(labels, minlength=config.K).min() == 0:
        distinct = len(np.unique(X, axis=0))
        if distinct < config.K:
            raise TooFewPoints(f"{distinct} distinct points for K={config.K}")
    return KMeansResult(centers, labels, sq_dists, total, trace, rechecked)


def _fix_empty_clusters(X, centers, labels, K):
    """Move each empty cluster's centroid onto the row farthest from its own.

    A repair changes only the repaired row's label and the empty cluster's
    centroid, which then sits on that row, so one distance pass serves every
    repair: the repaired row's distance becomes 0. The pass runs in blocks
    of ``_BLOCK_ROWS`` rows, so it holds no N x m temporary.
    """
    empty = np.flatnonzero(np.bincount(labels, minlength=K) == 0)
    if len(empty) == 0:
        return labels
    dists = np.empty(len(X))
    for lo in range(0, len(X), _BLOCK_ROWS):  # a row's sum is the same bits in a block as in the whole
        block = slice(lo, lo + _BLOCK_ROWS)
        dists[block] = ((X[block] - centers[labels[block]]) ** 2).sum(axis=1)
    for k in empty:
        worst = int(np.argmax(dists))
        centers[k] = X[worst]
        labels[worst] = k
        dists[worst] = 0.0
    return labels


def minibatch_kmeans_fit(points, config: KMeansConfig) -> KMeansResult:
    """Mini-batch K-means with per-centroid learning rates.

    Each iteration samples min(batch_size, N) points; a point assigned to
    centroid k moves it by (x - c) / n_k where n_k counts all points ever
    assigned to k. Labels come from one full assignment pass at the end.
    ``points`` is as for ``kmeans_fit``: a table's words serve seeding and
    the final pass, while each batch's pass scores its rows.
    """
    X, words = _check_points(points, config.K)
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    centers = _init_centers(X, config, rng, words)
    counts = np.zeros(config.K, dtype=np.int64)
    for _ in range(config.iterations):
        # a batch of all n rows (batch_size capped at n) goes in row order
        batch = np.arange(n) if config.batch_size >= n else rng.choice(n, config.batch_size, replace=False)
        batch_labels = _scorer(X[batch], config.K)(centers)[0]
        for idx, k in zip(batch, batch_labels):
            counts[k] += 1
            centers[k] += (X[idx] - centers[k]) / counts[k]
    labels, sq_dists, _ = _scorer(X, config.K, words)(centers)
    return KMeansResult(centers, labels, sq_dists, float(sq_dists.sum()))


def fit(points, config: KMeansConfig) -> KMeansResult:
    """Cluster ``points``, a matrix or an ``NGramTable``, with ``config.variant``.

    A table's construction guarantees that each row is its words' mean, so
    both variants may work from its W (see ``kmeans_fit``).
    """
    fit_variant = minibatch_kmeans_fit if config.variant == "minibatch" else kmeans_fit
    return fit_variant(points, config)


def save_centroids(C: np.ndarray, path) -> None:
    """Write the K x m centroids C as word vectors named c0 ... c<K-1> (``save_word_vectors``).

    C that is not a matrix of at least one row and one column raises
    DimensionMismatch before ``path`` is opened.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or 0 in C.shape:
        raise DimensionMismatch(f"centroids are {C.shape}; expected a K x m matrix with K, m >= 1")
    save_word_vectors(WordVectors({f"c{k}": k for k in range(len(C))}, C), path)
