from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_nearest import reference_screened_nearest

from conceptbag import clustering
from conceptbag.clustering import (
    _DRAW_BLOCK,
    KMeansConfig,
    _check_points,
    _distances_to,
    _draw,
    _fix_empty_clusters,
    _init_centers,
    _kmeanspp_init,
    _scorer,
    _screen,
    assign,
    fit,
    inertia,
    kmeans_fit,
    minibatch_kmeans_fit,
    nearest,
    save_centroids,
)
from conceptbag.corpus import Document, NGramIndex, build_vocab
from conceptbag.embeddings import NGramTable, WordVectors, embed_all, load_word_vectors
from conceptbag.errors import BadConfig, DimensionMismatch, NonFiniteFeature, TooFewPoints


def best_partition_inertia(X, K):
    """Exhaustive search over all K-labelings of the points (oracle)."""
    n = len(X)
    best = np.inf
    best_labels = None
    for labels in product(range(K), repeat=n):
        centers = np.zeros((K, X.shape[1]))
        total = 0.0
        ok = True
        for k in range(K):
            members = X[np.array(labels) == k]
            if len(members) == 0:
                continue
            centers[k] = members.mean(axis=0)
            total += ((members - centers[k]) ** 2).sum()
        if ok and total < best:
            best = total
            best_labels = labels
    return best, best_labels


class TestKMeansFit:
    def test_four_point_optimum(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        res = kmeans_fit(X, KMeansConfig(K=2, iterations=10, seed=0))
        got = {tuple(row) for row in np.round(res.centroids, 9)}
        assert got == {(0.0, 0.5), (10.0, 0.5)}
        assert res.inertia == pytest.approx(1.0)

    def test_k_equals_n(self):
        X = np.array([[0.0], [1.0], [5.0]])
        res = kmeans_fit(X, KMeansConfig(K=3, iterations=10, seed=1))
        assert res.inertia == pytest.approx(0.0)

    def test_k_one_is_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        res = kmeans_fit(X, KMeansConfig(K=1, iterations=10, seed=0))
        assert np.allclose(res.centroids[0], X.mean(axis=0))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans_fit(np.zeros((2, 2)), KMeansConfig(K=3))

    @pytest.mark.parametrize("fit", [kmeans_fit, minibatch_kmeans_fit])
    def test_nonfinite_points_rejected(self, fit):
        X = np.random.default_rng(0).normal(size=(20, 3))
        X[7, 1] = np.nan
        with pytest.raises(NonFiniteFeature):
            fit(X, KMeansConfig(K=3, batch_size=10))

    @pytest.mark.parametrize("iterations", [0, 1, 10])
    def test_final_inertia_is_last_trace_value(self, iterations):
        X = np.random.default_rng(12).normal(size=(300, 6))
        res = kmeans_fit(X, KMeansConfig(K=7, iterations=iterations, seed=1))
        assert len(res.inertia_trace) == iterations
        assert res.inertia == inertia(X, res.centroids)
        if iterations:
            assert res.inertia_trace[-1] == res.inertia

    def test_inertia_trace_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 5))
        res = kmeans_fit(X, KMeansConfig(K=8, iterations=10, seed=4))
        trace = res.inertia_trace
        assert len(trace) == 10
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        a = kmeans_fit(X, KMeansConfig(K=5, seed=9))
        b = kmeans_fit(X, KMeansConfig(K=5, seed=9))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 2))
        res = kmeans_fit(X, KMeansConfig(K=10, seed=0))
        assert set(np.unique(res.labels)) == set(range(10))

    def test_inertia_invariant_under_permutation(self):
        # well-separated blobs converge to the same optimum whichever points
        # the init picks, so final inertia must agree across permutations
        rng = np.random.default_rng(7)
        blobs = [rng.normal(loc=c, scale=0.05, size=(20, 2)) for c in ([0, 0], [8, 0], [0, 8], [8, 8])]
        X = np.vstack(blobs)
        perm = rng.permutation(len(X))
        res_o = kmeans_fit(X, KMeansConfig(K=4, seed=11))
        res_p = kmeans_fit(X[perm], KMeansConfig(K=4, seed=13))
        assert res_p.inertia == pytest.approx(res_o.inertia, rel=1e-9)
        # the multiset of centroids matches up to row order
        a = np.array(sorted(map(tuple, np.round(res_o.centroids, 9))))
        b = np.array(sorted(map(tuple, np.round(res_p.centroids, 9))))
        assert np.allclose(a, b)


def direct_kmeanspp(X, K, rng):
    """k-means++ seeding with every distance computed as |x - c|^2 (oracle)."""
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = min(int(np.searchsorted(np.cumsum(closest), rng.random() * total)), n - 1)
        centers[k] = X[idx]
        closest = np.minimum(closest, ((X - centers[k]) ** 2).sum(axis=1))
    return centers


def reference_kmeanspp(X, K, rng):
    """k-means++ seeding from one product over the whole table per step (oracle).

    The earlier body of ``_kmeanspp_init``: |x|^2 - 2 x.c + |c|^2 with x.c
    from X @ c, and rows within rounding of zero recomputed as |x - c|^2.
    """
    n = X.shape[0]
    centers = np.empty((K, X.shape[1]))
    x_sq = np.einsum("ij,ij->i", X, X)

    def sq_dists_to(c):
        d = X @ c
        d *= -2.0
        d += x_sq
        c_sq = c @ c
        d += c_sq
        near = np.flatnonzero(d <= 1e-9 * (x_sq + c_sq))
        d[near] = ((X[near] - c) ** 2).sum(axis=1)
        return d

    centers[0] = X[rng.integers(n)]
    closest = sq_dists_to(centers[0])
    for k in range(1, K):
        total = closest.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = int(np.searchsorted(np.cumsum(closest), rng.random() * total))
            idx = min(idx, n - 1)
        centers[k] = X[idx]
        np.minimum(closest, sq_dists_to(centers[k]), out=closest)
    return centers


def per_cluster_fix_empty(X, centers, labels, K):
    """Empty-cluster repair with a fresh distance pass per empty cluster (oracle)."""
    for k in np.flatnonzero(np.bincount(labels, minlength=K) == 0):
        dists = ((X - centers[labels]) ** 2).sum(axis=1)
        worst = int(np.argmax(dists))
        centers[k] = X[worst]
        labels[worst] = k
    return labels


def seeding_table(kind):
    rng = np.random.default_rng(21)
    if kind == "random":
        return rng.normal(size=(400, 8)), 12
    # rows far from the origin, so |x|^2 - 2 x.c + |c|^2 rounds away from 0
    # for a row and its duplicate
    base = rng.normal(loc=3.0, size=(60 if kind == "duplicates" else 5, 8))
    X = base[rng.integers(len(base), size=300)]
    return X, 12


class TestLloydSteps:
    @pytest.mark.parametrize("kind", ["random", "duplicates", "fewer_distinct_than_k"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_kmeanspp_matches_direct_differences(self, kind, seed):
        X, K = seeding_table(kind)
        got = _kmeanspp_init(X, K, np.random.default_rng(seed))
        want = direct_kmeanspp(X, K, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert np.array_equal(got, reference_kmeanspp(X, K, np.random.default_rng(seed)))

    def test_one_iteration_centroids_are_exact_member_means(self):
        X = np.random.default_rng(22).normal(size=(500, 6))
        cfg = KMeansConfig(K=9, iterations=1, seed=5)
        init = _kmeanspp_init(X, cfg.K, np.random.default_rng(cfg.seed))
        labels = nearest(X, init)[0]
        assert np.bincount(labels, minlength=cfg.K).min() > 0
        res = kmeans_fit(X, cfg)
        for k in range(cfg.K):
            assert np.array_equal(res.centroids[k], X[labels == k].mean(axis=0))

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_fix_empty_clusters_matches_per_cluster_recompute(self, duplicates):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 3))
        if duplicates:
            X = X[rng.integers(3, size=40)]
        K = 7
        centers = rng.normal(size=(K, 3))
        labels = rng.integers(2, size=40)
        c_got, c_want = centers.copy(), centers.copy()
        got = _fix_empty_clusters(X, c_got, labels.copy(), K)
        want = per_cluster_fix_empty(X, c_want, labels.copy(), K)
        assert np.array_equal(got, want)
        assert np.array_equal(c_got, c_want)
        assert np.bincount(got, minlength=K).min() > 0


def cumsum_draw(weights, rng):
    """A k-means++ draw from one cumulative sum over all the weights (oracle)."""
    total = weights.sum()
    if total <= 0:
        return int(rng.integers(len(weights)))
    return min(int(np.searchsorted(np.cumsum(weights), rng.random() * total)), len(weights) - 1)


DRAW_SIZES = [1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 3 * _DRAW_BLOCK - 1, 3 * _DRAW_BLOCK + 1]
DRAW_PATTERNS = ["random", "zero_blocks", "last_block", "zero"]


def draw_weights(n, pattern, rng):
    """Integer weights, so that every partial sum is exact, zero-padded to whole blocks."""
    blocks = np.zeros((-(-n // _DRAW_BLOCK), _DRAW_BLOCK))
    weights = blocks.reshape(-1)[:n]
    weights[:] = rng.integers(0, 1000, size=n) * (rng.random(n) < 0.7)  # some rows already centres
    if pattern == "zero_blocks":  # about half the blocks all zero
        blocks[rng.random(len(blocks)) < 0.5] = 0.0
    elif pattern == "last_block":  # only the last block, partial unless n is a multiple of the block
        blocks[:-1] = 0.0
        weights[-1] = rng.integers(1, 1000)
    elif pattern == "zero":  # every row a centre: the draw is uniform
        weights[:] = 0.0
    return blocks, weights


def assert_draws_match(blocks, weights, seeds):
    n = len(weights)
    for seed in seeds:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _draw(blocks, n, got_rng), cumsum_draw(weights, want_rng)
        assert got == want
        assert 0 <= got < n
        assert weights[got] > 0 or weights.sum() == 0
        assert got_rng.random() == want_rng.random()  # the same random numbers used


class TestDraw:
    """The block-sum draw picks the index of a cumulative sum over all rows when the sums are exact."""

    @pytest.mark.parametrize("n", DRAW_SIZES)
    @pytest.mark.parametrize("pattern", DRAW_PATTERNS)
    def test_matches_cumsum(self, n, pattern):
        blocks, weights = draw_weights(n, pattern, np.random.default_rng(n))
        if pattern == "last_block":
            assert weights[: (len(blocks) - 1) * _DRAW_BLOCK].sum() == 0 < weights.sum()
        assert_draws_match(blocks, weights, range(40))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DRAW_SIZES) | st.integers(1, 4 * _DRAW_BLOCK), st.sampled_from(DRAW_PATTERNS),
           st.integers(0, 2**32 - 1))
    def test_matches_cumsum_anywhere(self, n, pattern, seed):
        rng = np.random.default_rng(seed)
        assert_draws_match(*draw_weights(n, pattern, rng), rng.integers(2**32, size=3))

    def test_a_draw_past_its_blocks_running_sum_takes_its_last_row_of_weight(self):
        # random() just below 1 puts the draw a rounding step below the total, and a
        # last block whose running sum ends below that (its cumsum adds in another
        # order than its sum) leaves the search past the block, into the padding
        class AlmostOne:
            def random(self):
                return 1.0 - 2.0**-53

        rng, n, past = np.random.default_rng(7), 2 * _DRAW_BLOCK - 5, 0
        for _ in range(50):
            blocks = np.zeros((2, _DRAW_BLOCK))
            blocks.reshape(-1)[:n] = rng.random(n)
            ends = np.cumsum(blocks.sum(axis=1))
            past += np.cumsum(blocks[1])[-1] < AlmostOne().random() * ends[-1] - ends[0]
            assert _draw(blocks, n, AlmostOne()) == n - 1
        assert past

    def test_a_single_positive_weight_is_always_drawn(self):
        blocks, weights = draw_weights(3 * _DRAW_BLOCK + 1, "zero", np.random.default_rng(0))
        for t in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, 3 * _DRAW_BLOCK):
            weights[:] = 0.0
            weights[t] = 1e-300
            assert {_draw(blocks, len(weights), np.random.default_rng(s)) for s in range(10)} == {t}


WORD_ORDERS = [(1,), (1, 2), (1, 3), (1, 2, 3)]


def word_table(orders, kind):
    """An ``NGramTable`` from ``embed_all``.

    Word vectors are long, so |x|^2 - 2 x.c + |c|^2 rounds away from 0 for a
    row and its duplicate, and point every way, so that value is far from 0
    for most pairs of rows. "duplicates" gives words that
    share a vector, so distinct n-grams share a row; "fewer_distinct_than_k"
    has three words, two of them alike, so every table has at most 4
    distinct rows; "wide_scales" is "duplicates" with rows from about 1e-150
    to 1e150. Past unigrams the table has more rows than there are words, so
    seeding goes through word products.
    """
    rng = np.random.default_rng(41)
    W = rng.normal(scale=3.0, size=(3 if kind == "fewer_distinct_than_k" else 30, 8))
    if kind == "wide_scales":  # each word scaled by one of 1e-150, 1e-120, ..., 1e150
        W *= 10.0 ** rng.choice(np.arange(-150, 151, 30), size=(len(W), 1))
    if kind != "random":
        W[1::3] = W[0::3][: len(W[1::3])]
    return ngram_table(W, orders, rng, docs=10, tokens=20)


def ngram_table(W, orders, rng, docs, tokens):
    """``embed_all``'s table of the n-grams of random documents over the words of W."""
    names = [f"w{i}" for i in range(len(W))]
    wv = WordVectors(words={w: i for i, w in enumerate(names)}, matrix=W)
    documents = [Document(id=str(i), label=1, tokens=tuple(rng.choice(names, size=tokens))) for i in range(docs)]
    vocab = build_vocab(documents, NGramIndex(documents, orders, wv.words))
    return embed_all(vocab, wv)


class TestWordProductSeeding:
    """k-means++ seeding from word products picks the centres of one product over X per step."""

    @pytest.mark.parametrize("orders", WORD_ORDERS)
    @pytest.mark.parametrize("kind", ["random", "duplicates", "fewer_distinct_than_k"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, orders, kind, seed):
        table = word_table(orders, kind)
        X, K = table.X, min(12, table.shape[0])
        if kind == "fewer_distinct_than_k":
            assert len(np.unique(X, axis=0)) < K  # the total reaches 0: uniform draws
        got = _kmeanspp_init(X, K, np.random.default_rng(seed), (table.W, table.ids))
        assert np.array_equal(got, reference_kmeanspp(X, K, np.random.default_rng(seed)))

    @pytest.mark.parametrize("orders", WORD_ORDERS)
    @pytest.mark.parametrize("kind", ["duplicates", "fewer_distinct_than_k", "wide_scales"])
    def test_chosen_row_and_its_duplicates_get_zero_weight(self, orders, kind):
        # at wide scales the near-zero test's prefilter, 1e-9 (max |x|^2 + |c|^2),
        # passes most rows, and each row's own threshold must still hold exactly
        table = word_table(orders, kind)
        X = table.X
        sq_dists_to = _distances_to(X, (table.W, table.ids))
        duplicated = 0
        for t in range(len(X)):
            same = (X == X[t]).all(axis=1)
            duplicated += same.sum() > 1
            d = sq_dists_to(X[t])
            assert (d[same] == 0.0).all()
            assert (d[~same] > 0.0).all()
            np.testing.assert_allclose(d, ((X - X[t]) ** 2).sum(axis=1), rtol=1e-9)
        assert duplicated

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    def test_fit_with_word_rows_equals_fit_without(self, variant):
        # a table scores from its words, as it has more rows than words: the fit of
        # its rows alone gives the same bits
        table = word_table((1, 2), "random")
        assert table.shape[0] > len(table.W)
        cfg = KMeansConfig(K=10, iterations=3, variant=variant, batch_size=64, seed=4)
        got, want = fit(table, cfg), fit(table.X, cfg)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.sq_dists.tobytes() == want.sq_dists.tobytes()
        assert (got.inertia, got.inertia_trace) == (want.inertia, want.inertia_trace)

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    @pytest.mark.parametrize("bad", ["past_the_end", "below_padding", "no_word"])
    def test_word_ids_out_of_range_rejected(self, variant, bad):
        # an id of len(W) would read the zero padding, one of -2 another word,
        # and a row of padding has no mean: each would mislabel rows, so no
        # table, and no fit of either variant, is made from such ids
        table = word_table((1, 2), "random")
        ids = table.ids.copy()
        ids[7] = {"past_the_end": [3, len(table.W)], "below_padding": [-2, 3], "no_word": [-1, -1]}[bad]
        with pytest.raises(DimensionMismatch, match="word row 7 is"):
            fit(NGramTable(table.W, ids), KMeansConfig(K=3, variant=variant))

    @pytest.mark.parametrize("scale", [1e-310, 1e-150, 1.0, 1e150, 1e300])
    @pytest.mark.parametrize("build", ["embed_all", "masked_mean"])
    def test_tables_of_word_means_accepted(self, scale, build):
        # embed_all's table, and a matrix built by summing W[ids] at once, then
        # dividing, from subnormal words to words whose coordinate sums near the
        # float64 limit: the two are the same bits, nothing overflows in the
        # building (a subnormal mean rounds, so underflow is expected), and a
        # fit takes either with every floating-point error raised
        rng = np.random.default_rng(5)
        with np.errstate(all="raise", under="ignore"):
            table = ngram_table(rng.normal(size=(40, 16)) * scale, (1, 2, 3), rng, docs=8, tokens=30)
            present = table.ids >= 0
            mean = np.where(present[..., None], table.W[table.ids], 0.0).sum(axis=1) / present.sum(axis=1)[:, None]
        assert table.X.tobytes() == mean.tobytes()
        with np.errstate(all="raise"):
            X, words = _check_points(table if build == "embed_all" else mean, 1)
        assert X.tobytes() == table.X.tobytes()
        assert (words is None) == (build == "masked_mean")  # more n-grams than words: a table scores from its words

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    def test_row_with_two_coordinates_swapped_named(self, variant):
        # the swap keeps the row's coordinate sum and norm, and a fit that scored
        # it from its words would mislabel it: a table refuses the write, and a
        # matrix holding the swapped row is scored from its own coordinates
        table = word_table((1, 2), "random")
        t = 11
        with pytest.raises(ValueError, match="read-only"):
            table.X[t, [0, 1]] = table.X[t, [1, 0]]
        X = table.X.copy()
        X[t, [0, 1]] = X[t, [1, 0]]
        assert X[t, 0] != X[t, 1]
        res = fit(X, KMeansConfig(K=3, variant=variant, batch_size=64, seed=2))
        labels, sq_dists = nearest(X, res.centroids)
        assert np.array_equal(res.labels, labels)
        assert res.sq_dists.tobytes() == sq_dists.tobytes()
        c = res.centroids[res.labels[t]]
        np.testing.assert_allclose(res.sq_dists[t], ((X[t] - c) ** 2).sum(), rtol=1e-12)
        assert not np.isclose(res.sq_dists[t], ((table.X[t] - c) ** 2).sum(), rtol=1e-6)  # not its words' row


def reference_nearest(X, C):
    """Nearest centroid by the float64 expansion |x|^2 - 2 x.c + |c|^2 over the whole table (oracle).

    The earlier body of ``nearest``: ties go to the smallest index, but an
    exact tie's label is whatever the product's rounding gives.
    """
    labels = np.empty(X.shape[0], dtype=np.int64)
    sq_dists = np.empty(X.shape[0])
    c_sq = (C * C).sum(axis=1)
    step = max(1, int(2e7 // max(1, C.shape[0])))
    for lo in range(0, X.shape[0], step):
        chunk = X[lo : lo + step]
        x_sq = np.concatenate([(b * b).sum(axis=1) for b in np.split(chunk, range(2048, len(chunk), 2048))])
        d = chunk @ C.T
        d *= -2.0
        d += x_sq[:, None]
        d += c_sq[None, :]
        np.maximum(d, 0.0, out=d)
        best = np.argmin(d, axis=1)
        labels[lo : lo + step] = best
        sq_dists[lo : lo + step] = d[np.arange(len(best)), best]
    return labels, sq_dists


def reference_kmeans(X, config):
    """Lloyd's loop with every assignment a full float64 ``reference_nearest`` pass (oracle)."""
    rng = np.random.default_rng(config.seed)
    centers = _init_centers(X, config, rng)
    labels, sq_dists = reference_nearest(X, centers)
    trace = []
    for _ in range(config.iterations):
        labels = _fix_empty_clusters(X, centers, labels, config.K)
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(config.K + 1))
        for k in range(config.K):
            lo, hi = bounds[k], bounds[k + 1]
            if hi > lo:
                centers[k] = X[order[lo:hi]].mean(axis=0)
        labels, sq_dists = reference_nearest(X, centers)
        trace.append(float(sq_dists.sum()))
    return labels, centers, float(sq_dists.sum()), trace


def screen_table(kind):
    rng = np.random.default_rng(31)
    if kind == "wide":  # the paper's vector size
        return rng.normal(size=(1500, 300)), KMeansConfig(K=30, seed=1)
    if kind == "coinciding_centroids":
        # random_points draws rows that are duplicates of each other, so
        # initial centroids coincide until the empty-cluster repair moves them
        base = rng.normal(loc=3.0, size=(15, 8))
        return base[rng.integers(15, size=300)], KMeansConfig(K=12, init="random_points", seed=1)
    if kind == "duplicates":
        base = rng.normal(loc=3.0, size=(60, 8))
        return base[rng.integers(60, size=300)], KMeansConfig(K=12, seed=2)
    return rng.normal(size=(500, 8)), KMeansConfig(K=12, seed=3)


def tie_table(kind):
    """Rows, centroids, and for each row with an exact tie, the labels it may get."""
    rng = np.random.default_rng(33)
    if kind == "midpoints":
        # rows on centroids that coincide, or halfway between two of them
        C = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, 1.0]])
        X = np.vstack([C, [[0.5, 0.0], [0.5, 0.5]], rng.normal(size=(20, 2))])
        # |x - c|^2 is exact here, so the tie goes to the smallest index
        return X, C, {0: {0}, 2: {0}, 4: {0}}
    # centroid 2i + 1 is centroid 2i with two coordinates swapped, and row i
    # is equal in those two coordinates, so it is exactly as far from both;
    # in float64 each distance sums the same terms in another order, so
    # either centroid may come first
    m, pairs = 100, 40
    C = rng.normal(size=(2 * pairs, m))
    X = rng.normal(scale=0.1, size=(pairs, m)) + C[::2]
    for i in range(pairs):
        a, b = rng.choice(m, size=2, replace=False)
        C[2 * i + 1] = C[2 * i]
        C[2 * i + 1, [a, b]] = C[2 * i, [b, a]]
        X[i, b] = X[i, a]
    X = np.vstack([X, rng.normal(size=(30, m)) + C[rng.integers(2 * pairs, size=30)]])
    return X, C, {i: {2 * i, 2 * i + 1} for i in range(pairs)}


def rows_and_words(values):
    """(value, source) cases: each value scored from rows, under its own id, then from words."""
    return [pytest.param(v, source, id=str(v) if source == "rows" else f"{v}-words")
            for source in ("rows", "words") for v in values]


class TestScreenedLloyd:
    """On tables without exact ties, kmeans_fit's labels and centroids are the float64 Lloyd loop's bits.

    Each table also runs as the words of an n-gram table of 1-, 2- and
    3-grams, scored from its words: labels and centroids are again the
    reference's bits, and the inertia and its trace the row-scored fit's.
    """

    def assert_matches_reference(self, X, cfg, source):
        points = X
        if source == "words":
            points = ngram_table(X, (1, 2, 3), np.random.default_rng(35), docs=40, tokens=60)
            X = points.X
            assert len(X) > len(points.W)  # so passes score rows from their words
            cfg = replace(cfg, init="random_points")  # seeding is not in play
        res = kmeans_fit(points, cfg)
        labels, centers, total, trace = reference_kmeans(X, cfg)
        assert np.array_equal(res.labels, labels)
        assert np.array_equal(res.centroids, centers)
        # nearest sums |x - c|^2 directly; the reference uses the expansion,
        # which rounds relative to |x|^2 + |c|^2
        tol = 1e-12 * np.einsum("ij,ij->", X, X)
        np.testing.assert_allclose(res.inertia, total, rtol=1e-12, atol=tol)
        np.testing.assert_allclose(res.inertia_trace, trace, rtol=1e-12, atol=tol)
        if source == "words":
            by_rows = kmeans_fit(X, cfg)
            assert res.inertia == by_rows.inertia
            assert res.inertia_trace == by_rows.inertia_trace
        assert len(res.rechecked) == cfg.iterations
        return res, len(X)

    @pytest.mark.parametrize("kind, source", rows_and_words(["random", "duplicates", "coinciding_centroids", "wide"]))
    def test_matches_float64_reference(self, kind, source):
        res, n = self.assert_matches_reference(*screen_table(kind), source)
        assert res.rechecked[-1] < n // 10  # the screen decides most rows
        if kind == "coinciding_centroids" and source == "rows":
            assert res.rechecked[0] > 0

    @pytest.mark.parametrize("scale, source", rows_and_words([1e-18, 1e-22, 1e-40, 1e20, 1e30]))
    def test_matches_float64_reference_at_extreme_scales(self, scale, source):
        # 1e-18 leaves some rows above the underflow floor; at 1e-22 and
        # 1e-40 float32 products are subnormal or zero, and at 1e20 and 1e30
        # they overflow, so every row must go to float64
        X, cfg = screen_table("random")
        res, n = self.assert_matches_reference(X * scale, cfg, source)
        assert min(res.rechecked) > 0
        if scale != 1e-18:
            assert res.rechecked == [n] * cfg.iterations

    def test_near_ties_are_decided_in_float64(self):
        # rows 0 and 1 are 1e-10 closer to one centroid than to the next:
        # float32 cannot tell, float64 can in any order of summation
        rng = np.random.default_rng(32)
        C = np.vstack([[1.0, 0, 0, 0, 0], [-1.0, 0, 0, 0, 0], rng.normal(5.0, size=(4, 5))])
        X = np.vstack([[[-1e-10, 0.3, 0, 0, 0], [1e-10, -0.2, 0, 0, 0]], C + 0.01,
                       rng.normal(size=(20, 5))])
        labels, _, rechecked = _scorer(X, len(C))(C)
        assert np.array_equal(labels, reference_nearest(X, C)[0])
        assert labels[:2].tolist() == [1, 0]
        assert rechecked == 2

    @pytest.mark.parametrize("kind", ["midpoints", "swapped_coordinates"])
    def test_labels_do_not_depend_on_the_other_rows(self, kind):
        X, C, tied = tie_table(kind)
        labels = nearest(X, C)[0]
        assert all(labels[i] in allowed for i, allowed in tied.items())
        rng = np.random.default_rng(34)
        subsets = [[i] for i in range(len(X))] + [rng.choice(len(X), size=n, replace=False)
                                                   for n in (2, 3, 5, 17, len(X) // 2) for _ in range(4)]
        for rows in subsets:
            assert np.array_equal(nearest(X[rows], C)[0], labels[rows])
        assert [assign(x, C) for x in X] == labels.tolist()
        empty_labels, empty_dists = nearest(X[:0], C)
        assert empty_labels.shape == empty_dists.shape == (0,)

    def test_rows_that_overflow_float32_go_to_float64(self):
        # row 0's float32 products (3e38) are finite but their running sum
        # overflows to -inf, which would put centroid 0 first; row 1's
        # products overflow; float64 decides both
        C = np.array([[3e18] * 4, [0.0] * 4, [-1e18] * 4])
        X = np.array([[5e19, 5e19, -5e19, -5e19], [-1e25] * 4, [0.1] * 4])
        with np.errstate(all="raise"):
            labels, _, rechecked = _scorer(X, len(C))(C)
        assert labels.tolist() == reference_nearest(X, C)[0].tolist() == [1, 2, 1]
        assert rechecked == 2

    def test_fewer_distinct_points_than_k_rejected(self):
        # 40 rows drawn from 5 distinct ones cannot fill K=8 clusters
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 3))[rng.integers(5, size=40)]
        with pytest.raises(TooFewPoints, match="5 distinct points for K=8"):
            kmeans_fit(X, KMeansConfig(K=8, seed=1))


def mean_rows(W, ids):
    """Row t is the mean of the rows of W that ids[t] names (-1 is padding)."""
    present = ids >= 0
    return np.where(present[:, :, None], W[ids], 0.0).sum(axis=1) / present.sum(axis=1)[:, None]


def word_score_table(special, rng, ngrams=((0, 1, -1), (1, 0, -1))):
    """The first words are ``special``, five more random; rows are ``ngrams``, then every unigram
    and bigram of the random words, so there are more rows than words."""
    W = np.vstack([special, rng.normal(size=(5, special.shape[1]))])
    others = range(len(special), len(W))
    ids = np.array([*ngrams, *([a, -1, -1] for a in others), *([a, b, -1] for a in others for b in others)])
    X = mean_rows(W, ids)
    assert len(X) > len(W)
    return X, (W, ids)


def screened_out(X, C, words=None):
    """The rows of X that ``_screen`` leaves to float64, each merged row with the row it is scored as."""
    screen, scored, inverse = _screen(X, len(C), words)
    left = np.zeros(len(scored), dtype=bool)
    left[screen(C)[1]] = True
    return np.flatnonzero(left if inverse is None else left[inverse])


class TestWordScores:
    """Rows that only word scores can get wrong are left to float64, and keep the row-scored labels."""

    def assert_rows_labels(self, X, words, C, undecided_rows):
        labels, _, rechecked = _scorer(X, len(C), words)(C)
        assert np.array_equal(labels, _scorer(X, len(C))(C)[0])
        assert np.array_equal(labels, reference_nearest(X, C)[0])
        undecided = screened_out(X, C, words)
        assert set(undecided_rows) <= set(undecided.tolist())
        assert rechecked == len(undecided)
        return labels

    def test_near_cancelling_words(self):
        # w_b = -w_a + delta: x = delta / 2 is small while Wbar is 1e6, so the
        # float32 word scores err by about 1 where the centroids differ by 0.01
        rng = np.random.default_rng(36)
        w_a = 1e3 * rng.normal(size=8) / np.sqrt(8)
        special = np.vstack([w_a, -w_a + rng.normal(size=8)])
        x = (special[0] + special[1]) / 2
        C = x + 0.05 * rng.normal(size=(6, 8))
        X, words = word_score_table(special, rng)
        self.assert_rows_labels(X, words, C, [0, 1])
        # scored from the rows themselves, the same two rows are decided
        assert not {0, 1} & set(screened_out(X, C).tolist())

    def test_words_beyond_float32_with_a_small_mean(self):
        # words 0 and 1 are beyond float32 range, and their mean is 0.4 in
        # the last coordinate and 0 elsewhere; word 2's products with C[0]
        # are finite (3.2e38 at most) but word 3's running sum overflows to
        # -inf, which would put C[0] first for the trigram (3, 2, 2), whose
        # mean is 0.3 in the last coordinate
        rng = np.random.default_rng(37)
        special = np.array([[1e39, 0, 0, 0, 0.3], [-1e39, 0, 0, 0, 0.5],
                            [-8e19, -8e19, 8e19, 8e19, 0.3], [1.6e20, 1.6e20, -1.6e20, -1.6e20, 0.3]])
        C = np.vstack([[1e18] * 4 + [0.0], [0.0] * 4 + [0.4], [0.0] * 4 + [0.3], rng.normal(size=(3, 5))])
        X, words = word_score_table(special, rng, ngrams=((0, 1, -1), (1, 0, -1), (3, 2, 2)))
        with np.errstate(all="raise"):
            labels = self.assert_rows_labels(X, words, C, [0, 1, 2])
        assert labels[:3].tolist() == [1, 1, 2]

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    def test_centroids_far_from_the_scale_of_their_words(self, scale):
        # centroids of one norm come in pairs, the second turned from the first
        # by an angle from 1e-6 to 1, so a row nearest to one of a pair has
        # its gap to the other at every size around the float32 error; at 1e3
        # the |c|^2 term carried in every word's score dwarfs the words, at
        # 1e-3 the words dwarf it
        rng = np.random.default_rng(39)
        table = ngram_table(rng.normal(size=(40, 16)), (1, 2, 3), rng, docs=20, tokens=40)
        X, words = table.X, (table.W, table.ids)
        first = np.linalg.qr(rng.normal(size=(16, 16)))[0]
        angles = np.logspace(-6, 0, 8)[:, None]
        C = 4.0 * scale * np.vstack([first[:8], np.cos(angles) * first[:8] + np.sin(angles) * first[8:]])
        self.assert_rows_labels(X, words, C, [])
        by_rows, by_words = _scorer(X, len(C))(C), _scorer(X, len(C), words)(C)
        assert np.array_equal(by_words[1], by_rows[1])
        assert all(0 < rechecked < len(X) for rechecked in (by_rows[2], by_words[2]))  # both steps run

    def test_tie_between_the_centroids_of_its_own_words(self):
        # (0, 1) and (1, 0) are exactly halfway between C[0] = w_1 and C[1] = w_0
        rng = np.random.default_rng(38)
        special = np.array([[0.0, 0.0, 2.0, 4.0], [2.0, 4.0, 0.0, 0.0]])
        C = np.vstack([special[1], special[0], 10.0 + rng.normal(size=(3, 4))])
        X, words = word_score_table(special, rng)
        labels = self.assert_rows_labels(X, words, C, [0, 1])
        assert labels[:2].tolist() == [0, 0]


SCORER_KINDS = ["reversed_bigrams", "repeated_words", "permuted_trigrams", "unigrams", "plain"]
# 1e-18 leaves some rows decided, the others leave every row to float64 (underflow or overflow)
SCORER_SCALES = [1.0, 1e-18, 1e-22, 1e-40, 1e20, 1e30]


@st.composite
def scorer_cases(draw):
    """(X, words, C): an n-gram table's rows and (W, ids) of one kind, or a plain matrix and None.

    Rows start as random ids of 1 to 3 words (1 for "unigrams"), and each
    kind adds the rows it is named for: every bigram reversed, "a a" beside
    every "a" and "a" beside every "a a", or every order of each trigram.
    Rows are shuffled and padded with -1 at random positions. Some centroids
    are words, so bigrams tie halfway between them.
    """
    kind = draw(st.sampled_from(SCORER_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, m, scale = draw(st.integers(2, 8)), draw(st.integers(1, 6)), draw(st.sampled_from(SCORER_SCALES))
    W = scale * rng.normal(size=(V, m))
    longest = 1 if kind == "unigrams" else 2 if kind in ("reversed_bigrams", "repeated_words") else 3
    rows = [list(rng.integers(V, size=rng.integers(1, longest + 1))) for _ in range(draw(st.integers(1, 30)))]
    if kind == "reversed_bigrams":
        rows += [row[::-1] for row in rows if len(row) == 2]
    elif kind == "repeated_words":
        rows += [[row[0], row[0]] for row in rows if len(row) == 1] + [row[:1] for row in rows if row[0] == row[-1]]
    elif kind == "permuted_trigrams":
        rows += [list(p) for row in rows if len(row) == 3 for p in permutations(row)]
    width = max(map(len, rows)) + draw(st.integers(0, 1))
    ids = np.full((len(rows), width), -1)
    for t in rng.permutation(len(rows)):
        ids[t, np.sort(rng.choice(width, size=len(rows[t]), replace=False))] = rows[t]
    table = NGramTable(W, ids)
    on_words = W[rng.integers(V, size=draw(st.integers(0, 3)))]
    C = np.vstack([on_words, scale * rng.normal(size=(draw(st.integers(1, 4)), m))])
    if kind == "plain":
        return table.X[rng.permutation(len(rows))], None, C
    return table.X, (table.W, table.ids), C


class TestScorer:
    """A scorer, set up once, gives the parent's per-pass screen's bits (``tests/reference_nearest.py``)."""

    @staticmethod
    def assert_parent_bits(X, words, C):
        _, scored, inverse = _screen(X, len(C), words)
        if inverse is not None:  # a row is merged only into a row of the same bits
            assert X[scored[inverse]].tobytes() == X.tobytes()
        scorer = _scorer(X, len(C), words)
        want = reference_screened_nearest(X, C, words)
        for _ in range(2):  # a second pass reuses the buffers
            got = scorer(C)
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]

    @settings(max_examples=300, deadline=None)
    @given(scorer_cases())
    def test_labels_sq_dists_and_undecided_count_match_the_parent_pass(self, case):
        X, words, C = case
        with np.errstate(all="ignore"):  # both sides leave rows that may overflow undecided
            self.assert_parent_bits(X, words, C)
            self.assert_parent_bits(X, None, C)

    def test_reversed_bigrams_are_scored_once(self):
        table = reversed_pair_table(1.0)
        screen, scored, inverse = _screen(table.X, 4, (table.W, table.ids))
        rows = {tuple(sorted(row)) if -1 not in row else t for t, row in enumerate(table.ids.tolist())}
        assert len(scored) == len(rows) < len(table.X)
        assert np.array_equal(table.X[scored[inverse]], table.X)  # each row is scored as equal bits


def reversed_pair_table(scale):
    """``embed_all``'s 1+2-gram table of random documents over 8 words: most bigrams come in both orders."""
    rng = np.random.default_rng(42)
    table = ngram_table(scale * rng.normal(size=(8, 6)), (1, 2), rng, docs=10, tokens=30)
    bigrams = {tuple(row) for row in table.ids.tolist() if row[0] != row[1] and -1 not in row}
    assert sum(row[::-1] in bigrams for row in bigrams) >= 40
    return table


def whole_array_fix_empty(X, centers, labels, K):
    """The empty-cluster repair with one N x m distance expression over all rows (oracle)."""
    empty = np.flatnonzero(np.bincount(labels, minlength=K) == 0)
    if len(empty) == 0:
        return labels
    dists = ((X - centers[labels]) ** 2).sum(axis=1)
    for k in empty:
        worst = int(np.argmax(dists))
        centers[k] = X[worst]
        labels[worst] = k
        dists[worst] = 0.0
    return labels


class TestFitsThroughOneScorer:
    """A fit's results are those of the same loop with the parent's per-pass screen."""

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    @pytest.mark.parametrize("scale", [1.0, 1e-18, 1e-22])
    def test_many_reversed_pairs_keep_rechecked_and_trace(self, monkeypatch, variant, scale):
        table = reversed_pair_table(scale)
        cfg = KMeansConfig(K=8, variant=variant, batch_size=32, seed=4)
        got = fit(table, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(clustering, "_scorer",
                            lambda X, K, words=None: lambda C: reference_screened_nearest(X, C, words))
            want = fit(table, cfg)
        for name in ("centroids", "labels", "sq_dists"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (got.inertia, got.inertia_trace, got.rechecked) == (want.inertia, want.inertia_trace, want.rechecked)
        if variant == "lloyd" and scale == 1e-22:  # every row, each merged one too, is left to float64
            assert got.rechecked == [len(table.X)] * cfg.iterations

    def test_blocked_empty_cluster_repair_matches_the_whole_array_one(self, monkeypatch):
        # random_points draws duplicate rows, so centroids coincide and clusters empty; the
        # rows farthest from their centroids, which the repairs take, make up the last, partial block
        rng = np.random.default_rng(43)
        duplicates = rng.normal(loc=3.0, size=(15, 8))[rng.integers(15, size=3 * clustering._BLOCK_ROWS)]
        X = np.vstack([duplicates, rng.normal(loc=3.0, scale=30.0, size=(7, 8))])
        cfg = KMeansConfig(K=12, init="random_points", seed=1)
        repairs = []

        def counted(X, centers, labels, K):
            repairs.append(int((np.bincount(labels, minlength=K) == 0).sum()))
            return whole_array_fix_empty(X, centers, labels, K)

        got = kmeans_fit(X, cfg)
        with monkeypatch.context() as patched:
            patched.setattr(clustering, "_fix_empty_clusters", counted)
            want = kmeans_fit(X, cfg)
        assert sum(repairs) > 0
        for name in ("centroids", "labels", "sq_dists"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.inertia_trace == want.inertia_trace


class TestMiniBatch:
    def test_full_batch_matches_incremental_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        cfg = KMeansConfig(K=3, iterations=1, variant="minibatch",
                           batch_size=30, init="random_points", seed=3)
        res = minibatch_kmeans_fit(X, cfg)

        # reference incremental full-batch update
        rng2 = np.random.default_rng(3)
        idx = rng2.choice(30, size=3, replace=False)
        centers = X[idx].copy()
        counts = np.zeros(3, dtype=int)
        labels = np.array([np.argmin(((centers - x) ** 2).sum(axis=1)) for x in X])
        for i, k in enumerate(labels):
            counts[k] += 1
            centers[k] += (X[i] - centers[k]) / counts[k]
        assert np.allclose(res.centroids, centers)

    def test_separated_blobs_match_lloyd(self):
        rng = np.random.default_rng(1)
        blobs = [rng.normal(loc=c, scale=0.1, size=(40, 2)) for c in ([0, 0], [10, 0], [0, 10])]
        X = np.vstack(blobs)
        lloyd = kmeans_fit(X, KMeansConfig(K=3, seed=2))
        mb = minibatch_kmeans_fit(
            X, KMeansConfig(K=3, iterations=30, variant="minibatch", batch_size=60, seed=2)
        )
        # same partition up to label renaming
        mapping = {}
        for a, b in zip(lloyd.labels, mb.labels):
            mapping.setdefault(a, b)
            assert mapping[a] == b

    def test_k_equals_n_zero_inertia(self):
        X = np.array([[0.0], [4.0], [9.0]])
        cfg = KMeansConfig(K=3, iterations=5, variant="minibatch", batch_size=3,
                           init="random_points", seed=0)
        res = minibatch_kmeans_fit(X, cfg)
        assert res.inertia == pytest.approx(0.0)

    def test_final_inertia_matches_centroids(self):
        X = np.random.default_rng(13).normal(size=(300, 6))
        res = minibatch_kmeans_fit(
            X, KMeansConfig(K=7, iterations=5, variant="minibatch", batch_size=50, seed=1)
        )
        assert res.inertia == inertia(X, res.centroids)
        assert res.rechecked == []
        assert np.array_equal(res.labels, nearest(X, res.centroids)[0])

    def test_final_pass_from_word_scores_labels_every_row_nearest(self):
        table = word_table((1, 2), "random")
        assert table.shape[0] > len(table.W)  # the final pass scores rows from their words
        res = minibatch_kmeans_fit(table, KMeansConfig(K=10, iterations=5, variant="minibatch", batch_size=64, seed=3))
        assert np.array_equal(res.labels, nearest(table.X, res.centroids)[0])
        assert res.inertia == inertia(table.X, res.centroids)


class TestFit:
    def test_runs_the_configured_variant(self):
        X = np.random.default_rng(4).normal(size=(60, 3))
        for variant, direct in (("lloyd", kmeans_fit), ("minibatch", minibatch_kmeans_fit)):
            cfg = KMeansConfig(K=3, iterations=4, variant=variant, batch_size=20, seed=2)
            a, b = fit(X, cfg), direct(X, cfg)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.centroids, b.centroids)

    def test_caps_batch_size_without_changing_config(self):
        X = np.random.default_rng(5).normal(size=(30, 2))
        cfg = KMeansConfig(K=3, iterations=3, variant="minibatch", batch_size=1024, seed=1)
        result = fit(X, cfg)
        assert cfg.batch_size == 1024
        expected = minibatch_kmeans_fit(X, replace(cfg, batch_size=30))
        assert np.array_equal(result.centroids, expected.centroids)
        # minibatch_kmeans_fit caps the batch itself
        direct = minibatch_kmeans_fit(X, cfg)
        assert np.array_equal(direct.centroids, expected.centroids)

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    @pytest.mark.parametrize("X", [np.arange(10.0), np.zeros((4, 3, 2)), [[[1.0]]]], ids=["1-d", "3-d", "nested-3-d"])
    def test_points_must_be_a_matrix(self, variant, X):
        with pytest.raises(DimensionMismatch, match="points have shape"):
            fit(X, KMeansConfig(K=2, variant=variant))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="minibach"):
            KMeansConfig(variant="minibach")

    @pytest.mark.parametrize(
        "name, value",
        [("K", 0), ("K", 3.0), ("iterations", -1), ("iterations", "5"), ("batch_size", 0),
         ("seed", "0"), ("seed", True), ("seed", -1), ("seed", 2**63), ("init", "kmeans++")],
    )
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(BadConfig, match=name):
            KMeansConfig(**{name: value})


class TestAssignAndInertia:
    def test_exact_centroid(self):
        C = np.eye(5)
        assert assign(C[3], C) == 3

    def test_tie_breaks_low(self):
        C = np.array([[0.0, 1.0], [0.0, -1.0]])
        assert assign(np.array([5.0, 0.0]), C) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(4)
        C = rng.normal(size=(300, 8))
        queries = []
        for _ in range(50):
            x = rng.normal(size=8)
            brute = int(np.argmin([((x - c) ** 2).sum() for c in C]))
            assert assign(x, C) == brute
            queries.append(x)
        # the batch kernel agrees with assign row by row
        labels, sq_dists = nearest(np.array(queries), C)
        assert labels.tolist() == [assign(x, C) for x in queries]
        assert np.allclose(sq_dists, [((x - C[k]) ** 2).sum() for x, k in zip(queries, labels)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assign(np.zeros(3), np.zeros((2, 4)))

    @pytest.mark.parametrize("X", [np.zeros(2), [1.0, 2.0], [[[1.0, 2.0]]]], ids=["1-d", "list", "nested-3-d"])
    @pytest.mark.parametrize("entry", ["nearest", "inertia"])
    def test_points_must_be_a_matrix(self, entry, X):
        with pytest.raises(DimensionMismatch, match="points have shape"):
            self.NEAREST_ENTRIES[entry](X, np.zeros((2, 2)))

    def test_nested_list_points_read_as_an_array(self):
        C = np.array([[0.0, 0.0], [4.0, 4.0]])
        labels, sq_dists = nearest([[1.0, 0.0], [3.0, 4.0]], C)
        assert labels.tolist() == [0, 1] and sq_dists.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("C", [np.zeros(2), np.zeros((1, 3, 2)), np.zeros((2, 3))],
                             ids=["1-d", "3-d", "another-width"])
    def test_centroids_must_be_2d_of_the_points_width(self, C):
        with pytest.raises(DimensionMismatch, match="centroids are"):
            nearest(np.zeros((3, 2)), C)
        with pytest.raises(DimensionMismatch, match="centroids are"):
            assign(np.zeros(2), C)

    NEAREST_ENTRIES = {
        "nearest": nearest,
        "assign": lambda X, C: assign(X[0], C),
        "inertia": inertia,
    }

    @pytest.mark.parametrize("entry", [*NEAREST_ENTRIES, "save_centroids"])
    def test_nested_list_centroids_read_as_an_array(self, entry, tmp_path):
        C = [[0.0, 0.0], [4.0, 4.0]]
        if entry == "save_centroids":
            save_centroids(C, tmp_path / "c.txt")
            assert load_word_vectors(tmp_path / "c.txt").matrix.tolist() == C
            return
        X = np.array([[1.0, 0.0], [3.0, 4.0]])
        got, want = (self.NEAREST_ENTRIES[entry](X, centroids) for centroids in (C, np.array(C)))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("entry", NEAREST_ENTRIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_point_rejected(self, entry, bad):
        # a NaN point's scores are all NaN, and argmin would give it centroid 0
        X = np.array([[bad, 5.0], [1.0, 2.0]])
        with pytest.raises(NonFiniteFeature):
            self.NEAREST_ENTRIES[entry](X, np.array([[0.0, 5.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("entry", NEAREST_ENTRIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_centroid_rejected(self, entry, bad):
        # a NaN centroid would take every label, with NaN distances
        C = np.array([[0.0, 5.0], [bad, 2.0]])
        with pytest.raises(NonFiniteFeature):
            self.NEAREST_ENTRIES[entry](np.array([[1.0, 2.0], [0.0, 4.0]]), C)

    @pytest.mark.parametrize("entry", NEAREST_ENTRIES)
    def test_no_centroids_rejected(self, entry):
        with pytest.raises(DimensionMismatch, match="centroids are"):
            self.NEAREST_ENTRIES[entry](np.array([[1.0, 2.0]]), np.zeros((0, 2)))

    def test_table_reads_its_X(self):
        rng = np.random.default_rng(12)
        ids = rng.integers(0, 6, size=(40, 2))
        ids[::3, 1] = -1  # unigrams among the bigrams
        table = NGramTable(rng.normal(size=(6, 3)), ids)
        C = rng.normal(size=(4, 3))
        got, want = nearest(table, C), nearest(table.X, C)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert inertia(table, C) == inertia(table.X, C)

    def test_scale_consistent(self):
        rng = np.random.default_rng(8)
        C = rng.normal(size=(10, 4))
        x = rng.normal(size=4)
        for alpha in (0.5, 2.0, 7.3):
            assert assign(x, C) == assign(alpha * x, alpha * C)

    def test_inertia_zero_on_centroids(self):
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        assert inertia(X, C) == pytest.approx(0.0)

    def test_inertia_single_point(self):
        assert inertia(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])) == pytest.approx(1.0)

    def test_inertia_four_point(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        C = np.array([[0.0, 0.5], [10.0, 0.5]])
        assert inertia(X, C) == pytest.approx(1.0)


class TestSerialization:
    def test_roundtrip_bit_for_bit(self, tmp_path):
        # the text file gives back every float64 bit for bit
        tiny = np.finfo(np.float64).tiny
        for matrix in (
            np.random.default_rng(9).normal(size=(7, 5)),
            np.array([[-0.0, 5e-324, tiny / 3, 1e308, -1e308, 0.1]]),  # K = 1: signed zero, subnormals
        ):
            p = tmp_path / "c.txt"
            save_centroids(matrix, p)
            assert load_word_vectors(p).matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("C", [np.zeros(3), np.zeros((2, 3, 2)), np.zeros((0, 3))],
                             ids=["1-d", "3-d", "no-rows"])
    def test_not_a_matrix_rejected_before_the_file_opens(self, tmp_path, C):
        p = tmp_path / "c.txt"
        with pytest.raises(DimensionMismatch, match="centroids are"):
            save_centroids(C, p)
        assert not p.exists()

    def test_text_export(self, tmp_path):
        # a centroid file is a word-vector file: a "K m" header and rows c0 ... c<K-1>
        matrix = np.array([[1.5, -2.0], [0.25, 3.0], [-1.0, 0.0]])
        p = tmp_path / "c.txt"
        save_centroids(matrix, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "3 2"
        assert [line.split()[0] for line in lines[1:]] == ["c0", "c1", "c2"]
        wv = load_word_vectors(p)
        assert wv.words == {"c0": 0, "c1": 1, "c2": 2}
        assert np.array_equal(wv.matrix, matrix)
