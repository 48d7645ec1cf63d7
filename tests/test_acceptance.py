"""Acceptance suite: one test per numbered criterion, one printed verdict line each.

Criteria that need the public movie-review corpus or pretrained 100-d word
vectors look for local copies via the environment variables
``CONCEPTBAG_POLARITY_ROOT`` (directory with pos/ and neg/ subdirectories) and
``CONCEPTBAG_VECTORS`` (text-format word vectors). Without them those tests
skip with an explicit message rather than fabricating a pass.
"""

import os
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from conceptbag.clustering import (
    KMeansConfig,
    assign,
    kmeans_fit,
    minibatch_kmeans_fit,
)
from conceptbag.corpus import NGramIndex, load_polarity_dataset
from conceptbag.embeddings import (
    WordVectors,
    embed_ngram,
    load_word_vectors,
    train_sgns,
)
from conceptbag.errors import UnknownWord
from conceptbag.evaluation import (
    STAGES,
    ExperimentConfig,
    _fold_features,
    _StageClock,
    run_experiment,
)
from conceptbag.features import log_count_ratio
from conceptbag.lsa import truncated_svd
from conceptbag.svm import SvmConfig, svm_gradient, svm_objective, svm_train

from conftest import cosine, sgns_pair_config, sgns_pair_corpus

POLARITY_ROOT = os.environ.get("CONCEPTBAG_POLARITY_ROOT")
VECTORS_PATH = os.environ.get("CONCEPTBAG_VECTORS")


def _verdict(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}{': ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _skip(criterion, why):
    print(f"[criterion {criterion}] SKIP: {why}")
    pytest.skip(f"criterion {criterion}: {why}")


def _load_public_data(criterion):
    if not POLARITY_ROOT or not Path(POLARITY_ROOT).is_dir():
        _skip(criterion, "set CONCEPTBAG_POLARITY_ROOT to the pos/neg review directory")
    if not VECTORS_PATH or not Path(VECTORS_PATH).is_file():
        _skip(criterion, "set CONCEPTBAG_VECTORS to a text-format 100-d vector file")
    return load_polarity_dataset(POLARITY_ROOT), load_word_vectors(VECTORS_PATH)


def test_criterion_1_bow_baseline_accuracy():
    dataset, wv = _load_public_data(1)
    config = ExperimentConfig(
        dataset="polarity", ngram_orders=(1,), feature_mode="bow_nb",
        svm=SvmConfig(C=1.0), folds=10, seed=42,
    )
    report = run_experiment(config, dataset, wv)
    _verdict(1, abs(report.accuracy - 0.83) <= 0.02,
             f"BOW+NB 10-fold accuracy {report.accuracy:.4f} (target 0.83 +/- 0.02)")


def test_criterion_2_table1_ordering_claims():
    dataset, wv = _load_public_data(2)
    cache: dict = {}
    accs = {}
    for orders in ((1,), (1, 2), (3,)):
        config = ExperimentConfig(
            dataset="polarity", ngram_orders=orders, K=300, feature_mode="nb_max",
            kmeans=KMeansConfig(K=300, iterations=10, seed=0),
            svm=SvmConfig(C=1.0), folds=10, seed=42,
        )
        accs[orders] = run_experiment(config, dataset, wv, cache=cache).accuracy
    ok = (
        accs[(1, 2)] > accs[(1,)]
        and accs[(3,)] < accs[(1,)]
        and accs[(1, 2)] >= 0.82
    )
    _verdict(2, ok, f"acc(1)={accs[(1,)]:.4f} acc(1+2)={accs[(1, 2)]:.4f} "
                    f"acc(3)={accs[(3,)]:.4f}")


def test_criterion_3_kmeans():
    # (a) Lloyd inertia non-increasing, 10 random datasets
    violations = 0
    for s in range(10):
        rng = np.random.default_rng(s)
        X = rng.normal(size=(1000, 100))
        res = kmeans_fit(X, KMeansConfig(K=50, iterations=10, seed=s))
        trace = res.inertia_trace
        violations += sum(b > a + 1e-9 for a, b in zip(trace, trace[1:]))
    # (b) 4-point / K=2 vs exhaustive-partition oracle, best of 10 restarts
    def oracle_inertia(X):
        best = np.inf
        for labels in product(range(2), repeat=4):
            labels = np.array(labels)
            total = 0.0
            for k in range(2):
                members = X[labels == k]
                if len(members):
                    total += ((members - members.mean(axis=0)) ** 2).sum()
            best = min(best, total)
        return best

    mismatches = 0
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        X = rng.normal(size=(4, 2))
        best = min(
            kmeans_fit(X, KMeansConfig(K=2, iterations=10, seed=s * 10 + r)).inertia
            for r in range(10)
        )
        if abs(best - oracle_inertia(X)) > 1e-9:
            mismatches += 1
    # (c) assign vs linear-scan oracle on 10,000 random queries
    rng = np.random.default_rng(7)
    C = rng.normal(size=(20, 10))
    queries = rng.normal(size=(10_000, 10))
    agree = sum(
        assign(q, C) == int(np.argmin(np.linalg.norm(C - q, axis=1)))
        for q in queries
    )
    ok = violations == 0 and mismatches == 0 and agree == 10_000
    _verdict(3, ok, f"trace violations {violations}/10 runs, "
                    f"oracle mismatches {mismatches}/100, assign agreement {agree}/10000")


def test_criterion_4_svm():
    rng = np.random.default_rng(0)
    # (a) gradient vs central finite differences at 20 random points
    X = rng.normal(size=(15, 3))
    y = rng.choice([-1, 1], size=15)
    max_rel = 0.0
    for _ in range(20):
        w = rng.normal(size=3)
        g = svm_gradient(w, X, y, C=2.0)
        fd = np.zeros(3)
        h = 1e-6
        for j in range(3):
            up, dn = w.copy(), w.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (svm_objective(up, X, y, 2.0) - svm_objective(dn, X, y, 2.0)) / (2 * h)
        max_rel = max(max_rel, np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12))
    # (b) objective vs high-precision convex oracle, 50 random problems
    # (c) per-iteration objective trace non-increasing on the same problems
    worst_gap = 0.0
    monotone = True
    for s in range(50):
        prng = np.random.default_rng(100 + s)
        L, d = int(prng.integers(2, 21)), int(prng.integers(1, 4))
        Xp = prng.normal(size=(L, d))
        yp = prng.choice([-1, 1], size=L)
        model = svm_train(Xp, yp, SvmConfig(C=1.0, tolerance=1e-10))
        oracle = min(
            minimize(
                lambda w: svm_objective(w, Xp, yp, 1.0),
                prng.normal(size=d), method="L-BFGS-B",
                options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 10000},
            ).fun
            for _ in range(5)
        )
        worst_gap = max(worst_gap, svm_objective(model.w, Xp, yp, 1.0) - oracle)
        tr = model.objective_trace
        monotone = monotone and all(b <= a for a, b in zip(tr, tr[1:]))
    ok = max_rel < 1e-4 and worst_gap <= 1e-6 and monotone
    _verdict(4, ok, f"grad rel err {max_rel:.2e}, oracle gap {worst_gap:.2e}, "
                    f"monotone trace {monotone}")


def test_criterion_5_truncated_svd():
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(s)
        X = rng.normal(size=(50, 40))
        K = 10
        f = truncated_svd(X, K)
        dense = np.linalg.svd(X, compute_uv=False)[:K]
        worst = max(worst, np.abs(f.S - dense).max() / dense.max())
    rng = np.random.default_rng(99)
    X = rng.normal(size=(30, 25))
    K = 4
    f = truncated_svd(X, K)
    err = np.linalg.norm(X - f.U @ np.diag(f.S) @ f.V.T)
    dominated = sum(
        err <= np.linalg.norm(X - rng.normal(size=(30, K)) @ rng.normal(size=(K, 25))) + 1e-9
        for _ in range(100)
    )
    ok = worst < 1e-6 and dominated == 100
    _verdict(5, ok, f"singular-value rel err {worst:.2e}, "
                    f"Eckart-Young dominance {dominated}/100")


def test_criterion_6_log_count_ratio_toy():
    counts = sp.csr_matrix(np.array([[2, 0], [0, 1]]))
    r = log_count_ratio(counts, np.array([1, -1]))
    got = np.round(r, 5)
    ok = np.array_equal(got, [0.81093, -0.98083])
    _verdict(6, ok, f"r rounded to 5 decimals = {got.tolist()}")


def test_criterion_7_unseen_ngram_inference():
    rng = np.random.default_rng(0)
    words = {f"w{i}": i for i in range(30)}
    wv = WordVectors(words=words, matrix=rng.normal(size=(30, 8)))
    centroids = rng.normal(size=(12, 8))
    agree = True
    for _ in range(200):
        n = int(rng.integers(1, 4))
        gram = tuple(f"w{int(rng.integers(30))}" for _ in range(n))
        vec = embed_ngram(gram, wv)
        brute = int(np.argmin(((centroids - vec) ** 2).sum(axis=1)))
        agree = agree and assign(vec, centroids) == brute
    try:
        embed_ngram(("w0", "nowhere"), wv)
        oov_raised = False
    except UnknownWord:
        oov_raised = True
    _verdict(7, agree and oov_raised,
             f"nearest-centroid agreement on 200 unseen n-grams: {agree}, "
             f"OOV word raises UnknownWord: {oov_raised}")


def _timing_corpus(seed=0, n_docs=400, doc_len=60, n_words=300, dim=16):
    from conceptbag.corpus import Dataset, Document

    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(n_words)]
    docs = []
    for i in range(n_docs):
        label = 1 if i < n_docs // 2 else -1
        toks = tuple(str(w) for w in rng.choice(vocab, size=doc_len))
        docs.append(Document(id=f"d{i}", label=label, tokens=toks))
    wv = WordVectors(
        words={w: i for i, w in enumerate(vocab)},
        matrix=rng.normal(size=(n_words, dim)),
    )
    return Dataset(name="timing", documents=docs), wv


def test_criterion_8_timing_harness():
    dataset, wv = _timing_corpus()
    docs = dataset.documents
    train, test = docs[0::2], docs[1::2]  # interleaved so both halves carry both labels
    y_train = np.array([d.label for d in train])
    kmeans_times, repr_times = {}, {}
    for orders in ((1,), (1, 2), (1, 2, 3)):
        config = ExperimentConfig(
            dataset="timing", ngram_orders=orders, K=40, feature_mode="nb_max",
            kmeans=KMeansConfig(K=40, iterations=10, seed=0),
        )
        clock = _StageClock()
        _fold_features(train, test, y_train, config, wv, clock, NGramIndex(train + test, orders, wv.words))
        kmeans_times[orders] = clock.times["kmeans"]
        repr_times[orders] = clock.times["doc_repr"] + clock.times["ngram_repr"]
    ordering_ok = (
        kmeans_times[(1, 2, 3)] > kmeans_times[(1, 2)] > kmeans_times[(1,)]
        and repr_times[(1, 2, 3)] > repr_times[(1, 2)] > repr_times[(1,)]
    )
    # the emitted report must carry the three Table-2 stage rows
    report = run_experiment(
        ExperimentConfig(
            dataset="timing", ngram_orders=(1,), K=20, feature_mode="nb_max",
            kmeans=KMeansConfig(K=20, iterations=3, seed=0), folds=2,
        ),
        dataset, wv,
    )
    rows_ok = {"ngram_repr", "kmeans", "doc_repr"} <= set(report.stage_times)
    _verdict(8, ordering_ok and rows_ok,
             f"stage rows {sorted(report.stage_times)}; kmeans times "
             + ", ".join(f"{'+'.join(map(str, o))}:{kmeans_times[o]:.3f}s"
                         for o in kmeans_times))
    if not POLARITY_ROOT or not Path(POLARITY_ROOT).is_dir():
        print("[criterion 8] SKIP (wall-clock part): "
              "set CONCEPTBAG_POLARITY_ROOT for the full-corpus 10-minute check")
        return
    dataset, wv2 = _load_public_data(8)
    t0 = time.monotonic()
    run_experiment(
        ExperimentConfig(
            dataset="polarity", ngram_orders=(1, 2), K=300, feature_mode="nb_max",
            kmeans=KMeansConfig(K=300, iterations=10, variant="minibatch", seed=0),
            folds=10, seed=42,
        ),
        dataset, wv2,
    )
    elapsed = time.monotonic() - t0
    _verdict(8, elapsed < 600.0, f"full 1+2-gram K=300 mini-batch pipeline: {elapsed:.1f}s")


def test_criterion_9_sgns_pair_similarity():
    wins = 0
    for seed in range(20):
        docs, fillers = sgns_pair_corpus(seed)
        wv = train_sgns(docs, sgns_pair_config(seed))
        rng = np.random.default_rng(seed)
        in_vocab = [w for w in fillers if w in wv.words]
        samples = [
            cosine(wv, *rng.choice(in_vocab, size=2, replace=False)) for _ in range(300)
        ]
        if cosine(wv, "x", "y") > np.percentile(samples, 95):
            wins += 1
    _verdict(9, wins >= 18, f"pair above 95th percentile in {wins}/20 seeded runs")
