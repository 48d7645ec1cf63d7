"""Cross-validation, accuracy, and stage-timed experiment runs."""

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import clustering, features, lsa, svm
from .clustering import KMeansConfig
from .corpus import Dataset, NGramIndex, build_vocab, check_orders, count_vectors
from .embeddings import WordVectors, embed_all
from .errors import BadConfig, ConceptBagError, LengthMismatch, TooFewDocuments, check_int
from .svm import SvmConfig

STAGES = ("vocab", "counts", "ngram_repr", "kmeans", "doc_repr", "svm_train", "total")
FEATURE_MODES = features.MODES + ("lsa",)


@dataclass
class ExperimentConfig:
    dataset: str = "polarity"
    ngram_orders: tuple[int, ...] = (1,)
    K: int = 300  # number of concepts; sets kmeans.K
    feature_mode: str = "nb_max"  # one of FEATURE_MODES
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    folds: int = 10  # 0 = use the dataset's predefined split
    seed: int = 42

    def __post_init__(self):
        check_int("K", self.K)
        check_int("folds", self.folds)
        if self.folds == 1 or self.folds < 0:
            raise BadConfig(f"folds must be 0 (the dataset's own split) or >= 2, got {self.folds}")
        check_int("seed", self.seed, minimum=0)
        self.ngram_orders = check_orders(self.ngram_orders)
        if self.feature_mode not in FEATURE_MODES:
            raise BadConfig(f"unknown feature_mode {self.feature_mode!r}; expected one of {FEATURE_MODES}")
        self.kmeans = replace(self.kmeans, K=self.K)


@dataclass
class ExperimentReport:
    accuracy: float
    per_fold: list[float]
    stage_times: dict[str, float]
    config_echo: ExperimentConfig
    # per fold, the inertia_trace and rechecked of the fold's K-means fit;
    # empty outside concept modes
    inertia_trace: list[list[float]] = field(default_factory=list)
    rechecked: list[list[int]] = field(default_factory=list)
    # per fold, the Newton steps, CG iterations and final gradient norm of the fold's SVM fit
    newton_steps: list[int] = field(default_factory=list)
    cg_iters: list[int] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def accuracy(predictions, labels) -> float:
    """Fraction of exact matches; raises TooFewDocuments when there are none to score."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) != len(labels):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not len(predictions):
        raise TooFewDocuments("no documents to score: accuracy over 0 predictions is undefined")
    return float(np.mean(predictions == labels))


def kfold_split(labels, folds: int, seed: int):
    """Stratified fold index pairs; per-class fold sizes differ by at most 1."""
    labels = np.asarray(labels)
    n = len(labels)
    if folds < 2:
        raise TooFewDocuments(f"need at least 2 folds, got {folds}")
    if folds > n:
        raise TooFewDocuments(f"{folds} folds for {n} documents")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    offset = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        fold_of[members] = (np.arange(len(members)) + offset) % folds
        offset += len(members)
    return [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(folds)]


class _StageClock:
    """Accumulates monotonic wall-clock seconds per pipeline stage."""

    def __init__(self):
        self.times = {s: 0.0 for s in STAGES}

    @contextmanager
    def stage(self, name):
        """Time the block under ``name``; tag library errors with ``[stage <name>]``."""
        t0 = time.monotonic()
        try:
            yield
        except ConceptBagError as exc:
            exc.args = (f"[stage {name}] {exc.args[0] if exc.args else ''}",)
            raise
        finally:
            self.times[name] += time.monotonic() - t0


def _cached(cache, key, clock, stage, compute):
    """``cache[key]``, computed under ``clock.stage(stage)`` on a miss."""
    if key not in cache:
        with clock.stage(stage):
            cache[key] = compute()
    return cache[key]


def _fold_features(
    train_docs, test_docs, y_train, config, wv, clock, index, cache=None,
):
    """Featurize one train/test split; returns (train feats, test feats, K-means fit or None).

    ``index``, an ``NGramIndex`` over ``config.ngram_orders`` holding every
    document the split reads, gives the vocabulary and the counts their
    n-gram ids; ``wv`` is read only in the concept modes. ``cache`` is an
    optional dict shared across folds or experiments on one dataset and one
    set of word vectors. The vocabulary and K-means result are keyed on the
    training documents they are fitted on and on the index's documents, as
    the vocabulary numbers words as its index does; the counts on those and
    the split. So each is reused whenever every setting that shapes it
    coincides. The n-gram table is built only to fit K-means, and not kept.
    """
    cache = {} if cache is None else cache
    fit_key = (config.ngram_orders, index.document_ids, tuple(d.id for d in train_docs))
    vocab = _cached(cache, ("vocab", fit_key), clock, "vocab", lambda: build_vocab(train_docs, index))
    split_key = (fit_key, tuple(d.id for d in test_docs))
    counts_train, counts_test = _cached(
        cache, ("counts", split_key), clock, "counts",
        lambda: (count_vectors(train_docs, vocab), count_vectors(test_docs, vocab)),
    )
    with clock.stage("doc_repr"):
        r = features.log_count_ratio(counts_train, y_train)

    if config.feature_mode == "lsa":
        # each row is an NBSVM row projected on U; training rows are V diag(S) (see truncated_svd)
        with clock.stage("doc_repr"):
            rows = tuple(features.bow_nb_features(counts, r) for counts in (counts_train, counts_test))
            U = lsa.truncated_svd(rows[0].T.tocsr(), config.K).U
            return rows[0] @ U, rows[1] @ U, None

    kmeans = None
    if config.feature_mode in features.CONCEPT_MODES:
        kmeans_key = ("kmeans", fit_key, astuple(config.kmeans))
        if kmeans_key not in cache:
            with clock.stage("ngram_repr"):
                table = embed_all(vocab, wv)
            with clock.stage("kmeans"):
                cache[kmeans_key] = clustering.fit(table, config.kmeans)
        kmeans = cache[kmeans_key]
    assignment = None if kmeans is None else kmeans.labels
    with clock.stage("doc_repr"):
        f_train, f_test = (
            features.document_features(config.feature_mode, counts, r, assignment, config.K)
            for counts in (counts_train, counts_test)
        )
    return f_train, f_test, kmeans


def run_experiment(
    config: ExperimentConfig,
    dataset: Dataset,
    wv: Optional[WordVectors] = None,
    cache: Optional[dict] = None,
) -> ExperimentReport:
    """Run the full pipeline on the folds of ``config``.

    Every fitted parameter (vocabulary, log-count ratios, centroids, SVM
    weights) comes from the fold's training documents only. The documents
    are numbered once, in one ``NGramIndex`` over the documents of the
    splits, which every fold selects from. ``cache``, if given, must only be
    shared by runs on this ``dataset`` with these ``wv``; it keeps the index
    too, so runs with the same orders build it once.
    """
    if config.feature_mode in features.CONCEPT_MODES and wv is None:
        raise BadConfig(f"word vectors are required for concept feature mode {config.feature_mode!r}")

    clock = _StageClock()
    t_start = time.monotonic()
    docs = dataset.documents
    labels = dataset.labels

    if config.folds == 0:
        if dataset.train_ids is None or dataset.test_ids is None:
            raise TooFewDocuments(f"dataset {dataset.name!r} has no predefined split")
        splits = [(np.array(dataset.train_ids), np.array(dataset.test_ids))]
    else:
        splits = kfold_split(labels, config.folds, config.seed)

    read = [docs[i] for i in np.unique(np.concatenate([np.concatenate(split) for split in splits]))]
    # without word vectors (BOW/LSA) every token is a word
    index = _cached(
        {} if cache is None else cache, ("index", config.ngram_orders, tuple(d.id for d in read)),
        clock, "vocab", lambda: NGramIndex(read, config.ngram_orders, None if wv is None else wv.words),
    )
    per_fold, traces, rechecked, newton_steps, cg_iters, grad_norm = [], [], [], [], [], []
    for train_idx, test_idx in splits:
        train_docs = [docs[i] for i in train_idx]
        test_docs = [docs[i] for i in test_idx]
        y_train = labels[train_idx]
        y_test = labels[test_idx]
        f_train, f_test, kmeans = _fold_features(
            train_docs, test_docs, y_train, config, wv, clock, index, cache=cache
        )
        if kmeans is not None:
            traces.append(list(kmeans.inertia_trace))
            rechecked.append(list(kmeans.rechecked))
        with clock.stage("svm_train"):
            model = svm.svm_train(f_train, y_train, config.svm)
        newton_steps.append(len(model.objective_trace) - 1)
        cg_iters.append(model.cg_iters)
        grad_norm.append(model.grad_norm)
        per_fold.append(accuracy(svm.svm_predict(model, f_test), y_test))

    clock.times["total"] = time.monotonic() - t_start
    return ExperimentReport(
        accuracy=float(np.mean(per_fold)),
        per_fold=per_fold,
        stage_times=dict(clock.times),
        config_echo=config,
        inertia_trace=traces,
        rechecked=rechecked,
        newton_steps=newton_steps,
        cg_iters=cg_iters,
        grad_norm=grad_norm,
    )


def write_reports(reports, out_dir) -> None:
    """Write one JSON document per report plus an aggregate results.csv into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, rep in enumerate(reports):
        (out_dir / f"report_{i:03d}.json").write_text(rep.to_json())
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "orders", "K", "mode", "accuracy"] + [f"time_{s}" for s in STAGES]
        )
        for rep in reports:
            cfg = rep.config_echo
            writer.writerow(
                [
                    cfg.dataset,
                    "+".join(str(n) for n in cfg.ngram_orders),
                    cfg.K,
                    cfg.feature_mode,
                    f"{rep.accuracy:.4f}",
                ]
                + [f"{rep.stage_times[s]:.2f}" for s in STAGES]
            )
