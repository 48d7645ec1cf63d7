import json

import numpy as np
import pytest
import scipy.sparse as sp

from conceptbag import clustering, features
from conceptbag.clustering import KMeansConfig
from conceptbag.corpus import Dataset, Document, NGramIndex
from conceptbag.embeddings import WordVectors
from conceptbag.errors import BadConfig, ConceptBagError, LengthMismatch, SingleClass, TooFewDocuments, TooFewPoints
from conceptbag.evaluation import (
    FEATURE_MODES,
    STAGES,
    ExperimentConfig,
    _fold_features,
    _StageClock,
    accuracy,
    kfold_split,
    run_experiment,
    write_reports,
)
from conceptbag.svm import SvmConfig

from conftest import make_synthetic_sentiment


def _dense(f):
    return sp.csr_matrix(f).toarray()


def small_config(**overrides):
    base = dict(
        dataset="synthetic",
        ngram_orders=(1,),
        K=6,
        feature_mode="nb_max",
        kmeans=KMeansConfig(K=6, iterations=5, seed=0),
        svm=SvmConfig(C=1.0, tolerance=1e-8),
        folds=4,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fold_features(train, test, y, cfg, wv, indexed=None, **kwargs):
    """``_fold_features``' (train, test) features, with an NGramIndex over ``indexed``, by default ``train + test``."""
    index = NGramIndex(train + test if indexed is None else indexed, cfg.ngram_orders, wv.words)
    return _fold_features(train, test, y, cfg, wv, _StageClock(), index, **kwargs)[:2]


def train_test_junk():
    """30 training documents, 10 test documents, the test ids over junk tokens, y and vectors."""
    ds, wv = make_synthetic_sentiment(seed=10, n_docs=40)
    train, test = ds.documents[:30], ds.documents[30:]
    junk = [Document(id=d.id, label=d.label, tokens=("filler0",) * 5) for d in test]
    return train, test, junk, np.array([d.label for d in train]), wv


@pytest.fixture
def index_builds(monkeypatch):
    """(orders, document ids) of each NGramIndex that evaluation builds."""
    from conceptbag import evaluation

    built = []
    real_index = evaluation.NGramIndex

    def recording_index(documents, orders, dictionary):
        built.append((tuple(orders), [d.id for d in documents]))
        return real_index(documents, orders, dictionary)

    monkeypatch.setattr(evaluation, "NGramIndex", recording_index)
    return built


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, -1, 1], [1, -1, 1]) == 1.0

    def test_half(self):
        assert accuracy([1, 1], [1, -1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy([1], [1, -1])

    def test_no_predictions(self):
        with pytest.raises(TooFewDocuments, match="no documents to score"):
            accuracy([], [])


class TestKFold:
    def test_partition(self):
        labels = np.array([1] * 30 + [-1] * 30)
        splits = kfold_split(labels, folds=10, seed=0)
        assert len(splits) == 10
        all_test = np.concatenate([te for _, te in splits])
        assert sorted(all_test) == list(range(60))
        for tr, te in splits:
            assert set(tr) | set(te) == set(range(60))
            assert not set(tr) & set(te)

    def test_balanced_and_stratified(self):
        labels = np.array([1] * 100 + [-1] * 100)
        for _, te in kfold_split(labels, folds=10, seed=1):
            assert len(te) == 20
            assert (labels[te] == 1).sum() == 10

    def test_uneven_class_sizes_differ_by_at_most_one(self):
        labels = np.array([1] * 23 + [-1] * 17)
        for _, te in kfold_split(labels, folds=5, seed=2):
            for cls in (1, -1):
                per = (labels[te] == cls).sum()
                total = (labels == cls).sum()
                assert abs(per - total / 5) <= 1

    def test_leave_one_out(self):
        labels = np.array([1, 1, 1, -1, -1, -1])
        splits = kfold_split(labels, folds=6, seed=3)
        sizes = sorted(len(te) for _, te in splits)
        assert sizes == [1] * 6

    def test_deterministic_in_seed(self):
        labels = np.array([1] * 15 + [-1] * 15)
        a = kfold_split(labels, folds=3, seed=9)
        b = kfold_split(labels, folds=3, seed=9)
        for (tra, tea), (trb, teb) in zip(a, b):
            assert np.array_equal(tra, trb) and np.array_equal(tea, teb)

    def test_too_many_folds(self):
        with pytest.raises(TooFewDocuments):
            kfold_split(np.array([1, -1]), folds=3, seed=0)

    def test_single_fold_rejected(self):
        with pytest.raises(TooFewDocuments):
            kfold_split(np.array([1, -1]), folds=1, seed=0)


class TestRunExperiment:
    def test_nb_max_beats_chance(self):
        ds, wv = make_synthetic_sentiment(seed=0)
        rep = run_experiment(small_config(), ds, wv)
        assert rep.accuracy > 0.7
        assert len(rep.per_fold) == 4

    def test_bow_nb_without_vectors(self):
        ds, _ = make_synthetic_sentiment(seed=1)
        rep = run_experiment(small_config(feature_mode="bow_nb"), ds)
        assert rep.accuracy > 0.8

    def test_frequency_mode_runs(self):
        ds, wv = make_synthetic_sentiment(seed=2, n_docs=80)
        rep = run_experiment(small_config(feature_mode="frequency"), ds, wv)
        assert 0.0 <= rep.accuracy <= 1.0

    def test_lsa_mode_runs(self):
        ds, _ = make_synthetic_sentiment(seed=3, n_docs=80)
        rep = run_experiment(small_config(feature_mode="lsa", K=5), ds)
        assert 0.0 <= rep.accuracy <= 1.0

    def test_concept_mode_requires_vectors(self):
        ds, _ = make_synthetic_sentiment(seed=4)
        with pytest.raises(ValueError):
            run_experiment(small_config(), ds)

    @pytest.mark.parametrize("mode", features.CONCEPT_MODES)
    def test_concept_mode_without_vectors_is_a_library_error(self, mode):
        ds, _ = make_synthetic_sentiment(seed=4)
        with pytest.raises(ConceptBagError, match=f"word vectors are required for concept feature mode '{mode}'"):
            run_experiment(small_config(feature_mode=mode), ds)

    def test_deterministic_except_wall_clock(self):
        ds, wv = make_synthetic_sentiment(seed=5)
        cfg = small_config()
        a = run_experiment(cfg, ds, wv)
        b = run_experiment(cfg, ds, wv)
        assert a.accuracy == b.accuracy
        assert a.per_fold == b.per_fold
        assert a.config_echo == b.config_echo

    def test_stage_times_present(self):
        ds, wv = make_synthetic_sentiment(seed=6, n_docs=60)
        rep = run_experiment(small_config(folds=2), ds, wv)
        assert set(rep.stage_times) == set(STAGES)
        assert all(v >= 0.0 for v in rep.stage_times.values())

    def test_error_annotated_with_stage(self):
        ds, wv = make_synthetic_sentiment(seed=7, n_docs=40)
        cfg = small_config(K=10_000, kmeans=KMeansConfig(K=10_000, iterations=2), folds=2)
        with pytest.raises(TooFewPoints, match=r"\[stage kmeans\]"):
            run_experiment(cfg, ds, wv)

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_single_class_fold_annotated_with_doc_repr(self, mode):
        # the log-count ratios are timed, and so tagged, under doc_repr
        ds, wv = make_synthetic_sentiment(seed=7, n_docs=40)
        train, test = ds.documents[:30], ds.documents[30:]
        y = np.ones(30, dtype=np.int64)
        with pytest.raises(SingleClass) as info:
            fold_features(train, test, y, small_config(feature_mode=mode), wv)
        assert str(info.value).startswith("[stage doc_repr] ")

    def test_predefined_split(self):
        ds, wv = make_synthetic_sentiment(seed=8, n_docs=60)
        ds = Dataset(
            name="synthetic",
            documents=ds.documents,
            train_ids=list(range(0, 20)) + list(range(30, 50)),
            test_ids=list(range(20, 30)) + list(range(50, 60)),
        )
        rep = run_experiment(small_config(folds=0), ds, wv)
        assert len(rep.per_fold) == 1

    @pytest.mark.parametrize("mode", ["bow_nb", "lsa"])
    def test_run_without_vectors_reads_no_unread_document(self, mode):
        # a document that no split reads is never tokenized, not even for the dictionary
        class Unread(tuple):
            def __iter__(self):
                raise AssertionError("read a document outside the split")

        ds, _ = make_synthetic_sentiment(seed=8, n_docs=60)
        outside = Document(id="outside", label=1, tokens=Unread(("good",)))
        ds = Dataset(
            name="synthetic",
            documents=ds.documents + [outside],
            train_ids=list(range(0, 20)) + list(range(30, 50)),
            test_ids=list(range(20, 30)) + list(range(50, 60)),
        )
        rep = run_experiment(small_config(folds=0, feature_mode=mode, K=2), ds)
        assert len(rep.per_fold) == 1

    def test_folds_zero_without_split(self):
        ds, wv = make_synthetic_sentiment(seed=9, n_docs=40)
        with pytest.raises(TooFewDocuments):
            run_experiment(small_config(folds=0), ds, wv)

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_fitted_parameters_ignore_test_documents(self, mode):
        # replacing every test document with gibberish must not change
        # per-fold training feature matrices (train-only fitting)
        train, test, junk, y, wv = train_test_junk()
        cfg = small_config(folds=2, feature_mode=mode)
        f1, _ = fold_features(train, test, y, cfg, wv)
        f2, _ = fold_features(train, junk, y, cfg, wv)
        assert _dense(f1).tobytes() == _dense(f2).tobytes()

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_fitted_parameters_ignore_test_documents_through_a_shared_index(self, mode):
        # the index numbers the test documents' words too, but holds no statistic:
        # an index over train+test and one over train+junk give the same training rows
        train, test, junk, y, wv = train_test_junk()
        cfg = small_config(folds=2, feature_mode=mode, ngram_orders=(1, 2))
        feats = [fold_features(train, held, y, cfg, wv)[0] for held in (test, junk)]
        assert _dense(feats[0]).tobytes() == _dense(feats[1]).tobytes()

    def test_cached_vocabulary_reused_only_with_an_index_over_the_same_documents(self):
        # a vocabulary numbers words as its index does, and an index over the same
        # documents in another order numbers them otherwise
        train, test, _, y, wv = train_test_junk()
        cfg = small_config(feature_mode="bow_nb", ngram_orders=(1, 2))
        cache = {}
        feats = [
            fold_features(train, test, y, cfg, wv, docs, cache=cache) for docs in (train + test, test + train)
        ]
        assert sum(key[0] == "vocab" for key in cache) == 2
        for a, b in zip(*feats):
            assert _dense(a).tobytes() == _dense(b).tobytes()

    @pytest.mark.parametrize("mode", FEATURE_MODES)
    def test_training_documents_as_test_documents(self, mode):
        # one featurizer for both sides: a training document featurized as a test
        # document gets its training row, bit for bit
        ds, wv = make_synthetic_sentiment(seed=10, n_docs=40)
        train = ds.documents[:30]
        y = np.array([d.label for d in train])
        f_train, f_test = fold_features(train, train, y, small_config(feature_mode=mode), wv)
        assert _dense(f_train).tobytes() == _dense(f_test).tobytes()

    def test_cache_reuse_gives_identical_results(self):
        ds, wv = make_synthetic_sentiment(seed=11, n_docs=60)
        cache = {}
        cfg = small_config(folds=2)
        a = run_experiment(cfg, ds, wv, cache=cache)
        assert cache  # populated
        b = run_experiment(cfg, ds, wv, cache=cache)
        assert a.per_fold == b.per_fold

    def test_cache_keeps_no_ngram_table(self):
        # the table is K-means' only input, so it is rebuilt on a K-means miss, never stored;
        # the n-gram index is kept, as it numbers the documents for every later run
        ds, wv = make_synthetic_sentiment(seed=11, n_docs=60)
        cache = {}
        for config in (small_config(folds=2), small_config(folds=2, ngram_orders=(1, 2))):
            run_experiment(config, ds, wv, cache=cache)
        assert {key[0] for key in cache} == {"index", "vocab", "counts", "kmeans"}

    def test_fit_scores_the_index_words_alone(self, monkeypatch):
        # the vector file holds far more words than the table has rows, and only a
        # test document holds "oddword": the fit scores the index's words, no others
        ds, wv = make_synthetic_sentiment(seed=14, n_docs=60)
        train = ds.documents[:50]
        test = ds.documents[50:] + [Document(id="odd", label=1, tokens=("oddword",) * 5)]
        extra = [f"unused{i}" for i in range(5000)] + ["oddword"]
        big = WordVectors(
            words={**wv.words, **{w: len(wv) + i for i, w in enumerate(extra)}},
            matrix=np.vstack([wv.matrix, np.random.default_rng(14).normal(size=(len(extra), wv.dim))]),
        )
        scored = []
        screen = clustering._screen

        def word_screen(X, K, words=None):
            if words is not None:
                scored.append(words[0].shape)
            return screen(X, K, words)

        monkeypatch.setattr(clustering, "_screen", word_screen)
        cfg = small_config(ngram_orders=(1, 2))
        index = NGramIndex(train + test, cfg.ngram_orders, big.words)
        y = np.array([d.label for d in train])
        assert _fold_features(train, test, y, cfg, big, _StageClock(), index)[2] is not None
        assert len(index.word_ids) == len(wv) + 1
        assert scored and set(scored) == {(len(index.word_ids), wv.dim)}

    def test_clustering_fitted_once_per_set_of_documents(self, monkeypatch):
        calls = []
        real_fit = clustering.fit

        def counting_fit(points, config):
            calls.append(points.shape[0])
            return real_fit(points, config)

        monkeypatch.setattr(clustering, "fit", counting_fit)
        ds, wv = make_synthetic_sentiment(seed=12, n_docs=60)
        report = run_experiment(small_config(folds=3), ds, wv)
        assert len(calls) == 3
        assert len(report.per_fold) == 3

    def test_index_built_once_per_orders(self, index_builds):
        # the documents are numbered once per experiment, and a shared cache keeps
        # the index, so a grid builds it once per set of orders
        ds, wv = make_synthetic_sentiment(seed=12, n_docs=60)
        run_experiment(small_config(folds=3), ds, wv)
        assert [orders for orders, _ in index_builds] == [(1,)]
        index_builds.clear()
        cache = {}
        for config in (small_config(folds=3), small_config(folds=2, feature_mode="bow_nb"),
                       small_config(folds=3, ngram_orders=(1, 2))):
            run_experiment(config, ds, wv, cache=cache)
        assert [orders for orders, _ in index_builds] == [(1,), (1, 2)]

    def test_index_holds_the_documents_folds_read(self, index_builds):
        # documents outside the predefined split are not indexed
        ds, wv = make_synthetic_sentiment(seed=13, n_docs=40)
        outside = [Document(id=f"u{i}", label=1, tokens=("pos0", "neg0") * 3) for i in range(5)]
        ds = Dataset(
            name="synthetic",
            documents=ds.documents + outside,
            train_ids=list(range(0, 15)) + list(range(20, 35)),
            test_ids=list(range(15, 20)) + list(range(35, 40)),
        )
        run_experiment(small_config(folds=0), ds, wv)
        assert index_builds == [((1,), [d.id for d in ds.documents[:40]])]


class TestExperimentConfig:
    def test_unknown_feature_mode_rejected(self):
        with pytest.raises(BadConfig, match="nbmax"):
            small_config(feature_mode="nbmax")

    @pytest.mark.parametrize("orders", [(0, 1), (4,), ()])
    def test_orders_outside_one_to_three_rejected(self, orders):
        with pytest.raises(ValueError, match="orders"):
            small_config(ngram_orders=orders)

    @pytest.mark.parametrize(
        "name, value",
        [("K", "1"), ("K", 6.0), ("folds", "2"), ("folds", 1), ("folds", -1), ("seed", True),
         ("seed", -1)],
    )
    def test_wrong_value_types_rejected(self, name, value):
        with pytest.raises(BadConfig, match=name):
            small_config(**{name: value})

    def test_K_sets_kmeans_K_without_changing_the_given_config(self):
        given = KMeansConfig(K=9, iterations=3)
        cfg = small_config(K=5, kmeans=given)
        assert cfg.kmeans.K == 5
        assert given.K == 9


class TestReportSerialization:
    def test_orders_given_out_of_order_round_trip(self):
        ds, wv = make_synthetic_sentiment(seed=12, n_docs=40)
        rep = run_experiment(small_config(folds=2, ngram_orders=[2, 1, 2]), ds, wv)
        assert rep.config_echo.ngram_orders == (1, 2)
        assert json.loads(rep.to_json())["config_echo"]["ngram_orders"] == [1, 2]

    def test_json_is_plain(self):
        ds, wv = make_synthetic_sentiment(seed=13, n_docs=40)
        rep = run_experiment(small_config(folds=2), ds, wv)
        parsed = json.loads(rep.to_json())
        assert set(parsed) == {
            "accuracy", "per_fold", "stage_times", "config_echo", "inertia_trace", "rechecked",
            "newton_steps", "cg_iters", "grad_norm",
        }

    def test_kmeans_diagnostics_per_fold(self):
        ds, wv = make_synthetic_sentiment(seed=13, n_docs=40)
        cfg = small_config(folds=2)
        cache = {}
        rep = run_experiment(cfg, ds, wv, cache=cache)
        fits = [fit for key, fit in cache.items() if key[0] == "kmeans"]
        assert len(fits) == 2
        assert rep.inertia_trace == [fit.inertia_trace for fit in fits]
        assert rep.rechecked == [fit.rechecked for fit in fits]
        assert [len(t) for t in rep.inertia_trace + rep.rechecked] == [cfg.kmeans.iterations] * 4
        bow = run_experiment(small_config(folds=2, feature_mode="bow_nb"), ds, wv)
        assert bow.inertia_trace == bow.rechecked == []

    @pytest.mark.parametrize("mode", ["nb_max", "bow_nb"])
    def test_svm_diagnostics_per_fold(self, mode):
        ds, wv = make_synthetic_sentiment(seed=13, n_docs=40)
        cfg = small_config(folds=2, feature_mode=mode)
        rep = run_experiment(cfg, ds, wv)
        assert [len(rep.newton_steps), len(rep.cg_iters), len(rep.grad_norm)] == [len(rep.per_fold)] * 3
        assert all(steps >= 1 for steps in rep.newton_steps) and all(n >= 1 for n in rep.cg_iters)
        # each fold converged before max_epochs ran out
        assert all(steps < cfg.svm.max_epochs for steps in rep.newton_steps)
        assert all(g < cfg.svm.tolerance for g in rep.grad_norm)
        parsed = json.loads(rep.to_json())
        assert (parsed["newton_steps"], parsed["cg_iters"]) == (rep.newton_steps, rep.cg_iters)


class TestWriteReports:
    def test_files_written(self, tmp_path):
        ds, wv = make_synthetic_sentiment(seed=14, n_docs=40)
        reps = [
            run_experiment(small_config(folds=2), ds, wv),
            run_experiment(small_config(folds=2, feature_mode="frequency"), ds, wv),
        ]
        out = tmp_path / "reports"
        csv_path = out / "results.csv"
        write_reports(reps, out)
        assert sorted(p.name for p in out.glob("*.json")) == [
            "report_000.json",
            "report_001.json",
        ]
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:5] == ["dataset", "orders", "K", "mode", "accuracy"]
        assert header[5:] == [f"time_{s}" for s in STAGES]
