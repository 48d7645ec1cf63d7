"""Tests of the benchmark itself: generator, metric names and the span tree.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from conceptbag import corpus, evaluation  # noqa: E402
from generate import PolaritySpec, StreamSpec, word_names, write_polarity, write_topic_stream  # noqa: E402
from run import CALIBRATION_REF_S, END_TO_END, _metrics  # noqa: E402
from tracing import LAYER_METRICS, Tracer, annotate_folds, check_spans, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, CvWorkload, SgnsWorkload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL_CORPUS = PolaritySpec(docs=40, tokens_per_doc=30, vocab=200)
SMALL_CV = CvWorkload(
    name="small_cv",
    why="test",
    corpus=SMALL_CORPUS,
    feature_mode="nb_max",
    folds=2,
    accuracy_band=(0.0, 1.0),
    K=5,
    kmeans={"iterations": 2, "variant": "lloyd", "init": "kmeanspp"},
)
SMALL_SGNS = SgnsWorkload(
    name="small_sgns",
    why="test",
    corpus=StreamSpec(docs=10, tokens_per_doc=30, vocab=60),
    sgns={"dim": 8, "window": 2, "min_count": 1},
    accuracy_band=(0.0, 1.0),
)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "write, spec",
    [(write_polarity, SMALL_CORPUS), (write_topic_stream, StreamSpec(docs=10, tokens_per_doc=30, vocab=40))],
)
def test_generator_is_deterministic(tmp_path, write, spec):
    write(tmp_path / "a", spec, seed=7)
    write(tmp_path / "b", spec, seed=7)
    write(tmp_path / "c", spec, seed=8)
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_polarity_layout_loads_through_the_library(tmp_path):
    summary = write_polarity(tmp_path, SMALL_CORPUS, seed=3)
    state = SMALL_CV.setup(tmp_path)
    assert SMALL_CV.check_setup(SMALL_CV.setup_counts(state), summary) == []
    docs = state["dataset"].documents
    assert sum(d.label == 1 for d in docs) == sum(d.label == -1 for d in docs) == SMALL_CORPUS.docs // 2
    assert all(len([t for t in d.tokens if t != "."]) == SMALL_CORPUS.tokens_per_doc for d in docs)


def test_word_names_survive_tokenization():
    names = word_names(3000)
    assert len(set(names)) == 3000
    assert corpus.tokenize(" ".join(names)) == names


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [*END_TO_END, *LAYER_METRICS]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(NAME.fullmatch(w) for w in WORKLOADS)


def _traced(workload, root, seed=1):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("workload.setup"):
            state = workload.setup(root)
        with tracer.span("workload.run"):
            result = workload.run(state, seed)
    finally:
        tracer.uninstall()
    return tracer.spans, result


def test_traced_experiment_span_tree(tmp_path):
    write_polarity(tmp_path, SMALL_CORPUS, seed=1)
    original = evaluation.build_vocab
    spans, report = _traced(SMALL_CV, tmp_path)
    assert evaluation.build_vocab is original, "uninstall must restore the library"
    assert check_spans(spans) == []
    assert all(ns >= 0 for ns in self_times(spans).values())
    run = next(s for s in spans if s["name"] == "workload.run")
    children = [s for s in spans if s["parent"] == run["id"]]
    assert sum(s["end_ns"] - s["start_ns"] for s in children) <= run["end_ns"] - run["start_ns"]

    metrics = layer_metrics(spans)
    assert set(metrics) | {"trace_overhead_s"} == set(LAYER_METRICS)
    assert metrics["clustering.kmeans_calls"] == SMALL_CV.folds
    assert metrics["svm.newton_iters"] > 0 and metrics["corpus.ngrams"] > 0
    assert metrics["evaluation.self_s"] >= 0
    assert metrics["corpus.load_s"] > 0 and metrics["embeddings.load_s"] > 0

    annotate_folds(spans)
    folds = {s["fold"] for s in spans if s["name"] == "svm.svm_train"}
    assert folds == set(range(SMALL_CV.folds))
    assert len(report.per_fold) == SMALL_CV.folds


def test_traced_sgns_calls_only_the_embeddings_writer(tmp_path):
    SMALL_SGNS.generate(tmp_path, seed=2)
    spans, wv = _traced(SMALL_SGNS, tmp_path)
    assert check_spans(spans) == []
    assert {s["name"] for s in spans} == {"workload.setup", "workload.run", "corpus.tokenize", "embeddings.train_sgns"}
    outputs = SMALL_SGNS.describe(wv, tmp_path)
    assert 0 <= outputs["nn_topic_rate"] <= 1 and outputs["words"] == len(wv)
    assert layer_metrics(spans)["clustering.kmeans_calls"] == 0


def test_check_spans_reports_a_child_outside_its_parent():
    spans = [
        {"id": 0, "name": "workload.run", "parent": None, "start_ns": 0, "end_ns": 10, "counts": {}},
        {"id": 1, "name": "svm.svm_train", "parent": 0, "start_ns": 5, "end_ns": 12, "counts": {}},
    ]
    problems = check_spans(spans)
    assert any("outside its parent" in p for p in problems)


def _rep(run_s, traced=False):
    return {"traced": traced, "run_s": run_s, "outputs": {"accuracy": 0.8, "per_fold": [0.8, 0.8]}}


def test_times_are_scaled_to_the_reference_machine_speed():
    raw = {
        "setup_s": [0.1, 0.2, 0.9],
        "calibration_s": [1.5 * CALIBRATION_REF_S, 2.5 * CALIBRATION_REF_S],  # the machine ran at half speed
        "reps": [_rep(4.0), _rep(5.0), _rep(9.0)],
        "traces": [],
        "peak_rss_mb": 50.0,
    }
    metrics = _metrics(SMALL_CV, raw, trace=0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert metrics["run_s"]["value"] == pytest.approx(2.5)  # medians of the samples, halved
    assert metrics["peak_rss_mb"]["value"] == 50.0 and metrics["accuracy"]["value"] == 0.8


def test_trace_overhead_pairs_each_traced_call_with_the_untraced_call_before_it():
    run = {"id": 0, "name": "workload.run", "parent": None, "start_ns": 0, "end_ns": 10, "counts": {}}
    raw = {
        "calibration_s": [CALIBRATION_REF_S],
        "reps": [_rep(4.0), _rep(4.1, True), _rep(6.0), _rep(6.3, True), _rep(5.0), _rep(5.2, True)],
        "traces": [[run]] * 3,
    }
    metrics = _metrics(SMALL_CV, raw, trace=1)
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["trace_overhead_s"]["value"] == pytest.approx(0.2)
