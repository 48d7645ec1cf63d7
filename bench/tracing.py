"""Span tracing around the program's public entry points, kept in memory.

``Tracer.install`` replaces each function in ``ENTRY_POINTS`` with a wrapper
in every ``conceptbag`` module namespace that holds it, so a call is traced
under whichever name its caller looks it up by (``evaluation`` imports
``build_vocab`` by name, but calls ``clustering.kmeans_fit`` through the
module). ``uninstall`` puts the originals back. No library file changes.

A span is a dict with ``id``, ``name`` (``<layer>.<function>``), ``parent``
(the enclosing span's id, or None), ``start_ns``/``end_ns`` from
``time.perf_counter_ns`` and ``counts`` taken from the call's arguments and
result after the span closed. ``layer_metrics`` turns the spans of one
traced repetition into the per-layer metrics.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp


def _tokens_in_dataset(args, kwargs, dataset):
    return {"tokens": sum(len(d.tokens) for d in dataset.documents)}


def _tokens(args, kwargs, tokens):
    return {"tokens": len(tokens)}


def _vocab_size(args, kwargs, vocab):
    return {"ngrams": len(vocab)}


def _nnz(args, kwargs, counts):
    return {"nnz": int(counts.nnz)}


def _table_rows(args, kwargs, table):
    return {"ngrams": int(table.shape[0])}


def _sgns_tokens(args, kwargs, wv):
    docs = kwargs.get("documents", args[0] if args else ())
    return {"tokens": sum(len(d) for d in docs)}


def _kmeans(args, kwargs, result):
    X = kwargs.get("X", args[0] if args else None)
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    points = int(np.shape(X)[0])
    return {"points": points, "point_iters": points * config.iterations, "inertia": float(result.inertia)}


def _svm(args, kwargs, model):
    X = kwargs.get("features", args[0] if args else None)
    nnz = X.nnz if sp.issparse(X) else np.count_nonzero(X)
    return {"newton_iters": len(model.objective_trace) - 1, "cols": int(X.shape[1]), "nnz": int(nnz)}


# (layer, function, counters(args, kwargs, result) or None)
ENTRY_POINTS = (
    ("corpus", "load_polarity_dataset", _tokens_in_dataset),
    ("corpus", "tokenize", _tokens),
    ("corpus", "build_vocab", _vocab_size),
    ("corpus", "count_vectors", _nnz),
    ("embeddings", "load_word_vectors", None),
    ("embeddings", "embed_all", _table_rows),
    ("embeddings", "train_sgns", _sgns_tokens),
    ("clustering", "kmeans_fit", _kmeans),
    ("clustering", "minibatch_kmeans_fit", _kmeans),
    ("features", "log_count_ratio", None),
    ("features", "concept_features_nb", None),
    ("features", "bow_nb_features", None),
    ("svm", "svm_train", _svm),
    ("svm", "svm_predict", None),
    ("evaluation", "run_experiment", None),
)


class Tracer:
    """Records nested spans in memory; ``install`` routes library calls through it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": 0,
            "end_ns": 0,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, original, counters):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counters is not None:
                record["counts"] = counters(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("conceptbag")  # loads every layer before the namespaces are searched
        modules = [m for n, m in list(sys.modules.items()) if n == "conceptbag" or n.startswith("conceptbag.")]
        for layer, function, counters in ENTRY_POINTS:
            original = getattr(importlib.import_module(f"conceptbag.{layer}"), function)
            traced = self._wrap(f"{layer}.{function}", original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus its direct children's durations, in ns."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def check_spans(spans: list[dict]) -> list[str]:
    """Problems with the span tree: children outside their parent, negative self time."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and not parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]:
            problems.append(f"span {s['name']} #{s['id']} lies outside its parent {parent['name']}")
    for span_id, ns in self_times(spans).items():
        if ns < 0:
            problems.append(f"span {by_id[span_id]['name']} #{span_id} has self time {ns} ns")
    return problems


def annotate_folds(spans: list[dict]) -> None:
    """Give every span under ``evaluation.run_experiment`` its fold index.

    A fold ends with its ``svm.svm_predict`` call, so the fold of a span is
    the number of prediction spans of the same experiment that ended before
    it started. Spans outside an experiment get ``fold`` None.
    """
    by_id = {s["id"]: s for s in spans}

    def experiment_of(s):
        while s is not None and s["name"] != "evaluation.run_experiment":
            s = by_id.get(s["parent"])
        return s

    predictions = defaultdict(list)
    for s in spans:
        exp = experiment_of(s)
        if exp is not None and s["name"] == "svm.svm_predict":
            predictions[exp["id"]].append(s["end_ns"])
    for s in spans:
        exp = experiment_of(by_id.get(s["parent"]))
        ends = predictions[exp["id"]] if exp is not None else None
        s["fold"] = None if ends is None else sum(end <= s["start_ns"] for end in ends)


# name -> (unit, better); the order in which the per-layer metrics are printed
LAYER_METRICS = {
    "corpus.load_s": ("s", "lower"),
    "corpus.tokens_per_s": ("tokens/s", "higher"),
    "corpus.build_vocab_s": ("s", "lower"),
    "corpus.count_vectors_s": ("s", "lower"),
    "corpus.ngrams": ("count", "lower"),
    "corpus.count_nnz": ("count", "lower"),
    "embeddings.load_s": ("s", "lower"),
    "embeddings.embed_all_s": ("s", "lower"),
    "embeddings.embed_ngrams_per_s": ("ngrams/s", "higher"),
    "embeddings.train_sgns_s": ("s", "lower"),
    "embeddings.sgns_tokens_per_s": ("tokens/s", "higher"),
    "clustering.kmeans_fit_s": ("s", "lower"),
    "clustering.kmeans_calls": ("count", "lower"),
    "clustering.points": ("count", "lower"),
    "clustering.point_iters_per_s": ("points/s", "higher"),
    "clustering.inertia": ("sq-distance", "lower"),
    "features.log_count_ratio_s": ("s", "lower"),
    "features.concept_features_nb_s": ("s", "lower"),
    "features.bow_nb_features_s": ("s", "lower"),
    "svm.svm_train_s": ("s", "lower"),
    "svm.newton_iters": ("count", "lower"),
    "svm.train_cols": ("count", "lower"),
    "svm.train_nnz": ("count", "lower"),
    "svm.svm_predict_s": ("s", "lower"),
    "evaluation.run_experiment_s": ("s", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but ``trace_overhead_s``).

    A layer's time sums its outermost spans only, so a call nested in another
    call of the same layer (``tokenize`` inside ``load_polarity_dataset``) is
    not counted twice. A layer that was never called reports 0.
    """
    by_id = {s["id"]: s for s in spans}
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    inertias = []
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and _layer(parent["name"]) == _layer(s["name"]):
            continue
        seconds[s["name"]] += (s["end_ns"] - s["start_ns"]) / 1e9
        calls[s["name"]] += 1
        for key, value in s["counts"].items():
            counts[f"{s['name']}:{key}"] += value
        if "inertia" in s["counts"]:
            inertias.append(s["counts"]["inertia"])

    def rate(amount, secs):
        return amount / secs if secs > 0 else 0.0

    fits = ("clustering.kmeans_fit", "clustering.minibatch_kmeans_fit")
    fit_s = sum(seconds[f] for f in fits)
    load_s = seconds["corpus.load_polarity_dataset"] + seconds["corpus.tokenize"]
    own = self_times(spans)
    experiment_self = sum(own[s["id"]] for s in spans if s["name"] == "evaluation.run_experiment") / 1e9
    return {
        "corpus.load_s": load_s,
        "corpus.tokens_per_s": rate(
            counts["corpus.load_polarity_dataset:tokens"] + counts["corpus.tokenize:tokens"], load_s
        ),
        "corpus.build_vocab_s": seconds["corpus.build_vocab"],
        "corpus.count_vectors_s": seconds["corpus.count_vectors"],
        "corpus.ngrams": counts["corpus.build_vocab:ngrams"],
        "corpus.count_nnz": counts["corpus.count_vectors:nnz"],
        "embeddings.load_s": seconds["embeddings.load_word_vectors"],
        "embeddings.embed_all_s": seconds["embeddings.embed_all"],
        "embeddings.embed_ngrams_per_s": rate(counts["embeddings.embed_all:ngrams"], seconds["embeddings.embed_all"]),
        "embeddings.train_sgns_s": seconds["embeddings.train_sgns"],
        "embeddings.sgns_tokens_per_s": rate(counts["embeddings.train_sgns:tokens"], seconds["embeddings.train_sgns"]),
        "clustering.kmeans_fit_s": fit_s,
        "clustering.kmeans_calls": sum(calls[f] for f in fits),
        "clustering.points": sum(counts[f"{f}:points"] for f in fits),
        "clustering.point_iters_per_s": rate(sum(counts[f"{f}:point_iters"] for f in fits), fit_s),
        "clustering.inertia": float(np.mean(inertias)) if inertias else 0.0,
        "features.log_count_ratio_s": seconds["features.log_count_ratio"],
        "features.concept_features_nb_s": seconds["features.concept_features_nb"],
        "features.bow_nb_features_s": seconds["features.bow_nb_features"],
        "svm.svm_train_s": seconds["svm.svm_train"],
        "svm.newton_iters": counts["svm.svm_train:newton_iters"],
        "svm.train_cols": counts["svm.svm_train:cols"],
        "svm.train_nnz": counts["svm.svm_train:nnz"],
        "svm.svm_predict_s": seconds["svm.svm_predict"],
        "evaluation.run_experiment_s": seconds["evaluation.run_experiment"],
        "evaluation.self_s": experiment_self,
    }
