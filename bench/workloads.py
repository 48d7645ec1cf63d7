"""The benchmark's workloads: generated inputs, the program's set-up, the timed call.

Each workload generates its inputs from a seed, sets the program up from
those files alone (``setup``), makes one timed call into the public API
(``run``) and describes the call's output in a few numbers that ``check``
holds against fixed expectations. ``setup`` and ``run`` look every library
function up through its module at call time, so the tracer's wrappers see
each call.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from generate import PolaritySpec, StreamSpec, write_polarity, write_topic_stream


@dataclass(frozen=True)
class CvWorkload:
    """Cross-validated ``run_experiment`` on a generated polarity corpus."""

    quality = "accuracy"  # the output reported as the end-to-end accuracy metric

    name: str
    why: str
    corpus: PolaritySpec
    feature_mode: str
    folds: int
    accuracy_band: tuple[float, float]  # exclusive; excludes chance (0.5) and 1.0
    K: int = 300
    kmeans: dict = field(default_factory=lambda: {"iterations": 10, "variant": "lloyd", "init": "kmeanspp"})

    def generate(self, root, seed: int) -> dict:
        return write_polarity(root, self.corpus, seed)

    def setup(self, root) -> dict:
        from conceptbag import corpus, embeddings

        root = Path(root)
        wv = embeddings.load_word_vectors(root / "vectors.txt")
        dataset = corpus.load_polarity_dataset(root)
        return {"wv": wv, "dataset": dataset}

    def setup_counts(self, state) -> dict:
        return {"documents": len(state["dataset"].documents), "vectors": len(state["wv"])}

    def run(self, state, seed: int) -> dict:
        from conceptbag import evaluation
        from conceptbag.clustering import KMeansConfig

        config = evaluation.ExperimentConfig(
            ngram_orders=(1, 2),
            K=self.K,
            feature_mode=self.feature_mode,
            kmeans=KMeansConfig(K=self.K, seed=seed, **self.kmeans),
            folds=self.folds,
            seed=seed,
        )
        return evaluation.run_experiment(config, state["dataset"], state["wv"])

    def describe(self, report, root) -> dict:
        return {"accuracy": report.accuracy, "per_fold": list(report.per_fold)}

    def check(self, outputs: dict, first: dict) -> list[str]:
        problems = []
        lo, hi = self.accuracy_band
        acc = outputs["accuracy"]
        if not lo < acc < hi:
            problems.append(f"accuracy {acc} outside ({lo}, {hi})")
        if acc != first["accuracy"]:
            problems.append(f"accuracy {acc} differs from the first repetition's {first['accuracy']}")
        if len(outputs["per_fold"]) != self.folds:
            problems.append(f"{len(outputs['per_fold'])} per-fold scores for {self.folds} folds")
        elif abs(sum(outputs["per_fold"]) / self.folds - acc) > 1e-12:
            problems.append("accuracy is not the mean of the per-fold scores")
        return problems

    def check_setup(self, counts: dict, summary: dict) -> list[str]:
        expected = {"documents": self.corpus.docs, "vectors": summary["vectors"]}
        return [] if counts == expected else [f"set-up loaded {counts}, generator wrote {expected}"]

    def sizes(self) -> dict:
        return {
            "corpus": asdict(self.corpus),
            "feature_mode": self.feature_mode,
            "ngram_orders": [1, 2],
            "K": self.K,
            "kmeans": self.kmeans,
            "folds": self.folds,
        }


@dataclass(frozen=True)
class SgnsWorkload:
    """``train_sgns`` on a generated topical token stream."""

    quality = "nn_topic_rate"

    name: str
    why: str
    corpus: StreamSpec
    sgns: dict
    accuracy_band: tuple[float, float]  # for nn_topic_rate; chance is 1 / topics

    def generate(self, root, seed: int) -> dict:
        return write_topic_stream(root, self.corpus, seed)

    def setup(self, root) -> dict:
        from conceptbag import corpus

        text = (Path(root) / "stream.txt").read_text(encoding="utf-8")
        return {"docs": [corpus.tokenize(line) for line in text.splitlines()]}

    def setup_counts(self, state) -> dict:
        return {"documents": len(state["docs"]), "tokens": sum(len(d) for d in state["docs"])}

    def run(self, state, seed: int):
        from conceptbag import embeddings

        return embeddings.train_sgns(state["docs"], embeddings.SgnsConfig(seed=seed, **self.sgns))

    def describe(self, wv, root) -> dict:
        """Share of trained words whose cosine nearest neighbour shares their topic."""
        import numpy as np

        topics = json.loads((Path(root) / "topics.json").read_text(encoding="utf-8"))
        words = sorted(wv.words, key=wv.words.get)
        unit = wv.matrix / np.linalg.norm(wv.matrix, axis=1, keepdims=True)
        sim = unit @ unit.T
        np.fill_diagonal(sim, -np.inf)
        nearest = sim.argmax(axis=1)
        same = [topics[words[i]] == topics[words[j]] for i, j in enumerate(nearest)]
        return {"nn_topic_rate": float(np.mean(same)), "words": len(words)}

    def check(self, outputs: dict, first: dict) -> list[str]:
        problems = []
        lo, hi = self.accuracy_band
        rate = outputs["nn_topic_rate"]
        if not lo < rate < hi:
            problems.append(f"nn_topic_rate {rate} outside ({lo}, {hi})")
        if rate != first["nn_topic_rate"]:
            problems.append(f"nn_topic_rate {rate} differs from the first repetition's {first['nn_topic_rate']}")
        if not 0 < outputs["words"] <= self.corpus.vocab:
            problems.append(f"{outputs['words']} trained words for a {self.corpus.vocab}-word vocabulary")
        return problems

    def check_setup(self, counts: dict, summary: dict) -> list[str]:
        expected = {"documents": self.corpus.docs, "tokens": self.corpus.docs * self.corpus.tokens_per_doc}
        return [] if counts == expected else [f"set-up loaded {counts}, generator wrote {expected}"]

    def sizes(self) -> dict:
        return {"corpus": asdict(self.corpus), "sgns": self.sgns}


WORKLOADS = {
    w.name: w
    for w in (
        CvWorkload(
            name="concept_cv",
            why=(
                "the paper's nb_max pipeline (1+2-grams, K=300, Lloyd k-means++) on 800 docs x 40 tokens,"
                " 2-fold CV; clustering is most of run_s"
            ),
            corpus=PolaritySpec(
                docs=800,
                tokens_per_doc=40,
                vocab=1000,
                zipf=1.1,
                topic_share=0.5,
                sentiment_rate=0.12,
                flip_rate=0.2,
            ),
            feature_mode="nb_max",
            folds=2,
            accuracy_band=(0.6, 0.95),
        ),
        CvWorkload(
            name="nbsvm_cv",
            why=(
                "BOW NBSVM baseline (1+2-grams) on 640 docs x 200 tokens, 3-fold CV; no clustering or"
                " embedding, so corpus and svm changes show and k-means changes must not"
            ),
            corpus=PolaritySpec(
                docs=640,
                tokens_per_doc=200,
                vocab=5000,
                zipf=1.1,
                topic_share=0.5,
                sentiment_rate=0.06,
                flip_rate=0.3,
            ),
            feature_mode="bow_nb",
            folds=3,
            accuracy_band=(0.6, 0.95),
        ),
        SgnsWorkload(
            name="sgns_train",
            why=(
                "train_sgns on a 24k-token stream (600 words, 30 topics, 40% background); the embeddings"
                " layer as a writer, nothing else runs"
            ),
            corpus=StreamSpec(docs=120, tokens_per_doc=200, vocab=600, zipf=0.5),
            sgns={
                "dim": 50,
                "window": 2,
                "negatives": 5,
                "subsample_threshold": 1.0,  # no subsampling: every seed trains on the same number of pairs
                "learning_rate": 0.1,
                "epochs": 1,
                "min_count": 5,
            },
            accuracy_band=(0.2, 0.95),
        ),
    )
}
