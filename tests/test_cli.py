import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conceptbag import cli, clustering, evaluation
from conceptbag.cli import main
from conceptbag.clustering import KMeansConfig, save_centroids
from conceptbag.corpus import NGramIndex, build_vocab, load_imdb_dataset, load_polarity_dataset
from conceptbag.embeddings import SgnsConfig, embed_all, load_word_vectors

POS_WORDS = ["good", "great", "nice", "superb"]
NEG_WORDS = ["bad", "awful", "poor", "dull"]
FILLERS = [f"word{i}" for i in range(12)]


def write_polarity(root, pos_charged, neg_charged, seed=0):
    """Tiny on-disk dataset in the root/{pos,neg}/*.txt layout."""
    rng = np.random.default_rng(seed)
    for side, charged in (("pos", pos_charged), ("neg", neg_charged)):
        d = root / side
        d.mkdir(parents=True)
        for i in range(12):
            toks = [
                str(rng.choice(charged)) if rng.random() < 0.4 else str(rng.choice(FILLERS))
                for _ in range(25)
            ]
            (d / f"{side}{i}.txt").write_text(" ".join(toks), encoding="utf-8")
    return root


def write_vectors(path, pos_center, neg_center):
    """Word vectors covering the fixture vocabulary; fillers sit at 0."""
    rng = np.random.default_rng(1)
    words = POS_WORDS + NEG_WORDS + FILLERS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} 6\n")
        for w in words:
            center = pos_center if w in POS_WORDS else neg_center if w in NEG_WORDS else 0.0
            row = " ".join(repr(float(v)) for v in rng.normal(center, 0.3, size=6))
            fh.write(f"{w} {row}\n")
    return path


@pytest.fixture
def polarity_root(tmp_path):
    return write_polarity(tmp_path / "data", POS_WORDS, NEG_WORDS)


@pytest.fixture
def vectors_path(tmp_path):
    """Sentiment-structured: positive and negative words in separate regions."""
    return write_vectors(tmp_path / "vectors.txt", 2.0, -2.0)


def dataset_flags(polarity_root, vectors_path):
    return [
        "--embeddings", str(vectors_path),
        "--dataset-root", str(polarity_root),
        "--dataset-type", "polarity",
    ]


class TestTrainEmbeddings:
    def test_writes_loadable_vectors(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b a b c\nc a b a b\n" * 10, encoding="utf-8")
        out = tmp_path / "vecs.txt"
        rc = main([
            "train-embeddings", "--corpus", str(corpus), "--out", str(out),
            "--dim", "8", "--epochs", "2", "--min-count", "1", "--seed", "3",
        ])
        assert rc == 0
        wv = load_word_vectors(out)
        assert set(wv.words) == {"a", "b", "c"}
        assert wv.dim == 8
        assert out.read_text().splitlines()[0] == "3 8"

    def test_missing_corpus(self, tmp_path, capsys):
        rc = main([
            "train-embeddings", "--corpus", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "v.txt"),
        ])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_non_utf8_corpus_names_the_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a b c\nd \xff e\n")
        out = tmp_path / "v.txt"
        assert main([
            "train-embeddings", "--corpus", str(corpus), "--out", str(out), "--min-count", "1",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus} line 2: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_documents_split_at_newlines_only(self, tmp_path, monkeypatch):
        def capture(docs, config):
            raise Captured(docs)

        monkeypatch.setattr(cli, "train_sgns", capture)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\u2028c d\r\ne\x0cf\n\ng\n", encoding="utf-8")
        with pytest.raises(Captured) as caught:
            main(["train-embeddings", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt")])
        assert caught.value.args[0] == [["a", "b", "c", "d"], ["e", "f"], [], ["g"]]

    def test_lines_tokenized_as_run_tokenizes_reviews(self, tmp_path, monkeypatch):
        # raw text trains the vectors that run looks up: lowercase words, punctuation
        # apart, "n't" split off; a line of tokens already gives itself back
        def capture(docs, config):
            raise Captured(docs)

        monkeypatch.setattr(cli, "train_sgns", capture)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("Good film. Didn't\ngood film . did n't\n", encoding="utf-8")
        with pytest.raises(Captured) as caught:
            main(["train-embeddings", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt")])
        assert caught.value.args[0] == [["good", "film", ".", "did", "n't"]] * 2

    @pytest.mark.parametrize(
        "flag, value", [("--lr", "nan"), ("--dim", "0"), ("--seed", "-1")]
    )
    def test_bad_hyperparameter_rejected_before_training(self, tmp_path, capsys, flag, value):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c d e\n" * 20, encoding="utf-8")
        out = tmp_path / "v.txt"
        assert main([
            "train-embeddings", "--corpus", str(corpus), "--out", str(out),
            "--min-count", "1", flag, value,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sgns ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_diverged_training_writes_no_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b a c b a a c\nc a b\n" * 3, encoding="utf-8")
        out = tmp_path / "v.txt"
        assert main([
            "train-embeddings", "--corpus", str(corpus), "--out", str(out), "--dim", "5",
            "--window", "2", "--epochs", "3", "--min-count", "1", "--subsample", "1.0",
            "--lr", "0.5", "--seed", "8",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: skip-gram training diverged") and len(err.splitlines()) == 1
        assert not out.exists()


class Captured(Exception):
    """Raised by a stand-in for a stage's solver, carrying the config it was passed."""


class TestFlagConfigs:
    """Each stage command builds its config from its config dataclass: one default per setting."""

    @pytest.fixture
    def commands(self, tmp_path, polarity_root, vectors_path, monkeypatch):
        """Each command's required flags; its solver is replaced by one that raises Captured."""
        def capture(*args, **kwargs):
            raise Captured(args[-1])

        monkeypatch.setattr(cli, "train_sgns", capture)
        monkeypatch.setattr(cli.clustering, "fit", capture)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c\n", encoding="utf-8")
        return {
            "train-embeddings": ["--corpus", str(corpus), "--out", str(tmp_path / "v.txt")],
            "cluster": [*dataset_flags(polarity_root, vectors_path), "--out", str(tmp_path / "c.txt")],
        }

    def config_of(self, argv):
        with pytest.raises(Captured) as caught:
            main(argv)
        return caught.value.args[0]

    def test_required_flags_only_give_the_dataclass_defaults(self, commands):
        for command, expected in (("train-embeddings", SgnsConfig()), ("cluster", KMeansConfig())):
            assert self.config_of([command, *commands[command]]) == expected

    def test_every_flag_sets_its_field(self, commands):
        sgns = self.config_of([
            "train-embeddings", *commands["train-embeddings"], "--dim", "7", "--window", "3",
            "--negatives", "2", "--subsample", "0.001", "--lr", "0.05", "--epochs", "4",
            "--min-count", "2", "--seed", "9",
        ])
        assert sgns == SgnsConfig(dim=7, window=3, negatives=2, subsample_threshold=0.001,
                                  learning_rate=0.05, epochs=4, min_count=2, seed=9)
        kmeans = self.config_of([
            "cluster", *commands["cluster"], "--K", "4", "--iterations", "3", "--variant", "minibatch",
            "--batch-size", "16", "--init", "random_points", "--seed", "7",
        ])
        assert kmeans == KMeansConfig(K=4, iterations=3, variant="minibatch", batch_size=16,
                                      init="random_points", seed=7)
        # no field was left at its default, so each flag above reached its own field
        for config in (sgns, kmeans):
            defaults = type(config)()
            assert all(getattr(config, f) != getattr(defaults, f) for f in vars(defaults))

    @pytest.mark.parametrize(
        "command, seed",
        [("train-embeddings", "-1"), ("cluster", "-1"),
         ("cluster", str(2**63))],  # kmeans seeds are below 2**63
    )
    def test_seed_out_of_range_rejected_before_work(self, commands, monkeypatch, capsys, command, seed):
        monkeypatch.setattr(cli, "numbered_lines", lambda *a: pytest.fail("read the corpus"))
        monkeypatch.setattr(cli, "_dataset_split", lambda *a: pytest.fail("loaded the dataset"))
        assert main([command, *commands[command], "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be an int" in err
        assert len(err.splitlines()) == 1


class TestCluster:
    def test_deterministic_byte_identical(self, tmp_path, polarity_root, vectors_path):
        outs = []
        for name in ("c1.txt", "c2.txt"):
            out = tmp_path / name
            rc = main(
                ["cluster", *dataset_flags(polarity_root, vectors_path),
                 "--K", "4", "--seed", "5", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_text_export(self, tmp_path, polarity_root, vectors_path):
        out = tmp_path / "c.txt"
        rc = main(
            ["cluster", *dataset_flags(polarity_root, vectors_path),
             "--K", "3", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()  # the centroid file is the text export
        assert lines[0] == "3 6"
        assert lines[1].startswith("c0 ")

    def test_minibatch_variant(self, tmp_path, polarity_root, vectors_path):
        out = tmp_path / "c.txt"
        rc = main(
            ["cluster", *dataset_flags(polarity_root, vectors_path),
             "--K", "3", "--variant", "minibatch", "--batch-size", "8",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_fewer_distinct_vectors_than_k(self, tmp_path, polarity_root, capsys):
        # every word has the same vector, so every n-gram row is one point
        words = POS_WORDS + NEG_WORDS + FILLERS
        vectors = tmp_path / "same.txt"
        vectors.write_text(f"{len(words)} 2\n" + "".join(f"{w} 0.5 -1.0\n" for w in words),
                           encoding="utf-8")
        out = tmp_path / "c.txt"
        rc = main(["cluster", *dataset_flags(polarity_root, vectors), "--K", "3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: 1 distinct points for K=3\n"
        assert not out.exists()

    def test_prints_members(self, tmp_path, polarity_root, vectors_path, capsys):
        rc = main(
            ["cluster", *dataset_flags(polarity_root, vectors_path),
             "--K", "3", "--cluster", "0", "--top", "3", "--out", str(tmp_path / "c.txt")]
        )
        assert rc == 0
        summary, *lines = capsys.readouterr().out.splitlines()
        assert summary.startswith("clustered ")
        assert len(lines) == 1 and lines[0].startswith("cluster 0:")
        assert len(lines[0].split(" | ")) <= 3

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    def test_printed_members_are_the_nearest_to_the_written_centroids(
        self, tmp_path, polarity_root, vectors_path, capsys, variant
    ):
        out = tmp_path / "c.txt"
        rc = main(
            ["cluster", *dataset_flags(polarity_root, vectors_path), "--orders", "1,2",
             "--K", "4", "--variant", variant, "--batch-size", "8", "--top", "3", "--out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        wv, dataset = load_word_vectors(vectors_path), load_polarity_dataset(polarity_root)
        vocab = build_vocab(dataset.documents, NGramIndex(dataset.documents, (1, 2), wv.words))
        assignment, sq_dists = clustering.nearest(embed_all(vocab, wv), load_word_vectors(out).matrix)
        want = []
        for k in range(4):
            members = np.flatnonzero(assignment == k)
            assert len(members)
            closest = members[np.argsort(sq_dists[members], kind="stable")[:3]]
            want.append(f"cluster {k}: " + " | ".join(" ".join(vocab.entries[t]) for t in closest))
        assert printed == want

    def test_tied_members_print_in_column_order(self, tmp_path, polarity_root, vectors_path, capsys):
        # "a b" and "b a" are one point, so their squared distances tie exactly; the
        # printed order is nearest first, ties in column order, whatever sort numpy dispatches
        out = tmp_path / "c.txt"
        rc = main(["cluster", *dataset_flags(polarity_root, vectors_path), "--orders", "1,2",
                   "--K", "3", "--top", "1000", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        wv, dataset = load_word_vectors(vectors_path), load_polarity_dataset(polarity_root)
        vocab = build_vocab(dataset.documents, NGramIndex(dataset.documents, (1, 2), wv.words))
        assignment, sq_dists = clustering.nearest(embed_all(vocab, wv), load_word_vectors(out).matrix)
        tied = 0
        for k, line in enumerate(printed):
            members = np.flatnonzero(assignment == k)
            in_order = members[np.lexsort((members, sq_dists[members]))]
            assert line == f"cluster {k}: " + " | ".join(" ".join(vocab.entries[t]) for t in in_order)
            tied += len(members) - len(np.unique(sq_dists[members]))
        assert tied > 0

    @pytest.mark.parametrize("variant", ["lloyd", "minibatch"])
    def test_runs_no_assignment_pass_after_the_fit(
        self, tmp_path, polarity_root, vectors_path, monkeypatch, capsys, variant
    ):
        # the printed members come from the fit's own final pass
        fitted, after = [], []
        real_fit, real_nearest, real_scorer = clustering.fit, clustering.nearest, clustering._scorer

        def fit(*args, **kwargs):
            result = real_fit(*args, **kwargs)
            fitted.append(result)
            return result

        def counted(real):
            return lambda *args, **kwargs: (after.append(real) if fitted else None) or real(*args, **kwargs)

        monkeypatch.setattr(clustering, "fit", fit)
        monkeypatch.setattr(clustering, "nearest", counted(real_nearest))
        monkeypatch.setattr(clustering, "_scorer", counted(real_scorer))
        rc = main(
            ["cluster", *dataset_flags(polarity_root, vectors_path), "--orders", "1,2",
             "--K", "4", "--variant", variant, "--batch-size", "8", "--out", str(tmp_path / "c.txt")]
        )
        assert rc == 0 and len(fitted) == 1 and after == []
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4

    @pytest.mark.parametrize(
        "flags, message",
        [(["--cluster", "20"], "--cluster must be an int in [0, 19], got 20"),
         (["--cluster", "-1"], "--cluster must be an int in [0, 19], got -1"),
         (["--top", "0"], "--top must be an int >= 1, got 0"),
         (["--top", "-3"], "--top must be an int >= 1, got -3")],
    )
    def test_cluster_and_top_out_of_range_rejected_before_work(
        self, tmp_path, polarity_root, vectors_path, monkeypatch, capsys, flags, message
    ):
        out = tmp_path / "c.txt"
        monkeypatch.setattr(cli, "_dataset_split", lambda *a: pytest.fail("loaded the dataset"))
        assert main(["cluster", *dataset_flags(polarity_root, vectors_path),
                     "--K", "20", "--out", str(out), *flags]) == 1
        out_text, err = capsys.readouterr()
        assert (out_text, err) == ("", f"error: {message}\n")
        assert not out.exists()


class TestPipelineChain:
    def test_table_built_only_where_read(
        self, tmp_path, polarity_root, vectors_path, monkeypatch
    ):
        calls = []
        embed_all = cli.embed_all
        for module in (cli, evaluation):  # cluster embeds in the CLI, run in _fold_features
            monkeypatch.setattr(module, "embed_all", lambda *a: calls.append(1) or embed_all(*a))
        assert main(["cluster", *dataset_flags(polarity_root, vectors_path),
                     "--K", "3", "--out", str(tmp_path / "c.txt")]) == 0
        assert len(calls) == 1
        for mode, embeds in (("bow_nb", 0), ("frequency", 2)):  # frequency fits K-means once per fold
            config = tmp_path / f"{mode}.json"
            config.write_text(json.dumps({"version": 1, "experiments": [
                {"dataset_root": str(polarity_root), "embeddings_path": str(vectors_path),
                 "feature_mode": mode, "K": 3, "folds": 2}
            ]}), encoding="utf-8")
            calls.clear()
            assert main(["run", "--config", str(config), "--output-dir", str(tmp_path / mode)]) == 0
            assert len(calls) == embeds

    @pytest.mark.parametrize("orders", ["1,4", "0,1", "x"])
    def test_bad_orders_rejected_when_parsed(
        self, tmp_path, polarity_root, vectors_path, monkeypatch, capsys, orders
    ):
        monkeypatch.setattr(cli, "load_word_vectors", lambda *a: pytest.fail("loaded vectors"))
        with pytest.raises(SystemExit) as exc:
            main(["cluster", *dataset_flags(polarity_root, vectors_path),
                  "--orders", orders, "--K", "3", "--out", str(tmp_path / "c.txt")])
        assert exc.value.code == 2
        assert "--orders" in capsys.readouterr().err


def write_imdb(root):
    """Toy IMDB layout. Its test documents carry a word of each side that no training document
    has, so a fit on them would differ, and two words of the other side, so no mode scores 1.0."""
    write_polarity(root / "train", POS_WORDS[:3], NEG_WORDS[:3], seed=2)
    write_polarity(root / "test", POS_WORDS + NEG_WORDS[:2], NEG_WORDS + POS_WORDS[:2], seed=3)
    return root


class TestHeldOutChain:
    """The stage commands fit on the training split only, as ``run`` with ``"folds": 0`` does."""

    def test_cluster_writes_the_fit_on_the_training_documents(self, tmp_path, vectors_path):
        root = write_imdb(tmp_path / "imdb")
        cents = tmp_path / "c.txt"
        assert main(["cluster", "--embeddings", str(vectors_path), "--dataset-root", str(root),
                     "--dataset-type", "imdb", "--orders", "1,2", "--K", "4", "--out", str(cents)]) == 0
        wv, dataset = load_word_vectors(vectors_path), load_imdb_dataset(root)
        train = [dataset.documents[i] for i in dataset.train_ids]
        vocab = build_vocab(train, NGramIndex(train, (1, 2), wv.words))
        assert len(vocab) > len(wv)  # seeding goes through word products
        result = clustering.fit(embed_all(vocab, wv), KMeansConfig(K=4))
        save_centroids(result.centroids, tmp_path / "fit.txt")
        assert cents.read_bytes() == (tmp_path / "fit.txt").read_bytes()


class TestLogLevel:
    """``--log-level`` configures logging in a fresh interpreter, as the console script runs."""

    def cluster(self, tmp_path, root, vectors_path, *flags, dataset_type="polarity"):
        command = [
            sys.executable, "-m", "conceptbag.cli", *flags, "cluster", "--embeddings", str(vectors_path),
            "--dataset-root", str(root), "--dataset-type", dataset_type, "--K", "2", "--out", str(tmp_path / "c.txt"),
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run(command, capture_output=True, text=True, env=env, check=True)

    def test_info_prints_the_load_line_to_stderr(self, tmp_path, polarity_root, vectors_path):
        default = self.cluster(tmp_path, polarity_root, vectors_path)
        info = self.cluster(tmp_path, polarity_root, vectors_path, "--log-level", "INFO")
        assert default.stderr == ""
        assert info.stdout == default.stdout
        pattern = rf"loaded polarity dataset {re.escape(str(polarity_root))}: 24 documents, 600 tokens in \d+\.\d{{3}} s\n"
        assert re.fullmatch(pattern, info.stderr)

    def test_default_prints_warnings_bare(self, tmp_path, polarity_root, vectors_path):
        header, *rows = vectors_path.read_text(encoding="utf-8").splitlines(keepends=True)
        count, dim = header.split()
        repeated = tmp_path / "repeated.txt"
        repeated.write_text(f"{int(count) + 1} {dim}\n" + "".join(rows + rows[:1]), encoding="utf-8")
        default = self.cluster(tmp_path, polarity_root, repeated)
        word = rows[0].split()[0]
        assert default.stderr == f"duplicate word {word!r} at line {len(rows) + 2}; keeping last\n"


class TestRun:
    def write_config(self, tmp_path, polarity_root, vectors_path, experiments=None, **top):
        if experiments is None:
            experiments = [
                {
                    "dataset": "toy",
                    "dataset_root": str(polarity_root),
                    "dataset_type": "polarity",
                    "embeddings_path": str(vectors_path),
                    "ngram_orders": [1],
                    "K": 4,
                    "feature_mode": "nb_max",
                    "folds": 3,
                    "seed": 11,
                    "kmeans": {"iterations": 5},
                }
            ]
        config = {"version": 1, "experiments": experiments}
        config.update(top)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_grid_writes_reports(self, tmp_path, polarity_root, vectors_path, capsys):
        base = {
            "dataset": "toy",
            "dataset_root": str(polarity_root),
            "dataset_type": "polarity",
            "embeddings_path": str(vectors_path),
            "K": 4,
            "folds": 3,
            "kmeans": {"iterations": 5},
        }
        cfg = self.write_config(
            tmp_path, polarity_root, vectors_path,
            experiments=[
                {**base, "feature_mode": "nb_max"},
                {**base, "feature_mode": "bow_nb"},
            ],
        )
        out_dir = tmp_path / "reports"
        rc = main(["run", "--config", str(cfg), "--output-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "report_000.json").exists()
        assert (out_dir / "report_001.json").exists()
        assert len((out_dir / "results.csv").read_text().strip().splitlines()) == 3
        assert "accuracy" in capsys.readouterr().out

    def test_dry_run(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path)
        rc = main(["run", "--config", str(cfg), "--dry-run"])
        assert rc == 0
        assert "config OK" in capsys.readouterr().out
        assert not (tmp_path / "reports").exists()

    def run_reports(self, tmp_path, polarity_root, vectors_path, experiments, name):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments=experiments)
        out_dir = tmp_path / name
        assert main(["run", "--config", str(cfg), "--output-dir", str(out_dir)]) == 0
        return [
            json.loads((out_dir / f"report_{i:03d}.json").read_text())
            for i in range(len(experiments))
        ]

    def test_cache_keeps_word_vectors_apart(self, tmp_path, polarity_root, vectors_path):
        # vectors that put positive and negative words in one region give
        # other concepts, so a grid must not reuse the first experiment's
        mixed = write_vectors(tmp_path / "mixed.txt", 2.0, 2.0)
        base = {
            "dataset_root": str(polarity_root),
            "K": 4,
            "feature_mode": "frequency",
            "folds": 3,
            "kmeans": {"iterations": 5},
        }
        first = {**base, "embeddings_path": str(vectors_path)}
        second = {**base, "embeddings_path": str(mixed)}
        grid = self.run_reports(tmp_path, polarity_root, vectors_path, [first, second], "grid")
        alone = self.run_reports(tmp_path, polarity_root, vectors_path, [second], "alone")
        assert grid[1]["per_fold"] == alone[0]["per_fold"]
        assert grid[0]["per_fold"] != grid[1]["per_fold"]

    def test_cache_keeps_dataset_roots_apart(self, tmp_path, polarity_root, vectors_path):
        # same file names, so the same document ids, under the default name
        noise = write_polarity(tmp_path / "noise", POS_WORDS + NEG_WORDS, POS_WORDS + NEG_WORDS, seed=1)
        base = {"feature_mode": "bow_nb", "folds": 3}
        first = {**base, "dataset_root": str(polarity_root)}
        second = {**base, "dataset_root": str(noise)}
        grid = self.run_reports(tmp_path, polarity_root, vectors_path, [first, second], "grid")
        alone = self.run_reports(tmp_path, polarity_root, vectors_path, [second], "alone")
        assert grid[1]["per_fold"] == alone[0]["per_fold"]
        assert grid[0]["per_fold"] != grid[1]["per_fold"]

    def test_echoed_kmeans_K_is_the_K_that_ran(
        self, tmp_path, polarity_root, vectors_path, monkeypatch
    ):
        from conceptbag import clustering

        ran = []
        original = clustering.kmeans_fit

        def recording(points, config):
            ran.append(config.K)
            return original(points, config)

        monkeypatch.setattr(clustering, "kmeans_fit", recording)
        experiment = {
            "dataset_root": str(polarity_root),
            "embeddings_path": str(vectors_path),
            "K": 3,
            "folds": 2,
            "kmeans": {"iterations": 2},  # a "K" here is rejected (test_bad_value_types_rejected_before_work)
        }
        (report,) = self.run_reports(tmp_path, polarity_root, vectors_path, [experiment], "out")
        assert ran == [3, 3]
        assert report["config_echo"]["kmeans"]["K"] == 3

    @pytest.mark.parametrize(
        "bad, message",
        [({"feature_mode": "nbmax"}, "feature_mode"), ({"kmeans": {"variant": "minibach"}}, "variant")],
    )
    def test_bad_mode_or_variant_rejected_before_work(
        self, tmp_path, polarity_root, vectors_path, capsys, bad, message
    ):
        experiment = {
            "dataset_root": str(polarity_root),
            "embeddings_path": str(vectors_path),
            "K": 3,
            "folds": 2,
            **bad,
        }
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments=[experiment])
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "bad, message",
        [({"K": "1"}, "K must be an int"), ({"folds": "2"}, "folds must be an int"),
         ({"svm": {"C": -1}}, "svm C must be"), ({"svm": {"C": "1"}}, "svm C must be"),
         ({"kmeans": {"iterations": "5"}}, "kmeans iterations must be an int"),
         ({"kmeans": {"seed": "0"}}, "kmeans seed must be an int"),
         ({"kmeans": {"init": "kmeans++"}}, "unknown K-means init"),
         ({"ngram_orders": 1}, "n-gram orders must be a list"),
         ({"kmeans": {"K": 50}}, 'not inside "kmeans"'),
         ({"kmeans": {"bogus": 1}}, "unknown kmeans keys: ['bogus']"),
         ({"kmeans": 5}, '"kmeans" must be a JSON object, got int'),
         ({"kmeans": "K"}, '"kmeans" must be a JSON object, got str'),
         ({"svm": []}, '"svm" must be a JSON object, got list'),
         ({"seed": -1}, "seed must be an int >= 0, got -1"),
         ({"kmeans": {"seed": -1}}, "kmeans seed must be an int in [0, 9223372036854775807]"),
         ({"kmeans": {"seed": 2**63}}, "kmeans seed must be an int in [0, 9223372036854775807]"),
         ({"folds": 1}, "folds must be 0 (the dataset's own split) or >= 2, got 1"),
         ({"folds": -2}, "folds must be 0 (the dataset's own split) or >= 2, got -2"),
         ({"folds": 0}, "folds 0 runs the dataset's own split, and dataset_type 'polarity' has none")],
    )
    def test_bad_value_types_rejected_before_work(
        self, tmp_path, polarity_root, vectors_path, capsys, bad, message
    ):
        experiment = {
            "dataset_root": str(polarity_root),
            "embeddings_path": str(vectors_path),
            "K": 3,
            "folds": 2,
            **bad,
        }
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments=[experiment])
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()

    def test_orders_outside_one_to_three_rejected(
        self, tmp_path, polarity_root, vectors_path, capsys
    ):
        experiment = {"dataset_root": str(polarity_root), "feature_mode": "bow_nb",
                      "ngram_orders": [1, 4]}
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments=[experiment])
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n-gram orders") and len(err.splitlines()) == 1

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('[{"version": 1}]', encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object, got list\n"

    def test_experiment_not_an_object(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments=["x"])
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        assert capsys.readouterr().err == "error: experiment 0 must be a JSON object, got str\n"

    def test_experiments_not_an_array(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments={"a": 1})
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        assert capsys.readouterr().err == "error: experiments must be a JSON array, got dict\n"

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_wrong_version(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, version=2)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "version" in capsys.readouterr().err

    def test_empty_experiments(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, experiments=[])
        assert main(["run", "--config", str(cfg)]) == 1
        assert "no experiments" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(tmp_path, polarity_root, vectors_path, extra=1)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_experiment_key(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(
            tmp_path, polarity_root, vectors_path,
            experiments=[{"dataset_root": str(polarity_root), "bogus": True}],
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "unknown experiment config keys" in capsys.readouterr().err

    def test_cluster_on_all_rejected_by_name(self, tmp_path, polarity_root, vectors_path, capsys):
        # vocabulary and K-means are fitted on the training documents only; no key fits them on all
        cfg = self.write_config(
            tmp_path, polarity_root, vectors_path,
            experiments=[{"dataset_root": str(polarity_root), "feature_mode": "bow_nb", "cluster_on_all": False}],
        )
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        assert capsys.readouterr().err == "error: unknown experiment config keys: ['cluster_on_all']\n"

    def test_missing_dataset_root(self, tmp_path, polarity_root, vectors_path, capsys):
        cfg = self.write_config(
            tmp_path, polarity_root, vectors_path,
            experiments=[{"dataset_root": str(tmp_path / "absent"),
                          "feature_mode": "bow_nb"}],
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "dataset_root" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nb_max", "frequency"])
    def test_concept_mode_without_vectors_rejected(
        self, tmp_path, polarity_root, vectors_path, capsys, mode
    ):
        cfg = self.write_config(
            tmp_path, polarity_root, vectors_path,
            experiments=[{"dataset_root": str(polarity_root), "feature_mode": mode, "folds": 3}],
        )
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: feature_mode {mode!r} needs an embeddings_path\n"
        out_dir = tmp_path / "reports"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out_dir)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_imdb_run_reports_imdb(self, tmp_path, polarity_root, vectors_path, capsys):
        root = tmp_path / "imdb"
        write_polarity(root / "train", POS_WORDS, NEG_WORDS, seed=2)
        write_polarity(root / "test", POS_WORDS, NEG_WORDS, seed=3)
        base = {"dataset_root": str(root), "dataset_type": "imdb", "feature_mode": "bow_nb",
                "folds": 0}
        cfg = self.write_config(tmp_path, polarity_root, vectors_path,
                                experiments=[base, {**base, "dataset": "toy"}])
        out_dir = tmp_path / "reports"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out[:2]] == ["imdb", "toy"]
        rows = (out_dir / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["imdb", "toy"]
        echoes = [json.loads((out_dir / f"report_{i:03d}.json").read_text())["config_echo"]
                  for i in range(2)]
        assert [e["dataset"] for e in echoes] == ["imdb", "toy"]


class TestErrorHandling:
    def test_library_error_becomes_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "vectors.txt"
        bad.write_text("2 3\nw 1.0 2.0 3.0\nv 1.0 2.0\n", encoding="utf-8")
        data = tmp_path / "d"
        (data / "pos").mkdir(parents=True)
        (data / "neg").mkdir(parents=True)
        (data / "pos" / "a.txt").write_text("w", encoding="utf-8")
        (data / "neg" / "b.txt").write_text("v", encoding="utf-8")
        rc = main(
            ["cluster", "--embeddings", str(bad), "--dataset-root", str(data),
             "--K", "1", "--out", str(tmp_path / "c.txt")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cluster", "run"])
    @pytest.mark.parametrize(
        "row", [b"v 1.0 \xff 2.0\n", b"v 1.0 x\n", b"v 1.0 nan\n", b""],
        ids=["not-utf8", "not-a-number", "nan", "truncated"],  # truncated: the header gives 2 rows
    )
    def test_malformed_vectors_file(self, tmp_path, polarity_root, capsys, command, row):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"2 2\nw 1.0 2.0\n" + row)
        if command == "run":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"version": 1, "experiments": [
                {"dataset_root": str(polarity_root), "embeddings_path": str(vectors), "folds": 2}
            ]}), encoding="utf-8")
            argv = ["run", "--config", str(config), "--output-dir", str(tmp_path / "r")]
        else:
            argv = [command, *dataset_flags(polarity_root, vectors), "--out", str(tmp_path / "out.txt")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vectors} line 3: ") and len(err.splitlines()) == 1
