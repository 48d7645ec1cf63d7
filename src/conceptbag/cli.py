"""Command-line entry points for embedding training, clustering (which prints the concepts it fits) and experiment runs."""

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import clustering, features
from .corpus import NGramIndex, build_vocab, check_orders, load_imdb_dataset, load_polarity_dataset, tokenize
from .embeddings import SgnsConfig, embed_all, load_word_vectors, save_word_vectors, train_sgns
from .errors import BadConfig, BadOrders, ConceptBagError, check_int, config_from, numbered_lines
from .evaluation import ExperimentConfig, run_experiment, write_reports

CONFIG_VERSION = 1

_LOADERS = {"polarity": load_polarity_dataset, "imdb": load_imdb_dataset}
_SPLIT_TYPES = ("imdb",)  # the dataset types whose loader gives a predefined train/test split


def _flags_config(cls, args):
    """``cls`` from the flags whose dest is one of its fields; a flag not given keeps its default."""
    names = {f.name for f in fields(cls)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return config_from(cls, given)


def _parse_orders(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(n) for n in text)
    if isinstance(text, str):
        return tuple(int(n) for n in text.split(",") if n)
    raise BadOrders(f"n-gram orders must be a list or a comma-separated string, got {text!r}")


def _orders_arg(text) -> tuple[int, ...]:
    """``--orders`` value, checked when the command line is parsed."""
    try:
        return check_orders(_parse_orders(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_train_embeddings(args) -> int:
    config = _flags_config(SgnsConfig, args)
    corpus_path = Path(args.corpus)
    if not corpus_path.is_file():
        print(f"error: corpus file not found: {corpus_path}", file=sys.stderr)
        return 1
    with numbered_lines(corpus_path) as lines:
        docs = [tokenize(line) for line in lines]
    wv = train_sgns(docs, config)
    save_word_vectors(wv, args.out)
    print(f"wrote {len(wv)} vectors of dim {wv.dim} to {args.out}")
    return 0


def _dataset_split(args):
    """(training documents, word vectors) for a dataset command.

    The training documents are the dataset's predefined training split (IMDB);
    a corpus without one trains on every document.
    """
    wv = load_word_vectors(args.embeddings)
    dataset = _LOADERS[args.dataset_type](args.dataset_root)
    docs = dataset.documents
    if dataset.train_ids is None:
        return docs, wv
    return [docs[i] for i in dataset.train_ids], wv


def cmd_cluster(args) -> int:
    config = _flags_config(clustering.KMeansConfig, args)
    check_int("--top", args.top, minimum=1)
    if args.cluster is not None:
        check_int("--cluster", args.cluster, 0, config.K - 1)
    train, wv = _dataset_split(args)
    vocab = build_vocab(train, NGramIndex(train, args.orders, wv.words))
    table = embed_all(vocab, wv)
    result = clustering.fit(table, config)
    clustering.save_centroids(result.centroids, args.out)
    print(
        f"clustered {len(vocab)} n-grams into K={config.K} "
        f"(inertia {result.inertia:.4f}); centroids -> {args.out}"
    )
    for k in range(config.K) if args.cluster is None else [args.cluster]:
        members = np.flatnonzero(result.labels == k)
        if not len(members):
            print(f"cluster {k}: (empty)")
            continue
        closest = members[np.argsort(result.sq_dists[members], kind="stable")[: args.top]]  # ties in column order
        grams = [" ".join(vocab.entries[t]) for t in closest]
        print(f"cluster {k}: " + " | ".join(grams))
    return 0


def _resolve(base_dir: Path, path) -> Path:
    return Path(path) if Path(path).is_absolute() else (base_dir / path).resolve()


def _parse_experiment(entry: dict, base_dir: Path):
    entry = dict(entry)
    if "dataset_root" not in entry:
        raise ValueError("experiment entry is missing dataset_root")
    dtype = entry.pop("dataset_type", "polarity")
    if dtype not in _LOADERS:
        raise ValueError(f"unknown dataset_type {dtype!r}; expected one of {list(_LOADERS)}")
    entry.setdefault("dataset", dtype)
    root = _resolve(base_dir, entry.pop("dataset_root"))
    if not root.exists():
        raise ValueError(f"dataset_root does not exist: {root}")
    emb = entry.pop("embeddings_path", None)
    if emb is not None:
        emb = _resolve(base_dir, emb)
        if not emb.is_file():
            raise ValueError(f"embeddings_path does not exist: {emb}")
    if "ngram_orders" in entry:
        entry["ngram_orders"] = _parse_orders(entry["ngram_orders"])
    if isinstance(entry.get("kmeans"), dict) and "K" in entry["kmeans"]:
        raise BadConfig('"K" goes at the top of an experiment, not inside "kmeans"')
    config = config_from(ExperimentConfig, entry, "experiment config")
    if config.folds == 0 and dtype not in _SPLIT_TYPES:
        raise ValueError(f"folds 0 runs the dataset's own split, and dataset_type {dtype!r} has none")
    if config.feature_mode in features.CONCEPT_MODES and emb is None:
        raise ValueError(f"feature_mode {config.feature_mode!r} needs an embeddings_path")
    return config, root, dtype, emb


def _read_experiments(config_path: Path):
    """Checked (config, root, dataset type, vectors path) per experiment of a grid file."""
    if not config_path.is_file():
        raise ValueError(f"config file not found: {config_path}")
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {"version", "experiments"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("version") != CONFIG_VERSION:
        raise ValueError(f"config version must be {CONFIG_VERSION}")
    experiments = raw.get("experiments")
    if not experiments:
        raise ValueError("no experiments in config")
    if not isinstance(experiments, list):
        raise ValueError(f"experiments must be a JSON array, got {type(experiments).__name__}")
    for i, entry in enumerate(experiments):
        if not isinstance(entry, dict):
            raise ValueError(f"experiment {i} must be a JSON object, got {type(entry).__name__}")
    return [_parse_experiment(e, config_path.parent) for e in experiments]


def cmd_run(args) -> int:
    try:
        parsed = _read_experiments(Path(args.config))
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.dry_run:
        print(f"config OK: {len(parsed)} experiment(s)")
        return 0

    datasets, vectors = {}, {}
    for _, root, dtype, emb in parsed:
        if (root, dtype) not in datasets:
            datasets[root, dtype] = _LOADERS[dtype](root)
        if emb is not None and emb not in vectors:
            vectors[emb] = load_word_vectors(emb)
    # one cache per (dataset, vectors) input: what it holds is valid for that input only
    caches: dict = {}
    reports = [
        run_experiment(
            config, datasets[root, dtype], vectors.get(emb),
            cache=caches.setdefault((root, dtype, emb), {}),
        )
        for config, root, dtype, emb in parsed
    ]

    out_dir = Path(args.output_dir)
    write_reports(reports, out_dir)
    for rep in reports:
        cfg = rep.config_echo
        orders = "+".join(str(n) for n in cfg.ngram_orders)
        print(f"{cfg.dataset} orders={orders} K={cfg.K} mode={cfg.feature_mode}: "
              f"accuracy {rep.accuracy:.4f}")
    print(f"reports written to {out_dir}")
    return 0


def _add_dataset_args(p):
    p.add_argument("--embeddings", required=True, help="text-format word vectors")
    p.add_argument("--dataset-root", required=True)
    p.add_argument("--dataset-type", default="polarity", choices=list(_LOADERS))
    p.add_argument(
        "--orders", default="1", type=_orders_arg,
        help="comma-separated n-gram orders within 1,2,3, e.g. 1,2",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptbag",
        description="Bag-of-semantic-concepts document classification pipeline",
    )
    parser.add_argument(
        "--log-level", default="WARNING", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="least severe log messages printed to stderr (default WARNING); INFO adds one line per dataset loaded",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-embeddings", help="train toy skip-gram vectors")
    p.add_argument("--corpus", required=True, help="one document per line, tokenized as run tokenizes reviews")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--subsample", type=float, dest="subsample_threshold")
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("cluster", help="build vocab, embed n-grams, run K-means, print nearest n-grams per concept")
    _add_dataset_args(p)
    p.add_argument("--K", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--variant", choices=clustering.VARIANTS)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--init", choices=clustering.INITS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="centroid file: K x m word vectors named c0 ... c<K-1>")
    p.add_argument("--cluster", type=int, default=None, help="print only this concept id (default: all)")
    p.add_argument("--top", type=int, default=8, help="n-grams printed per concept")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("run", help="run a JSON experiment grid, write JSON+CSV reports")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default="reports")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # bare messages on stderr, as Python prints a warning when logging is not configured
    logging.basicConfig(level=args.log_level, format="%(message)s")
    try:
        return args.func(args)
    except ConceptBagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
