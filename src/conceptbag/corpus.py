"""Dataset loading, tokenization, n-gram extraction and count matrices."""

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptyVocabulary, MissingDirectory, UnreadableFile

logger = logging.getLogger(__name__)

# One-pass token scan: word stems before "n't" ("didn't" -> "did" + "n't"),
# apostrophe clitics ("it's" -> "it" + "'s"), plain words, then any other
# non-space character as its own token.
_DIGIT_RUN = re.compile(r"\d+")
_TOKEN = re.compile(r"[a-z0]+(?=n't\b)|n't|'[a-z0]+|[a-z0]+|\S")


def tokenize(raw_text: str) -> list[str]:
    """Turn raw text into lowercase tokens.

    Digit runs collapse to the single token "0", punctuation characters
    become separate tokens, and apostrophe clitics are split off
    ("didn't" -> ["did", "n't"]). Empty input yields an empty list.
    """
    text = raw_text.lower()
    text = _DIGIT_RUN.sub("0", text)
    return _TOKEN.findall(text)


@dataclass(frozen=True)
class Document:
    """A tokenized review with a sentiment label (+1, -1, or None)."""

    id: str
    label: Optional[int]
    tokens: tuple[str, ...]


@dataclass
class Dataset:
    """A named collection of documents, optionally with a train/test split.

    ``train_ids`` / ``test_ids`` index into ``documents``; both are None for
    corpora evaluated by cross-validation. ``unlabeled_ids`` points at
    documents with label None.
    """

    name: str
    documents: list[Document]
    train_ids: Optional[list[int]] = None
    test_ids: Optional[list[int]] = None
    unlabeled_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate document ids in dataset {self.name!r}")

    @property
    def labels(self) -> np.ndarray:
        """Label vector with 0 for unlabeled documents."""
        return np.array([d.label or 0 for d in self.documents], dtype=np.int64)

    def labeled_indices(self) -> list[int]:
        return [i for i, d in enumerate(self.documents) if d.label is not None]


NGram = tuple[str, ...]


def extract_ngrams(
    tokens: Sequence[str],
    orders: Iterable[int],
    dictionary,
) -> Counter:
    """Count every contiguous n-gram whose words are all in ``dictionary``.

    ``orders`` is a subset of {1, 2, 3}. Returns a Counter keyed by word
    tuples; windows never cross the token sequence boundary.
    """
    orders = sorted(set(orders))
    if any(n < 1 or n > 3 for n in orders):
        raise ValueError(f"orders must be within {{1,2,3}}, got {orders}")
    return Counter(iter_ngrams(tokens, orders, dictionary))


class NGramVocabulary:
    """Bijection between n-grams and column indices, in first-occurrence order.

    ``words`` is the set of words that occur in any entry.
    """

    def __init__(self, ngrams: Sequence[NGram], orders: Iterable[int]):
        self.entries: list[NGram] = list(ngrams)
        self.index: dict[NGram, int] = {g: i for i, g in enumerate(self.entries)}
        self.orders = frozenset(orders)
        self.words = frozenset(w for g in self.entries for w in g)
        if len(self.index) != len(self.entries):
            raise ValueError("duplicate n-grams passed to NGramVocabulary")

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, ngram: NGram) -> bool:
        return ngram in self.index


def build_vocab(documents: Iterable[Document], orders, dictionary) -> NGramVocabulary:
    """Collect the distinct in-dictionary n-grams of ``documents``.

    Indices follow first occurrence across documents in iteration order.
    Raises EmptyVocabulary when nothing survives filtering.
    """
    seen: dict[NGram, None] = {}
    orders = sorted(set(orders))
    for doc in documents:
        for gram in iter_ngrams(doc.tokens, orders, dictionary):
            seen.setdefault(gram, None)
    if not seen:
        raise EmptyVocabulary("no in-dictionary n-gram found in the corpus")
    return NGramVocabulary(list(seen), orders)


def iter_ngrams(tokens: Sequence[str], orders, dictionary):
    """Yield in-dictionary n-gram windows in corpus order, with repeats."""
    in_dict = [t in dictionary for t in tokens]
    for n in orders:
        for start in range(len(tokens) - n + 1):
            if all(in_dict[start : start + n]):
                yield tuple(tokens[start : start + n])


def count_vectors(documents: Sequence[Document], vocab: NGramVocabulary) -> sp.csr_matrix:
    """Sparse document-by-n-gram occurrence counts over ``vocab``.

    Row i counts the vocabulary n-grams of documents[i]; out-of-vocabulary
    n-grams are ignored. The vocabulary's word set doubles as the dictionary
    filter so counting stays consistent with build_vocab.
    """
    indptr = [0]
    indices: list[int] = []
    data: list[int] = []
    orders = sorted(vocab.orders)
    for doc in documents:
        hits = (vocab.index.get(g) for g in iter_ngrams(doc.tokens, orders, vocab.words))
        row = Counter(idx for idx in hits if idx is not None)
        for idx in sorted(row):
            indices.append(idx)
            data.append(row[idx])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), np.array(indices, dtype=np.int64), indptr),
        shape=(len(documents), len(vocab)),
    )


def _read_review(path: Path) -> tuple[str, ...]:
    try:
        raw = path.read_bytes().decode("utf-8", errors="ignore")
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc
    return tuple(tokenize(raw))


def _load_dir(root: Path, subdir: str, label, prefix: str) -> list[Document]:
    folder = root / subdir
    if not folder.is_dir():
        raise MissingDirectory(f"expected directory {folder}")
    docs = []
    for path in sorted(folder.iterdir()):
        if path.is_file():
            docs.append(Document(id=f"{prefix}/{path.name}", label=label, tokens=_read_review(path)))
    return docs


def load_polarity_dataset(root_path) -> Dataset:
    """Load the Pang & Lee polarity layout root/{pos,neg}/*.txt."""
    root = Path(root_path)
    if not root.is_dir():
        raise MissingDirectory(f"expected directory {root}")
    docs = _load_dir(root, "pos", +1, "pos") + _load_dir(root, "neg", -1, "neg")
    return Dataset(name="polarity", documents=docs)


def load_imdb_dataset(root_path) -> Dataset:
    """Load the Maas et al. layout root/{train/{pos,neg,unsup},test/{pos,neg}}."""
    root = Path(root_path)
    if not root.is_dir():
        raise MissingDirectory(f"expected directory {root}")
    docs: list[Document] = []
    train_ids: list[int] = []
    test_ids: list[int] = []
    unlabeled_ids: list[int] = []
    for split, sub, label, bucket in [
        ("train", "train/pos", +1, train_ids),
        ("train", "train/neg", -1, train_ids),
        ("test", "test/pos", +1, test_ids),
        ("test", "test/neg", -1, test_ids),
    ]:
        loaded = _load_dir(root, sub, label, sub)
        bucket.extend(range(len(docs), len(docs) + len(loaded)))
        docs.extend(loaded)
    unsup = root / "train" / "unsup"
    if unsup.is_dir():
        loaded = _load_dir(root, "train/unsup", None, "train/unsup")
        unlabeled_ids.extend(range(len(docs), len(docs) + len(loaded)))
        docs.extend(loaded)
    else:
        logger.warning("no train/unsup directory under %s; unlabeled partition empty", root)
    return Dataset(
        name="imdb",
        documents=docs,
        train_ids=train_ids,
        test_ids=test_ids,
        unlabeled_ids=unlabeled_ids,
    )
