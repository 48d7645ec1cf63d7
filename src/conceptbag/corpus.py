"""Dataset loading, tokenization, n-gram extraction and count matrices."""

import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadOrders,
    EmptyVocabulary,
    MissingDirectory,
    NGramKeyOverflow,
    UnknownDocument,
    UnreadableFile,
)

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
# documents are counted in chunks of about this many tokens, so that the
# window arrays of count_vectors stay small whatever the corpus size
_CHUNK_TOKENS = 1 << 14


def check_orders(orders) -> tuple[int, ...]:
    """``orders`` sorted; raises BadOrders unless it is a non-empty subset of {1, 2, 3}."""
    orders = set(orders)
    if not orders or not orders <= {1, 2, 3}:
        raise BadOrders(f"n-gram orders must be a non-empty subset of {{1, 2, 3}}, got {list(orders)}")
    return tuple(sorted(int(n) for n in orders))


# Integer n-gram keys. Words are numbered from 0; an n-gram's key is the
# base-B number whose digits are its words' ids plus one, B = words + 1, so
# keys of different orders never collide and a digit 0 marks no word.


def _key_base(n_words: int, orders) -> int:
    base = n_words + 1
    if base ** max(orders) > np.iinfo(np.int64).max:
        raise NGramKeyOverflow(
            f"{n_words} distinct words: keys of {max(orders)}-grams do not fit in int64"
        )
    return base


def _token_ids(token_lists, word_ids: dict, dictionary=None) -> tuple[np.ndarray, np.ndarray]:
    """Flat int32 word ids of the token lists, each list followed by a -1.

    A token outside ``word_ids`` gets -1. With a ``dictionary``, its words
    that ``word_ids`` lacks are first numbered in order of first occurrence.
    Returns the ids and the position of each list's first token.
    """
    def tokens():
        return chain.from_iterable(chain(t, (None,)) for t in token_lists)

    if dictionary is not None:
        for t in dict.fromkeys(tokens()):
            if t is not None and t not in word_ids and t in dictionary:
                word_ids[t] = len(word_ids)
    spans = np.array([len(t) + 1 for t in token_lists], dtype=np.int64)
    ids = np.fromiter(map(word_ids.get, tokens(), repeat(-1)), dtype=np.int32, count=spans.sum())
    return ids, np.cumsum(spans) - spans


def _windows(ids: np.ndarray, n: int, base: int) -> np.ndarray:
    """Key of the n-window starting at each position of ``ids``, or 0.

    A window gets 0 when it holds a -1 or runs past the end of ``ids``.
    ``_token_ids`` ends every document with a -1, so every window that
    crosses a document end gets 0 too; the keys of the other windows are
    positive. Keys are int64 whatever the dtype of ``ids``, which
    ``_key_base`` checks them against.
    """
    span = max(len(ids) - n + 1, 0)
    keys = np.zeros(len(ids), dtype=np.int64)
    head = keys[:span]
    head += ids[:span]
    head += 1
    outside = ids[:span] < 0
    for j in range(1, n):
        head *= base
        head += ids[j : j + span]
        head += 1
        outside |= ids[j : j + span] < 0
    head[outside] = 0
    return keys


def _decode(keys: np.ndarray, base: int, width: int) -> np.ndarray:
    """len(keys) x width word ids of each key, left-aligned, padded with -1."""
    out = np.full((len(keys), width), -1, dtype=np.int64)
    lengths = np.ones(len(keys), dtype=np.int64)
    for j in range(1, width):
        lengths += keys >= base**j
    for n in range(1, width + 1):
        rows = np.flatnonzero(lengths == n)
        rest = keys[rows]
        for j in reversed(range(n)):
            rest, digit = np.divmod(rest, base)
            out[rows, j] = digit - 1
    return out


class NGramVocabulary:
    """Bijection between n-grams and column indices, in first-occurrence order.

    The vocabulary numbers words (``word_ids``, ids 0, 1, ... in insertion
    order) and stores each n-gram once, as its integer key: ``keys`` is
    sorted and ``columns[i]`` is the column of the n-gram whose key is
    ``keys[i]``. ``entries``, the n-grams by column, is decoded from the
    keys when first read. Every n-gram's length must be one of ``orders``.
    """

    def __init__(self, ngrams: Sequence[NGram], orders: Iterable[int]):
        entries = list(ngrams)
        orders = check_orders(orders)
        lengths = np.fromiter(map(len, entries), dtype=np.int64, count=len(entries))
        outside = np.flatnonzero(~np.isin(lengths, orders))
        if len(outside):
            gram = entries[outside[0]]
            raise BadOrders(f"n-gram {gram!r} has an order outside {list(orders)}")
        words = dict.fromkeys(chain.from_iterable(entries))
        word_ids = dict(zip(words, range(len(words))))
        # each entry is a token list of its own, so its key is its one full window
        ids, starts = _token_ids(entries, word_ids)
        base = _key_base(len(word_ids), orders)
        keys = np.empty(len(entries), dtype=np.int64)
        for n in orders:
            members = np.flatnonzero(lengths == n)
            keys[members] = _windows(ids, n, base)[starts[members]]
        columns = np.argsort(keys, kind="stable")
        keys = keys[columns]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate n-grams passed to NGramVocabulary")
        self._set(keys, columns, word_ids, orders)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, columns: np.ndarray, word_ids: dict, orders) -> "NGramVocabulary":
        """The vocabulary of the sorted distinct ``keys``; ``columns[i]`` is the column of ``keys[i]``."""
        vocab = cls.__new__(cls)
        vocab._set(keys, columns, word_ids, orders)
        return vocab

    def _set(self, keys, columns, word_ids, orders):
        self.orders = frozenset(orders)
        self.word_ids: dict[str, int] = word_ids
        self.keys = keys
        self.columns = columns

    def word_id_matrix(self) -> np.ndarray:
        """len(self) x max(orders) word ids; row t is entries[t]'s, padded with -1."""
        keys = np.empty_like(self.keys)
        keys[self.columns] = self.keys
        return _decode(keys, _key_base(len(self.word_ids), self.orders), max(self.orders))

    @cached_property
    def entries(self) -> list[NGram]:
        ids = self.word_id_matrix()
        words = np.array(list(self.word_ids), dtype=object)
        lengths = np.count_nonzero(ids >= 0, axis=1)
        entries = np.empty(len(ids), dtype=object)
        for n in self.orders:
            members = np.flatnonzero(lengths == n)
            grams = zip(*(words[ids[members, j]] for j in range(n)))
            entries[members] = np.fromiter(grams, dtype=object, count=len(members))
        return entries.tolist()

    def __len__(self) -> int:
        return len(self.keys)


class NGramIndex:
    """Every n-gram window of a set of documents, as a number, at every token position.

    Words of ``dictionary`` are numbered by first occurrence across
    ``documents`` (``word_ids``); with ``word_ids`` given in its place, words
    keep those ids and no other word is numbered. ``keys`` are the distinct
    window keys, sorted, and ``ngram_ids[i, p]`` is the number in ``keys`` of
    the ``orders[i]``-window at flat position p: id 0, key 0, when the window
    is not an in-dictionary n-gram of one document. The index holds no
    statistic: what is fitted on some of its documents reads nothing of the
    others, and ``build_vocab`` and ``count_vectors`` select the ids of theirs.
    """

    def __init__(self, documents: Iterable[Document], orders, dictionary, *, word_ids=None):
        documents = list(documents)
        self.orders = check_orders(orders)
        self.dictionary = dictionary
        self.word_ids: dict[str, int] = {} if word_ids is None else word_ids
        ids, starts = _token_ids([d.tokens for d in documents], self.word_ids, dictionary)
        base = _key_base(len(self.word_ids), self.orders)
        # keys of a higher order are larger, so each order's distinct keys extend the sorted
        # keys; every order has a key-0 window (at the last document's closing -1), so its
        # distinct[0] is 0, and that stays id 0
        self.keys = np.zeros(min(len(ids), 1), dtype=np.int64)
        self.ngram_ids = np.empty((len(self.orders), len(ids)), dtype=np.int32)
        for row, n in zip(self.ngram_ids, self.orders):
            distinct, inverse = np.unique(_windows(ids, n, base), return_inverse=True)
            row[:] = np.where(inverse > 0, inverse + (len(self.keys) - 1), 0)
            self.keys = np.concatenate([self.keys, distinct[1:]])
        self.document_ids = tuple(d.id for d in documents)
        self._starts = {(d.id, d.tokens): start for d, start in zip(documents, starts.tolist())}

    def select(self, documents: Sequence[Document], orders) -> tuple[np.ndarray, np.ndarray]:
        """The n-gram ids of ``documents``' windows of each of ``orders``, and each one's document.

        The ids run by document, then order, then position, one per token and
        order, and the second array holds the index into ``documents`` of each.
        Raises UnknownDocument for a document the index does not hold, an
        indexed id with other tokens included, and BadOrders for an order it
        has no windows of.
        """
        if not set(orders) <= set(self.orders):
            raise BadOrders(f"n-gram orders {list(orders)} are not within the index's {list(self.orders)}")
        starts = np.empty(len(documents), dtype=np.int64)
        for i, doc in enumerate(documents):
            start = self._starts.get((doc.id, doc.tokens))
            if start is None:
                raise UnknownDocument(f"document {doc.id!r} is not one the n-gram index was built over")
            starts[i] = start
        lengths = np.array([len(d.tokens) for d in documents], dtype=np.int64)
        # one run of positions per (document, order), at that order's row of ngram_ids
        rows = np.array([self.orders.index(n) for n in orders], dtype=np.int64)
        run_starts = (starts[:, None] + rows * self.ngram_ids.shape[1]).ravel()
        run_lengths = np.repeat(lengths, len(rows))
        shift = np.repeat(run_starts - (np.cumsum(run_lengths) - run_lengths), run_lengths)
        positions = np.arange(len(shift)) + shift
        doc_of = np.repeat(np.arange(len(documents)), len(rows) * lengths)
        return self.ngram_ids.ravel()[positions], doc_of


def build_vocab(documents: Iterable[Document], orders, dictionary, index=None) -> NGramVocabulary:
    """Collect the distinct in-dictionary n-grams of ``documents``.

    Indices follow first occurrence across documents in iteration order, and
    within a document by order, then position. ``orders`` is a non-empty
    subset of {1, 2, 3}. Raises EmptyVocabulary when nothing survives
    filtering. ``index``, an NGramIndex built with ``dictionary`` over these
    documents and maybe others, is read in place of one over ``documents``
    alone; the vocabulary numbers its words as the index does.
    """
    orders = check_orders(orders)
    documents = list(documents)
    if index is None:
        index = NGramIndex(documents, orders, dictionary)
    elif index.dictionary is not dictionary and index.dictionary != dictionary:
        raise ValueError("the n-gram index was built with another dictionary")
    ids, _ = index.select(documents, orders)
    # select lists ids in column order, so an n-gram's column ranks its first place there
    first = np.full(len(index.keys), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    seen = np.flatnonzero(first < len(ids))
    seen = seen[index.keys[seen] > 0]
    if not len(seen):
        raise EmptyVocabulary("no in-dictionary n-gram found in the corpus")
    columns = np.empty(len(seen), dtype=np.int64)
    columns[np.argsort(first[seen])] = np.arange(len(seen))
    return NGramVocabulary._from_keys(index.keys[seen], columns, index.word_ids, orders)


def _chunks(documents: Sequence[Document]):
    """Consecutive slices of ``documents`` holding about _CHUNK_TOKENS tokens each."""
    lo, size = 0, 0
    for i, doc in enumerate(documents):
        size += len(doc.tokens) + 1
        if size >= _CHUNK_TOKENS:
            yield lo, documents[lo : i + 1]
            lo, size = i + 1, 0
    if lo < len(documents):
        yield lo, documents[lo:]


def count_vectors(documents: Sequence[Document], vocab: NGramVocabulary, index=None) -> sp.csr_matrix:
    """Sparse document-by-n-gram occurrence counts over ``vocab``.

    Row i counts the vocabulary n-grams of documents[i]; out-of-vocabulary
    n-grams are ignored. Indices are sorted within each row and the data is
    int64. ``index``, an NGramIndex that numbers words as ``vocab`` does (the
    one ``vocab`` was built from) over these documents and maybe others, is
    read in place of one over ``documents`` alone that numbers words by
    ``vocab.word_ids``.
    """
    if index is None:
        index = NGramIndex(documents, vocab.orders, None, word_ids=vocab.word_ids)
    elif index.word_ids is not vocab.word_ids and index.word_ids != vocab.word_ids:
        raise ValueError("the vocabulary does not number its words as the n-gram index does")
    orders = sorted(vocab.orders)
    n_cols = len(vocab)
    # the column of each n-gram id of the index, or -1
    at = np.searchsorted(index.keys, vocab.keys)
    hit = np.flatnonzero(at < len(index.keys))
    hit = hit[index.keys[at[hit]] == vocab.keys[hit]]
    column_of = np.full(len(index.keys), -1, dtype=np.int64)
    column_of[at[hit]] = vocab.columns[hit]
    row_nnz = np.zeros(len(documents) + 1, dtype=np.int64)
    indices, data = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo, chunk in _chunks(documents):
        ids, rows = index.select(chunk, orders)
        columns = column_of[ids]
        hit = columns >= 0
        cells, counts = np.unique(rows[hit] * n_cols + columns[hit], return_counts=True)
        rows = cells // n_cols
        row_nnz[lo + 1 : lo + 1 + len(chunk)] = np.bincount(rows, minlength=len(chunk))
        indices.append(cells - rows * n_cols)
        data.append(counts.astype(np.int64, copy=False))
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.cumsum(row_nnz)),
        shape=(len(documents), n_cols),
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
