"""Dataset loading, tokenization, n-gram extraction and count matrices."""

import logging
import os
import re
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadLabel,
    BadOrders,
    EmptyVocabulary,
    MissingDirectory,
    NGramKeyOverflow,
    UnknownDocument,
    UnreadableFile,
)

logger = logging.getLogger(__name__)

# Token grammar, applied to each whitespace-separated chunk of lowercased text
# whose digit runs are "0": word stems before "n't" ("didn't" -> "did" +
# "n't"), apostrophe clitics ("it's" -> "it" + "'s"), plain words, then any
# other non-space character as its own token.
_DIGIT_RUN = re.compile(r"\d+")
_TOKEN = re.compile(r"[a-z0]+(?=n't\b)|n't|'[a-z0]+|[a-z0]+|\S")


def tokenize(raw_text: str) -> list[str]:
    """Turn raw text into lowercase tokens.

    A token is a run of ASCII letters and decimal digits, a word stem
    before "n't" ("didn't" -> ["did", "n't"]), "n't", an apostrophe clitic
    ("it's" -> ["it", "'s"]), or any other non-space character alone. Every
    run of decimal digits becomes "0" inside its token ("b2b" -> ["b0b"],
    "1984" -> ["0"], "7/10" -> ["0", "/", "0"]). Empty input yields an empty
    list.

    No token crosses whitespace (``str.split`` and the pattern's ``\\s``
    agree on every code point), so each chunk is tokenized alone: a chunk of
    ASCII letters is one token as it stands, and a chunk of one character is
    itself or, if a decimal digit, "0"; only the other chunks go through the
    pattern.
    """
    tokens = []
    for chunk in raw_text.lower().split():
        if chunk.isalpha() and chunk.isascii():
            tokens.append(chunk)
        elif len(chunk) == 1:
            tokens.append("0" if chunk.isdecimal() else chunk)
        else:
            tokens += _TOKEN.findall(_DIGIT_RUN.sub("0", chunk))
    return tokens


@dataclass(frozen=True)
class Document:
    """A tokenized review with a sentiment label.

    A ``Dataset`` holds labels of +1 or -1 only; documents given to an
    ``NGramIndex`` directly need none, and carry None.
    """

    id: str
    label: Optional[int]
    tokens: tuple[str, ...]


@dataclass
class Dataset:
    """A named collection of documents, optionally with a train/test split.

    ``train_ids`` / ``test_ids`` index into ``documents``; both are None for
    corpora evaluated by cross-validation. Every document is labeled +1 or
    -1: anything else raises BadLabel, naming the first such document.
    """

    name: str
    documents: list[Document]
    train_ids: Optional[list[int]] = None
    test_ids: Optional[list[int]] = None

    def __post_init__(self):
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate document ids in dataset {self.name!r}")
        for d in self.documents:
            if d.label not in (1, -1):
                raise BadLabel(
                    f"document {d.id!r} of dataset {self.name!r} has label {d.label!r}, not +1 or -1"
                )

    @property
    def labels(self) -> np.ndarray:
        """The documents' labels, in order, as an int64 vector."""
        return np.array([d.label for d in self.documents], dtype=np.int64)


NGram = tuple[str, ...]
# count_vectors selects documents in chunks of about this many tokens, so that
# select's per-position arrays stay small whatever the corpus size
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


def _token_ids(token_lists, dictionary) -> tuple[np.ndarray, np.ndarray, dict]:
    """Flat int32 word ids of the token lists, each list followed by a -1.

    Words of ``dictionary`` (every token when it is None) are numbered in
    order of first occurrence, and any other token gets -1. Returns the ids,
    the position of each list's first token, and the words' ids.
    """
    spans = np.array([len(t) + 1 for t in token_lists], dtype=np.int64)
    tokens = chain.from_iterable(chain(t, (None,)) for t in token_lists)
    # one pass gives every position the position of its token's first occurrence
    first = {}
    firsts = np.fromiter(map(first.setdefault, tokens, count()), dtype=np.int64, count=spans.sum())
    words = [t for t in first if t is not None and (dictionary is None or t in dictionary)]
    word_at = np.full(len(firsts), -1, dtype=np.int32)
    word_at[[first[t] for t in words]] = np.arange(len(words))
    return word_at[firsts], np.cumsum(spans) - spans, dict(zip(words, range(len(words))))


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
    """A selection of the n-grams of one NGramIndex, numbered as columns.

    ``ids[t]`` is the index id of column t's n-gram. The vocabulary has every
    order of its ``index`` and numbers words as it does (``word_ids``).
    ``entries``, the n-grams by column, is decoded from the index's keys when
    first read.
    """

    def __init__(self, index: "NGramIndex", ids: np.ndarray):
        self.index = index
        self.ids = ids
        self.orders = index.orders
        self.word_ids = index.word_ids

    def word_id_matrix(self) -> np.ndarray:
        """len(self) x max(orders) word ids; row t is entries[t]'s, padded with -1."""
        base = _key_base(len(self.word_ids), self.orders)
        return _decode(self.index.keys[self.ids], base, max(self.orders))

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
        return len(self.ids)


class NGramIndex:
    """Every n-gram window of a set of documents, as a number, at every token position.

    Words of ``dictionary`` (every token when it is None) are numbered by
    first occurrence across ``documents`` (``word_ids``). ``keys`` are the
    distinct window keys, sorted, and ``ngram_ids[i, p]`` is the number in
    ``keys`` of the ``orders[i]``-window at flat position p: id 0, key 0,
    when the window is not an in-dictionary n-gram of one document. The
    index holds no statistic: what is fitted on some of its documents reads
    nothing of the others, and ``build_vocab`` and ``count_vectors`` select
    the ids of theirs.
    """

    def __init__(self, documents: Iterable[Document], orders, dictionary):
        documents = list(documents)
        self.orders = check_orders(orders)
        ids, starts, self.word_ids = _token_ids([d.tokens for d in documents], dictionary)
        base = _key_base(len(self.word_ids), self.orders)
        # keys of a higher order are larger, so each order's distinct keys extend the sorted
        # keys; every order has a key-0 window (at the last document's closing -1), so its
        # distinct[0] is 0, and that stays id 0
        self.keys = np.zeros(min(len(ids), 1), dtype=np.int64)
        self.ngram_ids = np.empty((len(self.orders), len(ids)), dtype=np.int32)
        for row, n in zip(self.ngram_ids, self.orders):
            if n == 1:
                # exact without a sort: a unigram's key is its word id + 1 (0 at a -1), every
                # numbered word occurs and every document ends in a -1, so the distinct keys are
                # 0 ... len(word_ids) and each key is its own id (order 1 comes first: no shift)
                np.add(ids, 1, out=row)
                distinct = np.arange(len(self.word_ids) + 1, dtype=np.int64)
            else:
                distinct, inverse = np.unique(_windows(ids, n, base), return_inverse=True)
                row[:] = np.where(inverse > 0, inverse + (len(self.keys) - 1), 0)
            self.keys = np.concatenate([self.keys, distinct[1:]])
        self.document_ids = tuple(d.id for d in documents)
        # by id, then tokens: two indexed documents may share an id
        self._starts = {}
        for d, start in zip(documents, starts.tolist()):
            self._starts.setdefault(d.id, []).append((d.tokens, start))

    def _start(self, doc: Document) -> int:
        """Flat position of ``doc``'s first token; UnknownDocument unless the index holds it."""
        for tokens, start in self._starts.get(doc.id, ()):
            if tokens is doc.tokens or tokens == doc.tokens:
                return start
        raise UnknownDocument(f"document {doc.id!r} is not one the n-gram index was built over")

    def select(self, documents: Sequence[Document]) -> tuple[np.ndarray, np.ndarray]:
        """The n-gram ids of ``documents``' windows of each order, and each one's document.

        The ids run by document, then order, then position, one per token and
        order, and the second array holds the index into ``documents`` of each.
        Raises UnknownDocument for a document the index does not hold, an
        indexed id with other tokens included.
        """
        starts = np.fromiter(map(self._start, documents), dtype=np.int64, count=len(documents))
        lengths = np.array([len(d.tokens) for d in documents], dtype=np.int64)
        n_orders = len(self.orders)
        # one run of positions per (document, order), at that order's row of ngram_ids
        run_starts = (starts[:, None] + np.arange(n_orders) * self.ngram_ids.shape[1]).ravel()
        run_lengths = np.repeat(lengths, n_orders)
        shift = np.repeat(run_starts - (np.cumsum(run_lengths) - run_lengths), run_lengths)
        positions = np.arange(len(shift)) + shift
        doc_of = np.repeat(np.arange(len(documents)), n_orders * lengths)
        return self.ngram_ids.ravel()[positions], doc_of


def build_vocab(documents: Iterable[Document], index: NGramIndex) -> NGramVocabulary:
    """Select the distinct in-dictionary n-grams of ``documents`` from ``index``.

    Columns follow first occurrence across documents in iteration order, and
    within a document by order, then position. Raises UnknownDocument for a
    document the index does not hold, and EmptyVocabulary when nothing
    survives filtering.
    """
    ids, _ = index.select(list(documents))
    # select lists ids in column order, so an n-gram's column ranks its first place there
    first = np.full(len(index.keys), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    seen = np.flatnonzero(first < len(ids))
    seen = seen[index.keys[seen] > 0]
    if not len(seen):
        raise EmptyVocabulary("no in-dictionary n-gram found in the corpus")
    return NGramVocabulary(index, seen[np.argsort(first[seen])])


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


def count_vectors(documents: Sequence[Document], vocab: NGramVocabulary) -> sp.csr_matrix:
    """Sparse document-by-n-gram occurrence counts over ``vocab``.

    Row i counts the vocabulary n-grams of documents[i]; out-of-vocabulary
    n-grams are ignored. Indices are sorted within each row and the data is
    int64. Every document must be one that ``vocab.index`` holds: any other
    raises UnknownDocument, naming it.
    """
    index, n_cols = vocab.index, len(vocab)
    # the column of each n-gram id of the index, or -1
    column_of = np.full(len(index.keys), -1, dtype=np.int64)
    column_of[vocab.ids] = np.arange(n_cols)
    row_nnz = np.zeros(len(documents) + 1, dtype=np.int64)
    indices, data = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo, chunk in _chunks(documents):
        ids, rows = index.select(chunk)
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


def _read_review(path: str, line_breaks: bool) -> tuple[str, ...]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read().decode("utf-8", errors="ignore")
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc
    if line_breaks:  # the HTML line breaks of IMDB reviews separate words and are not tokens
        raw = raw.replace("<br />", " ").replace("<br/>", " ")
    return tuple(tokenize(raw))


def _load_dir(root: Path, subdir: str, label, prefix: str, line_breaks: bool = False) -> list[Document]:
    """The files of ``root/subdir`` in name order (str order, as sorted Paths of one folder on POSIX).

    ``line_breaks``: each ``<br />`` or ``<br/>`` in a file is read as a space.
    """
    folder = root / subdir
    if not folder.is_dir():
        raise MissingDirectory(f"expected directory {folder}")
    with os.scandir(folder) as entries:
        names = sorted(entry.name for entry in entries if entry.is_file())
    return [
        Document(id=f"{prefix}/{name}", label=label, tokens=_read_review(os.path.join(folder, name), line_breaks))
        for name in names
    ]


def _log_loaded(dataset: Dataset, root: Path, start: float) -> None:
    """Log at INFO what a loader read from ``root`` since ``start`` (a ``time.perf_counter()``)."""
    logger.info(
        "loaded %s dataset %s: %d documents, %d tokens in %.3f s",
        dataset.name, root, len(dataset.documents), sum(len(d.tokens) for d in dataset.documents),
        time.perf_counter() - start,
    )


def load_polarity_dataset(root_path) -> Dataset:
    """Load the Pang & Lee polarity layout root/{pos,neg}/*.txt."""
    start = time.perf_counter()
    root = Path(root_path)
    if not root.is_dir():
        raise MissingDirectory(f"expected directory {root}")
    docs = _load_dir(root, "pos", +1, "pos") + _load_dir(root, "neg", -1, "neg")
    dataset = Dataset(name="polarity", documents=docs)
    _log_loaded(dataset, root, start)
    return dataset


def load_imdb_dataset(root_path) -> Dataset:
    """Load the Maas et al. layout root/{train,test}/{pos,neg}; train/unsup is not read.

    The reviews' ``<br />`` line breaks (and ``<br/>``) are read as spaces.
    """
    start = time.perf_counter()
    root = Path(root_path)
    if not root.is_dir():
        raise MissingDirectory(f"expected directory {root}")
    docs: list[Document] = []
    train_ids: list[int] = []
    test_ids: list[int] = []
    for sub, label, bucket in [
        ("train/pos", +1, train_ids),
        ("train/neg", -1, train_ids),
        ("test/pos", +1, test_ids),
        ("test/neg", -1, test_ids),
    ]:
        loaded = _load_dir(root, sub, label, sub, line_breaks=True)
        bucket.extend(range(len(docs), len(docs) + len(loaded)))
        docs.extend(loaded)
    dataset = Dataset(name="imdb", documents=docs, train_ids=train_ids, test_ids=test_ids)
    _log_loaded(dataset, root, start)
    return dataset
