"""Word vectors: text-format I/O, n-gram averaging, and a toy skip-gram trainer."""

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import NGram, NGramVocabulary
from .errors import DimensionMismatch, EmptyCorpus, MalformedLine, UnknownWord

logger = logging.getLogger(__name__)

_EMBED_ROWS = 256  # rows embed_all gathers at a time; bounds its buffer, not its result


@dataclass
class WordVectors:
    """A word -> row mapping over a dense |D| x m matrix."""

    words: dict[str, int]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    def vector(self, word: str) -> np.ndarray:
        idx = self.words.get(word)
        if idx is None:
            raise UnknownWord(word)
        return self.matrix[idx]


def load_word_vectors(path, expected_dim: int | None = None) -> WordVectors:
    """Parse the standard text embedding format.

    The first line is a "<count> <dim>" header when both of its fields are
    integers; otherwise it is a regular row and the dimension is inferred
    from it. Duplicate words keep the last occurrence with a warning.
    """
    words: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = expected_dim
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                declared = int(parts[1])
                if expected_dim is not None and declared != expected_dim:
                    raise DimensionMismatch(
                        f"header declares dim {declared}, expected {expected_dim}"
                    )
                dim = declared
                continue
            word, values = parts[0], parts[1:]
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError as exc:
                raise MalformedLine(f"line {lineno}: cannot parse {line!r}") from exc
            if dim is None:
                dim = len(vec)
            if len(vec) != dim:
                raise DimensionMismatch(
                    f"line {lineno}: row has {len(vec)} values, expected {dim}"
                )
            if word in words:
                logger.warning("duplicate word %r at line %d; keeping last", word, lineno)
                rows[words[word]] = vec
            else:
                words[word] = len(rows)
                rows.append(vec)
    matrix = np.vstack(rows) if rows else np.zeros((0, dim or 0))
    return WordVectors(words=words, matrix=matrix)


def save_word_vectors(wv: WordVectors, path) -> None:
    """Write vectors in the text format with a "<count> <dim>" header."""
    order = sorted(wv.words, key=wv.words.get)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(order)} {wv.dim}\n")
        for word in order:
            row = " ".join(repr(float(v)) for v in wv.matrix[wv.words[word]])
            fh.write(f"{word} {row}\n")


def embed_ngram(ngram: NGram, wv: WordVectors) -> np.ndarray:
    """Mean of the word vectors of ``ngram``, component-wise."""
    total = np.zeros(wv.dim)
    for pos, word in enumerate(ngram):
        idx = wv.words.get(word)
        if idx is None:
            raise UnknownWord(word, position=pos)
        total += wv.matrix[idx]
    return total / len(ngram)


def embed_all(vocab: NGramVocabulary, wv: WordVectors) -> np.ndarray:
    """N x m table whose row t is embed_ngram(vocab.entries[t]), bit for bit.

    Each row starts at 0.0 and adds its words' vectors in order, then is
    divided by the n-gram's length, as embed_ngram does. A shorter n-gram
    adds 0.0 for its missing words, which leaves a sum started at +0.0
    unchanged. Rows are gathered _EMBED_ROWS at a time into the table.
    """
    ids = vocab.word_id_matrix()
    to_row = np.fromiter(
        map(wv.words.get, vocab.word_ids, repeat(-1)), dtype=np.int64, count=len(vocab.word_ids)
    )
    present = ids >= 0
    rows = np.where(present, to_row[ids], 0)
    missing = present & (rows < 0)
    if missing.any():
        t = int(np.argmax(missing.any(axis=1)))
        pos = int(np.argmax(missing[t]))
        raise UnknownWord(vocab.entries[t][pos], position=pos)
    table = np.zeros((len(vocab), wv.dim))
    gathered = np.empty((_EMBED_ROWS, wv.dim), dtype=wv.matrix.dtype)
    for lo in range(0, len(vocab), _EMBED_ROWS):
        hi = min(lo + _EMBED_ROWS, len(vocab))
        out = gathered[: hi - lo]
        for j in range(ids.shape[1]):
            np.take(wv.matrix, rows[lo:hi, j], axis=0, out=out, mode="clip")
            out[~present[lo:hi, j]] = 0.0
            table[lo:hi] += out
    table /= np.count_nonzero(present, axis=1)[:, None]
    return table


@dataclass
class SgnsConfig:
    """Skip-gram with negative sampling hyperparameters."""

    dim: int = 100
    window: int = 5
    negatives: int = 5
    subsample_threshold: float = 1e-5
    learning_rate: float = 0.01
    epochs: int = 1
    min_count: int = 100
    seed: int = 0


def sgns_loss_and_grad(center, context, negatives):
    """Negative-sampling loss and its gradient w.r.t. the center vector.

    loss = -log sigmoid(c.x) - sum_j log sigmoid(-n_j.x). ``train_sgns``
    computes the same centre gradient inline and does not call this; the
    tests check it by finite differences.
    """
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    pos = sigmoid(center @ context)
    loss = -np.log(pos)
    grad = (pos - 1.0) * context
    for neg in negatives:
        s = sigmoid(center @ neg)
        loss -= np.log1p(-s) if s < 1.0 else -np.inf
        grad += s * neg
    return loss, grad


def train_sgns(documents: Iterable[Sequence[str]], config: SgnsConfig) -> WordVectors:
    """Train input-side skip-gram vectors on tokenized documents.

    Single-worker and deterministic given config.seed. Negative samples come
    from the unigram distribution raised to 0.75; frequent words are dropped
    with probability 1 - sqrt(t / f(w)).
    """
    docs = [list(d) for d in documents]
    freq = Counter(t for d in docs for t in d)
    kept = [w for w, c in freq.items() if c >= config.min_count]
    if not kept:
        raise EmptyCorpus(
            f"no word reaches min_count={config.min_count} (corpus has {len(freq)} types)"
        )
    kept.sort(key=lambda w: (-freq[w], w))
    word_to_id = {w: i for i, w in enumerate(kept)}
    counts = np.array([freq[w] for w in kept], dtype=np.float64)
    total = counts.sum()

    rng = np.random.default_rng(config.seed)
    m = config.dim
    vec_in = rng.uniform(-0.5 / m, 0.5 / m, size=(len(kept), m))
    vec_out = np.zeros((len(kept), m))

    noise = counts**0.75
    noise /= noise.sum()
    # the table Generator.choice(p=noise) builds on every call; drawing each
    # document's negatives from it at once reads the same uniforms from rng
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / (counts / total)))

    lr = config.learning_rate
    window = config.window
    for _ in range(config.epochs):
        for doc in docs:
            ids = np.array([word_to_id[t] for t in doc if t in word_to_id], dtype=np.int64)
            ids = ids[rng.random(len(ids)) < keep_prob[ids]].tolist()
            pairs = [
                (center, ids[ctx_pos])
                for pos, center in enumerate(ids)
                for ctx_pos in range(max(0, pos - window), min(len(ids), pos + window + 1))
                if ctx_pos != pos
            ]
            negatives = cdf.searchsorted(rng.random(len(pairs) * config.negatives), side="right")
            negatives = negatives.reshape(len(pairs), config.negatives)
            for (center, context), negs in zip(pairs, negatives):
                c = vec_in[center]
                targets = np.concatenate(([context], negs))
                labels = np.zeros(len(targets))
                labels[0] = 1.0
                out = vec_out[targets]
                g = 1.0 / (1.0 + np.exp(-(out @ c))) - labels
                grad_c = g @ out
                # repeated targets must accumulate, hence add.at
                np.subtract.at(vec_out, targets, (lr * g)[:, None] * c)
                vec_in[center] = c - lr * grad_c
    return WordVectors(words=word_to_id, matrix=vec_in)
