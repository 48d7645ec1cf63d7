"""Word vectors: text-format I/O, n-gram averaging, and a toy skip-gram trainer."""

import logging
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import NGram, NGramVocabulary, _token_ids
from .errors import (
    DimensionMismatch, EmptyCorpus, MalformedLine, SgnsDiverged, UnknownWord, check_finite, check_int,
    numbered_lines,
)

logger = logging.getLogger(__name__)

_LOAD_CHUNK_ROWS = 256  # lines load_word_vectors hands numpy's text parser at a time; bounds its buffers
_EMBED_ROWS = 256  # rows an NGramTable averages at a time; bounds word_means' buffer, not the table
_SGNS_BLOCK_PAIRS = 16  # (center, context) pairs train_sgns updates from one snapshot
_SGNS_CHUNK_TOKENS = 256  # center tokens whose pairs train_sgns holds at a time


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


def _parse_values(values: list[str]) -> np.ndarray:
    """One float64 row per string of space-separated values, from numpy's C text parser."""
    return np.loadtxt(values, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)


def _first_bad_value(text: str) -> str:
    """Which of the space-separated values of ``text`` the parser rejects first, and its position among them.

    The parser reads each value apart from the others, so the one it rejects
    is the first that does not parse alone.
    """
    for i, value in enumerate(text.split(" "), start=1):
        try:
            _parse_values([value])
        except ValueError:
            return f"value {i}, {value!r}, is not a number"
    raise AssertionError(f"{text!r} parses value by value but not as a row")


def _parse_chunk(path, values: list[str], lines: list[int], dim) -> np.ndarray:
    """The rows of ``values``, read from ``lines`` of ``path``, each ``dim`` wide (None: the first row's width).

    The chunk is parsed in one call. The parser reads a run of spaces as
    empty fields, which it rejects, so a rejected chunk whose lines hold such
    runs is parsed again with one space per run: runs are rare, and looking
    for them in every line would cost about a sixth of the parse. If the
    parser still rejects the chunk, or its width is not ``dim``, each line is
    parsed alone with the same call, only to raise at the first bad one:
    MalformedLine if it does not parse, DimensionMismatch if its width differs.
    """
    while True:
        try:
            rows = _parse_values(values)
            if dim in (None, rows.shape[1]):
                return rows
        except ValueError:
            pass
        if not any("  " in text for text in values):
            break
        values = [" ".join(v for v in text.split(" ") if v) for text in values]
    for lineno, text in zip(lines, values):
        try:
            width = _parse_values([text]).shape[1]
        except ValueError as exc:
            raise MalformedLine(f"{path} line {lineno}: {_first_bad_value(text)}") from exc
        dim = dim or width
        if width != dim:
            raise DimensionMismatch(f"{path} line {lineno}: row has {width} values, expected {dim}")
    raise AssertionError(f"{path} lines {lines[0]}-{lines[-1]} parse one by one but not together")


def load_word_vectors(path) -> WordVectors:
    """Parse the standard text embedding format.

    The first line is a "<count> <dim>" header when both of its fields are
    integers; otherwise it is a regular row and the dimension is inferred
    from it. With a header, the file holds exactly <count> rows, duplicates
    included. Duplicate words keep the last occurrence, at the first one's
    position, with a warning. A line that is not UTF-8 or does not parse, a
    header or first row giving 0 values per row, a row missing or beyond the
    header's count, or a NaN or infinite value (MalformedLine), or a row of
    the wrong length (DimensionMismatch), fails naming the file and the line.
    Errors are raised in line order, except NaN and infinity, which are
    checked last and only in the rows that the result keeps.

    Fields are separated by runs of spaces; blank lines are skipped. Each
    line's word is split off in Python, and its values go to numpy's text
    parser _LOAD_CHUNK_ROWS lines at a time, each chunk written into one
    matrix, allocated for the header's count (at most the rows the file's
    size can hold) or grown by doubling.
    """
    words: dict[str, int] = {}
    repeats: list[tuple[int, int]] = []  # (word id, row) of each repeated word
    nonfinite: dict[int, int] = {}  # row -> line, for rows holding a NaN or infinity
    values_of: list[str] = []  # the rows read but not yet parsed, and their lines
    lines_of: list[int] = []
    matrix = count = dim = None
    read = stored = 0

    def flush():
        nonlocal matrix, dim, stored
        if not values_of:
            return
        rows = _parse_chunk(path, values_of, lines_of, dim)
        dim = rows.shape[1]
        if matrix is None:
            capacity = _LOAD_CHUNK_ROWS if count is None else count
            # a row of dim values takes at least 2 * dim + 1 bytes; a header may claim more rows
            matrix = np.empty((min(capacity, os.stat(path).st_size // (2 * dim + 1)), dim))
        stop = stored + len(rows)
        if stop > len(matrix):  # no header, or a file whose size stat does not give
            matrix.resize((max(stop, 2 * len(matrix)), dim), refcheck=False)  # no view of it exists
        matrix[stored:stop] = rows
        for i in np.flatnonzero(~np.isfinite(rows).all(axis=1)).tolist():
            nonfinite[stored + i] = lines_of[i]
        stored = stop
        values_of.clear()
        lines_of.clear()

    with numbered_lines(path) as lines:
        try:
            for lineno, line in enumerate(lines, start=1):
                text = line.rstrip("\r\n")
                if lineno == 1:
                    parts = [p for p in text.split(" ") if p]
                    if len(parts) == 2 and all(p.isdecimal() for p in parts):
                        count, dim = int(parts[0]), int(parts[1])
                        if dim == 0:
                            raise ValueError("the header gives 0 values per row")
                        continue
                word, _, values = text.lstrip(" ").partition(" ")
                if not word:
                    continue
                read += 1
                if count is not None and read > count:
                    raise ValueError(f"row {read}, but the header gives {count} rows")
                values = values.strip(" ")
                if "\r" in values:
                    # numpy's parser ends a line at a CR; float() and a tab both take it for space
                    values = values.replace("\r", "\t")
                if not values:
                    flush()
                    if dim is not None:
                        raise DimensionMismatch(f"{path} line {lineno}: row has 0 values, expected {dim}")
                    raise ValueError(f"row {word!r} has no values")
                n = len(words)
                if words.setdefault(word, n) != n:
                    logger.warning("duplicate word %r at line %d; keeping last", word, lineno)
                    repeats.append((words[word], read - 1))
                values_of.append(values)
                lines_of.append(lineno)
                if len(values_of) == _LOAD_CHUNK_ROWS:
                    flush()
        except ValueError:
            flush()  # an earlier line's error comes first
            raise
        flush()
        if count is not None and read < count:
            raise ValueError(f"{read} rows, but the header gives {count}")
    if matrix is None:
        return WordVectors(words=words, matrix=np.zeros((0, dim or 0)))
    matrix.resize((stored, dim), refcheck=False)
    if repeats:  # each word's last row, in the order of first occurrence
        kept = np.delete(np.arange(stored), [row for _, row in repeats])
        for word_id, row in repeats:
            kept[word_id] = row
        matrix = matrix[kept]
        nonfinite = {row: nonfinite[row] for row in kept.tolist() if row in nonfinite}
    if nonfinite:
        raise MalformedLine(f"{path} line {min(nonfinite.values())}: row holds a NaN or infinite value")
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
    """Mean of the word vectors of ``ngram``, component-wise; an n-gram of no words raises DimensionMismatch."""
    if not ngram:
        raise DimensionMismatch("an n-gram of no words has no mean vector")
    total = np.zeros(wv.dim)
    for pos, word in enumerate(ngram):
        idx = wv.words.get(word)
        if idx is None:
            raise UnknownWord(word, position=pos)
        total += wv.matrix[idx]
    return total / len(ngram)


def word_rows(vocab: NGramVocabulary, wv: WordVectors) -> tuple[np.ndarray, np.ndarray]:
    """(W, ids): the vectors of ``vocab``'s words in the order it numbers them, and its ``word_id_matrix``.

    Row t of ids names entries[t]'s words as rows of W, padded with -1. A
    word of the vocabulary's index that ``wv`` lacks gets a row of zeros
    when no n-gram names it; otherwise UnknownWord is raised for the first
    n-gram, in column order, that names such a word, naming the word and
    its position.
    """
    ids = vocab.word_id_matrix()
    rows = np.fromiter(map(wv.words.get, vocab.word_ids, repeat(-1)), dtype=np.int64, count=len(vocab.word_ids))
    missing = (ids >= 0) & (rows[ids] < 0)
    if missing.any():
        t = int(np.argmax(missing.any(axis=1)))
        pos = int(np.argmax(missing[t]))
        raise UnknownWord(vocab.entries[t][pos], position=pos)
    W = np.zeros((len(rows), wv.dim))
    known = rows >= 0
    W[known] = wv.matrix[rows[known]]
    return W, ids


def word_means(W: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Set row t of ``out`` to the mean of the W rows that row t of ``ids`` names, as embed_ngram does.

    The -1 padding names no word. Each row starts at 0.0, adds its words'
    vectors in order (a padding word adds 0.0, which leaves the sum
    unchanged) and is divided by its number of words.
    """
    np.take(W, ids[:, 0], axis=0, out=out, mode="wrap")  # "wrap" does not buffer, unlike "raise"
    out[ids[:, 0] < 0] = 0.0
    out += 0.0  # the sum started at +0.0: a -0.0 becomes +0.0, and nothing else changes
    for col in ids.T[1:]:
        word = np.take(W, col, axis=0, mode="wrap")
        word[col < 0] = 0.0
        out += word
    out /= sum((col >= 0 for col in ids.T), 0.0)[:, None]  # float counts, column by column: both cost less
    return out


class NGramTable:
    """N-gram vectors X whose row t is the mean of the rows of the word matrix W that row t of ``ids`` names.

    ``ids`` is N x width ints, padded with -1. X is computed by ``word_means``,
    _EMBED_ROWS rows at a time. W and ids are kept as given (a view is copied)
    and all three are made read-only, so no write breaks X. An id outside [-1,
    len(W)), or a row that names no word, raises DimensionMismatch naming it.
    """

    def __init__(self, W: np.ndarray, ids: np.ndarray):
        W, ids = (a if a.base is None else a.copy() for a in (np.asarray(W, dtype=np.float64), np.asarray(ids)))
        if W.ndim != 2 or ids.ndim != 2 or ids.dtype.kind not in "iu":
            raise DimensionMismatch(f"a {W.shape} word matrix and {ids.shape} {ids.dtype} word rows")
        bad = ((ids < -1) | (ids >= len(W))).any(axis=1) | (ids < 0).all(axis=1)
        if bad.any():
            t = int(np.argmax(bad))
            raise DimensionMismatch(f"word row {t} is {ids[t].tolist()}: ids must name rows of the {len(W)}-row "
                                    "word matrix (or be -1 padding), at least one per row")
        self.W, self.ids, self.X = W, ids, np.empty((len(ids), W.shape[1]))
        for lo in range(0, len(ids), _EMBED_ROWS):
            word_means(W, ids[lo : lo + _EMBED_ROWS], self.X[lo : lo + _EMBED_ROWS])
        for array in (W, ids, self.X):
            array.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.X.shape


def embed_all(vocab: NGramVocabulary, wv: WordVectors) -> NGramTable:
    """The table over ``word_rows(vocab, wv)``: row t of its X is embed_ngram(vocab.entries[t]), bit for bit."""
    return NGramTable(*word_rows(vocab, wv))


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

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "min_count"):
            check_int(f"sgns {name}", getattr(self, name), minimum=1)
        for name in ("epochs", "seed"):
            check_int(f"sgns {name}", getattr(self, name), minimum=0)
        for name in ("learning_rate", "subsample_threshold"):
            check_finite(f"sgns {name}", getattr(self, name), minimum=0.0, strict=True)


def _sgns_coefficients(scores: np.ndarray) -> np.ndarray:
    """sigmoid(s) - label for scores shaped [..., 1 + k].

    Entry 0 of the last axis scores the true context (label 1), the rest the
    k negatives (label 0). The loss -log sigmoid(s_0) - sum_j log sigmoid(-s_j)
    has gradient coef_j * c with respect to target j and sum_j coef_j * t_j
    with respect to the center c.
    """
    coef = 1.0 / (1.0 + np.exp(-scores))
    coef[..., 0] -= 1.0
    return coef


def _noise_table(cdf: np.ndarray) -> np.ndarray:
    """A bucket table over [0, 1) that ``_noise_draws`` reads in place of a search of ``cdf``.

    ``cdf`` is non-decreasing. Bucket j is [j/nb, (j+1)/nb), for nb a power
    of two: 2^max(16, ceil(log2 8V)) for a V-entry cdf, at most 2^20, which
    bounds the table at 8 MiB. Entry j is the number of cdf values <= j/nb,
    which is searchsorted(cdf, u, side="right") for every u in the bucket
    when no cdf value lies in (j/nb, (j+1)/nb]; otherwise it is -1. A V-entry
    cdf gives at most V such buckets, so at most V/nb of uniform draws are
    searched.
    """
    nb = 1 << min(20, max(16, (8 * len(cdf) - 1).bit_length()))
    lo = cdf.searchsorted(np.arange(nb + 1) / nb, side="right")
    return np.where(lo[1:] == lo[:-1], lo[:-1], -1)


def _noise_draws(table: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for uniforms u in [0, 1), through ``_noise_table(cdf)``.

    u * nb is exact (nb is a power of two) and below nb, so its integer part
    is u's bucket; a bucket marked -1 falls back to the search.
    """
    negs = table[(u * len(table)).astype(np.intp)]
    searched = np.flatnonzero(negs < 0)
    negs[searched] = cdf.searchsorted(u[searched], side="right")
    return negs


def _sgns_chunks(doc_ids, keep_prob, cdf, config: SgnsConfig, rng):
    """Training pairs, one row [center, context, negative_1..k] each, a chunk at a time.

    Per document and epoch this draws the subsampling uniforms, then the
    negatives' uniforms, in pair order: center-major, contexts by ascending
    position. A chunk covers about _SGNS_CHUNK_TOKENS center tokens, across
    documents, and holds a multiple of _SGNS_BLOCK_PAIRS rows; the last chunk
    holds the rest.
    """
    offsets = np.r_[-config.window : 0, 1 : config.window + 1]
    k = config.negatives
    table = _noise_table(cdf)
    parts, tokens = [], 0
    for _ in range(config.epochs):
        for ids in doc_ids:
            ids = ids[rng.random(len(ids)) < keep_prob[ids]]
            # drawing a long document's negatives in center slices reads the
            # same uniforms as one draw for the whole document
            for lo in range(0, len(ids), _SGNS_CHUNK_TOKENS):
                pos = np.arange(lo, min(lo + _SGNS_CHUNK_TOKENS, len(ids)))
                ctx = pos[:, None] + offsets
                valid = (ctx >= 0) & (ctx < len(ids))
                rows, cols = np.nonzero(valid)
                negs = _noise_draws(table, cdf, rng.random(len(rows) * k))
                parts.append(np.column_stack((ids[pos[rows]], ids[ctx[rows, cols]], negs.reshape(-1, k))))
                tokens += len(pos)
                if tokens >= _SGNS_CHUNK_TOKENS:
                    pairs = np.concatenate(parts)
                    cut = len(pairs) - len(pairs) % _SGNS_BLOCK_PAIRS
                    if cut:
                        yield pairs[:cut]
                    parts, tokens = [pairs[cut:].copy()], 0  # not a view: frees the chunk
    if sum(map(len, parts)):
        yield np.concatenate(parts)


def _diverged(kind, flag):
    """np.errstate callback of train_sgns: a floating-point overflow ends training."""
    raise SgnsDiverged(f"skip-gram training diverged ({kind} in a score or update); lower the learning rate")


def _block_scatter(rows: np.ndarray, block: int):
    """Distinct rows of each block of ``rows`` (P x J, one line per pair).

    Block b holds the L_b pairs from b * block on. Returns ``distinct``, the
    blocks' sorted distinct rows one block after another; ``starts``, so that
    block b's U_b rows are distinct[starts[b]:starts[b + 1]]; and ``index``
    (P x J). For weights w of block b's pairs, shaped like its lines of rows,
    bincount(index[its lines].ravel(), w.ravel(), U_b * L_b) reshaped to
    U_b x L_b holds at [u, p] the sum of w[p, j] over the j where rows[p, j]
    is distinct row u. That one-hot matrix times a per-pair L_b x m matrix
    gives each distinct row's summed update in one small GEMM.
    """
    n = len(rows)
    pair = np.arange(n)
    blk = pair // block
    span = int(rows.max()) + 1
    keys, inv = np.unique(rows + (blk * span)[:, None], return_inverse=True)
    starts = np.searchsorted(keys, np.arange(blk[-1] + 2) * span)
    length = np.minimum(block, n - blk * block)
    index = (inv.reshape(rows.shape) - starts[blk][:, None]) * length[:, None] + (pair % block)[:, None]
    return keys % span, starts, index


def train_sgns(documents: Iterable[Sequence[str]], config: SgnsConfig) -> WordVectors:
    """Train input-side skip-gram vectors on tokenized documents.

    Single-worker and deterministic given config.seed. Negative samples come
    from the unigram distribution raised to 0.75; frequent words are dropped
    with probability 1 - sqrt(t / f(w)). These draws, read from the generator
    in the same order as a per-pair trainer reads them (per document: the
    subsampling uniforms, then the negatives), give the same
    (center, context, negatives) pairs in the same order: center-major, then
    by context position. A negative is the index that a binary search of the
    noise distribution's cdf gives its uniform u (``Generator.choice``'s
    draw), read in O(1) from a bucket table built once per call (the
    unigram table of word2vec, Mikolov et al. 2013, made exact): u's bucket
    gives the index unless a cdf value lies inside the bucket, and then u is
    searched (``_noise_table``).

    Pairs are trained _SGNS_BLOCK_PAIRS at a time, consecutive in that order
    and across document boundaries. Every pair of a block reads the vectors
    as they were before the block, and the block's updates are summed into
    them, so repeated rows accumulate (the lock-free mini-batch of Hogwild!,
    Recht et al. 2011). One-pair blocks are the per-pair trainer, up to
    rounding. On the sgns_train benchmark stream (24k tokens, window 2,
    5 negatives) 16-pair blocks train about 5x faster than the per-pair
    trainer, and the share of words whose nearest neighbour shares their
    topic falls from 0.822 to 0.792 on average over seeds 1-10 (-3.7%; -6.0%
    on the worst seed). 32-pair blocks lose 4.8%, and 800-pair blocks (about
    one document) diverge.

    Training that diverges raises SgnsDiverged: its scores grow until exp
    overflows, which the floating-point overflow flag reports.
    """
    # the types in order of first use, each document's ids closed by a -1
    ids, starts, types = _token_ids(list(documents), None)
    freq = dict(zip(types, np.bincount(ids[ids >= 0], minlength=len(types)).tolist()))
    kept = [w for w, c in freq.items() if c >= config.min_count]
    if not kept:
        raise EmptyCorpus(
            f"no word reaches min_count={config.min_count} (corpus has {len(freq)} types)"
        )
    kept.sort(key=lambda w: (-freq[w], w))
    word_to_id = {w: i for i, w in enumerate(kept)}
    counts = np.array([freq[w] for w in kept], dtype=np.float64)
    total = counts.sum()
    to_kept = np.full(len(types) + 1, -1, dtype=np.int32)  # the trailing -1 maps -1 to itself
    to_kept[[types[w] for w in kept]] = np.arange(len(kept))
    ids = to_kept[ids]
    kept_ids = ids >= 0
    # a document's kept ids end where its closing -1 is
    doc_ids = np.split(ids[kept_ids], np.cumsum(kept_ids)[starts[1:] - 1])

    rng = np.random.default_rng(config.seed)
    m = config.dim
    vec_in = rng.uniform(-0.5 / m, 0.5 / m, size=(len(kept), m))
    vec_out = np.zeros((len(kept), m))

    noise = counts**0.75
    noise /= noise.sum()
    # the cdf Generator.choice(p=noise) builds on every call; drawing each
    # document's negatives from it at once reads the same uniforms from rng
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / (counts / total)))

    lr = config.learning_rate
    B = _SGNS_BLOCK_PAIRS
    # a diverging run sends scores past exp's range: the floating-point
    # overflow flag catches it at no cost per block
    with np.errstate(over="call", call=_diverged):
        for pairs in _sgns_chunks(doc_ids, keep_prob, cdf, config, rng):
            centers, targets = pairs[:, 0], pairs[:, 1:]
            in_rows, in_starts, in_index = _block_scatter(centers[:, None], B)
            out_rows, out_starts, out_index = _block_scatter(targets, B)
            for b, lo in enumerate(range(0, len(pairs), B)):
                hi = min(lo + B, len(pairs))
                c = vec_in.take(centers[lo:hi], axis=0)
                out = vec_out.take(targets[lo:hi], axis=0)
                g = lr * _sgns_coefficients(np.matmul(out, c[:, :, None])[:, :, 0])
                grad_c = np.matmul(g[:, None, :], out)[:, 0]
                u = out_rows[out_starts[b] : out_starts[b + 1]]
                S = np.bincount(out_index[lo:hi].ravel(), g.ravel(), len(u) * (hi - lo))
                vec_out[u] -= S.reshape(len(u), hi - lo) @ c
                u = in_rows[in_starts[b] : in_starts[b + 1]]
                S = np.bincount(in_index[lo:hi, 0], minlength=len(u) * (hi - lo))
                vec_in[u] -= S.reshape(len(u), hi - lo) @ grad_c
    return WordVectors(words=word_to_id, matrix=vec_in)
