"""Seeded synthetic inputs for the benchmark.

Two generators, both byte-for-byte deterministic for a given seed:

* ``write_polarity`` writes a labelled review corpus in the polarity layout
  (``pos/*.txt``, ``neg/*.txt``) plus a text-format word-vector file. Words
  belong to topics; a word's vector is its topic centre plus Gaussian noise,
  and sentiment words are additionally shifted along one direction by their
  class, so concept clustering and the log-count ratio both have signal.
* ``write_topic_stream`` writes a topical token stream (one document per
  line) for the skip-gram trainer, plus the word -> topic map the benchmark
  uses to score the trained vectors. The map is never shown to the program.

Words are generated by frequency rank: rank fixes a word's Zipf weight, its
topic (rank modulo the topic count) and whether it is a sentiment word, so
every seed yields corpora of the same shape and sizes. The seed draws the
names, the documents and the vectors.

Word names are purely alphabetic: ``conceptbag.tokenize`` collapses digit
runs to "0", so names such as ``w123`` would all become ``w0``.
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_NAME_LEN = 4  # 26**4 = 456976 distinct names
_SENTENCE = 15  # tokens between full stops
_OOV_EVERY = 20  # every 20th non-sentiment word by rank has no vector
_SENTIMENT_SHARE = 0.02  # share of the vocabulary per sentiment class
_TOPICS = 30  # a review draws from two topics; a stream cycles through all
_DIM = 100  # word-vector dimension, the paper's m
_NOISE = 0.6  # word-vector noise around its topic centre
_SHIFT = 3.0  # class shift of sentiment-word vectors
_BACKGROUND = 0.4  # share of a stream's tokens drawn from the whole vocabulary


def word_names(n: int) -> list[str]:
    """``n`` distinct lowercase alphabetic names of fixed length."""
    if n > 26**_NAME_LEN:
        raise ValueError(f"at most {26 ** _NAME_LEN} names, asked for {n}")
    idx = np.arange(n)
    digits = [(idx // 26**p) % 26 for p in reversed(range(_NAME_LEN))]
    return ["".join(chars) for chars in zip(*(_LETTERS[d] for d in digits))]


@dataclass(frozen=True)
class PolaritySpec:
    """Size and signal knobs of a generated review corpus."""

    docs: int = 400  # split evenly between pos/ and neg/
    tokens_per_doc: int = 300
    vocab: int = 5000
    zipf: float = 1.1  # exponent of the word-frequency law
    topic_share: float = 0.5  # share of tokens drawn from the document's topics
    sentiment_rate: float = 0.03  # share of tokens that are sentiment words
    flip_rate: float = 0.3  # share of sentiment words taken from the other class


@dataclass(frozen=True)
class StreamSpec:
    """Size knobs of a generated topical token stream."""

    docs: int = 100
    tokens_per_doc: int = 200
    vocab: int = 600
    zipf: float = 1.0


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Zipf probabilities of the words ranked 0 .. n-1."""
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


def _sample(weights: np.ndarray, pool: np.ndarray, size: int, rng) -> np.ndarray:
    """Draw ``size`` words from ``pool`` with probability proportional to ``weights[pool]``."""
    cdf = np.cumsum(weights[pool])
    picks = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return pool[np.minimum(picks, len(pool) - 1)]


def _write_lines(path: Path, tokens: list[str]) -> None:
    lines = [" ".join(tokens[i : i + _SENTENCE]) + " ." for i in range(0, len(tokens), _SENTENCE)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_polarity(root, spec: PolaritySpec, seed: int) -> dict:
    """Write ``root/pos``, ``root/neg`` and ``root/vectors.txt``; return a summary."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    names = np.array(word_names(spec.vocab))[rng.permutation(spec.vocab)]
    freq = _zipf_weights(spec.vocab, spec.zipf)
    topic_of = np.arange(spec.vocab) % _TOPICS
    n_sent = max(1, int(_SENTIMENT_SHARE * spec.vocab))
    sentiment = np.linspace(0, spec.vocab - 1, 2 * n_sent).astype(np.int64)
    pos_words, neg_words = sentiment[0::2], sentiment[1::2]
    plain = np.setdiff1d(np.arange(spec.vocab), sentiment)
    by_topic = [plain[topic_of[plain] == t] for t in range(_TOPICS)]

    for sub in ("pos", "neg"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    n_pos = spec.docs // 2
    for d in range(spec.docs):
        positive = d < n_pos
        topics = rng.choice(_TOPICS, size=2, replace=False)
        kind = rng.random(spec.tokens_per_doc)
        doc = _sample(freq, plain, spec.tokens_per_doc, rng)
        topical = kind < spec.topic_share
        pool = np.concatenate([by_topic[t] for t in topics])
        doc[topical] = _sample(freq, pool, int(topical.sum()), rng)
        charged = kind >= 1.0 - spec.sentiment_rate
        agree = rng.random(spec.tokens_per_doc) >= spec.flip_rate
        own, other = (pos_words, neg_words) if positive else (neg_words, pos_words)
        n_charged = int(charged.sum())
        # sentiment words are drawn uniformly so that every seed gives the
        # classifier the same amount of evidence per document
        doc[charged] = np.where(
            agree[charged], rng.choice(own, n_charged), rng.choice(other, n_charged)
        )
        sub, idx = ("pos", d) if positive else ("neg", d - n_pos)
        _write_lines(root / sub / f"cv{idx:05d}.txt", names[doc].tolist())

    centres = rng.normal(size=(_TOPICS, _DIM))
    vectors = centres[topic_of] + _NOISE * rng.normal(size=(spec.vocab, _DIM))
    direction = rng.normal(size=_DIM)
    direction *= _SHIFT / np.linalg.norm(direction)
    vectors[pos_words] += direction
    vectors[neg_words] -= direction
    kept = np.setdiff1d(np.arange(spec.vocab), plain[_OOV_EVERY - 1 :: _OOV_EVERY])
    lines = [f"{len(kept)} {_DIM}"]
    lines += [name + " " + " ".join(f"{v:.5f}" for v in row) for name, row in zip(names[kept], vectors[kept])]
    (root / "vectors.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"spec": asdict(spec), "seed": seed, "vectors": int(len(kept))}


def write_topic_stream(root, spec: StreamSpec, seed: int) -> dict:
    """Write ``root/stream.txt`` (one document per line) and ``root/topics.json``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    names = np.array(word_names(spec.vocab))[rng.permutation(spec.vocab)]
    freq = _zipf_weights(spec.vocab, spec.zipf)
    topic_of = np.arange(spec.vocab) % _TOPICS
    everything = np.arange(spec.vocab)
    by_topic = [np.flatnonzero(topic_of == t) for t in range(_TOPICS)]
    lines = []
    for d in range(spec.docs):
        # documents cycle through the topics, so every topic gets the same share of text
        doc = _sample(freq, by_topic[d % _TOPICS], spec.tokens_per_doc, rng)
        noisy = rng.random(spec.tokens_per_doc) < _BACKGROUND
        doc[noisy] = _sample(freq, everything, int(noisy.sum()), rng)
        lines.append(" ".join(names[doc].tolist()))
    (root / "stream.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    topics = {str(n): int(t) for n, t in zip(names, topic_of)}
    (root / "topics.json").write_text(json.dumps(topics, sort_keys=True), encoding="utf-8")
    return {"spec": asdict(spec), "seed": seed}
