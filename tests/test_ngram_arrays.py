"""The array-native corpus layer against the per-window loops it replaced.

The reference functions below walk every token window in Python, as the
corpus layer once did; build_vocab, count_vectors and embed_all must give
the same vocabulary order, the same CSR arrays and dtypes, and the same
table bits, signed zeros included.
"""

from collections import Counter
from itertools import chain, repeat

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from conceptbag import corpus
from conceptbag.corpus import (
    Document,
    NGramIndex,
    NGramVocabulary,
    build_vocab,
    count_vectors,
)
from conceptbag.embeddings import WordVectors, embed_all
from conceptbag.errors import EmptyVocabulary, UnknownWord

WORDS = list("abcdef")


def reference_windows(tokens, orders, dictionary):
    in_dict = [t in dictionary for t in tokens]
    for n in sorted(orders):
        for start in range(len(tokens) - n + 1):
            if all(in_dict[start : start + n]):
                yield tuple(tokens[start : start + n])


def reference_vocab(documents, orders, dictionary):
    seen = {}
    for doc in documents:
        for gram in reference_windows(doc.tokens, orders, dictionary):
            seen.setdefault(gram, None)
    return list(seen)


def reference_counts(documents, entries, orders):
    index = {g: i for i, g in enumerate(entries)}
    words = {w for g in entries for w in g}
    indptr, indices, data = [0], [], []
    for doc in documents:
        row = Counter(
            index[g] for g in reference_windows(doc.tokens, orders, words) if g in index
        )
        for idx in sorted(row):
            indices.append(idx)
            data.append(row[idx])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.int64), np.array(indices, dtype=np.int64), indptr),
        shape=(len(documents), len(entries)),
    )


def reference_token_ids(token_lists, dictionary):
    """_token_ids as two passes over the tokens: the words by first occurrence, then each id."""
    def tokens():
        return chain.from_iterable(chain(t, (None,)) for t in token_lists)

    words = [t for t in dict.fromkeys(tokens()) if t is not None and t in dictionary]
    word_ids = dict(zip(words, range(len(words))))
    spans = np.array([len(t) + 1 for t in token_lists], dtype=np.int64)
    ids = np.fromiter(map(word_ids.get, tokens(), repeat(-1)), dtype=np.int32, count=spans.sum())
    return ids, np.cumsum(spans) - spans, word_ids


def reference_index(documents, orders, dictionary):
    """NGramIndex's keys and ids as one _windows + np.unique pass per order, unigrams included."""
    ids, _, word_ids = corpus._token_ids([d.tokens for d in documents], dictionary)
    base = corpus._key_base(len(word_ids), orders)
    keys = np.zeros(min(len(ids), 1), dtype=np.int64)
    ngram_ids = np.empty((len(orders), len(ids)), dtype=np.int32)
    for row, n in zip(ngram_ids, sorted(orders)):
        distinct, inverse = np.unique(corpus._windows(ids, n, base), return_inverse=True)
        row[:] = np.where(inverse > 0, inverse + (len(keys) - 1), 0)
        keys = np.concatenate([keys, distinct[1:]])
    return keys, ngram_ids


def reference_table(entries, wv):
    table = np.zeros((len(entries), wv.dim))
    for t, gram in enumerate(entries):
        total = np.zeros(wv.dim)
        for pos, word in enumerate(gram):
            if word not in wv.words:
                raise UnknownWord(word, position=pos)
            total += wv.matrix[wv.words[word]]
        table[t] = total / len(gram)
    return table


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


tokens = st.lists(st.sampled_from(WORDS + ["oov"]), max_size=12)
documents = st.lists(tokens, max_size=6).map(
    lambda docs: [Document(id=f"d{i}", label=1, tokens=tuple(t)) for i, t in enumerate(docs)]
)
orders = st.sets(st.sampled_from([1, 2, 3]), min_size=1)
dictionaries = st.sets(st.sampled_from(WORDS), max_size=len(WORDS))
# signed zeros and values whose sums round differently by order
values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16, 3.5e-300, 2.5])


@st.composite
def word_vectors(draw, words):
    present = draw(st.lists(st.sampled_from(words), unique=True))
    matrix = np.array(
        [[draw(values) for _ in range(3)] for _ in present], dtype=np.float64
    ).reshape(len(present), 3)
    return WordVectors(words={w: i for i, w in enumerate(present)}, matrix=matrix)


class TestAgainstPerWindowLoop:
    @settings(max_examples=200, deadline=None)
    @given(documents, orders, dictionaries, documents)
    def test_vocab_and_counts(self, docs, ords, dictionary, other_docs):
        # the index holds both lists, so the first list's vocabulary counts either
        index = NGramIndex(docs + other_docs, ords, dictionary)
        want = reference_vocab(docs, ords, dictionary)
        if not want:
            with pytest.raises(EmptyVocabulary):
                build_vocab(docs, index)
            return
        vocab = build_vocab(docs, index)
        assert vocab.entries == want
        for counted in (docs, other_docs):
            assert_same_csr(count_vectors(counted, vocab), reference_counts(counted, want, ords))

    @settings(max_examples=200, deadline=None)
    @given(documents, orders, dictionaries, documents, st.data())
    def test_shared_index(self, docs, ords, dictionary, other_docs, data):
        # one index over both lists serves the vocabulary of any shuffled subset of its
        # documents and the counts of either list (the two lists reuse ids, so an id
        # alone does not name a document)
        index = NGramIndex(docs + other_docs, ords, dictionary)
        shuffled = data.draw(st.permutations(docs + other_docs))
        subset = shuffled[: data.draw(st.integers(0, len(shuffled)))]
        want = reference_vocab(subset, ords, dictionary)
        if not want:
            with pytest.raises(EmptyVocabulary):
                build_vocab(subset, index)
            return
        vocab = build_vocab(subset, index)
        assert vocab.entries == want
        for counted in (docs, other_docs):
            assert_same_csr(count_vectors(counted, vocab), reference_counts(counted, want, ords))

    @settings(max_examples=200, deadline=None)
    @given(documents, orders, dictionaries, st.data())
    def test_directly_constructed_vocabulary(self, docs, ords, dictionary, data):
        # any of an index's n-grams, in any order, are a vocabulary's columns
        index = NGramIndex(docs, ords, dictionary)
        try:
            full = build_vocab(docs, index)
        except EmptyVocabulary:
            return
        columns = data.draw(st.lists(st.integers(0, len(full) - 1), unique=True))
        vocab = NGramVocabulary(index, full.ids[columns])
        entries = [full.entries[t] for t in columns]
        assert vocab.entries == entries
        assert_same_csr(count_vectors(docs, vocab), reference_counts(docs, entries, ords))

    @settings(max_examples=200, deadline=None)
    @given(documents, orders, st.data())
    def test_table_bits(self, docs, ords, data):
        wv = data.draw(word_vectors(WORDS))
        try:
            vocab = build_vocab(docs, NGramIndex(docs, ords, set(WORDS)))
        except EmptyVocabulary:
            return
        try:
            want = reference_table(vocab.entries, wv)
        except UnknownWord as exc:
            with pytest.raises(UnknownWord) as got:
                embed_all(vocab, wv)
            assert (got.value.word, got.value.position) == (exc.word, exc.position)
            return
        assert_same_bits(embed_all(vocab, wv).X, want)

    @settings(max_examples=200, deadline=None)
    @given(documents, dictionaries)
    def test_token_ids(self, docs, dictionary):
        # no dictionary numbers every token as the set of all tokens does
        token_lists = [d.tokens for d in docs]
        every = {t for tokens in token_lists for t in tokens}
        for given_dictionary, oracle_dictionary in ((None, every), (dictionary, dictionary)):
            ids, starts, word_ids = corpus._token_ids(token_lists, given_dictionary)
            want_ids, want_starts, want_word_ids = reference_token_ids(token_lists, oracle_dictionary)
            assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
            assert np.array_equal(starts, want_starts)
            assert list(word_ids.items()) == list(want_word_ids.items())
        index = NGramIndex(docs, {1, 2}, None)
        assert list(index.word_ids.items()) == list(NGramIndex(docs, {1, 2}, every).word_ids.items())

    @pytest.mark.parametrize("ords", [{1}, {2}, {1, 2}, {1, 3}, {1, 2, 3}], ids=str)
    @settings(max_examples=100, deadline=None)
    @given(docs=documents, dictionary=dictionaries)
    @example(docs=[], dictionary=set(WORDS))
    @example(docs=[Document(id="d0", label=1, tokens=())], dictionary=set(WORDS))
    def test_index_keys_and_ids(self, ords, docs, dictionary):
        # unigram ids are numbered without a sort; every order must still be the sort's
        for given_dictionary in (None, dictionary, set()):
            index = NGramIndex(docs, ords, given_dictionary)
            want_keys, want_ids = reference_index(docs, ords, given_dictionary)
            for got, want in ((index.keys, want_keys), (index.ngram_ids, want_ids)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_negative_zero_rows_average_to_positive_zero(self):
        wv = WordVectors(words={"a": 0, "b": 1}, matrix=np.array([[-0.0, 1.0], [-0.0, -1.0]]))
        docs = [Document(id="d0", label=1, tokens=("a", "b"))]
        vocab = build_vocab(docs, NGramIndex(docs, {1, 2}, {"a", "b"}))
        table = embed_all(vocab, wv).X
        assert not np.signbit(table[:, 0]).any()
        assert_same_bits(table, reference_table(vocab.entries, wv))

    def test_count_chunks_join_at_document_ends(self, monkeypatch):
        monkeypatch.setattr(corpus, "_CHUNK_TOKENS", 5)
        docs = [Document(id=f"d{i}", label=1, tokens=tuple("abcab"[: i % 6])) for i in range(20)]
        vocab = build_vocab(docs, NGramIndex(docs, {1, 2, 3}, set("abc")))
        assert_same_csr(count_vectors(docs, vocab), reference_counts(docs, vocab.entries, {1, 2, 3}))

    def test_keys_past_int32_over_many_words(self):
        # 2000 words, all in the first document, make trigram keys reach
        # 2001**3 > 2**31: keys must be computed in int64 although the word
        # ids are int32
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(2000)]
        docs = [Document(id="d0", label=1, tokens=tuple(rng.permutation(words)))] + [
            Document(id=f"d{i}", label=1, tokens=tuple(rng.choice(words + ["oov"], size=900)))
            for i in range(1, 4)
        ]
        ords = {1, 2, 3}
        index = NGramIndex(docs, ords, set(words))
        vocab = build_vocab(docs[:3], index)
        want = reference_vocab(docs[:3], ords, set(words))
        assert index.keys[vocab.ids].max() > 2**31
        assert vocab.entries == want
        reversed_vocab = NGramVocabulary(index, vocab.ids[::-1])
        assert reversed_vocab.entries == want[::-1]
        for v, entries in ((vocab, want), (reversed_vocab, want[::-1])):
            assert_same_csr(count_vectors(docs, v), reference_counts(docs, entries, ords))
