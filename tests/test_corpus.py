import re
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conceptbag.corpus import (
    Dataset,
    Document,
    NGramIndex,
    build_vocab,
    count_vectors,
    load_imdb_dataset,
    load_polarity_dataset,
    tokenize,
)
from conceptbag import corpus
from conceptbag.embeddings import WordVectors, embed_all
from conceptbag.errors import (
    BadLabel, BadOrders, EmptyVocabulary, MissingDirectory, NGramKeyOverflow, UnknownDocument,
)

from conftest import indexed_vocab, make_synthetic_sentiment, vocab_of
from reference_tokenizer import reference_tokenize


def doc(tokens, label=1, id="d0"):
    return Document(id=id, label=label, tokens=tuple(tokens))


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_and_punctuation(self):
        assert tokenize("Great movie!") == ["great", "movie", "!"]

    def test_digit_runs(self):
        # reference oracle: digits collapse, "/" splits off
        assert tokenize("rated 7/10") == ["rated", "0", "/", "0"]
        assert tokenize("in 1984") == ["in", "0"]

    def test_clitics(self):
        assert tokenize("didn't enjoy") == ["did", "n't", "enjoy"]
        assert tokenize("it's fine") == ["it", "'s", "fine"]

    def test_no_uppercase_or_empty_tokens(self):
        toks = tokenize("Mixed CASE, 123 and O'Brien...")
        assert all(t == t.lower() for t in toks)
        assert all(toks)

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.text(max_size=200))
    def test_digit_runs_collapse(self, text):
        for tok in tokenize(text):
            assert not re.search(r"\d", tok) or tok == "0" or "0" in tok
            # a token never contains two adjacent digits
            assert "00" not in tok

    def test_digit_run_becomes_0_inside_its_token(self):
        assert tokenize("b2b 2nd a\u0663b") == ["b0b", "0nd", "a0b"]

    # any code point, or a piece of the grammar: ASCII and non-ASCII letters (the
    # Kelvin sign lowercases to "k", U+0130 to "i" and a combining dot), ASCII and
    # non-ASCII decimal digits and a superscript digit, which is not decimal, clitics,
    # punctuation, and every kind of whitespace
    _PIECES = st.sampled_from([
        "a", "Z", "k", "\u212a", "\u0130", "\u00e9", "\u00df", "\u03a3",
        "0", "7", "42", "\u0663", "\uff11", "\u00b2",
        "'", "'S", "n't", "N'T", "n'", "'t", ".", ",", "!", "-", "/", "$",
        " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
        "\u00a0", "\u1680", "\u2000", "\u2028", "\u2029", "\u202f", "\u3000",
    ])

    @given(st.lists(_PIECES | st.characters(), max_size=40).map("".join))
    @example("Caf\u00e9 DIDN'T cost \u20ac2,50 \u2014 b2b\u3000it's 2nd")
    def test_matches_the_whole_text_regex(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_every_code_point_alone_matches_the_whole_text_regex(self):
        text = " ".join(map(chr, range(sys.maxunicode + 1)))
        assert tokenize(text) == reference_tokenize(text)

    def test_split_whitespace_is_the_pattern_whitespace(self):
        # tokenize splits chunks at str.isspace; the pattern's \S stops at \s
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert [c for c in every if c.isspace()] == re.findall(r"\s", every)


class TestExtractNgrams:
    """The n-gram windows that build_vocab collects and count_vectors counts."""

    def test_too_short(self):
        with pytest.raises(EmptyVocabulary):
            indexed_vocab([doc(["a"])], {2}, {"a"})
        counted = doc(["a"], id="z")
        v = indexed_vocab([doc(["a", "b"], id="x"), doc(["a"], id="y")], {1, 2, 3}, {"a", "b"}, [counted])
        assert v.entries == [("a",), ("b",), ("a", "b")]
        assert count_vectors([counted], v).toarray().tolist() == [[1, 0, 0]]

    def test_all_windows(self):
        d = doc(["not", "good"])
        v = indexed_vocab([d], {1, 2}, {"not", "good"})
        assert v.entries == [("not",), ("good",), ("not", "good")]
        assert count_vectors([d], v).toarray().tolist() == [[1, 1, 1]]

    def test_oov_drops_whole_window(self):
        d = doc(["not", "xzq", "good"])
        with pytest.raises(EmptyVocabulary):
            indexed_vocab([d], {2}, {"not", "good"})
        v = indexed_vocab([d], {1, 2}, {"not", "good"})
        assert v.entries == [("not",), ("good",)]
        assert count_vectors([d], vocab_of([("not", "good")], {2}, [d])).nnz == 0

    @given(
        st.lists(st.sampled_from("abcd"), max_size=30),
        st.sets(st.sampled_from([1, 2, 3]), min_size=1),
    )
    def test_window_count_with_full_dictionary(self, tokens, orders):
        grams = [g for n in sorted(orders) for g in product("abcd", repeat=n)]
        got = count_vectors([doc(tokens)], vocab_of(grams, orders, [doc(tokens)]))
        expected = sum(max(0, len(tokens) - n + 1) for n in orders)
        assert got.sum() == expected


class TestBuildVocab:
    def test_single(self):
        v = indexed_vocab([doc(["good"])], {1}, {"good"})
        assert len(v) == 1

    def test_dedup(self):
        v = indexed_vocab([doc(["good"], id="a"), doc(["good"], id="b")], {1}, {"good"})
        assert len(v) == 1

    def test_first_occurrence_order(self):
        v = indexed_vocab([doc(["b", "a", "b"])], {1}, {"a", "b"})
        assert v.entries == [("b",), ("a",)]

    def test_empty_raises(self):
        with pytest.raises(EmptyVocabulary):
            indexed_vocab([doc(["zzz"])], {1}, {"good"})

    def test_shrinking_dictionary_never_grows_vocab(self):
        docs = [doc(["a", "b", "c", "a", "b"])]
        full = indexed_vocab(docs, {1, 2}, {"a", "b", "c"})
        smaller = indexed_vocab(docs, {1, 2}, {"a", "b"})
        assert len(smaller) <= len(full)


class TestStoredForm:
    """A vocabulary stores its n-grams once, as keys; tuples are decoded when read."""

    def test_pipeline_decodes_no_tuple(self):
        docs = [doc(["a", "b", "c", "a", "b"], id="x"), doc(["c", "b", "zzz", "a"], id="y")]
        vocab = indexed_vocab(docs, {1, 2}, {"a", "b", "c"})
        wv = WordVectors(words={"a": 0, "b": 1, "c": 2}, matrix=np.eye(3))
        count_vectors(docs, vocab)
        embed_all(vocab, wv)
        assert len(vocab) == 7
        assert "entries" not in vars(vocab)
        assert vocab.entries == [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "b")]


class TestOrders:
    @pytest.mark.parametrize("orders", [{0, 1}, {4}, {1, 4}, set()])
    def test_build_vocab_rejects_orders_outside_one_to_three(self, orders):
        with pytest.raises(BadOrders):
            indexed_vocab([doc(["a", "b", "a", "b"])], orders, {"a", "b"})

    def test_key_overflow_is_named(self):
        # 2**21 words: base**3 exceeds int64, base**2 does not
        assert corpus._key_base(2**21 - 2, (1, 2, 3)) == 2**21 - 1
        with pytest.raises(NGramKeyOverflow):
            corpus._key_base(2**21, (1, 2, 3))
        assert corpus._key_base(2**21, (1, 2)) == 2**21 + 1


class TestCountVectors:
    def test_repeat(self):
        v = indexed_vocab([doc(["good", "good"])], {1}, {"good"})
        m = count_vectors([doc(["good", "good"])], v)
        assert m[0, 0] == 2

    def test_empty_row(self):
        v = indexed_vocab([doc(["good"])], {1}, {"good"}, [doc(["zzz"], id="z")])
        m = count_vectors([doc(["zzz"], id="z")], v)
        assert m.nnz == 0

    def test_bigram_counts(self):
        d = doc(["not", "good", "not", "good"])
        v = indexed_vocab([d], {1, 2}, {"not", "good"})
        m = count_vectors([d], v)
        idx = {g: i for i, g in enumerate(v.entries)}
        assert m[0, idx[("not",)]] == 2
        assert m[0, idx[("good",)]] == 2
        assert m[0, idx[("not", "good")]] == 2
        assert m[0, idx[("good", "not")]] == 1

    @given(
        st.lists(st.lists(st.sampled_from("abc"), max_size=25), min_size=1, max_size=4),
        st.sets(st.sampled_from([1, 2, 3]), min_size=1),
    )
    def test_row_sum_matches_multiset_size(self, token_lists, orders):
        # every token is in the vocabulary's words, so every window within a
        # document is a column, and no window crosses a document end
        grams = [g for n in sorted(orders) for g in product("abc", repeat=n)]
        docs = [doc(t, id=f"d{i}") for i, t in enumerate(token_lists)]
        m = count_vectors(docs, vocab_of(grams, orders, docs))
        expected = [sum(max(0, len(t) - n + 1) for n in orders) for t in token_lists]
        assert m.sum(axis=1).A1.tolist() == expected


class TestNGramIndex:
    """One index numbers a set of documents; vocabularies and counts select from it."""

    docs = [doc(["a", "b", "c", "a"], id="x"), doc(["c", "zzz", "b", "a"], id="y"), doc(["b", "b"], id="z")]

    def test_selects_what_a_call_on_its_own_documents_finds(self):
        # an index over more documents than a call reads gives what one over just those gives
        index = NGramIndex(self.docs, {1, 2}, {"a", "b", "c"})
        train, test = self.docs[1:], self.docs[:1]
        vocab = build_vocab(train, index)
        assert vocab.word_ids is index.word_ids
        for counted in (train, test):
            alone = indexed_vocab(train, {1, 2}, {"a", "b", "c"}, counted)
            assert vocab.entries == alone.entries
            got, want = count_vectors(counted, vocab), count_vectors(counted, alone)
            assert (got != want).nnz == 0

    @pytest.mark.parametrize("unknown", [doc(["a", "b"], id="w"), doc(["filler0"] * 5, id="y")])
    def test_unknown_document_is_named(self, unknown):
        # an unknown id, and an indexed id with other tokens, as when test documents are
        # swapped for junk: the indexed document's tokens must never be counted instead
        index = NGramIndex(self.docs, {1, 2}, {"a", "b", "c"})
        vocab = build_vocab(self.docs, index)
        with pytest.raises(UnknownDocument, match=repr(unknown.id)):
            build_vocab([unknown], index)
        with pytest.raises(UnknownDocument, match=repr(unknown.id)):
            count_vectors(self.docs[:1] + [unknown], vocab)

    def test_shared_id_selects_by_tokens(self):
        # an index may hold two documents with one id: each selects its own positions,
        # a tokens tuple equal to one of theirs selects that one's, and a third raises
        first, second = doc(["c", "a", "b"], id="y"), doc(["b"], id="y")
        index = NGramIndex(self.docs[:1] + [first, second], {1, 2}, {"a", "b", "c"})
        for d, start in ((first, 5), (second, 9)):
            own = index.ngram_ids[:, start : start + len(d.tokens)].ravel()
            equal = doc(list(d.tokens), id="y")
            assert equal.tokens is not d.tokens
            for selected in (d, equal):
                ids, doc_of = index.select([selected])
                assert np.array_equal(ids, own) and not doc_of.any()
        with pytest.raises(UnknownDocument, match=repr("y")):
            index.select([doc(["a", "b"], id="y")])

    def test_iterable_documents(self):
        # build_vocab and the index read their documents more than once
        index = NGramIndex(iter(self.docs), {1, 2}, {"a", "b", "c"})
        want = build_vocab(self.docs, index)
        got = build_vocab(iter(self.docs), index)
        assert got.entries == want.entries
        assert np.array_equal(got.ids, want.ids)
        assert want.entries == indexed_vocab(self.docs, {1, 2}, {"a", "b", "c"}).entries

    def test_mismatched_settings_rejected(self):
        # a vocabulary takes its orders and word numbering from its index, and counts
        # only the documents that index holds
        index = NGramIndex(self.docs, {1}, {"a", "b", "c"})
        vocab = build_vocab(self.docs, index)
        assert vocab.orders == index.orders and vocab.word_ids is index.word_ids
        other = indexed_vocab(self.docs[1:], {1}, {"a", "b", "c"})
        with pytest.raises(UnknownDocument, match=repr("x")):
            count_vectors(self.docs, other)


class TestLoaders:
    def _write(self, root, rel, text):
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")

    def test_polarity(self, tmp_path):
        self._write(tmp_path, "pos/a.txt", "Great movie!")
        self._write(tmp_path, "neg/b.txt", "Terrible.")
        ds = load_polarity_dataset(tmp_path)
        assert len(ds.documents) == 2
        labels = {d.id.split("/")[0]: d.label for d in ds.documents}
        assert labels == {"pos": 1, "neg": -1}

    def test_polarity_missing_neg(self, tmp_path):
        self._write(tmp_path, "pos/a.txt", "x")
        with pytest.raises(MissingDirectory):
            load_polarity_dataset(tmp_path)

    def test_imdb(self, tmp_path):
        for rel in ["train/pos/a.txt", "train/neg/b.txt", "test/pos/c.txt", "test/neg/d.txt"]:
            self._write(tmp_path, rel, "some review")
        ds = load_imdb_dataset(tmp_path)
        assert [d.id for d in ds.documents] == ["train/pos/a.txt", "train/neg/b.txt", "test/pos/c.txt",
                                                "test/neg/d.txt"]
        assert [d.label for d in ds.documents] == [1, -1, 1, -1]
        assert (ds.train_ids, ds.test_ids) == ([0, 1], [2, 3])
        # an unlabeled train/unsup review is not read
        self._write(tmp_path, "train/unsup/e.txt", "another review")
        assert load_imdb_dataset(tmp_path) == ds

    def test_imdb_line_breaks_are_spaces(self, tmp_path):
        for rel in ["train/neg/b.txt", "test/pos/c.txt", "test/neg/d.txt"]:
            self._write(tmp_path, rel, "fine")
        self._write(tmp_path, "train/pos/a.txt", "A fine film.<br /><br />I liked it<br/>a lot")
        ds = load_imdb_dataset(tmp_path)
        assert ds.documents[0].tokens == ("a", "fine", "film", ".", "i", "liked", "it", "a", "lot")
        # the polarity layout has no markup and keeps the tokenizer's tokens
        self._write(tmp_path, "pos/a.txt", "film.<br />I")
        self._write(tmp_path, "neg/b.txt", "fine")
        assert load_polarity_dataset(tmp_path).documents[0].tokens == tuple(tokenize("film.<br />I"))

    @pytest.mark.parametrize(
        "load, files",
        [
            (load_polarity_dataset, ["pos/a.txt", "neg/b.txt"]),
            (load_imdb_dataset, ["train/pos/a.txt", "train/neg/b.txt", "test/pos/c.txt", "test/neg/d.txt"]),
        ],
        ids=["polarity", "imdb"],
    )
    def test_logs_documents_tokens_and_seconds_at_info(self, tmp_path, caplog, load, files):
        for rel in files:
            self._write(tmp_path, rel, "Great movie!")
        with caplog.at_level("INFO", logger="conceptbag.corpus"):
            ds = load(tmp_path)
        [message] = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        pattern = rf"loaded {ds.name} dataset {re.escape(str(tmp_path))}: {len(files)} documents, {3 * len(files)} tokens in \d+\.\d{{3}} s"
        assert re.fullmatch(pattern, message)

    def test_files_in_sorted_path_order(self, tmp_path):
        names = ["b.txt", "B.txt", "a10.txt", "a9.txt", "a_1.txt", "é.txt", "z.txt", "Ω.txt", "0.txt", "a b.txt"]
        for name in names:
            self._write(tmp_path, f"pos/{name}", name)
        (tmp_path / "pos" / "sub.txt").mkdir()  # a folder is not a document
        (tmp_path / "neg").mkdir()
        ds = load_polarity_dataset(tmp_path)
        want = [f"pos/{p.name}" for p in sorted((tmp_path / "pos").iterdir()) if p.is_file()]
        assert [d.id for d in ds.documents] == want and len(want) == len(names)
        assert all(d.tokens == tuple(corpus.tokenize(d.id[4:])) for d in ds.documents)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Dataset(name="x", documents=[doc(["a"], id="same"), doc(["b"], id="same")])

    @pytest.mark.parametrize("label", [None, 0, 2])
    def test_label_other_than_plus_or_minus_one_rejected(self, label):
        ds, _ = make_synthetic_sentiment(seed=1, n_docs=40)
        docs = list(ds.documents)
        docs[7] = Document(id=docs[7].id, label=label, tokens=docs[7].tokens)
        with pytest.raises(BadLabel, match=rf"document '{docs[7].id}' .* label {label!r}"):
            Dataset(name="synthetic", documents=docs)

    def test_undecodable_bytes_dropped(self, tmp_path):
        p = tmp_path / "pos"
        p.mkdir()
        (p / "a.txt").write_bytes(b"ok \xff\xfe text")
        (tmp_path / "neg").mkdir()
        ds = load_polarity_dataset(tmp_path)
        assert ds.documents[0].tokens == ("ok", "text")
