import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sgns_pair_corpus, vocab_of
from reference_sgns_loss import sgns_loss_and_grad
from reference_vectors import reference_load_word_vectors

from conceptbag import embeddings
from conceptbag.corpus import Document, NGramIndex, NGramVocabulary, build_vocab
from conceptbag.embeddings import (
    NGramTable,
    SgnsConfig,
    WordVectors,
    _noise_draws,
    _noise_table,
    _sgns_coefficients,
    embed_all,
    embed_ngram,
    load_word_vectors,
    save_word_vectors,
    train_sgns,
    word_means,
    word_rows,
)
from conceptbag.errors import BadConfig, DimensionMismatch, EmptyCorpus, MalformedLine, UnknownWord
from conceptbag.errors import SgnsDiverged


def make_wv(mapping):
    words = {w: i for i, w in enumerate(mapping)}
    matrix = np.array([mapping[w] for w in mapping], dtype=np.float64)
    return WordVectors(words=words, matrix=matrix)


class TestLoader:
    def test_with_header(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        wv = load_word_vectors(p)
        assert len(wv) == 2 and wv.dim == 3
        assert np.allclose(wv.vector("a"), [1, 0, 0])

    def test_headerless(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("a 1 0\nb 0 1\n")
        wv = load_word_vectors(p)
        assert len(wv) == 2 and wv.dim == 2

    def test_headerless_one_dimensional(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("good 0.5\nbad -0.5\n")
        wv = load_word_vectors(p)
        assert len(wv) == 2 and wv.dim == 1
        assert wv.vector("good")[0] == 0.5

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(DimensionMismatch, match=re.escape(f"{p} line 3: ")):
            load_word_vectors(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1 0\nb x y\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{p} line 3: ")):
            load_word_vectors(p)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("b 1 x 0", "value 2, 'x', is not a number"),
            ("b 1,5 2 0", "value 1, '1,5', is not a number"),
            ("b 1\t 2 \t", "value 3, '\\t', is not a number"),
            ("b  1  2  1e", "value 3, '1e', is not a number"),
        ],
        ids=["x", "comma", "tab", "runs-of-spaces"],
    )
    def test_malformed_line_names_the_value_and_its_place_in_the_row(self, tmp_path, row, reason):
        p = tmp_path / "v.txt"
        p.write_text(f"2 3\na 1 0 0\n{row}\n")
        with pytest.raises(MalformedLine) as info:
            load_word_vectors(p)
        assert str(info.value) == f"{p} line 3: {reason}"

    @pytest.mark.parametrize(
        "content, line",
        [("good\nfilm\n", 1), ("good\nfilm 1 2\n", 1), ("2 0\ngood\nfilm\n", 1), ("0 0\n", 1)],
        ids=["bare-words", "bare-first-row", "header-dim-0", "empty-header-dim-0"],
    )
    def test_no_values_per_row_rejected(self, tmp_path, content, line):
        p = tmp_path / "v.txt"
        p.write_text(content)
        with pytest.raises(MalformedLine, match=re.escape(f"{p} line {line}: ")):
            load_word_vectors(p)

    def test_crlf_line_ends(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"2 2\r\na 1 0\r\nb 0 1\r\n")
        wv = load_word_vectors(p)
        assert wv.dim == 2 and wv.vector("b").tolist() == [0.0, 1.0]

    def test_duplicate_keeps_last(self, tmp_path, caplog):
        p = tmp_path / "v.txt"
        p.write_text("2 2\na 1 0\na 0 1\n")
        with caplog.at_level("WARNING"):
            wv = load_word_vectors(p)
        assert len(wv) == 1
        assert np.allclose(wv.vector("a"), [0, 1])
        assert any("duplicate" in r.message for r in caplog.records)

    def test_roundtrip(self, tmp_path):
        wv = make_wv({"a": [0.1, -2.5], "b": [3.25, 1e-8]})
        p = tmp_path / "v.txt"
        save_word_vectors(wv, p)
        back = load_word_vectors(p)
        assert back.words == wv.words
        assert np.array_equal(back.matrix, wv.matrix)


def load_outcome(load, path):
    """("ok", words in order, matrix shape, matrix bytes), or (exception type, line) of ``load(path)``."""
    try:
        got = load(path)
    except (ValueError, MalformedLine, DimensionMismatch) as exc:
        return type(exc).__name__, re.search(r" line (\d+): ", str(exc)).group(1)
    words, matrix = (got.words, got.matrix) if isinstance(got, WordVectors) else got
    return "ok", list(words.items()), matrix.shape, matrix.tobytes()


# values inside the format's grammar; float() and numpy's parser read each alike
_GOOD_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0", "+1", ".5", "5.", "1e5", "1E-5", "5e-324", "2.5e-310", "-1.5E+300", "1e400",
                     "NaN", "-inf", "Infinity", "\t1", "1\t", "1\r", "007"]),
)
_BAD_VALUES = st.sampled_from(["x", "1.2.3", "--1", "1e", "\t", "\r", "1\t2", "1\r2", "1,5", "0x10"])


@st.composite
def vector_files(draw):
    """Bytes of a word-vector file over the format's grammar, errors of every kind included."""
    dim = draw(st.integers(1, 3))
    values = _GOOD_VALUES if draw(st.integers(0, 3)) else st.one_of(_GOOD_VALUES, _BAD_VALUES)
    word = st.sampled_from(["0", "7", "a", "b", "c", "é", "词", "a\tb", "Ab"])
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        width = draw(st.sampled_from([dim] * 8 + [dim - 1, dim + 1, 0]))
        fields = [draw(word)] + draw(st.lists(values, min_size=width, max_size=width))
        sep = draw(st.sampled_from([" ", " ", " ", "  "]))
        lead, trail = draw(st.sampled_from(["", "", " "])), draw(st.sampled_from(["", "", " ", "  "]))
        lines.append(lead + sep.join(fields) + trail + draw(st.sampled_from(["\n", "\n", "\r\n", "\n\n"])))
    header = draw(st.sampled_from(["none", "count", "count", "over", "under", "dim+1", "dim 0"]))
    if header != "none":
        count = len(lines) + {"over": 1, "under": -1}.get(header, 0)
        lines.insert(0, f"{max(count, 0)} {0 if header == 'dim 0' else dim + (header == 'dim+1')}\n")
    data = "".join(lines).encode("utf-8")
    if lines and draw(st.integers(0, 5)) == 0:
        data = data.rstrip(b"\n")  # a last line without its newline
    if lines and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]  # a byte that is not UTF-8
    return data


class TestChunkedReader:
    """The chunked reader against the per-line reference reader it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(vector_files(), st.sampled_from([1, 2, 3, 256]))
    def test_same_words_bits_and_errors_as_the_reference(self, tmp_path_factory, data, chunk):
        p = tmp_path_factory.getbasetemp() / "chunked-reader-vectors.txt"
        p.write_bytes(data)
        with mock.patch.object(embeddings, "_LOAD_CHUNK_ROWS", chunk):
            got = load_outcome(load_word_vectors, p)
        assert got == load_outcome(reference_load_word_vectors, p)

    @pytest.mark.parametrize(
        "rows, line, error",
        [
            (["a 1 2", "b 3 4", "c 5 6", "d x 8", "e 9 1", "f 2 3"], 5, MalformedLine),
            (["a 1 2", "b 3 4", "c 5 x", "d 7 8", "e 9 1", "f 2 3"], 4, MalformedLine),
            (["a 1 2", "b 3 4", "c 5 6", "d 7 8 9", "e 9 1", "f 2 3"], 5, DimensionMismatch),
            (["a 1 2", "b 3 4", "c 5", "d 7 8", "e 9 1", "f 2 3"], 4, DimensionMismatch),
            (["a 1 2", "b 3 4", "c 5 6", "d", "e 9 1", "f 2 3"], 5, DimensionMismatch),
        ],
        ids=["bad-value-first", "bad-value-last", "too-wide-first", "too-short-last", "bare-word-first"],
    )
    def test_bad_row_at_a_chunk_edge(self, tmp_path, monkeypatch, rows, line, error):
        monkeypatch.setattr(embeddings, "_LOAD_CHUNK_ROWS", 3)
        p = tmp_path / "v.txt"
        p.write_text("6 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(error, match=re.escape(f"{p} line {line}: ")):
            load_word_vectors(p)

    @pytest.mark.parametrize("header", ["", "5 2\n"])
    def test_duplicate_across_chunks_keeps_last_at_first_position(self, tmp_path, monkeypatch, header):
        monkeypatch.setattr(embeddings, "_LOAD_CHUNK_ROWS", 2)
        p = tmp_path / "v.txt"
        p.write_text(header + "a nan 0\nb 1 1\nc 2 2\na 3 3\nd 4 4\n")
        wv = load_word_vectors(p)  # the NaN row is replaced, so it is not an error
        assert list(wv.words) == ["a", "b", "c", "d"]
        assert wv.matrix.tolist() == [[3, 3], [1, 1], [2, 2], [4, 4]]

    @pytest.mark.parametrize("rows", [3, 4, 5])
    @pytest.mark.parametrize("off, line", [(1, "missing"), (-1, "last")])
    def test_header_count_one_off(self, tmp_path, monkeypatch, rows, off, line):
        monkeypatch.setattr(embeddings, "_LOAD_CHUNK_ROWS", 2)
        p = tmp_path / "v.txt"
        p.write_text(f"{rows + off} 2\n" + "".join(f"w{i} {i} 1\n" for i in range(rows)))
        lineno = rows + 2 if line == "missing" else rows + 1
        with pytest.raises(MalformedLine, match=re.escape(f"{p} line {lineno}: ")):
            load_word_vectors(p)

    def test_headerless_file_grows_by_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_LOAD_CHUNK_ROWS", 2)
        p = tmp_path / "v.txt"
        p.write_text("".join(f"w{i} {i} {-i}.5\n" for i in range(7)))
        wv = load_word_vectors(p)
        assert wv.matrix.shape == (7, 2) and wv.matrix[6].tolist() == [6.0, -6.5]

    def test_header_count_beyond_the_file_size_is_a_missing_row(self, tmp_path):
        # the matrix is sized by the rows the file can hold, not by the header alone
        p = tmp_path / "v.txt"
        p.write_text("10000000000000 3\na 1 2 3\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{p} line 3: ")):
            load_word_vectors(p)

    @pytest.mark.parametrize("value", ["1_000", "١", "１"])
    def test_values_only_python_float_reads_are_rejected(self, tmp_path, value):
        # digit separators and non-ASCII digits are not in the format; numpy's parser rejects them
        p = tmp_path / "v.txt"
        p.write_text(f"a {value} 2\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{p} line 1: ")):
            load_word_vectors(p)


class TestEmbedNgram:
    def test_unigram_identity(self):
        wv = make_wv({"good": [1.0, 2.0]})
        assert np.array_equal(embed_ngram(("good",), wv), [1.0, 2.0])

    def test_bigram_mean(self):
        wv = make_wv({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert np.allclose(embed_ngram(("a", "b"), wv), [0.5, 0.5])

    def test_trigram_mean(self):
        # oracle: independent summation of (3,0)+(0,3)+(3,3) over 3
        wv = make_wv({"a": [3.0, 0.0], "b": [0.0, 3.0], "c": [3.0, 3.0]})
        assert np.allclose(embed_ngram(("a", "b", "c"), wv), [2.0, 2.0])

    def test_unknown_word_names_position(self):
        wv = make_wv({"a": [1.0]})
        with pytest.raises(UnknownWord) as exc:
            embed_ngram(("a", "zzz"), wv)
        assert exc.value.word == "zzz" and exc.value.position == 1

    def test_no_words_rejected(self):
        # 0 / 0 would give a NaN row with only a warning
        with pytest.raises(DimensionMismatch, match="no words"):
            embed_ngram((), make_wv({"a": [1.0, 2.0]}))

    def test_repeated_word_equals_word(self):
        wv = make_wv({"w": [0.3, -0.7, 2.0]})
        assert np.allclose(embed_ngram(("w", "w"), wv), wv.vector("w"))

    @given(st.lists(st.sampled_from("ab"), min_size=1, max_size=3))
    def test_norm_bounded_by_max_word_norm(self, words):
        wv = make_wv({"a": [3.0, -1.0], "b": [0.5, 2.0]})
        out = embed_ngram(tuple(words), wv)
        max_norm = max(np.linalg.norm(wv.vector(w)) for w in set(words))
        assert np.linalg.norm(out) <= max_norm + 1e-12


class TestEmbedAll:
    def test_matches_individual_rows(self):
        wv = make_wv({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        vocab = vocab_of([("a",), ("a", "b"), ("b", "a")], {1, 2})
        table = embed_all(vocab, wv)
        for t, gram in enumerate(vocab.entries):
            assert np.array_equal(table.X[t], embed_ngram(gram, wv))

    def test_empty_vocab(self):
        wv = make_wv({"a": [1.0, 2.0]})
        table = embed_all(vocab_of([], {1}), wv)
        assert table.shape == (0, 2)

    def test_word_rows_name_the_index_words(self):
        # the index numbers "a" then "b"; the vector file's "x" and its order play no part
        wv = make_wv({"x": [5.0, 6.0], "b": [3.0, 4.0], "a": [1.0, 2.0]})
        vocab = vocab_of([("a",), ("a", "b"), ("b", "a")], {1, 2})
        W, ids = word_rows(vocab, wv)
        assert W.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ids.tolist() == [[0, -1], [0, 1], [1, 0]]
        assert ids.tobytes() == vocab.word_id_matrix().tobytes()
        with pytest.raises(UnknownWord, match="'b'") as exc:
            word_rows(vocab, make_wv({"a": [1.0, 2.0]}))
        assert exc.value.position == 1

    def test_word_means_skip_the_padding_wherever_it_lies(self):
        # the sum starts at +0.0, as embed_ngram's does, so a -0.0 coordinate reads +0.0
        W = np.array([[1.0, -0.0], [3.0, 4.0], [5.0, 6.0]])
        out = word_means(W, np.array([[1, -1], [-1, 1], [0, 2], [-1, 0]]), np.empty((4, 2)))
        assert out.tolist() == [[3.0, 4.0], [3.0, 4.0], [3.0, 3.0], [1.0, 0.0]]
        assert not np.signbit(out).any()

    def test_word_rows_leave_an_unnamed_word_without_a_vector_at_zero(self):
        # "b" is a word of the index, but not of the vocabulary's n-grams
        full = vocab_of([("a",), ("b",)], {1})
        vocab = NGramVocabulary(full.index, full.ids[[list(full.entries).index(("a",))]])
        W, ids = word_rows(vocab, make_wv({"a": [1.0, 2.0]}))
        assert W.tolist() == [[1.0, 2.0], [0.0, 0.0]]
        assert ids.tolist() == [[0]]

    @pytest.mark.parametrize("where", ["appended", "interleaved", "permuted"])
    def test_unused_words_change_no_bit(self, where):
        # a vector file holds many words no n-gram names, in any order; word_rows
        # gives the index's words alone, in its order, so the fit never sees the rest
        rng = np.random.default_rng(43)
        names = [f"w{i}" for i in range(30)]
        documents = [Document(id=str(i), label=1, tokens=tuple(rng.choice(names, size=20))) for i in range(10)]
        wv = WordVectors(words={w: i for i, w in enumerate(names)}, matrix=rng.normal(size=(30, 8)))
        unused = [f"unused{i}" for i in range(20_000)]
        order = names + unused
        if where == "interleaved":
            order = [*unused[:10_000], *names[:15], *unused[10_000:], *names[15:]]
        elif where == "permuted":
            order = [order[i] for i in rng.permutation(len(order))]
        extra = dict(zip(unused, rng.normal(size=(len(unused), 8))))
        big = WordVectors(
            words={w: i for i, w in enumerate(order)},
            matrix=np.array([wv.vector(w) if w in wv else extra[w] for w in order]),
        )

        def rows_of(vectors):
            return word_rows(build_vocab(documents, NGramIndex(documents, (1, 2), vectors.words)), vectors)

        (W, ids), (want_W, want_ids) = rows_of(big), rows_of(wv)
        assert W.tobytes() == want_W.tobytes() and ids.tobytes() == want_ids.tobytes()


class TestNGramTable:
    """A table's rows are its words' means; the constructor and read-only arrays keep them so."""

    @staticmethod
    def words_and_ids():
        W = np.random.default_rng(44).normal(size=(6, 3))
        ids = np.array([[0, -1], [0, 1], [1, 0], [2, 3], [4, -1], [5, 5], [3, 2], [1, 4], [2, -1]])
        return W, ids

    def test_word_rows_of_another_shape_rejected(self):
        W, ids = self.words_and_ids()
        for args in ((W, ids[:, 0]), (W, ids[None]), (W[0], ids), (W, ids.astype(np.float64))):
            with pytest.raises(DimensionMismatch, match="word matrix"):
                NGramTable(*args)

    def test_arrays_are_read_only(self):
        # a row with two coordinates swapped keeps its sum and norm, and a fit
        # that scores it from its words would mislabel it: no array of a table
        # takes that write, the caller's own arrays included, and a view is
        # copied, so a write through its base changes no bit of the table
        W, ids = self.words_and_ids()
        table = NGramTable(W, ids)
        for array in (table.X, table.W, table.ids, W, ids):
            with pytest.raises(ValueError, match="read-only"):
                array[1, [0, 1]] = array[1, [1, 0]]
        base = np.vstack([W, W])
        table = NGramTable(base[: len(W)], ids)
        X = table.X.copy()
        base[:] = 0.0
        assert table.X.tobytes() == X.tobytes() and table.W.tobytes() == W.tobytes()
        assert table.shape == X.shape


class TestSgns:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            center = rng.normal(size=8)
            context = rng.normal(size=8)
            negatives = [rng.normal(size=8) for _ in range(5)]
            _, grad = sgns_loss_and_grad(center, context, negatives)
            fd = np.zeros_like(grad)
            h = 1e-6
            for j in range(8):
                up, down = center.copy(), center.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (
                    sgns_loss_and_grad(up, context, negatives)[0]
                    - sgns_loss_and_grad(down, context, negatives)[0]
                ) / (2 * h)
            assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-4

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_sgns([["a", "b"]], SgnsConfig(min_count=5))

    def test_zero_epochs_keeps_initialization(self):
        cfg = SgnsConfig(dim=4, epochs=0, min_count=1, seed=3)
        wv = train_sgns([["a", "b", "a", "b"]], cfg)
        rng = np.random.default_rng(3)
        expected = rng.uniform(-0.5 / 4, 0.5 / 4, size=(2, 4))
        assert np.array_equal(wv.matrix, expected)

    def test_deterministic(self):
        docs = [["x", "y", "z", "x", "y"] * 4] * 5
        cfg = SgnsConfig(dim=6, epochs=2, min_count=1, seed=11)
        a = train_sgns(docs, cfg)
        b = train_sgns(docs, cfg)
        assert a.words == b.words
        assert np.array_equal(a.matrix, b.matrix)

    def test_cooccurring_pair_becomes_similar(self):
        from conftest import cosine, sgns_pair_config, sgns_pair_corpus

        docs, words = sgns_pair_corpus(seed=1)
        wv = train_sgns(docs, sgns_pair_config(seed=1))
        pair = cosine(wv, "x", "y")
        present = [w for w in words if w in wv.words]
        rng = np.random.default_rng(1000)
        rand = [
            cosine(wv, *map(str, rng.choice(present, size=2, replace=False)))
            for _ in range(300)
        ]
        assert pair > np.quantile(rand, 0.95)


def reference_sgns(documents, config, block):
    """The per-pair trainer's vocabulary, initialization and draws, with a
    block of ``block`` consecutive pairs trained from one snapshot of the
    vectors and applied by np.subtract.at; block=1 is the per-pair trainer."""
    docs = [list(d) for d in documents]
    freq = Counter(t for d in docs for t in d)
    kept = sorted((w for w, c in freq.items() if c >= config.min_count), key=lambda w: (-freq[w], w))
    word_to_id = {w: i for i, w in enumerate(kept)}
    counts = np.array([freq[w] for w in kept], dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    m, k, window = config.dim, config.negatives, config.window
    vec_in = rng.uniform(-0.5 / m, 0.5 / m, size=(len(kept), m))
    vec_out = np.zeros((len(kept), m))
    noise = counts**0.75
    noise /= noise.sum()
    cdf = noise.cumsum()
    cdf /= cdf[-1]
    keep_prob = np.minimum(1.0, np.sqrt(config.subsample_threshold / (counts / counts.sum())))
    pairs, negatives = [], []
    for _ in range(config.epochs):
        for doc in docs:
            ids = np.array([word_to_id[t] for t in doc if t in word_to_id], dtype=np.int64)
            ids = ids[rng.random(len(ids)) < keep_prob[ids]].tolist()
            doc_pairs = [
                (center, ids[ctx_pos])
                for pos, center in enumerate(ids)
                for ctx_pos in range(max(0, pos - window), min(len(ids), pos + window + 1))
                if ctx_pos != pos
            ]
            pairs += doc_pairs
            negatives.append(cdf.searchsorted(rng.random(len(doc_pairs) * k), side="right").reshape(-1, k))
    pairs, negatives = np.array(pairs), np.concatenate(negatives)
    labels = np.zeros(1 + k)
    labels[0] = 1.0
    for lo in range(0, len(pairs), block):
        centers = pairs[lo : lo + block, 0]
        targets = np.column_stack((pairs[lo : lo + block, 1], negatives[lo : lo + block]))
        c, out = vec_in[centers], vec_out[targets]
        g = 1.0 / (1.0 + np.exp(-np.einsum("bjm,bm->bj", out, c))) - labels
        grad_c = np.einsum("bj,bjm->bm", g, out)
        step = config.learning_rate * g[:, :, None] * c[:, None, :]
        np.subtract.at(vec_out, targets.ravel(), step.reshape(-1, m))
        np.subtract.at(vec_in, centers, config.learning_rate * grad_c)
    return WordVectors(words=word_to_id, matrix=vec_in)


def noise_cdf(counts):
    """train_sgns's noise cdf over words of the given counts."""
    noise = np.asarray(counts, dtype=np.float64) ** 0.75
    noise /= noise.sum()
    cdf = noise.cumsum()
    return cdf / cdf[-1]


class TestNoiseTable:
    @pytest.mark.parametrize(
        "cdf, buckets",
        [
            (noise_cdf([7]), 2**16),
            (noise_cdf([3, 1]), 2**16),
            (noise_cdf(np.random.default_rng(5).zipf(1.5, 600)), 2**16),
            (noise_cdf(np.random.default_rng(6).zipf(1.3, 70_000)), 2**20),
            # repeated values, some on bucket edges
            (np.array([0.25, 0.25, 0.25, 0.5, 0.5, 0.7, 0.7, 1.0, 1.0]), 2**16),
        ],
        ids=["1", "2", "600", "70k", "repeats"],
    )
    def test_draws_are_the_search(self, cdf, buckets):
        table = _noise_table(cdf)
        assert len(table) == buckets
        edges = np.arange(buckets) / buckets
        u = np.concatenate([
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
            edges, np.nextafter(edges, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
            np.random.default_rng(len(cdf)).random(10**5),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        got, want = _noise_draws(table, cdf, u), cdf.searchsorted(u, side="right")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestBlockTrainer:
    @pytest.mark.parametrize(
        "subsample, chunk_tokens", [(1.0, None), (1e-2, None), (1e-2, 4)],
    )
    def test_one_pair_blocks_are_the_per_pair_trainer(self, monkeypatch, subsample, chunk_tokens):
        monkeypatch.setattr(embeddings, "_SGNS_BLOCK_PAIRS", 1)
        if chunk_tokens is not None:  # slices every 10-token document
            monkeypatch.setattr(embeddings, "_SGNS_CHUNK_TOKENS", chunk_tokens)
        docs, _ = sgns_pair_corpus(seed=2, ndocs=40)
        cfg = SgnsConfig(dim=8, window=3, epochs=2, min_count=1, subsample_threshold=subsample, seed=4)
        got, want = train_sgns(docs, cfg), reference_sgns(docs, cfg, block=1)
        assert got.words == want.words
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)

    def test_blocks_with_repeated_rows_match_subtract_at(self):
        # three words and six targets a pair: each block repeats target rows,
        # and its centers are targets too
        docs = [["a", "b", "a", "c", "b", "a", "a", "c"], ["c", "a", "b"]] * 3
        cfg = SgnsConfig(dim=5, window=2, epochs=3, min_count=1, subsample_threshold=1.0,
                         learning_rate=0.05, seed=8)
        got = train_sgns(docs, cfg)
        want = reference_sgns(docs, cfg, block=embeddings._SGNS_BLOCK_PAIRS)
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)
        assert not np.allclose(got.matrix, reference_sgns(docs, cfg, block=1).matrix)

    def test_divergence_is_named(self):
        # the three-word corpus of the test above trains at learning rate 0.05; at 0.5 its
        # scores overflow exp
        docs = [["a", "b", "a", "c", "b", "a", "a", "c"], ["c", "a", "b"]] * 3
        cfg = SgnsConfig(dim=5, window=2, epochs=3, min_count=1, subsample_threshold=1.0,
                         learning_rate=0.5, seed=8)
        with pytest.raises(SgnsDiverged, match="diverged"):
            train_sgns(docs, cfg)

    def test_target_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(5):
            center = rng.normal(size=6)
            targets = rng.normal(size=(4, 6))
            grad = _sgns_coefficients(targets @ center)[:, None] * center
            fd = np.zeros_like(targets)
            for j, i in np.ndindex(*targets.shape):
                up, down = targets.copy(), targets.copy()
                up[j, i] += h
                down[j, i] -= h
                fd[j, i] = (
                    sgns_loss_and_grad(center, up[0], up[1:])[0]
                    - sgns_loss_and_grad(center, down[0], down[1:])[0]
                ) / (2 * h)
            assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4

    def test_coefficients_take_leading_dimensions(self):
        scores = np.random.default_rng(3).normal(size=(2, 3, 6))
        batched = _sgns_coefficients(scores)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(batched[idx], _sgns_coefficients(scores[idx]))


class TestSgnsConfig:
    @pytest.mark.parametrize(
        "name, value",
        [("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
         ("learning_rate", "0.1"), ("epochs", -1), ("epochs", 1.0), ("subsample_threshold", 0.0),
         ("dim", 0), ("negatives", -1), ("window", 0), ("min_count", 0), ("seed", "0"),
         ("seed", True), ("seed", -1)],
    )
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(BadConfig, match=name):
            SgnsConfig(**{name: value})
