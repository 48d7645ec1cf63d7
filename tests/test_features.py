import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conceptbag.errors import BadConfig, DimensionMismatch, LengthMismatch, SingleClass
from conceptbag.features import (
    bow_nb_features,
    concept_features_freq,
    concept_features_nb,
    document_features,
    log_count_ratio,
)
from reference_concept_features import reference_concept_features_freq, reference_concept_features_nb

# hand evaluation of the smoothed ratio: pos [2,0], neg [0,1]
# p=[3,1], q=[1,2], r=[ln(0.75/(1/3)), ln(0.25/(2/3))]
TOY_COUNTS = sp.csr_matrix(np.array([[2, 0], [0, 1]]))
TOY_LABELS = np.array([1, -1])
TOY_R = np.array([np.log(0.75 * 3.0), np.log(0.25 * 1.5)])


class TestLogCountRatio:
    def test_identical_rows_zero(self):
        counts = sp.csr_matrix(np.array([[1, 2], [1, 2]]))
        out = log_count_ratio(counts, np.array([1, -1]))
        assert np.allclose(out, 0.0)

    def test_toy_values(self):
        out = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        assert out == pytest.approx([0.81093, -0.98083], abs=5e-6)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            log_count_ratio(TOY_COUNTS, np.array([1, 1]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            log_count_ratio(TOY_COUNTS, np.array([1, -1, 1]))

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    def test_label_flip_negates_r(self, a, b, c, d):
        counts = sp.csr_matrix(np.array([[a, b], [c, d]]))
        r1 = log_count_ratio(counts, np.array([1, -1]))
        r2 = log_count_ratio(counts, np.array([-1, 1]))
        assert np.allclose(r1, -r2)

    @given(st.integers(1, 7))
    def test_scaled_counts_match_direct_evaluation(self, scale):
        counts = sp.csr_matrix(scale * np.array([[2, 0], [0, 1]]))
        out = log_count_ratio(counts, TOY_LABELS)
        p = 1.0 + np.array([2 * scale, 0])
        q = 1.0 + np.array([0, scale])
        expected = np.log(p / p.sum()) - np.log(q / q.sum())
        assert np.allclose(out, expected)


class TestConceptFeaturesNb:
    def test_missing_cluster_zero(self):
        counts = sp.csr_matrix(np.array([[1, 0]]))
        r = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        out = concept_features_nb(counts, np.array([0, 1]), r, K=3)
        assert out[0, 1] == 0.0 and out[0, 2] == 0.0

    def test_signed_max_abs(self):
        # two n-grams in cluster 0 with r = +0.2 and -0.9; sign preserved
        counts = sp.csr_matrix(np.array([[1, 1]]))
        r = np.array([0.2, -0.9])
        out = concept_features_nb(counts, np.array([0, 0]), r, K=1)
        assert out[0, 0] == pytest.approx(-0.9)

    def test_singleton_cluster(self):
        counts = sp.csr_matrix(np.array([[0, 3]]))
        r = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        out = concept_features_nb(counts, np.array([0, 1]), r, K=2)
        assert out[0, 1] == pytest.approx(r[1])

    def test_tie_breaks_to_smallest_index(self):
        counts = sp.csr_matrix(np.array([[1, 1]]))
        r = np.array([0.5, -0.5])
        out = concept_features_nb(counts, np.array([0, 0]), r, K=1)
        assert out[0, 0] == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        L, N, K = 12, 40, 5
        counts = sp.csr_matrix((rng.random((L, N)) < 0.2).astype(np.int64))
        assignment = rng.integers(0, K, size=N)
        r = log_count_ratio(
            sp.csr_matrix(rng.integers(0, 3, size=(4, N))), np.array([1, 1, -1, -1])
        )
        out = concept_features_nb(counts, assignment, r, K)
        dense = counts.toarray()
        for i in range(L):
            for k in range(K):
                cands = [t for t in range(N) if assignment[t] == k and dense[i, t] > 0]
                if not cands:
                    assert out[i, k] == 0.0
                else:
                    best = max(cands, key=lambda t: (abs(r[t]), -t))
                    assert out[i, k] == pytest.approx(r[best])

    def test_bounded_by_max_abs_r(self):
        rng = np.random.default_rng(1)
        counts = sp.csr_matrix(rng.integers(0, 2, size=(6, 10)))
        r = log_count_ratio(
            sp.csr_matrix(rng.integers(0, 4, size=(4, 10))), np.array([1, -1, 1, -1])
        )
        out = concept_features_nb(counts, rng.integers(0, 3, size=10), r, K=3)
        assert np.abs(out).max() <= np.abs(r).max() + 1e-12

    def test_length_mismatch(self):
        r = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        with pytest.raises(LengthMismatch):
            concept_features_nb(TOY_COUNTS, np.array([0]), r, K=1)


class TestConceptFeaturesFreq:
    def test_single_cluster_totals(self):
        counts = sp.csr_matrix(np.array([[2, 3], [0, 1]]))
        out = concept_features_freq(counts, np.array([0, 0]), K=1)
        assert np.array_equal(out, [[5.0], [1.0]])

    def test_empty_document(self):
        counts = sp.csr_matrix(np.zeros((1, 3)))
        out = concept_features_freq(counts, np.array([0, 1, 0]), K=2)
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_hand_summation(self):
        counts = sp.csr_matrix(np.array([[2, 1, 4]]))
        out = concept_features_freq(counts, np.array([0, 1, 0]), K=2)
        assert np.array_equal(out, [[6.0, 1.0]])

    def test_identity_assignment_recovers_counts(self):
        rng = np.random.default_rng(2)
        counts = sp.csr_matrix(rng.integers(0, 3, size=(5, 7)))
        out = concept_features_freq(counts, np.arange(7), K=7)
        assert np.array_equal(out, counts.toarray())


BAD_ASSIGNMENTS = [
    pytest.param(np.array([0, 1, -1]), 3, id="negative"),
    pytest.param(np.array([0, 1, 3]), 3, id="K"),
    pytest.param(np.array([0.0, 1.0, 2.7]), 3, id="fraction"),
    pytest.param(np.array([0, 0, 0]), 0, id="no-concepts"),
]
CONCEPT_FEATURES = {
    "nb_max": lambda counts, assignment, K: concept_features_nb(counts, assignment, np.array([0.5, -1.0, 2.0]), K),
    "frequency": concept_features_freq,
}


@pytest.mark.parametrize("mode", CONCEPT_FEATURES)
@pytest.mark.parametrize("assignment, K", BAD_ASSIGNMENTS)
def test_bad_assignment_raises(mode, assignment, K):
    # a label outside [0, K) would file its n-gram under another document's cells
    counts = sp.csr_matrix(np.array([[1, 0, 2], [0, 3, 1]]))
    with pytest.raises(DimensionMismatch, match=r"\[0, %d\)" % K):
        CONCEPT_FEATURES[mode](counts, assignment, K)


@st.composite
def concept_problems(draw):
    """CSR counts with stored zeros and empty rows, an assignment, ties and signed zeros in r, and K."""
    L, n, K = draw(st.integers(0, 6)), draw(st.integers(0, 8)), draw(st.integers(1, 4))
    stored = np.array(draw(st.lists(st.booleans(), min_size=L * n, max_size=L * n)), dtype=bool).reshape(L, n)
    counts_from = [0, 1, 2, 3] if draw(st.booleans()) else [0.0, 0.1, 0.2, 0.3, -1.0, 1e16, -1e16]
    nnz = int(stored.sum())
    data = draw(st.lists(st.sampled_from(counts_from), min_size=nnz, max_size=nnz))
    cols = np.nonzero(stored)[1]
    indptr = np.r_[0, np.cumsum(stored.sum(axis=1))]
    counts = sp.csr_matrix((np.array(data, dtype=type(counts_from[0])), cols, indptr), shape=(L, n))
    assignment = np.array(draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)), dtype=np.int64)
    r_from = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -0.25]
    r = np.array(draw(st.lists(st.sampled_from(r_from), min_size=n, max_size=n)), dtype=np.float64)
    return counts, assignment, r, K


def assert_same_array(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_matches_reference(counts, assignment, r, K):
    assert_same_array(concept_features_nb(counts, assignment, r, K), reference_concept_features_nb(counts, assignment, r, K))
    assert_same_array(concept_features_freq(counts, assignment, K), reference_concept_features_freq(counts, assignment, K))


@settings(max_examples=300, deadline=None)
@given(concept_problems())
def test_concept_features_match_reference(problem):
    assert_matches_reference(*problem)


@pytest.mark.parametrize("seed", range(5))
def test_concept_features_match_reference_on_larger_counts(seed):
    # many entries per (document, concept) cell, so a sum in another order gives other bits
    rng = np.random.default_rng(seed)
    counts = sp.random(30, 60, density=0.4, format="csr", random_state=seed)
    counts.data = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7, 1e16, -1e16], size=counts.nnz)
    r = rng.choice([0.0, -0.0, 0.5, -0.5, 1.25], size=60)
    assert_matches_reference(counts, rng.integers(0, 6, size=60), r, 7)


@pytest.mark.parametrize("shape", [(3, 4), (0, 4), (3, 0)])
def test_concept_features_without_stored_entries(shape):
    # np.bincount over no entries returns int64; the features stay float64 zeros
    counts = sp.csr_matrix(shape, dtype=np.int64)
    assignment = np.zeros(shape[1], dtype=np.int64)
    r = np.ones(shape[1])
    assert_matches_reference(counts, assignment, r, 2)


class TestBowNbFeatures:
    def test_presence_not_count(self):
        counts = sp.csr_matrix(np.array([[3, 0]]))
        r = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        out = bow_nb_features(counts, r).toarray()
        assert out[0, 0] == pytest.approx(r[0])
        assert out[0, 1] == 0.0

    def test_zero_r(self):
        counts = sp.csr_matrix(np.array([[1, 2]]))
        r = log_count_ratio(sp.csr_matrix(np.array([[1, 1], [1, 1]])), TOY_LABELS)
        out = bow_nb_features(counts, r)
        assert np.allclose(out.toarray(), 0.0)

    def test_toy_composition(self):
        r = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        out = bow_nb_features(TOY_COUNTS, r).toarray()
        assert out[0] == pytest.approx([0.81093, 0.0], abs=5e-6)
        assert out[1] == pytest.approx([0.0, -0.98083], abs=5e-6)

    def test_length_mismatch(self):
        r = log_count_ratio(TOY_COUNTS, TOY_LABELS)
        with pytest.raises(LengthMismatch):
            bow_nb_features(sp.csr_matrix(np.zeros((2, 3))), r)

    @pytest.mark.parametrize("seed", range(5))
    def test_same_arrays_as_product_with_diags(self, seed):
        # the product with diags(r) is the oracle: the same entries, order and dtypes, and an
        # exact zero in r stores nothing
        rng = np.random.default_rng(seed)
        counts = sp.random(30, 25, density=0.3, format="csr", random_state=seed)
        counts.data = rng.integers(1, 4, size=counts.nnz).astype(np.int64)
        r = rng.normal(size=25)
        r[rng.choice(25, size=3, replace=False)] = 0.0
        presence = counts.copy()
        presence.data = np.ones_like(presence.data, dtype=np.float64)
        want = sp.csr_matrix(presence @ sp.diags(r))
        got = bow_nb_features(counts, r)
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestDocumentFeatures:
    def test_each_mode_matches_its_featurizer(self):
        counts = sp.csr_matrix(np.array([[2, 0, 1], [0, 1, 3]]))
        r = log_count_ratio(counts, [1, -1])
        assignment = np.array([1, 0, 1])
        for mode, expected in (
            ("nb_max", concept_features_nb(counts, assignment, r, 2)),
            ("frequency", concept_features_freq(counts, assignment, 2)),
            ("bow_nb", bow_nb_features(counts, r)),
        ):
            got = document_features(mode, counts, r, assignment, 2)
            assert np.array_equal(sp.csr_matrix(got).toarray(), sp.csr_matrix(expected).toarray())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="nbmax"):
            document_features("nbmax", TOY_COUNTS, log_count_ratio(TOY_COUNTS, TOY_LABELS))
        with pytest.raises(BadConfig, match="nbmax"):
            document_features("nbmax", None, None)

    @pytest.mark.parametrize("mode", ["nb_max", "frequency"])
    @pytest.mark.parametrize("assignment, K", [(None, None), (np.array([0, 1]), None), (None, 2)])
    def test_concept_mode_without_assignment_or_k_named_before_work(self, mode, assignment, K):
        # counts and r of None fail any work, so the check comes first
        with pytest.raises(BadConfig, match=f"{mode!r} needs an n-gram assignment and K"):
            document_features(mode, None, None, assignment, K)
