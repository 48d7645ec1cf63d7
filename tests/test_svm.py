import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from conceptbag import svm
from conceptbag.errors import BadConfig, BadLabel, DimensionMismatch, NonFiniteFeature
from conceptbag.svm import (
    LinearModel,
    SvmConfig,
    svm_gradient,
    svm_objective,
    svm_predict,
    svm_train,
)


def oracle_min(X, y, C, seed=0, starts=5):
    """High-precision multi-start quasi-Newton minimization of the primal."""
    rng = np.random.default_rng(seed)
    f = lambda w: svm_objective(w, X, y, C)
    best = np.inf
    for _ in range(starts):
        res = minimize(
            f, rng.normal(size=X.shape[1]), method="L-BFGS-B",
            options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 10000},
        )
        best = min(best, res.fun)
    return best


class TestObjective:
    def test_zero_weight(self):
        X = np.ones((7, 2))
        y = np.ones(7)
        assert svm_objective(np.zeros(2), X, y, C=3.0) == pytest.approx(21.0)

    def test_all_margins_satisfied(self):
        X = np.array([[10.0], [-10.0]])
        y = np.array([1, -1])
        w = np.array([1.0])
        assert svm_objective(w, X, y, C=5.0) == pytest.approx(0.5)

    def test_one_d_optimum(self):
        # grid-search oracle: min of 0.5 w^2 + 2 (1-w)^2 is w=0.8, value 0.4
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, -1])
        assert svm_objective(np.array([0.8]), X, y, C=1.0) == pytest.approx(0.4)


class TestTrain:
    def test_one_d_analytic(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, -1])
        model = svm_train(X, y, SvmConfig(C=1.0, tolerance=1e-10))
        assert model.w[0] == pytest.approx(0.8, abs=1e-8)
        assert svm_objective(model.w, X, y, 1.0) == pytest.approx(0.4, abs=1e-10)

    def test_separable_large_c_perfect_train_accuracy(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(3, 0.5, size=(20, 2)), rng.normal(-3, 0.5, size=(20, 2))])
        y = np.array([1] * 20 + [-1] * 20)
        model = svm_train(X, y, SvmConfig(C=100.0))
        assert np.array_equal(svm_predict(model, X), y)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteFeature):
            svm_train(np.array([[np.nan]]), np.array([1]), SvmConfig())

    @pytest.mark.parametrize("X", [np.ones(4), np.ones((4, 2, 1))], ids=["1-d", "3-d"])
    def test_dense_features_must_be_a_matrix(self, X):
        with pytest.raises(DimensionMismatch, match="features have shape"):
            svm_train(X, np.array([1, -1, 1, -1]), SvmConfig())

    def test_labels_outside_plus_minus_one_rejected(self):
        X = np.array([[1.0], [-1.0]])
        with pytest.raises(BadLabel, match="got 0"):
            svm_train(X, np.array([1, 0]), SvmConfig())

    def test_single_class_trains(self):
        model = svm_train(np.array([[1.0], [2.0]]), np.array([1, 1]), SvmConfig())
        assert np.array_equal(svm_predict(model, np.array([[1.0], [2.0]])), [1, 1])

    def test_sparse_dense_agree(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 5)) * (rng.random((30, 5)) < 0.4)
        y = rng.choice([-1, 1], size=30)
        cfg = SvmConfig(C=1.0, tolerance=1e-10)
        wd = svm_train(X, y, cfg).w
        ws = svm_train(sp.csr_matrix(X), y, cfg).w
        assert np.allclose(wd, ws, atol=1e-6)

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        for s in range(5):
            X = rng.normal(size=(25, 4))
            y = rng.choice([-1, 1], size=25)
            model = svm_train(X, y, SvmConfig(C=10.0, tolerance=1e-10))
            tr = model.objective_trace
            assert all(b <= a for a, b in zip(tr, tr[1:]))

    def test_matches_convex_oracle(self):
        for s in range(10):
            rng = np.random.default_rng(s)
            L, d = int(rng.integers(2, 21)), int(rng.integers(1, 4))
            X = rng.normal(size=(L, d))
            y = rng.choice([-1, 1], size=L)
            model = svm_train(X, y, SvmConfig(C=1.0, tolerance=1e-10))
            assert svm_objective(model.w, X, y, 1.0) <= oracle_min(X, y, 1.0, seed=s) + 1e-6

    def test_label_flip_negates_w(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = rng.choice([-1, 1], size=20)
        cfg = SvmConfig(C=1.0, tolerance=1e-10)
        w1 = svm_train(X, y, cfg).w
        w2 = svm_train(X, -y, cfg).w
        assert np.allclose(w1, -w2, atol=1e-7)


class TestNewtonSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_problem_takes_few_newton_steps(self, seed):
        # CG solved to 1e-4 |g| lands on the optimum once the active set settles
        rng = np.random.default_rng(seed)
        X = sp.random(200, 5000, density=0.01, format="csr", random_state=seed)
        X.data[:] = 1.0
        y = np.where(X @ rng.normal(size=5000) + 0.1 * rng.normal(size=200) >= 0, 1, -1)
        model = svm_train(X, y, SvmConfig(C=1.0))
        assert len(model.objective_trace) - 1 <= 4

    def test_diagnostics_of_converged_fit(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 6))
        y = rng.choice([-1, 1], size=40)
        config = SvmConfig(C=1.0)
        model = svm_train(X, y, config)
        assert model.cg_iters > 0
        assert model.grad_norm < config.tolerance
        assert model.grad_norm == pytest.approx(np.linalg.norm(svm_gradient(model.w, X, y, 1.0)))

    def test_grad_norm_reported_when_epochs_run_out(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 6))
        y = rng.choice([-1, 1], size=40)
        model = svm_train(X, y, SvmConfig(C=1.0, max_epochs=1))
        assert len(model.objective_trace) == 2
        assert model.grad_norm == pytest.approx(np.linalg.norm(svm_gradient(model.w, X, y, 1.0)))

    def test_zero_gradient_at_zero_tolerance(self):
        model = svm_train(np.zeros((2, 3)), np.array([1, -1]), SvmConfig(tolerance=0.0))
        assert np.array_equal(model.w, np.zeros(3))
        assert model.grad_norm == 0.0


def reference_cg(hessvec, b, max_iter, tol):
    """svm._cg with one expression per update, each into a new vector."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = r @ r
    iters = 0
    while iters < max_iter and np.sqrt(rs) >= tol:
        hp = hessvec(p)
        alpha = rs / (p @ hp)
        x += alpha * p
        r -= alpha * hp
        rs_new = r @ r
        p = r + (rs_new / rs) * p
        rs = rs_new
        iters += 1
    return x, iters


def fold_case(name):
    """A sparse matrix and labels for one shape of single-entry and empty columns."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n = 30
    # every column of `shared` has at least two entries; `single` has one entry per column,
    # in rows 1..n-1 only, so row 0 has no single-entry column
    shared = rng.normal(size=(n, 8)) * (rng.random((n, 8)) < 0.6)
    shared[:2] = rng.normal(size=(2, 8))
    single = np.zeros((n, 50))
    single[rng.integers(1, n, size=50), np.arange(50)] = rng.normal(size=50)
    X = {
        "mixed": sp.random(n, 200, density=0.03, random_state=3, data_rvs=lambda k: rng.normal(size=k)).toarray(),
        "all single": single,
        "none": shared,
        "empty column": np.hstack([shared[:, :4], np.zeros((n, 1)), shared[:, 4:]]),
        "row without single": np.hstack([shared, single]),
        "single class": np.hstack([shared, single]),
        "tiny single entries": np.hstack([shared, 1e-200 * single]),
    }[name]
    y = np.ones(n) if name == "single class" else rng.choice([-1.0, 1.0], size=n)
    return sp.csr_matrix(X), y


class TestFold:
    """A sparse fit solves the folded problem; it must match the unfolded dense fit."""

    @pytest.mark.parametrize(
        "name",
        [
            "mixed", "all single", "none", "empty column", "row without single", "single class",
            "tiny single entries",
        ],
    )
    def test_matches_unfolded_dense_fit(self, name):
        X, y = fold_case(name)
        config = SvmConfig(C=1.0, tolerance=1e-10)
        dense = svm_train(X.toarray(), y, config)
        folded = svm_train(X, y, config)
        assert folded.w.shape == dense.w.shape
        assert np.abs(folded.w - dense.w).max() <= 1e-8 * np.abs(dense.w).max()
        want = svm_objective(dense.w, X.toarray(), y, 1.0)
        assert svm_objective(folded.w, X, y, 1.0) == pytest.approx(want, rel=1e-10, abs=0)
        per_col = np.bincount(X.indices, minlength=X.shape[1])
        assert np.all(folded.w[per_col == 0] == 0.0)
        if name == "tiny single entries":
            # weights near 1e-200 sit far below the tolerance above: each is checked on its own
            # scale, and none is lost to a v_i whose square underflowed
            np.testing.assert_allclose(folded.w[per_col == 1], dense.w[per_col == 1], rtol=1e-8)
            assert np.all(folded.w[per_col == 1] != 0.0)

    def test_fold_shapes(self):
        X, _ = fold_case("none")
        Z, _ = svm._fold(X)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(Z, name), getattr(X, name)), name
        X, _ = fold_case("row without single")
        Z, _ = svm._fold(X)
        # the 8 shared columns, then one column for each row holding a single-entry column
        assert Z.shape == (30, 8 + len(np.unique(X[:, 8:].nonzero()[0])))
        assert Z[0, 8:].nnz == 0

    @pytest.mark.parametrize("max_epochs", [1, 1000])
    def test_grad_norm_is_the_full_gradient_norm(self, max_epochs):
        X, y = fold_case("mixed")
        model = svm_train(X, y, SvmConfig(C=1.0, max_epochs=max_epochs))
        full = np.linalg.norm(svm_gradient(model.w, X, y, 1.0))
        assert model.grad_norm == pytest.approx(full, rel=1e-6, abs=1e-12)


class TestConjugateGradients:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_in_place_updates_keep_the_bits(self, sparse, monkeypatch):
        X, y = fold_case("mixed")
        X = X if sparse else X.toarray()
        config = SvmConfig(C=1.0, tolerance=1e-10)
        got = svm_train(X, y, config)
        monkeypatch.setattr(svm, "_cg", reference_cg)
        want = svm_train(X, y, config)
        assert np.array_equal(got.w.view(np.uint64), want.w.view(np.uint64))
        assert got.objective_trace == want.objective_trace
        assert got.cg_iters == want.cg_iters


class TestConfig:
    @pytest.mark.parametrize("C", [0, -1, float("nan"), float("inf"), "1", True])
    def test_bad_C_rejected(self, C):
        with pytest.raises(BadConfig, match="C must be"):
            SvmConfig(C=C)

    @pytest.mark.parametrize("max_epochs", [0, -3, 2.0, "5"])
    def test_bad_max_epochs_rejected(self, max_epochs):
        with pytest.raises(BadConfig, match="max_epochs"):
            SvmConfig(max_epochs=max_epochs)

    @pytest.mark.parametrize("tolerance", [-1e-6, float("nan"), "1e-6"])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(BadConfig, match="tolerance"):
            SvmConfig(tolerance=tolerance)

    def test_bad_config_is_a_value_error(self):
        with pytest.raises(ValueError):
            SvmConfig(C=-1)

    def test_integer_and_numpy_values_accepted(self):
        config = SvmConfig(C=2, max_epochs=np.int64(5), tolerance=0)
        assert (config.C, config.max_epochs, config.tolerance) == (2, 5, 0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 3))
        y = rng.choice([-1, 1], size=15)
        for _ in range(20):
            w = rng.normal(size=3)
            g = svm_gradient(w, X, y, C=2.0)
            fd = np.zeros(3)
            h = 1e-6
            for j in range(3):
                up, dn = w.copy(), w.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (svm_objective(up, X, y, 2.0) - svm_objective(dn, X, y, 2.0)) / (2 * h)
            assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-4


class TestPredict:
    def test_basic(self):
        model = LinearModel(w=np.array([1.0, 0.0]))
        assert svm_predict(model, np.array([2.0, 5.0]))[0] == 1

    def test_zero_weight_maps_to_plus_one(self):
        model = LinearModel(w=np.zeros(2))
        assert svm_predict(model, np.array([[1.0, -3.0], [0.0, 0.0]])).tolist() == [1, 1]

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=4)
        f = rng.normal(size=(10, 4))
        base = svm_predict(LinearModel(w=w), f)
        for alpha in (0.1, 3.0, 100.0):
            assert np.array_equal(svm_predict(LinearModel(w=alpha * w), f), base)

    def test_dimension_mismatch(self):
        model = LinearModel(w=np.zeros(3))
        with pytest.raises(DimensionMismatch):
            svm_predict(model, np.zeros((1, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_nonfinite_rejected(self, value, sparse):
        f = np.array([[1.0, 0.0], [0.0, value]])
        with pytest.raises(NonFiniteFeature):
            svm_predict(LinearModel(w=np.ones(2)), sp.csr_matrix(f) if sparse else f)
