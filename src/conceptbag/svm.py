"""L2-regularized squared-hinge linear SVM, trained by primal Newton-CG."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import BadLabel, DimensionMismatch, NonFiniteFeature, check_finite, check_int

# CG stops once the Newton system's residual is below this fraction of |grad|
CG_RELATIVE_TOLERANCE = 1e-4


@dataclass
class SvmConfig:
    C: float = 1.0
    max_epochs: int = 1000
    tolerance: float = 1e-6

    def __post_init__(self):
        check_finite("svm C", self.C, minimum=0.0, strict=True)
        check_int("svm max_epochs", self.max_epochs, minimum=1)
        check_finite("svm tolerance", self.tolerance, minimum=0.0, strict=False)


@dataclass
class LinearModel:
    w: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    cg_iters: int = 0  # CG iterations summed over all Newton steps
    grad_norm: float = float("nan")  # |gradient| at w; nan unless set by svm_train


def svm_objective(w: np.ndarray, features, labels, C: float) -> float:
    """0.5 w.w + C sum_i max(0, 1 - y_i w.f_i)^2."""
    w = np.asarray(w, dtype=np.float64)
    scores = _scores(features, w)
    labels = np.asarray(labels, dtype=np.float64)
    if len(scores) != len(labels):
        raise DimensionMismatch(f"{len(scores)} rows vs {len(labels)} labels")
    return _objective(w, labels, scores, C)


def _objective(w, y, scores, C: float) -> float:
    """svm_objective at w, given ``scores`` = X @ w."""
    margins = np.maximum(0.0, 1.0 - y * scores)
    return float(0.5 * w @ w + C * (margins**2).sum())


def svm_gradient(w: np.ndarray, features, labels, C: float) -> np.ndarray:
    """Analytic gradient of svm_objective (the loss is differentiable)."""
    w = np.asarray(w, dtype=np.float64)
    X = _matrix(features)
    return _gradient(w, X, np.asarray(labels, dtype=np.float64), _scores(X, w), C)


def _gradient(w, X, y, scores, C: float) -> np.ndarray:
    """Gradient of svm_objective at w, given ``scores`` = X @ w."""
    margins = np.maximum(0.0, 1.0 - y * scores)
    return w - np.asarray(X.T @ (2.0 * C * margins * y)).ravel()


def _matrix(features):
    if sp.issparse(features):
        return sp.csr_matrix(features).astype(np.float64)
    return np.asarray(features, dtype=np.float64)


def _check_finite(X) -> None:
    """Raise NonFiniteFeature if the dense or sparse feature matrix X holds a NaN or inf."""
    if not np.all(np.isfinite(X.data if sp.issparse(X) else X)):
        raise NonFiniteFeature("feature matrix contains NaN or inf")


def _scores(features, w) -> np.ndarray:
    if sp.issparse(features):
        return np.asarray(features @ w).ravel()
    return np.asarray(features, dtype=np.float64) @ w


def svm_train(features, labels, config: SvmConfig = SvmConfig()) -> LinearModel:
    """Newton-CG with Armijo backtracking on the primal objective.

    The squared-hinge primal is smooth and strongly convex. Each outer
    iteration solves the generalized-Newton system H s = -g by conjugate
    gradients until the residual is below CG_RELATIVE_TOLERANCE * |g|, with
    H v = v + 2C Xaᵀ(Xa v) formed from the active rows Xa (margin below 1)
    only, gathered once per step. So once the active set settles a step
    lands on the optimum (finite Newton; Keerthi & DeCoste 2005). Armijo
    backtracking keeps the recorded per-iteration objective trace
    non-increasing. Stops when the gradient norm falls below
    config.tolerance, after config.max_epochs Newton steps, or when no
    step decreases the objective. The model records the objective trace
    (Newton steps = len(trace) - 1), the total CG iterations and the
    gradient norm at the returned w. Fully deterministic. Labels must be
    +1 or -1; a single class is allowed.

    A sparse X is solved in a narrower space (``_fold``): for each row i,
    the columns whose one stored entry is in row i become one column with
    value v_i = |x_i,S|, and columns with no stored entry are dropped. This
    is exact: a w whose block on row i's columns S is u_i x_i,S / v_i has
    the same scores and the same |w| as the folded weight u_i, and every
    gradient and Hessian product lies in that subspace, so the objective,
    the gradient norm and every Newton and CG iterate are those of the
    unfolded problem up to rounding. The returned w has X's width; the
    trace, CG count and gradient norm are the folded solver's. Dense X is
    solved as it is.
    """
    y = np.asarray(labels, dtype=np.float64)
    X = _matrix(features)
    if X.ndim != 2:
        raise DimensionMismatch(f"features have shape {X.shape}; expected a matrix, one row per label")
    _check_finite(X)
    if X.shape[0] != len(y):
        raise DimensionMismatch(f"{X.shape[0]} rows vs {len(y)} labels")
    bad = y[np.abs(y) != 1.0]
    if len(bad):
        raise BadLabel(f"labels must be +1 or -1, got {bad[0]:g}")
    if not sp.issparse(X):
        return _newton(X, y, config)
    folded, unfold = _fold(X)
    model = _newton(folded, y, config)
    model.w = unfold(model.w)
    return model


def _fold(X: sp.csr_matrix):
    """X with each row's single-entry columns folded into one column, and the map back.

    Returns (Z, unfold). Z holds X's columns with two or more stored
    entries, in order, then one column per row i with v_i = |x_i,S| > 0,
    where S is the set of columns whose only stored entry is in row i.
    ``unfold(u)`` turns a weight vector of Z into one of X: a kept column's
    weight as it is, w_j = x_ij u_i / v_i on S, and 0 on the columns with
    no stored entry.
    """
    n, d = X.shape
    per_col = np.bincount(X.indices, minlength=d)
    kept, single = np.flatnonzero(per_col >= 2), np.flatnonzero(per_col == 1)
    S = X[:, single]
    # v_i is summed over values scaled by their largest magnitude, so values whose
    # squares underflow still count
    row_of = np.repeat(np.arange(n), np.diff(S.indptr))
    peak = np.zeros(n)
    np.maximum.at(peak, row_of, np.abs(S.data))
    scaled = S.data / np.where(peak > 0.0, peak, 1.0)[row_of]
    v = peak * np.sqrt(np.bincount(row_of, scaled * scaled, minlength=n))
    rows = np.flatnonzero(v > 0.0)  # a row whose v_i is 0 gets no column
    folded = sp.csr_matrix((v[rows], (rows, np.arange(len(rows)))), shape=(n, len(rows)))
    Z = sp.hstack([X[:, kept], folded], format="csr")

    def unfold(u):
        w = np.zeros(d)
        w[kept] = u[: len(kept)]
        ratio = np.zeros(n)
        ratio[rows] = u[len(kept) :] / v[rows]
        w[single] = S.T @ ratio  # each column of S has one entry, so this is x_ij u_i / v_i
        return w

    return Z, unfold


def _newton(X, y, config: SvmConfig) -> LinearModel:
    """svm_train's solver on a checked, finite X (float64) and +-1 labels y."""
    d = X.shape[1]
    C = config.C
    w = np.zeros(d)
    scores = np.zeros(len(y))
    obj = _objective(w, y, scores, C)
    trace = [obj]
    cg_iters = 0
    for _ in range(config.max_epochs):
        grad = _gradient(w, X, y, scores, C)
        gnorm = np.linalg.norm(grad)
        if gnorm < config.tolerance or gnorm == 0.0:  # 0 is optimal even at tolerance 0
            break
        Xa = X[y * scores < 1.0]
        XaT = Xa.T  # once per Newton step, not per CG iteration

        def hessvec(v):
            hv = np.asarray(XaT @ (Xa @ v)).ravel()
            hv *= 2.0 * C
            hv += v
            return hv

        step, iters = _cg(hessvec, -grad, max_iter=max(50, d), tol=CG_RELATIVE_TOLERANCE * gnorm)
        cg_iters += iters
        # Armijo backtracking guarantees monotone decrease
        t = 1.0
        descent = grad @ step
        if descent >= 0.0:
            step = -grad
            descent = -gnorm**2
        for _ in range(60):
            w_new = w + t * step
            scores_new = _scores(X, w_new)
            obj_new = _objective(w_new, y, scores_new, C)
            if obj_new <= obj + 1e-4 * t * descent:
                break
            t *= 0.5
        if obj_new > obj:
            break
        w = w_new
        scores = scores_new
        obj = obj_new
        trace.append(obj)
    else:
        gnorm = np.linalg.norm(_gradient(w, X, y, scores, C))
    return LinearModel(w=w, objective_trace=trace, cg_iters=cg_iters, grad_norm=float(gnorm))


def _cg(hessvec, b, max_iter, tol):
    """Conjugate gradients for the (positive definite) Newton system.

    Returns the solution and the number of iterations taken. x, r and p are
    updated in place through one scratch vector, with the same bits as
    ``x += alpha * p; r -= alpha * hp; p = r + beta * p``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    scratch = np.empty_like(b)
    rs = r @ r
    iters = 0
    while iters < max_iter and np.sqrt(rs) >= tol:
        hp = hessvec(p)
        alpha = rs / (p @ hp)
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, hp, out=scratch)
        rs_new = r @ r
        p *= rs_new / rs
        p += r
        rs = rs_new
        iters += 1
    return x, iters


def svm_predict(model: LinearModel, f) -> np.ndarray:
    """Sign of w.f per row; an exact zero score maps to +1. NaN or inf features raise NonFiniteFeature."""
    f = np.atleast_2d(np.asarray(f, dtype=np.float64)) if not sp.issparse(f) else f
    if f.shape[1] != len(model.w):
        raise DimensionMismatch(f"features have dim {f.shape[1]}, model {len(model.w)}")
    _check_finite(f)
    scores = _scores(f, model.w)
    return np.where(scores >= 0.0, 1, -1).astype(np.int64)
