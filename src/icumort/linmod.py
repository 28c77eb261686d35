"""Regularized linear classifiers with per-instance weighting.

Every objective is sum_i s_i * loss_i + (1/C) * penalty(w), and every fit is
numpy matrix-vector work. Logistic regression (L1 or L2) and the L1
squared-hinge SVM share one accelerated proximal-gradient loop; only the
loss and its gradient differ. The L2 hinge SVM solves its box-constrained
dual by projected accelerated gradient without forming the augmented
matrix, and its `converged` flag certifies the optimum: the relative
primal-dual gap, recorded as diagnostics["duality_gap"], is <= tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

LOGISTIC = "logistic"
HINGE = "hinge"
SQUARED_HINGE = "squared-hinge"
L1 = "l1"
L2 = "l2"


class LinModError(ValueError):
    pass


def balanced_weights(labels):
    """Per-row weights by the balanced rule: a row of class c weighs
    N / (2 * N_c)."""
    y = np.asarray(labels)
    n, n_pos, n_neg = y.size, int((y == 1).sum()), int((y == 0).sum())
    if n_pos + n_neg != n:
        raise LinModError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise LinModError("both classes must be present to balance weights")
    return np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))


@dataclass
class LinearModel:
    w: np.ndarray
    b: float
    loss: str
    reg: str
    C: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if not np.isfinite(self.w).all() or not np.isfinite(self.b):
            raise LinModError("model weights must be finite")

    def to_obj(self):
        nz = np.nonzero(self.w)[0]
        return {
            "loss": self.loss, "reg": self.reg, "C": self.C,
            "intercept": float(self.b), "dim": int(self.w.size),
            "weights": {str(int(j)): float(self.w[j]) for j in nz},
            "diagnostics": {k: _json_number(v)
                            for k, v in self.diagnostics.items()},
        }

    @classmethod
    def from_obj(cls, o):
        w = np.zeros(o["dim"])
        for j, v in o["weights"].items():
            w[int(j)] = v
        return cls(w=w, b=o["intercept"], loss=o["loss"], reg=o["reg"],
                   C=o["C"], diagnostics=o.get("diagnostics", {}))


def _json_number(v):
    # bool before int: bool is an int subclass
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _check_matrix(X):
    if sp.issparse(X):
        if not np.isfinite(X.data).all():
            raise LinModError("feature matrix contains non-finite entries")
        return X.tocsr()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise LinModError("expected a 2-d feature matrix")
    if not np.isfinite(X).all():
        raise LinModError("feature matrix contains non-finite entries")
    return X


def _check_training_inputs(X, y, C, instance_weights):
    X = _check_matrix(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise LinModError("labels must align with rows")
    if not np.isin(y, (0, 1)).all():
        raise LinModError("labels must be 0/1")
    if C <= 0:
        raise LinModError("C must be positive")
    if instance_weights is None:
        s = np.ones(X.shape[0])
    else:
        s = np.asarray(instance_weights, dtype=float)
        if s.shape != (X.shape[0],):
            raise LinModError("instance weights must align with rows")
        if not np.isfinite(s).all() or (s < 0).any():
            raise LinModError("instance weights must be finite and non-negative")
    return X, y.astype(float), s


def _log_loss_sum(scores, y, s):
    # log(1 + e^s) - y*s, stable via logaddexp
    return float(np.sum(s * (np.logaddexp(0.0, scores) - y * scores)))


def _penalty(w, reg):
    if reg == L1:
        return float(np.abs(w).sum())
    return 0.5 * float(w @ w)


def _prox(v, step_lam, reg):
    if reg == L1:
        return np.sign(v) * np.maximum(np.abs(v) - step_lam, 0.0)
    return v / (1.0 + step_lam)


def _proximal_gradient(X, smooth, gradient, reg, lam, tol, max_iter):
    """Minimizes smooth(m) + lam * penalty(w) by proximal gradient, where
    m = X @ w + b are the margins; gradient(m) is d smooth / d m.

    Accelerated as in FISTA (Beck & Teboulle 2009), with a backtracking line
    search and a restart from the current iterate whenever momentum
    overshoots, so the objective never increases; the intercept is excluded
    from the penalty. Each point's margins are computed once. Stops on
    relative objective change < tol.
    """
    def prox_step(w0, b0, m0, g0, step):
        r = gradient(m0)
        gw, gb = X.T @ r, float(r.sum())
        while True:
            w1 = _prox(w0 - step * gw, step * lam, reg)
            b1 = b0 - step * gb
            dw, db = w1 - w0, b1 - b0
            quad = g0 + gw @ dw + gb * db + (dw @ dw + db * db) / (2.0 * step)
            m1 = X @ w1 + b1
            g1 = smooth(m1)
            if g1 <= quad + 1e-12 * max(1.0, abs(quad)):
                return w1, b1, m1, g1, step
            step *= 0.5
            if step < 1e-20:
                raise LinModError("line search failed; inputs may be ill-scaled")

    w = np.zeros(X.shape[1])
    b = 0.0
    m = X @ w + b
    g = smooth(m)
    w_prev, b_prev = w, b
    theta = 1.0
    step = 1.0
    F = g + lam * _penalty(w, reg)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        mom = (theta - 1.0) / theta_next
        z_w = w + mom * (w - w_prev)
        z_b = b + mom * (b - b_prev)
        z_m = X @ z_w + z_b
        w_new, b_new, m_new, g_new, step = prox_step(z_w, z_b, z_m,
                                                     smooth(z_m), step * 2.0)
        F_new = g_new + lam * _penalty(w_new, reg)
        if F_new > F:
            # momentum overshot: restart from the current iterate
            theta_next = 1.0
            w_new, b_new, m_new, g_new, step = prox_step(w, b, m, g, step)
            F_new = g_new + lam * _penalty(w_new, reg)
        if not F_new <= F + 1e-9 * max(1.0, abs(F)):  # NaN raises too
            raise LinModError(
                f"objective increased from {F!r} to {F_new!r} at iteration "
                f"{iterations}")
        w_prev, b_prev = w, b
        w, b, m, g = w_new, b_new, m_new, g_new
        theta = theta_next
        if abs(F - F_new) <= tol * max(1.0, abs(F)):
            F = F_new
            converged = True
            break
        F = F_new

    return w, b, {"final_objective": F, "iterations": iterations,
                  "converged": converged}


def train_logreg(X, y, reg=L2, C=1.0, instance_weights=None, tol=1e-6,
                 max_iter=10000):
    """Weighted logistic regression by accelerated proximal gradient; the
    fit is deterministic."""
    if reg not in (L1, L2):
        raise LinModError(f"unknown regularizer {reg!r}")
    X, y, s = _check_training_inputs(X, y, C, instance_weights)

    def smooth(m):
        return _log_loss_sum(m, y, s)

    def gradient(m):
        return s * (1.0 / (1.0 + np.exp(-m)) - y)

    w, b, diag = _proximal_gradient(X, smooth, gradient, reg, 1.0 / C, tol,
                                    max_iter)
    return LinearModel(w=w, b=b, loss=LOGISTIC, reg=reg, C=C, diagnostics=diag)


def _hinge_dual(X, y_pm, upper, tol, max_iter):
    """Projected accelerated gradient on the augmented hinge dual.

    Minimizes 0.5 * ||Z.T a||^2 - sum(a) over 0 <= a <= upper, with
    Z = y * [X, 1]: the bias is an implicit all-ones column that shares the
    L2 penalty (the dual of Hsieh et al., ICML 2008). Z is never formed, so
    memory stays O(nnz). Each step backtracks on the quadratic's exact
    curvature along the step and then grows by 1.2; momentum restarts when
    the step opposes the previous move (O'Donoghue & Candes 2015). Stops
    when the duality gap is <= tol times the primal objective; C and the
    instance weights enter only through upper = C * s.
    """
    def zt(a):  # Z.T @ a, the primal (w, b) of a dual point
        ya = y_pm * a
        return np.append(X.T @ ya, ya.sum())

    def z(v):  # Z @ v, the margins of a primal point
        return y_pm * (X @ v[:-1] + v[-1])

    n = X.shape[0]
    sq = X.multiply(X).sum() if sp.issparse(X) else np.einsum("ij,ij->", X, X)
    step = 1.0 / (float(sq) + n)  # 1 / ||Z||_F^2 is a safe first step
    a = a_prev = np.zeros(n)
    m = m_prev = np.zeros(n)
    v = v_prev = np.zeros(X.shape[1] + 1)
    theta = 1.0
    converged = False
    iterations = 0
    gap = primal = float(upper.sum())  # at a = 0 every slack is 1
    for iterations in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        mom = (theta - 1.0) / theta_next
        # Z.T and Z are linear, so the extrapolated point costs no product
        beta = a + mom * (a - a_prev)
        v_beta = v + mom * (v - v_prev)
        grad = m + mom * (m - m_prev) - 1.0
        step *= 1.2
        while True:
            new = np.clip(beta - step * grad, 0.0, upper)
            v_new = zt(new)
            da, dv = new - beta, v_new - v_beta
            if dv @ dv <= (da @ da) / step:
                break
            step *= 0.5
            if step < 1e-20:
                raise LinModError("line search failed; inputs may be ill-scaled")
        if (beta - new) @ (new - a) > 0.0:
            theta_next = 1.0
        a_prev, a, v_prev, v, m_prev = a, new, v, v_new, m
        m = z(v)
        theta = theta_next
        # each term is >= 0: complementary slackness of the box constraints
        slack = np.maximum(1.0 - m, 0.0)
        gap = float((upper - a) @ slack + a @ np.maximum(m - 1.0, 0.0))
        primal = 0.5 * float(v @ v) + float(upper @ slack)
        if gap <= tol * primal:
            converged = True
            break
    return v[:-1], float(v[-1]), {
        "iterations": iterations, "converged": converged,
        "duality_gap": gap / primal if primal > 0.0 else 0.0}


def train_linear_svm(X, y, reg=L2, C=1.0, instance_weights=None, tol=1e-6,
                     max_epochs=1000):
    """Linear SVM; L2 pairs with hinge loss, L1 with squared hinge.

    The hinge fit solves the dual and reports its relative duality gap; the
    L1 squared-hinge fit runs the logistic loop on its own loss. Both are
    deterministic.
    """
    if reg not in (L1, L2):
        raise LinModError(f"unknown regularizer {reg!r}")
    X, y, s = _check_training_inputs(X, y, C, instance_weights)
    y_pm = 2.0 * y - 1.0
    if reg == L2:
        w, b, diag = _hinge_dual(X, y_pm, C * s, tol, max_epochs)
        hinge = np.maximum(1.0 - y_pm * (X @ w + b), 0.0)
        diag["final_objective"] = float(s @ hinge + 0.5 * (w @ w + b * b) / C)
        return LinearModel(w=w, b=b, loss=HINGE, reg=reg, C=C,
                           diagnostics=diag)

    def smooth(m):
        slack = np.maximum(1.0 - y_pm * m, 0.0)
        return float(s @ (slack * slack))

    def gradient(m):
        return -2.0 * s * y_pm * np.maximum(1.0 - y_pm * m, 0.0)

    w, b, diag = _proximal_gradient(X, smooth, gradient, L1, 1.0 / C, tol,
                                    max_epochs)
    return LinearModel(w=w, b=b, loss=SQUARED_HINGE, reg=reg, C=C,
                       diagnostics=diag)


def predict_scores(model, X):
    X = _check_matrix(X)
    if X.shape[1] != model.w.size:
        raise LinModError(
            f"feature dimension {X.shape[1]} does not match model "
            f"dimension {model.w.size}")
    return np.asarray(X @ model.w).ravel() + model.b


def predict_proba(model, X):
    """Class-1 probability; defined for the logistic loss only."""
    if model.loss != LOGISTIC:
        raise LinModError("probabilities are only defined for logistic models")
    scores = predict_scores(model, X)
    with np.errstate(over="ignore"):  # exp(-s) = inf gives exactly 0.0
        return 1.0 / (1.0 + np.exp(-scores))


def rank_coefficients(w, names, k):
    """Top-k (name, weight) of w, sorted descending, ties by column index."""
    w = np.asarray(w, dtype=float)
    names = list(names)
    if len(names) != w.size:
        raise LinModError(f"{len(names)} names for {w.size} coefficients")
    if k < 1:
        raise LinModError("k must be >= 1")
    order = np.argsort(-w, kind="stable")
    return [(names[j], float(w[j])) for j in order[:k]]
