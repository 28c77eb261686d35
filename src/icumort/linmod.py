"""Regularized linear classifiers with per-instance weighting.

Logistic regression is fit by proximal gradient with backtracking and
restarted momentum; the hinge SVM by dual coordinate descent; the L1
squared-hinge SVM by cyclic coordinate descent with soft-thresholding.
All objectives follow sum_i s_i * loss_i + (1/C) * penalty(w).
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class ClassWeights:
    negative: float
    positive: float

    def __post_init__(self):
        if self.negative <= 0 or self.positive <= 0:
            raise LinModError("class weights must be strictly positive")

    def per_instance(self, y):
        y = np.asarray(y)
        return np.where(y == 1, self.positive, self.negative).astype(float)


def compute_class_weights(labels):
    """Balanced rule w_c = N / (2 * N_c)."""
    y = np.asarray(labels)
    n = y.size
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos + n_neg != n:
        raise LinModError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise LinModError("both classes must be present to balance weights")
    return ClassWeights(negative=n / (2.0 * n_neg), positive=n / (2.0 * n_pos))


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

    def to_json(self):
        nz = np.nonzero(self.w)[0]
        return json.dumps({
            "loss": self.loss, "reg": self.reg, "C": self.C,
            "intercept": float(self.b), "dim": int(self.w.size),
            "weights": {str(int(j)): float(self.w[j]) for j in nz},
            "diagnostics": {k: (bool(v) if isinstance(v, (bool, np.bool_)) else float(v))
                            for k, v in self.diagnostics.items()},
        })

    @classmethod
    def from_json(cls, text):
        o = json.loads(text)
        w = np.zeros(o["dim"])
        for j, v in o["weights"].items():
            w[int(j)] = v
        return cls(w=w, b=o["intercept"], loss=o["loss"], reg=o["reg"],
                   C=o["C"], diagnostics=o.get("diagnostics", {}))


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


def train_logreg(X, y, reg=L2, C=1.0, instance_weights=None, seed=0,
                 tol=1e-6, max_iter=10000):
    """Weighted logistic regression by proximal gradient.

    Momentum with restart keeps the objective non-increasing; the intercept
    is excluded from the penalty. Stops on relative objective change < tol.
    The fit is deterministic; seed is accepted for interface uniformity.
    """
    del seed
    if reg not in (L1, L2):
        raise LinModError(f"unknown regularizer {reg!r}")
    X, y, s = _check_training_inputs(X, y, C, instance_weights)
    n, d = X.shape
    lam = 1.0 / C

    def smooth(w, b):
        return _log_loss_sum(X @ w + b, y, s)

    def objective(w, b):
        return smooth(w, b) + lam * _penalty(w, reg)

    def gradient(w, b):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        r = s * (p - y)
        return X.T @ r, float(r.sum())

    w = np.zeros(d)
    b = 0.0
    w_prev, b_prev = w, b
    theta = 1.0
    step = 1.0
    F = objective(w, b)
    converged = False
    iterations = 0

    def prox_step(w0, b0, step):
        g0 = smooth(w0, b0)
        gw, gb = gradient(w0, b0)
        while True:
            w1 = _prox(w0 - step * gw, step * lam, reg)
            b1 = b0 - step * gb
            dw, db = w1 - w0, b1 - b0
            quad = g0 + gw @ dw + gb * db + (dw @ dw + db * db) / (2.0 * step)
            if smooth(w1, b1) <= quad + 1e-12 * max(1.0, abs(quad)):
                return w1, b1, step
            step *= 0.5
            if step < 1e-20:
                raise LinModError("line search failed; inputs may be ill-scaled")

    for iterations in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        mom = (theta - 1.0) / theta_next
        z_w = w + mom * (w - w_prev)
        z_b = b + mom * (b - b_prev)
        w_new, b_new, step = prox_step(z_w, z_b, step * 2.0)
        F_new = objective(w_new, b_new)
        if F_new > F:
            # momentum overshot: restart from the current iterate
            theta_next = 1.0
            w_new, b_new, step = prox_step(w, b, step)
            F_new = objective(w_new, b_new)
        if not F_new <= F + 1e-9 * max(1.0, abs(F)):  # NaN raises too
            raise LinModError(
                f"objective increased from {F!r} to {F_new!r} at iteration "
                f"{iterations}")
        w_prev, b_prev = w, b
        w, b = w_new, b_new
        theta = theta_next
        if abs(F - F_new) <= tol * max(1.0, abs(F)):
            F = F_new
            converged = True
            break
        F = F_new

    return LinearModel(w=w, b=b, loss=LOGISTIC, reg=reg, C=C, diagnostics={
        "final_objective": F, "iterations": iterations, "converged": converged})


# ---------------------------------------------------------------------------
# SVM
# ---------------------------------------------------------------------------

class _Rows:
    """Uniform row access over dense or CSR input, bias column implicit."""

    def __init__(self, X):
        self.sparse = sp.issparse(X)
        if self.sparse:
            self.data = X.data
            self.indices = X.indices
            self.indptr = X.indptr
        else:
            self.dense = X
        self.n, self.d = X.shape

    def dot_aug(self, i, w, b):
        if self.sparse:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            return float(w[self.indices[lo:hi]] @ self.data[lo:hi]) + b
        return float(self.dense[i] @ w) + b

    def axpy_aug(self, i, coef, w):
        # returns the bias increment; caller owns b
        if self.sparse:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            w[self.indices[lo:hi]] += coef * self.data[lo:hi]
        else:
            w += coef * self.dense[i]
        return coef

    def sq_norm_aug(self, i):
        if self.sparse:
            lo, hi = self.indptr[i], self.indptr[i + 1]
            v = self.data[lo:hi]
            return float(v @ v) + 1.0
        return float(self.dense[i] @ self.dense[i]) + 1.0


def _hinge_objective(X, y_pm, s, w, b, C):
    margins = 1.0 - y_pm * (X @ w + b)
    hinge = np.maximum(margins, 0.0)
    return float(s @ hinge) + (0.5 * (w @ w + b * b)) / C


def _train_svm_dual_l2(X, y_pm, s, C, seed, tol, max_epochs):
    """liblinear-style dual coordinate descent for weighted hinge loss.

    The bias enters as an implicit all-ones column, so it shares the L2
    penalty (the usual augmented formulation).
    """
    rows = _Rows(X)
    n, d = rows.n, rows.d
    upper = C * s
    q = np.array([rows.sq_norm_aug(i) for i in range(n)])
    alpha = np.zeros(n)
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(seed)
    converged = False
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(n)
        max_change = 0.0
        for i in order:
            if upper[i] == 0.0:
                continue
            g = y_pm[i] * rows.dot_aug(i, w, b) - 1.0
            if alpha[i] == 0.0:
                pg = min(g, 0.0)
            elif alpha[i] == upper[i]:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg == 0.0:
                continue
            new = min(max(alpha[i] - g / q[i], 0.0), upper[i])
            delta = new - alpha[i]
            if delta != 0.0:
                rows.axpy_aug(i, delta * y_pm[i], w)
                b += delta * y_pm[i]
                alpha[i] = new
                max_change = max(max_change, abs(delta))
        if max_change < tol:
            converged = True
            break
    obj = _hinge_objective(X, y_pm, s, w, b, C)
    return w, b, {"final_objective": obj, "iterations": epoch,
                  "converged": converged}


class _Cols:
    """Column access over dense or CSC input for coordinate descent."""

    def __init__(self, X):
        self.sparse = sp.issparse(X)
        if self.sparse:
            Xc = X.tocsc()
            self.data = Xc.data
            self.indices = Xc.indices
            self.indptr = Xc.indptr
        else:
            self.dense = np.asarray(X)
        self.n, self.d = X.shape

    def col(self, j):
        if self.sparse:
            lo, hi = self.indptr[j], self.indptr[j + 1]
            return self.indices[lo:hi], self.data[lo:hi]
        v = self.dense[:, j]
        nz = np.nonzero(v)[0]
        return nz, v[nz]


def _train_svm_cdn_l1(X, y_pm, s, C, tol, max_cycles):
    """Cyclic coordinate descent with soft-thresholding for L1 squared hinge.

    The intercept is a separate unpenalized coordinate updated by a plain
    Newton step; both use an Armijo backtracking line search.
    """
    cols = _Cols(X)
    n, d = cols.n, cols.d
    lam = 1.0 / C
    w = np.zeros(d)
    b = 0.0
    scores = np.zeros(n)
    sigma, beta_ls = 0.01, 0.5

    def loss_rows(rows_idx, sc):
        m = 1.0 - y_pm[rows_idx] * sc
        act = m > 0
        return float(s[rows_idx][act] @ (m[act] ** 2))

    converged = False
    cycle = 0
    for cycle in range(1, max_cycles + 1):
        max_step = 0.0
        for j in range(d):
            idx, vals = cols.col(j)
            if idx.size == 0:
                continue
            sc = scores[idx]
            yv = y_pm[idx]
            sv = s[idx]
            m = 1.0 - yv * sc
            act = m > 0
            g = float((-2.0) * (sv[act] * m[act] * yv[act]) @ vals[act])
            h = 2.0 * float(sv[act] @ (vals[act] ** 2)) + 1e-12
            u = w[j] - g / h
            target = np.sign(u) * max(abs(u) - lam / h, 0.0)
            dstep = target - w[j]
            if dstep == 0.0:
                continue
            delta = g * dstep + lam * (abs(w[j] + dstep) - abs(w[j]))
            old_loss = loss_rows(idx, sc)
            old_pen = lam * abs(w[j])
            t = 1.0
            for _ in range(30):
                cand = w[j] + t * dstep
                new_loss = loss_rows(idx, sc + t * dstep * vals)
                if (new_loss + lam * abs(cand)) - (old_loss + old_pen) \
                        <= sigma * t * delta:
                    break
                t *= beta_ls
            else:
                continue
            w[j] = w[j] + t * dstep
            scores[idx] = sc + t * dstep * vals
            max_step = max(max_step, abs(t * dstep))

        # unpenalized intercept coordinate
        m_all = 1.0 - y_pm * scores
        act = m_all > 0
        g_b = float((-2.0) * (s[act] * m_all[act]) @ y_pm[act])
        h_b = 2.0 * float(s[act].sum()) + 1e-12
        dstep = -g_b / h_b
        if dstep != 0.0:
            old = loss_rows(np.arange(n), scores)
            t = 1.0
            for _ in range(30):
                if loss_rows(np.arange(n), scores + t * dstep) - old \
                        <= sigma * t * g_b * dstep:
                    break
                t *= beta_ls
            else:
                t = 0.0
            if t > 0.0:
                b += t * dstep
                scores = scores + t * dstep
                max_step = max(max_step, abs(t * dstep))

        if max_step < tol:
            converged = True
            break

    margins = 1.0 - y_pm * scores
    obj = float(s @ (np.maximum(margins, 0.0) ** 2)) + lam * float(np.abs(w).sum())
    return w, b, {"final_objective": obj, "iterations": cycle,
                  "converged": converged}


def train_linear_svm(X, y, reg=L2, C=1.0, instance_weights=None, seed=0,
                     tol=1e-6, max_epochs=1000):
    """Linear SVM; L2 pairs with hinge loss, L1 with squared hinge."""
    if reg not in (L1, L2):
        raise LinModError(f"unknown regularizer {reg!r}")
    X, y, s = _check_training_inputs(X, y, C, instance_weights)
    y_pm = np.where(y == 1, 1.0, -1.0)
    if reg == L2:
        w, b, diag = _train_svm_dual_l2(X, y_pm, s, C, seed, tol, max_epochs)
        loss = HINGE
    else:
        w, b, diag = _train_svm_cdn_l1(X, y_pm, s, C, tol, max_epochs)
        loss = SQUARED_HINGE
    return LinearModel(w=w, b=b, loss=loss, reg=reg, C=C, diagnostics=diag)


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
    return 1.0 / (1.0 + np.exp(-scores))


def rank_coefficients(model, names, k):
    """Top-k (name, coefficient) sorted descending, ties by column index."""
    names = list(names)
    if len(names) != model.w.size:
        raise LinModError(
            f"{len(names)} names for {model.w.size} coefficients")
    if k < 1:
        raise LinModError("k must be >= 1")
    order = np.argsort(-model.w, kind="stable")
    return [(names[j], float(model.w[j])) for j in order[:k]]
