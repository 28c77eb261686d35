"""Regularized linear classifiers with per-instance weighting.

Every objective is sum_i s_i * loss_i + (1/C) * penalty(w), and every fit is
numpy matrix-vector work; each product with a dense X is one of dense's
fixed-order products, so a fit and its scores have the same bits at any BLAS
thread count. Logistic regression (L1 or L2) and the L1 squared-hinge SVM
share one accelerated proximal-gradient loop; only the loss and its gradient
differ. The L2 hinge SVM solves its box-constrained dual, and its
`converged` flag certifies the optimum: the relative primal-dual gap,
recorded as diagnostics["duality_gap"], is <= _TOL. When X has more rows
than columns and [X, 1] fits dense.DENSE_VALUES (d + 1 < n and
n * (d + 1) <= 2**21), a primal-dual interior-point method takes about 10-20
Newton steps; otherwise (wide tf-idf blocks, or fewer rows than columns)
projected accelerated gradient runs on X as given, without densifying it.
The tolerance and each solver's step cap are constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dense
from .dense import (_cholesky, _cholesky_solve, _dot, _gram, issparse,
                    matvec, rmatvec)

LOGISTIC = "logistic"
HINGE = "hinge"
SQUARED_HINGE = "squared-hinge"
L1 = "l1"
L2 = "l2"

# A fit converges at a relative objective change (proximal gradient) or
# duality gap (hinge solvers) <= _TOL, else stops at its solver's step cap.
_TOL = 1e-6
_LOGREG_STEPS = 10_000
_SQUARED_HINGE_STEPS = 1_000
_NEWTON_STEPS = 1_000
_DUAL_STEPS = 1_000


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
        if not isinstance(o, dict):
            raise LinModError("model must be a JSON object")
        w = np.zeros(o["dim"])
        for j, v in o["weights"].items():
            if not 0 <= int(j) < w.size:
                raise LinModError(f"weight index {j} is outside dim {w.size}")
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
    if issparse(X):
        if not np.isfinite(X.data).all():
            raise LinModError("feature matrix contains non-finite entries")
        return X.tocsr()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise LinModError("expected a 2-d feature matrix")
    if not np.isfinite(X).all():
        raise LinModError("feature matrix contains non-finite entries")
    return X


def check_settings(C):
    """Refuse a regularization strength C that is not positive (NaN too)."""
    if not C > 0:
        raise LinModError("C must be positive")


def _check_training_inputs(X, y, instance_weights):
    X = _check_matrix(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise LinModError("labels must align with rows")
    if not np.isin(y, (0, 1)).all():
        raise LinModError("labels must be 0/1")
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


def _proximal_gradient(X, smooth, gradient, reg, lam, max_iter):
    """Minimizes smooth(m) + lam * penalty(w) by proximal gradient, where
    m = X @ w + b are the margins; gradient(m) is d smooth / d m.

    Accelerated as in FISTA (Beck & Teboulle 2009), with a backtracking line
    search and a restart from the current iterate whenever momentum
    overshoots, so the objective never increases; the intercept is excluded
    from the penalty. Each point's margins are computed once. Stops on
    relative objective change <= _TOL, or unconverged after max_iter steps.
    """
    def prox_step(w0, b0, m0, g0, step):
        r = gradient(m0)
        gw, gb = rmatvec(X, r), float(r.sum())
        while True:
            w1 = _prox(w0 - step * gw, step * lam, reg)
            b1 = b0 - step * gb
            dw, db = w1 - w0, b1 - b0
            quad = g0 + gw @ dw + gb * db + (dw @ dw + db * db) / (2.0 * step)
            m1 = matvec(X, w1) + b1
            g1 = smooth(m1)
            if g1 <= quad + 1e-12 * max(1.0, abs(quad)):
                return w1, b1, m1, g1, step
            step *= 0.5
            if step < 1e-20:
                raise LinModError("line search failed; inputs may be ill-scaled")

    w = np.zeros(X.shape[1])
    b = 0.0
    m = matvec(X, w) + b
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
        z_m = matvec(X, z_w) + z_b
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
        if abs(F - F_new) <= _TOL * max(1.0, abs(F)):
            F = F_new
            converged = True
            break
        F = F_new

    return w, b, {"final_objective": F, "iterations": iterations,
                  "converged": converged}


def train_logreg(X, y, reg=L2, C=1.0, instance_weights=None):
    """Weighted logistic regression by accelerated proximal gradient, for at
    most _LOGREG_STEPS steps; the fit is deterministic."""
    if reg not in (L1, L2):
        raise LinModError(f"unknown regularizer {reg!r}")
    check_settings(C)
    X, y, s = _check_training_inputs(X, y, instance_weights)

    def smooth(m):
        return _log_loss_sum(m, y, s)

    def gradient(m):
        return s * (1.0 / (1.0 + np.exp(-m)) - y)

    w, b, diag = _proximal_gradient(X, smooth, gradient, reg, 1.0 / C,
                                    _LOGREG_STEPS)
    return LinearModel(w=w, b=b, loss=LOGISTIC, reg=reg, C=C, diagnostics=diag)


_EPS = float(np.finfo(float).eps)
# the fraction of the way to the nearest bound that a step may go
_BOUNDARY = 0.995
# the most refinements of one Woodbury solve
_REFINEMENTS = 3


def _hinge_gap(u, a, margins, v):
    """(duality gap, primal objective) of the dual point a, v = Z.T a.

    Each gap term is >= 0: complementary slackness of the box constraints.
    The gap is reported no smaller than (n + d + 1) eps times the primal
    objective, the rounding error of the sums it compares, so it bounds the
    suboptimality of the rounded (w, b) too.
    """
    slack = np.maximum(1.0 - margins, 0.0)
    primal = 0.5 * _dot(v, v) + _dot(u, slack)
    gap = _dot(u - a, slack) + _dot(a, np.maximum(margins - 1.0, 0.0))
    return max(gap, (a.size + v.size) * _EPS * primal), primal


def _hinge_ipm(Z, u):
    """Primal-dual interior point on the augmented hinge dual.

    Minimizes 0.5 * ||Z.T a||^2 - sum(a) over 0 <= a <= u for dense
    Z = y * [X, 1] with more rows than columns and u > 0, by Mehrotra's
    predictor-corrector (SIAM J. Optim. 1992) with one step length for a and
    for z and t, the multipliers of a >= 0 and a <= u. Each Newton system
    (D + Z Z.T) da = r, D diagonal, is solved through the (d + 1)-square
    matrix I + Z.T D^-1 Z (Sherman-Morrison-Woodbury, as in Ferris & Munson,
    SIAM J. Optim. 2002). Stops on the relative duality gap of _hinge_dual,
    or unconverged after _NEWTON_STEPS steps or once rounding rather than
    the iterate limits that gap; then returns the polished point (_polish)
    of the last iterate instead when its gap is no larger.
    """
    n, m = Z.shape
    a = 0.2 * u
    v = np.einsum("ij,i->j", Z, a)
    margins = np.einsum("ij,j->i", Z, v)
    # z - t = margins - 1 sets the stationarity residual to 0; both are
    # shifted by the u-weighted mean of |margins - 1| to start near centred
    g = margins - 1.0
    z = np.maximum(g, 0.0) + _dot(u, np.abs(g)) / float(u.sum())
    t = z - g
    iterations = 0
    while True:
        gap, primal = _hinge_gap(u, a, margins, v)
        if gap <= _TOL * primal or iterations >= _NEWTON_STEPS:
            break
        h = u - a
        mu = (_dot(a, z) + _dot(h, t)) / (2 * n)
        if 2 * n * mu <= _EPS * gap:
            break  # rounding, not complementarity, now bounds the gap
        iterations += 1
        D = z / a + t / h
        try:
            factor = _cholesky(_gram(Z, Z / D[:, None]) + np.eye(m))
        except np.linalg.LinAlgError:
            break  # past the accuracy that double precision allows
        # predictor: the Newton step towards complementarity 0, whose right
        # side -residual - z + t is 1 - margins
        residual = margins - 1.0 - z + t
        da = _woodbury_solve(Z, D, factor, 1.0 - margins)
        dz = -z - z * da / a
        dt = -t + t * da / h
        alpha = min(1.0, _max_step(a, h, z, t, da, dz, dt))
        mu_aff = (_dot(a + alpha * da, z + alpha * dz)
                  + _dot(h - alpha * da, t + alpha * dt)) / (2 * n)
        sigma_mu = (mu_aff / mu) ** 3 * mu
        # corrector: towards sigma * mu, with the predictor's second-order
        # terms
        rc_lo = a * z + da * dz - sigma_mu
        rc_up = h * t - da * dt - sigma_mu
        da = _woodbury_solve(Z, D, factor, rc_up / h - rc_lo / a - residual)
        dz = -(rc_lo + z * da) / a
        dt = (t * da - rc_up) / h
        alpha = min(1.0, _BOUNDARY * _max_step(a, h, z, t, da, dz, dt))
        a_new, z_new, t_new = a + alpha * da, z + alpha * dz, t + alpha * dt
        # past the accuracy that rounding allows, a step lands on a bound
        if not min(a_new.min(), (u - a_new).min(), z_new.min(),
                   t_new.min()) > 0.0:
            break
        a, z, t = a_new, z_new, t_new
        v = np.einsum("ij,i->j", Z, a)
        margins = np.einsum("ij,j->i", Z, v)

    def free_gram(free):
        ZF = Z[free]  # one copy on both sides: numpy's A.T @ A is a syrk
        return _gram(ZF.T, ZF.T)

    polished = _polish(u, a, z, t, lambda p: np.einsum("ij,i->j", Z, p),
                       lambda v: np.einsum("ij,j->i", Z, v), free_gram)
    if polished is not None and polished[1] * primal <= gap * polished[2]:
        v, gap, primal = polished
    return v[:-1], float(v[-1]), {
        "iterations": iterations, "converged": gap <= _TOL * primal,
        "duality_gap": gap / primal if primal > 0.0 else 0.0}


def _woodbury_solve(Z, D, factor, r):
    """da with (D + Z Z.T) da = r, from the factor of I + Z.T D^-1 Z.

    Where D is tiny the Woodbury form cancels digits, so da is refined on the
    exact operator until its residual is at most sqrt(eps) of r.
    """
    def woodbury(r):
        q = r / D
        dv = _cholesky_solve(factor, np.einsum("ij,i->j", Z, q))
        return q - np.einsum("ij,j->i", Z, dv) / D

    da = woodbury(r)
    for _ in range(_REFINEMENTS):
        res = r - D * da - np.einsum("ij,j->i", Z, np.einsum("ij,i->j", Z, da))
        if _dot(res, res) <= _EPS * _dot(r, r):
            break
        da = da + woodbury(res)
    return da


def _polish(u, a, z, t, zt, z_of, free_gram):
    """(v, gap, primal) of the dual point of the bound pattern that a, z, t
    show, or None.

    z and t are the multipliers of a >= 0 and a <= u. Row i is at 0 when
    a_i / u_i < z_i, at u_i when 1 - a_i / u_i < t_i, and free otherwise;
    the free rows' a solves Z_F Z.T a = 1 (their margins exactly 1). zt(p)
    is Z.T p, z_of(v) is Z v and free_gram(F) the lower block triangle of
    Z_F Z_F.T. With the pattern of the optimum this is the optimum itself,
    up to rounding. A free a_i outside [0, u_i] is clipped to the box: rows
    at 0 with margin 1 make the solve return rounding noise around 0, and
    every point of the box is a dual point whose gap bounds its
    suboptimality. None when the system is singular or more rows are free
    than Z has columns or than dense.DENSE_VALUES allows a square of.
    """
    frac = a / u
    lower = frac < z
    upper = (1.0 - frac < t) & ~lower
    free = np.flatnonzero(~(lower | upper))
    p = np.where(upper, u, 0.0)
    v = zt(p)
    if free.size > v.size or free.size ** 2 > dense.DENSE_VALUES:
        return None
    if free.size:
        rhs = 1.0 - z_of(v)[free]
        try:
            p[free] = np.clip(_cholesky_solve(_cholesky(free_gram(free)),
                                              rhs), 0.0, u[free])
        except np.linalg.LinAlgError:
            return None
        v = zt(p)
    return (v,) + _hinge_gap(u, p, z_of(v), v)


def _max_step(a, h, z, t, da, dz, dt):
    """The largest step along (da, -da, dz, dt) from (a, h, z, t) that keeps
    every entry >= 0; inf if none decreases."""
    x = np.concatenate([a, h, z, t])
    dx = np.concatenate([da, -da, dz, dt])
    down = dx < 0.0
    return float(np.min(x[down] / -dx[down], initial=np.inf))


def _hinge_dual(X, y_pm, upper):
    """Projected accelerated gradient on the augmented hinge dual.

    Minimizes 0.5 * ||Z.T a||^2 - sum(a) over 0 <= a <= upper, with
    Z = y * [X, 1]: the bias is an implicit all-ones column that shares the
    L2 penalty (the dual of Hsieh et al., ICML 2008). Z is never formed, so
    memory stays O(nnz) plus the polish's square of free rows, within
    dense.DENSE_VALUES. Each step backtracks on the quadratic's exact
    curvature along the step and then grows by 1.2; momentum restarts when
    the step opposes the previous move (O'Donoghue & Candes 2015). Stops
    when the duality gap is <= _TOL times the primal objective; after
    _DUAL_STEPS steps the last iterate is polished (_polish, the multipliers
    read off its gradient), and the polished point is kept when its
    relative gap is no larger. C and the instance weights enter only through
    upper = C * s. Its iterations grow with n, so it runs only
    where _hinge_ipm does not: where Z has no more rows than columns or its
    dense copy would not fit dense.DENSE_VALUES.
    """
    def zt(a):  # Z.T @ a, the primal (w, b) of a dual point
        ya = y_pm * a
        return np.append(rmatvec(X, ya), ya.sum())

    def z(v):  # Z @ v, the margins of a primal point
        return y_pm * (matvec(X, v[:-1]) + v[-1])

    n = X.shape[0]
    sq = X.multiply(X).sum() if issparse(X) else np.einsum("ij,ij->", X, X)
    step = 1.0 / (float(sq) + n)  # 1 / ||Z||_F^2 is a safe first step
    a = a_prev = np.zeros(n)
    m = m_prev = np.zeros(n)
    v = v_prev = np.zeros(X.shape[1] + 1)
    theta = 1.0
    converged = False
    iterations = 0
    gap = primal = float(upper.sum())  # at a = 0 every slack is 1
    for iterations in range(1, _DUAL_STEPS + 1):
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
        gap, primal = _hinge_gap(upper, a, m, v)
        if gap <= _TOL * primal:
            converged = True
            break
    if not converged:
        g = m - 1.0
        polished = _polish(upper, a, np.maximum(g, 0.0), np.maximum(-g, 0.0),
                           zt, z, lambda free: _row_gram(X, y_pm, free))
        if polished is not None and polished[1] * primal <= gap * polished[2]:
            v, gap, primal = polished
            converged = gap <= _TOL * primal
    return v[:-1], float(v[-1]), {
        "iterations": iterations, "converged": converged,
        "duality_gap": gap / primal if primal > 0.0 else 0.0}


def _row_gram(X, y_pm, rows):
    """Z_F Z_F.T for Z = y * [X, 1] and F = rows, without forming Z."""
    XF = X[rows]
    G = (XF @ XF.T).toarray() if issparse(XF) else _gram(XF.T, XF.T)
    return (G + 1.0) * np.outer(y_pm[rows], y_pm[rows])


def train_linear_svm(X, y, reg=L2, C=1.0, instance_weights=None):
    """Linear SVM; L2 pairs with hinge loss, L1 with squared hinge.

    The hinge fit solves the dual and reports its relative duality gap: by
    the interior point when d + 1 < n and n * (d + 1) is within
    dense.DENSE_VALUES, else by projected accelerated gradient; the interior
    point gives the same bits at any BLAS thread count. The L1
    squared-hinge fit runs the logistic loop on its own loss. Both are
    deterministic.
    """
    if reg not in (L1, L2):
        raise LinModError(f"unknown regularizer {reg!r}")
    check_settings(C)
    X, y, s = _check_training_inputs(X, y, instance_weights)
    y_pm = 2.0 * y - 1.0
    if reg == L2:
        # a row of weight 0 has a_i = 0 at every dual point: it is left out
        keep = s > 0.0
        Xk = X if keep.all() else X[keep]
        n, d = Xk.shape
        if n == 0:  # every weight is 0: the penalty alone, minimal at 0
            w, b, diag = np.zeros(d), 0.0, {
                "iterations": 0, "converged": True, "duality_gap": 0.0}
        elif d + 1 < n and n * (d + 1) <= dense.DENSE_VALUES:
            Z = np.ones((n, d + 1))
            Z[:, :d] = Xk.toarray() if issparse(Xk) else Xk
            Z *= y_pm[keep][:, None]
            w, b, diag = _hinge_ipm(Z, C * s[keep])
        else:
            w, b, diag = _hinge_dual(Xk, y_pm[keep], C * s[keep])
        hinge = np.maximum(1.0 - y_pm * (matvec(X, w) + b), 0.0)
        diag["final_objective"] = float(s @ hinge + 0.5 * (w @ w + b * b) / C)
        return LinearModel(w=w, b=b, loss=HINGE, reg=reg, C=C,
                           diagnostics=diag)

    def smooth(m):
        slack = np.maximum(1.0 - y_pm * m, 0.0)
        return float(s @ (slack * slack))

    def gradient(m):
        return -2.0 * s * y_pm * np.maximum(1.0 - y_pm * m, 0.0)

    w, b, diag = _proximal_gradient(X, smooth, gradient, L1, 1.0 / C,
                                    _SQUARED_HINGE_STEPS)
    return LinearModel(w=w, b=b, loss=SQUARED_HINGE, reg=reg, C=C,
                       diagnostics=diag)


def predict_scores(model, X):
    X = _check_matrix(X)
    if X.shape[1] != model.w.size:
        raise LinModError(
            f"feature dimension {X.shape[1]} does not match model "
            f"dimension {model.w.size}")
    return np.asarray(matvec(X, model.w)).ravel() + model.b


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
