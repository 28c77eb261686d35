"""Chained-equations regression imputation for the continuous feature block.

Fit on training data only; apply the fitted model to held-out data so test
values never influence the regressions.
"""

from __future__ import annotations

import numpy as np

# A scaled Cholesky pivot is 1 - R^2 of its column on the columns before it;
# the normal equations lose about log10(1/pivot) digits, twice as many as SVD
# least squares, so at or below this the column is solved by SVD instead.
PIVOT_TOL = 1e-4
# chained-equations cycles of a fit, each visiting every incomplete column
_CYCLES = 10


class ImputeError(ValueError):
    pass


class ImputationModel:
    """Per-column regressions learned by the final chained-equations cycle.

    visit_order covers exactly the columns that had missing cells at fit
    time, ascending by missing fraction. coefficients[j] has one weight per
    other column plus a trailing intercept. A column in rank_deficient_columns
    had a rank-deficient regression and took its minimum-norm solution.
    """

    def __init__(self, n_columns, means, visit_order, coefficients, residual_sds,
                 seed, rank_deficient_columns=(), cycle_median_change=()):
        self.n_columns = int(n_columns)
        self.means = np.asarray(means, dtype=float)
        self.visit_order = tuple(int(j) for j in visit_order)
        self.coefficients = {int(j): np.asarray(c, dtype=float)
                             for j, c in coefficients.items()}
        self.residual_sds = {int(j): float(s) for j, s in residual_sds.items()}
        self.seed = int(seed)
        self.rank_deficient_columns = tuple(
            sorted(int(j) for j in rank_deficient_columns))
        self.cycle_median_change = tuple(float(x) for x in cycle_median_change)
        if any(s < 0 for s in self.residual_sds.values()):
            raise ImputeError("residual sd must be non-negative")
        if sorted(self.coefficients) != sorted(self.visit_order):
            raise ImputeError("stored regressions must match the visit order")


def _work_matrix(X, observed_mask, means):
    """X with its missing cells at the means, plus a trailing column of ones."""
    n, d = X.shape
    W = np.ones((n, d + 1))
    W[:, :d] = np.where(observed_mask, X, means)
    return W


def _run_chain(X, observed_mask, seed):
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    means = np.array([X[observed_mask[:, j], j].mean() for j in range(d)])
    # the chain works on C, the work matrix with each column's mean taken off
    # (the ones column stays): a column far from 0 then costs the normal
    # equations no digits, and each regression is solved in these units
    C = _work_matrix(X - means, observed_mask, 0.0)

    frac = (~observed_mask).mean(axis=0)
    visit_order = sorted((j for j in range(d) if frac[j] > 0),
                         key=lambda j: (frac[j], j))

    rows = {j: (np.flatnonzero(observed_mask[:, j]),
                np.flatnonzero(~observed_mask[:, j])) for j in visit_order}

    # G stays exactly C.T @ C: once column j is redrawn, its row and column
    # are recomputed, so no rounding carries from one step to the next
    G = C.T @ C
    weights, residual_sds = {}, {}
    rank_deficient_columns = set()
    median_changes = []
    for _ in range(_CYCLES):
        changes = []
        for j in visit_order:
            obs, miss = rows[j]
            # the Gram matrix over j's observed rows: G less the missing
            # rows when they are fewer, else formed from the observed rows
            if miss.size < obs.size:
                Cr = C[miss]
                A = G - Cr.T @ Cr
            else:
                Cr = C[obs]
                A = Cr.T @ Cr
            # row and column j set to the identity: w[j] solves to 0 and the
            # other weights to j's regression on every other column (the
            # last is all ones), by a Cholesky factor scaled to unit diagonal
            b = A[:, j].copy()
            b[j] = A[j] = A[:, j] = 0.0
            A[j, j] = 1.0
            scale = np.sqrt(np.diag(A))
            w = None
            if scale.all():
                try:
                    L = np.linalg.cholesky(A / np.outer(scale, scale))
                except np.linalg.LinAlgError:
                    L = None
                # j's own pivot is exactly 1, so only the others can trip
                # the PIVOT_TOL check
                if L is not None and np.diag(L).min() ** 2 > PIVOT_TOL:
                    w = np.linalg.solve(L.T, np.linalg.solve(L, b / scale)) / scale
            if w is None:
                # SVD least squares on the observed rows, each regressor
                # scaled to unit norm: the minimum-norm solution in those
                # units if rank deficient
                Z = np.delete(C[obs], j, axis=1)
                norms = np.sqrt((Z * Z).sum(axis=0))
                norms[norms == 0] = 1.0
                beta, _, rank, _ = np.linalg.lstsq(Z / norms, C[obs, j], rcond=None)
                if rank < d:
                    rank_deficient_columns.add(j)
                w = np.insert(beta / norms, j, 0.0)
            pred = C @ w
            sd = float((C[obs, j] - pred[obs]).std())  # population sd
            new = pred[miss] + sd * rng.standard_normal(miss.size)
            changes.append(np.abs(new - C[miss, j]))
            C[miss, j] = new
            G[:, j] = G[j] = C.T @ C[:, j]
            weights[j], residual_sds[j] = w, sd
        if changes:
            median_changes.append(float(np.median(np.concatenate(changes))))

    # back from centred columns: only the intercept moves
    for j, w in weights.items():
        w[-1] += means[j] - w[:-1] @ means
    model = ImputationModel(
        n_columns=d, means=means, visit_order=visit_order,
        coefficients={j: np.delete(w, j) for j, w in weights.items()},
        residual_sds=residual_sds,
        seed=seed, cycle_median_change=median_changes,
        rank_deficient_columns=rank_deficient_columns)
    return np.where(observed_mask, X, C[:, :-1] + means), model


def impute_fit_transform(matrix, seed=0):
    """Complete a matrix with NaN missing flags; returns (matrix, model).

    Missing cells start at column means; each of _CYCLES cycles revisits
    every incomplete column in ascending-missingness order, refits its
    regression on the observed cells, and redraws the missing cells as
    prediction plus Gaussian residual noise.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ImputeError("expected a 2-d matrix")
    observed_mask = ~np.isnan(X)
    counts = observed_mask.sum(axis=0)
    if np.any(counts == 0):
        bad = np.where(counts == 0)[0].tolist()
        raise ImputeError(f"columns {bad} are entirely missing")
    if np.any(counts < 2):
        bad = np.where(counts < 2)[0].tolist()
        raise ImputeError(f"columns {bad} have fewer than 2 observed values")
    if not np.isfinite(X[observed_mask]).all():
        raise ImputeError("observed cells must be finite")

    return _run_chain(X, observed_mask, seed)


def apply_imputation(model, matrix):
    """One deterministic pass filling a new matrix with the stored regressions.

    Initialization uses the training column means; noise comes from a seed
    derived from the model's. A column that was complete at fit time has no
    stored regression, so its missing cells stay at the training mean.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_columns:
        raise ImputeError(
            f"matrix has {X.shape[1] if X.ndim == 2 else 'ND'} columns, "
            f"model expects {model.n_columns}")
    observed_mask = ~np.isnan(X)
    if not np.isfinite(X[observed_mask]).all():
        raise ImputeError("observed cells must be finite")
    W = _work_matrix(X, observed_mask, model.means)
    rng = np.random.default_rng([model.seed, 1])
    for j in model.visit_order:
        miss = ~observed_mask[:, j]
        w = np.insert(model.coefficients[j], j, 0.0)
        W[miss, j] = W[miss] @ w + model.residual_sds[j] * rng.standard_normal(miss.sum())
    return W[:, :-1]
