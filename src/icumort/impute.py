"""Chained-equations regression imputation for the continuous feature block.

Fit on training data only; apply the fitted model to held-out data so test
values never influence the regressions.
"""

from __future__ import annotations

import json

import numpy as np

RIDGE_PENALTY = 1e-6


class ImputeError(ValueError):
    pass


class ImputationModel:
    """Per-column regressions learned by the final chained-equations cycle.

    visit_order covers exactly the columns that had missing cells at fit
    time, ascending by missing fraction. coefficients[j] has one weight per
    other column plus a trailing intercept.
    """

    def __init__(self, n_columns, means, visit_order, coefficients, residual_sds,
                 cycles, seed, ridge_columns=(), cycle_median_change=()):
        self.n_columns = int(n_columns)
        self.means = np.asarray(means, dtype=float)
        self.visit_order = tuple(int(j) for j in visit_order)
        self.coefficients = {int(j): np.asarray(c, dtype=float)
                             for j, c in coefficients.items()}
        self.residual_sds = {int(j): float(s) for j, s in residual_sds.items()}
        self.cycles = int(cycles)
        self.seed = int(seed)
        self.ridge_columns = tuple(sorted(int(j) for j in ridge_columns))
        self.cycle_median_change = tuple(float(x) for x in cycle_median_change)
        if any(s < 0 for s in self.residual_sds.values()):
            raise ImputeError("residual sd must be non-negative")
        if sorted(self.coefficients) != sorted(self.visit_order):
            raise ImputeError("stored regressions must match the visit order")

    def to_json(self):
        return json.dumps({
            "n_columns": self.n_columns,
            "means": self.means.tolist(),
            "visit_order": list(self.visit_order),
            "coefficients": {str(j): c.tolist() for j, c in self.coefficients.items()},
            "residual_sds": {str(j): s for j, s in self.residual_sds.items()},
            "cycles": self.cycles,
            "seed": self.seed,
            "ridge_columns": list(self.ridge_columns),
            "cycle_median_change": list(self.cycle_median_change),
        })

    @classmethod
    def from_json(cls, text):
        o = json.loads(text)
        return cls(
            n_columns=o["n_columns"], means=o["means"],
            visit_order=o["visit_order"],
            coefficients={int(j): c for j, c in o["coefficients"].items()},
            residual_sds={int(j): s for j, s in o["residual_sds"].items()},
            cycles=o["cycles"], seed=o["seed"],
            ridge_columns=o.get("ridge_columns", ()),
            cycle_median_change=o.get("cycle_median_change", ()),
        )


def _fit_column(work, observed_mask, j):
    """Least squares of column j's observed cells on all other columns.

    Returns (coefficients with trailing intercept, residual sd, used_ridge).
    """
    rows = observed_mask[:, j]
    others = [k for k in range(work.shape[1]) if k != j]
    A = np.column_stack([work[rows][:, others], np.ones(rows.sum())])
    y = work[rows, j]
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    used_ridge = rank < A.shape[1]
    if used_ridge:
        G = A.T @ A + RIDGE_PENALTY * np.eye(A.shape[1])
        beta = np.linalg.solve(G, A.T @ y)
    resid = y - A @ beta
    sd = float(resid.std())  # population sd
    return beta, sd, used_ridge


def _predict_column(work, j, beta):
    others = [k for k in range(work.shape[1]) if k != j]
    return work[:, others] @ beta[:-1] + beta[-1]


def _run_chain(X, observed_mask, cycles, seed):
    rng = np.random.default_rng(seed)
    n, d = X.shape
    means = np.array([X[observed_mask[:, j], j].mean() for j in range(d)])
    work = X.copy()
    for j in range(d):
        work[~observed_mask[:, j], j] = means[j]

    frac = (~observed_mask).mean(axis=0)
    visit_order = sorted((j for j in range(d) if frac[j] > 0),
                         key=lambda j: (frac[j], j))

    coefficients, residual_sds = {}, {}
    ridge_columns = set()
    median_changes = []
    for _ in range(cycles):
        changes = []
        for j in visit_order:
            beta, sd, used_ridge = _fit_column(work, observed_mask, j)
            coefficients[j] = beta
            residual_sds[j] = sd
            if used_ridge:
                ridge_columns.add(j)
            miss = ~observed_mask[:, j]
            pred = _predict_column(work, j, beta)[miss]
            new = pred + sd * rng.standard_normal(miss.sum())
            changes.append(np.abs(new - work[miss, j]))
            work[miss, j] = new
        if changes:
            median_changes.append(float(np.median(np.concatenate(changes))))

    model = ImputationModel(
        n_columns=d, means=means, visit_order=visit_order,
        coefficients=coefficients, residual_sds=residual_sds,
        cycles=cycles, seed=seed, ridge_columns=ridge_columns,
        cycle_median_change=median_changes)
    return work, model


def impute_fit_transform(matrix, cycles=10, seed=0):
    """Complete a matrix with NaN missing flags; returns (matrix, model).

    Missing cells start at column means; each cycle revisits every
    incomplete column in ascending-missingness order, refits its regression
    on the observed cells, and redraws the missing cells as prediction plus
    Gaussian residual noise.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise ImputeError("expected a 2-d matrix")
    if cycles < 1:
        raise ImputeError("cycles must be >= 1")
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

    return _run_chain(X, observed_mask, cycles, seed)


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
    work = X.copy()
    for j in range(model.n_columns):
        work[~observed_mask[:, j], j] = model.means[j]
    rng = np.random.default_rng([model.seed, 1])
    for j in model.visit_order:
        miss = ~observed_mask[:, j]
        if not miss.any():
            continue
        pred = _predict_column(work, j, model.coefficients[j])[miss]
        work[miss, j] = pred + model.residual_sds[j] * rng.standard_normal(miss.sum())
    return work
