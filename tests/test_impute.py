import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icumort import impute
from icumort.cohort import synth_cohort
from icumort.impute import (
    ImputeError,
    apply_imputation,
    impute_fit_transform,
)


# Reference: the chain solved by SVD least squares alone, on the work matrix
# with each column's observed mean taken off. One fit per column on its
# observed rows, each regressor (the other columns and the intercept) scaled
# to unit norm, so the solution is the minimum-norm one in those units when
# rank deficient; the prediction is built from the other columns plus the
# intercept.
def _ref_fit_column(work, observed_mask, j):
    rows = observed_mask[:, j]
    others = [k for k in range(work.shape[1]) if k != j]
    A = np.column_stack([work[rows][:, others], np.ones(rows.sum())])
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    y = work[rows, j]
    beta, _, rank, _ = np.linalg.lstsq(A / norms, y, rcond=None)
    beta = beta / norms
    resid = y - A @ beta
    return beta, float(resid.std()), rank < A.shape[1]


def _ref_predict_column(work, j, beta):
    others = [k for k in range(work.shape[1]) if k != j]
    return work[:, others] @ beta[:-1] + beta[-1]


def _ref_chain(X, cycles=10, seed=0):
    observed_mask = ~np.isnan(X)
    rng = np.random.default_rng(seed)
    d = X.shape[1]
    means = np.array([X[observed_mask[:, j], j].mean() for j in range(d)])
    work = np.where(observed_mask, X - means, 0.0)
    frac = (~observed_mask).mean(axis=0)
    visit_order = sorted((j for j in range(d) if frac[j] > 0),
                         key=lambda j: (frac[j], j))
    rank_deficient_columns = set()
    for _ in range(cycles):
        for j in visit_order:
            beta, sd, rank_deficient = _ref_fit_column(work, observed_mask, j)
            if rank_deficient:
                rank_deficient_columns.add(j)
            miss = ~observed_mask[:, j]
            pred = _ref_predict_column(work, j, beta)[miss]
            work[miss, j] = pred + sd * rng.standard_normal(miss.sum())
    return (np.where(observed_mask, X, work + means), tuple(visit_order),
            tuple(sorted(rank_deficient_columns)))


def _linear_dataset(rng, n=400, noise=0.05):
    # five columns driven by a shared factor, strongly correlated
    z = rng.normal(size=n)
    cols = [
        2.0 * z + noise * rng.normal(size=n),
        -1.5 * z + 3.0 + noise * rng.normal(size=n),
        0.7 * z - 1.0 + noise * rng.normal(size=n),
        1.1 * z + noise * rng.normal(size=n),
        -0.4 * z + 0.5 + noise * rng.normal(size=n),
    ]
    return np.column_stack(cols)


def _mask_mcar(rng, X, rate):
    mask = rng.random(X.shape) < rate
    # keep at least 2 observed everywhere
    for j in range(X.shape[1]):
        obs = np.where(~mask[:, j])[0]
        if obs.size < 2:
            mask[:2, j] = False
    out = X.copy()
    out[mask] = np.nan
    return out, mask


def test_no_missing_is_identity():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    out, model = impute_fit_transform(X, seed=1)
    np.testing.assert_array_equal(out, X)
    assert model.visit_order == ()


def test_exact_linear_relation_recovers_prediction():
    """y = 2x with one y missing at x = 3: imputations average near 6."""
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = 2.0 * x
    imputed = []
    for seed in range(100):
        M = np.column_stack([x, y])
        M[2, 1] = np.nan
        out, _ = impute_fit_transform(M, seed=seed)
        imputed.append(out[2, 1])
    mean = float(np.mean(imputed))
    assert 5.8 <= mean <= 6.2


def test_beats_mean_imputation_on_correlated_data():
    rng = np.random.default_rng(7)
    X = _linear_dataset(rng)
    Xm, mask = _mask_mcar(rng, X, 0.30)
    out, _ = impute_fit_transform(Xm, seed=3)
    rmse = np.sqrt(np.mean((out[mask] - X[mask]) ** 2))
    col_means = np.nanmean(Xm, axis=0)
    mean_filled = np.where(np.isnan(Xm), col_means[None, :], Xm)
    rmse_mean = np.sqrt(np.mean((mean_filled[mask] - X[mask]) ** 2))
    assert rmse <= 0.6 * rmse_mean


def test_observed_cells_bit_identical():
    rng = np.random.default_rng(5)
    X = _linear_dataset(rng, n=120)
    Xm, mask = _mask_mcar(rng, X, 0.25)
    out, _ = impute_fit_transform(Xm, seed=9)
    np.testing.assert_array_equal(out[~mask], Xm[~mask])
    assert np.isfinite(out).all()


def test_deterministic_given_seed():
    rng = np.random.default_rng(2)
    Xm, _ = _mask_mcar(rng, _linear_dataset(rng, n=80), 0.2)
    a, _ = impute_fit_transform(Xm, seed=4)
    b, _ = impute_fit_transform(Xm, seed=4)
    c, _ = impute_fit_transform(Xm, seed=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_visit_order_ascending_missingness():
    rng = np.random.default_rng(11)
    X = _linear_dataset(rng, n=200)
    Xm = X.copy()
    Xm[rng.random(200) < 0.40, 0] = np.nan
    Xm[rng.random(200) < 0.10, 2] = np.nan
    Xm[rng.random(200) < 0.25, 4] = np.nan
    _, model = impute_fit_transform(Xm, seed=0)
    assert model.visit_order == (2, 4, 0)


def test_stabilization_on_near_exact_data(monkeypatch):
    """With tiny residual noise the chain settles: median cell changes shrink."""
    rng = np.random.default_rng(13)
    X = _linear_dataset(rng, n=300, noise=1e-8)
    Xm, _ = _mask_mcar(rng, X, 0.3)
    monkeypatch.setattr(impute, "_CYCLES", 15)
    _, model = impute_fit_transform(Xm, seed=1)
    changes = model.cycle_median_change
    assert len(changes) == 15
    assert all(b <= a + 1e-12 for a, b in zip(changes, changes[1:]))
    assert changes[-1] < 1e-6


def test_rank_deficient_fallback_on_duplicate_column():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    y = 3.0 * x + rng.normal(size=50) * 0.1
    M = np.column_stack([x, x.copy(), y])
    M[5, 2] = np.nan
    out, model = impute_fit_transform(M, seed=0)
    assert np.isfinite(out).all()
    assert 2 in model.rank_deficient_columns


def test_rank_deficient_fallback_on_all_zero_column():
    rng = np.random.default_rng(4)
    x = rng.normal(size=50)
    M = np.column_stack([x, np.zeros(50), 3.0 * x + rng.normal(size=50) * 0.1])
    M[5, 2] = np.nan
    out, model = impute_fit_transform(M, seed=0)
    assert np.isfinite(out).all()
    assert model.rank_deficient_columns == (2,)


def test_error_cases():
    with pytest.raises(ImputeError, match="entirely missing"):
        impute_fit_transform(np.array([[np.nan, 1.0], [np.nan, 2.0]]))
    with pytest.raises(ImputeError, match="fewer than 2"):
        impute_fit_transform(np.array([[np.nan, 1.0], [np.nan, 2.0], [1.0, 3.0]]))
    with pytest.raises(ImputeError):
        impute_fit_transform(np.ones((3, 2, 1)))


class TestApply:
    def setup_method(self):
        rng = np.random.default_rng(23)
        self.X = _linear_dataset(rng, n=300)
        self.Xm, self.mask = _mask_mcar(rng, self.X, 0.3)
        _, self.model = impute_fit_transform(self.Xm, seed=8)
        self.rng = rng

    def test_identity_when_complete(self):
        full = np.nan_to_num(self.X)
        np.testing.assert_array_equal(apply_imputation(self.model, full), full)

    def test_deterministic(self):
        out1 = apply_imputation(self.model, self.Xm)
        out2 = apply_imputation(self.model, self.Xm)
        np.testing.assert_array_equal(out1, out2)

    def test_values_land_in_observed_envelope(self):
        held = _linear_dataset(self.rng, n=200)
        held_m, held_mask = _mask_mcar(self.rng, held, 0.3)
        out = apply_imputation(self.model, held_m)
        assert np.isfinite(out).all()
        for j in range(held.shape[1]):
            obs = self.Xm[~np.isnan(self.Xm[:, j]), j]
            lo = obs.min() - 3 * obs.std()
            hi = obs.max() + 3 * obs.std()
            filled = out[held_mask[:, j], j]
            assert np.all(filled >= lo) and np.all(filled <= hi)

    def test_observed_preserved(self):
        out = apply_imputation(self.model, self.Xm)
        np.testing.assert_array_equal(out[~self.mask], self.Xm[~self.mask])

    def test_column_mismatch_rejected(self):
        with pytest.raises(ImputeError, match="columns"):
            apply_imputation(self.model, np.zeros((4, 7)))

    def test_non_finite_observed_cell_rejected(self):
        held = self.Xm[:5].copy()
        held[0, 0] = np.nan
        held[0, 1] = np.inf
        with pytest.raises(ImputeError, match="finite"):
            apply_imputation(self.model, held)


@st.composite
def incomplete_matrices(draw, far_offsets=False):
    n = draw(st.integers(20, 300))
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, d))
    # k shared factors: the columns are correlated, not collinear
    X = rng.normal(size=(n, k)) @ rng.normal(size=(k, d)) + rng.normal(size=(n, d))
    if far_offsets:
        # offsets of 1e2-1e5 column sds: subtracting the missing rows from
        # the whole Gram matrix cancels most of its digits
        X += (X.std(axis=0) * rng.choice([-1.0, 1.0], size=d)
              * 10.0 ** rng.uniform(2, 5, size=d))
    else:
        X += rng.normal(scale=3.0, size=d)
    X *= 10.0 ** rng.uniform(-3, 3, size=d)
    # missing rates up to 0.9, so a column's observed Gram matrix is formed
    # both ways: by downdating the whole one and from the observed rows; at
    # least d + 1 observed cells per column, as with fewer the regression is
    # rank deficient (test_rank_deficient_columns_are_stable covers that case)
    for j in range(d):
        rate = draw(st.floats(0.0, 0.9))
        missing = np.flatnonzero(rng.random(n) < rate)
        X[missing[:n - d - 1], j] = np.nan
    return X


@settings(max_examples=250, deadline=None)
@given(X=st.one_of(incomplete_matrices(), incomplete_matrices(far_offsets=True)),
       seed=st.integers(0, 1000))
def test_chain_matches_least_squares_reference(X, seed):
    """The Cholesky solve imputes what per-column SVD least squares imputes,
    also when a downdated Gram matrix has lost most of its digits."""
    out, model = impute_fit_transform(X, seed=seed)
    want, visit_order, rank_deficient_columns = _ref_chain(X, seed=seed)
    assert model.visit_order == visit_order
    assert model.rank_deficient_columns == rank_deficient_columns
    atol = 1e-9 * np.nanstd(X, axis=0)
    assert np.all(np.abs(out - want) <= 1e-6 * np.abs(want) + atol)


@st.composite
def rank_deficient_matrices(draw):
    """Matrices whose last column, the only one with missing cells, has a
    rank-deficient regression: one of its regressors duplicates another or
    is all zero, or it has fewer observed cells than regressors."""
    n = draw(st.integers(20, 200))
    d = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["duplicate", "zero", "few"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = int(rng.integers(1, d))
    X = rng.normal(size=(n, k)) @ rng.normal(size=(k, d)) + rng.normal(size=(n, d))
    X = (X + rng.normal(scale=3.0, size=d)) * 10.0 ** rng.uniform(-3, 3, size=d)
    if kind == "duplicate":
        X[:, 1] = X[:, 0]
    elif kind == "zero":
        X[:, 1] = 0.0
    # d regressors: the other d - 1 columns and the intercept
    observed = draw(st.integers(2, d - 1) if kind == "few"
                    else st.integers(d + 1, n - 1))
    X[rng.permutation(n)[observed:], -1] = np.nan
    return X


@settings(max_examples=150, deadline=None)
@given(X=rank_deficient_matrices(), seed=st.integers(0, 1000),
       flips=st.integers(0, 2**32 - 1))
def test_rank_deficient_columns_are_stable(X, seed, flips):
    """Moving half the input cells by one ulp moves a rank-deficient
    column's imputations by at most 1e-8 of its observed sd."""
    moved = np.random.default_rng(flips).random(X.shape) < 0.5
    X_moved = np.where(moved, np.nextafter(X, np.inf), X)
    out, model = impute_fit_transform(X, seed=seed)
    out_moved, model_moved = impute_fit_transform(X_moved, seed=seed)
    j = X.shape[1] - 1
    assert model.rank_deficient_columns == model_moved.rank_deficient_columns == (j,)
    miss = np.isnan(X[:, j])
    change = np.abs(out_moved[miss, j] - out[miss, j]).max()
    assert change <= 1e-8 * np.nanstd(X[:, j])


def _count_lstsq(monkeypatch):
    calls = []
    real = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


def test_cohort_block_needs_no_least_squares_fallback(monkeypatch):
    continuous = synth_cohort(2000, seed=1).continuous_matrix()
    calls = _count_lstsq(monkeypatch)
    _, model = impute_fit_transform(continuous, seed=1)
    assert model.visit_order and not calls


def test_near_exact_data_falls_back_to_least_squares(monkeypatch):
    """Nearly collinear columns go to SVD least squares and still impute what
    the reference imputes; the normal equations alone drift far from it."""
    rng = np.random.default_rng(13)
    Xm, _ = _mask_mcar(rng, _linear_dataset(rng, n=300, noise=1e-8), 0.3)
    want, _, _ = _ref_chain(Xm, cycles=15, seed=1)
    calls = _count_lstsq(monkeypatch)
    monkeypatch.setattr(impute, "_CYCLES", 15)
    out, _ = impute_fit_transform(Xm, seed=1)
    assert calls
    atol = 1e-9 * np.nanstd(Xm, axis=0)
    assert np.all(np.abs(out - want) <= 1e-6 * np.abs(want) + atol)
