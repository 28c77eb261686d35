import numpy as np
import pytest

from icumort.impute import (
    ImputationModel,
    ImputeError,
    apply_imputation,
    impute_fit_transform,
)


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


def test_stabilization_on_near_exact_data():
    """With tiny residual noise the chain settles: median cell changes shrink."""
    rng = np.random.default_rng(13)
    X = _linear_dataset(rng, n=300, noise=1e-8)
    Xm, _ = _mask_mcar(rng, X, 0.3)
    _, model = impute_fit_transform(Xm, cycles=15, seed=1)
    changes = model.cycle_median_change
    assert len(changes) == 15
    assert all(b <= a + 1e-12 for a, b in zip(changes, changes[1:]))
    assert changes[-1] < 1e-6


def test_ridge_fallback_on_duplicate_column():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    y = 3.0 * x + rng.normal(size=50) * 0.1
    M = np.column_stack([x, x.copy(), y])
    M[5, 2] = np.nan
    out, model = impute_fit_transform(M, seed=0)
    assert np.isfinite(out).all()
    assert 2 in model.ridge_columns


def test_error_cases():
    with pytest.raises(ImputeError, match="entirely missing"):
        impute_fit_transform(np.array([[np.nan, 1.0], [np.nan, 2.0]]))
    with pytest.raises(ImputeError, match="fewer than 2"):
        impute_fit_transform(np.array([[np.nan, 1.0], [np.nan, 2.0], [1.0, 3.0]]))
    with pytest.raises(ImputeError, match="cycles"):
        impute_fit_transform(np.zeros((5, 2)), cycles=0)
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

    def test_json_round_trip_preserves_behavior(self):
        again = ImputationModel.from_json(self.model.to_json())
        np.testing.assert_array_equal(apply_imputation(again, self.Xm),
                                      apply_imputation(self.model, self.Xm))
        assert again.visit_order == self.model.visit_order
        assert again.cycles == self.model.cycles
