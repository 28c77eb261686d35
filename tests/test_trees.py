import numpy as np
import pytest
import scipy.sparse as sp

from icumort.trees import (
    ForestParams,
    GbtParams,
    GradientBoostedTrees,
    RandomForest,
    TreeError,
    train_gbt,
    train_random_forest,
    predict_proba_trees,
)


def _rank_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = labels == 1
    n1, n0 = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)


class TestForest:
    def test_separable_1d_every_tree_perfect(self):
        # 8 distinct values repeated 25x; every bootstrap draw sees them all
        base = np.array([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9])
        X = np.tile(base, 25).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(int)
        f = train_random_forest(X, y, ForestParams(n_trees=10), seed=0)
        for tree in f.trees:
            pred = (tree.predict_value(X) >= 0.5).astype(int)
            assert (pred == y).all()

    def test_xor_needs_depth_two(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        f = train_random_forest(X, y, ForestParams(n_trees=50), seed=1)
        acc = ((predict_proba_trees(f, X) >= 0.5).astype(int) == y).mean()
        assert acc >= 0.95

    def test_same_seed_identical(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(int)
        a = train_random_forest(X, y, ForestParams(n_trees=5), seed=7)
        b = train_random_forest(X, y, ForestParams(n_trees=5), seed=7)
        assert a.to_json() == b.to_json()
        c = train_random_forest(X, y, ForestParams(n_trees=5), seed=8)
        assert a.to_json() != c.to_json()

    def test_tree_seeds_derive_from_index(self):
        """A shorter forest is a prefix of a longer one with the same seed."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = (X[:, 1] > 0).astype(int)
        small = train_random_forest(X, y, ForestParams(n_trees=3), seed=11)
        big = train_random_forest(X, y, ForestParams(n_trees=6), seed=11)
        for ts, tb in zip(small.trees, big.trees):
            assert ts.to_obj() == tb.to_obj()

    def test_single_row_degenerates_to_leaves(self):
        f = train_random_forest(np.array([[1.0, 2.0]]), np.array([1]),
                                ForestParams(n_trees=3), seed=0)
        for tree in f.trees:
            assert tree.n_nodes == 1
        np.testing.assert_allclose(
            predict_proba_trees(f, np.zeros((2, 2))), 1.0)

    def test_single_leaf_fraction(self):
        X = np.zeros((4, 1))
        y = np.array([1, 1, 0, 1])
        params = ForestParams(n_trees=1, max_depth=0, bootstrap=False)
        f = train_random_forest(X, y, params, seed=0)
        np.testing.assert_allclose(
            predict_proba_trees(f, np.zeros((3, 1))), 0.75)

    def test_prediction_invariant_to_tree_order(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 5))
        y = (X[:, 2] + 0.3 * rng.normal(size=80) > 0).astype(int)
        f = train_random_forest(X, y, ForestParams(n_trees=8), seed=2)
        p1 = predict_proba_trees(f, X)
        f.trees = [f.trees[i] for i in rng.permutation(len(f.trees))]
        np.testing.assert_allclose(predict_proba_trees(f, X), p1)

    def test_probability_range(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 4))
        y = (rng.random(100) < 0.3).astype(int)
        f = train_random_forest(X, y, ForestParams(n_trees=10), seed=0)
        p = predict_proba_trees(f, rng.normal(size=(40, 4)))
        assert ((p >= 0.0) & (p <= 1.0)).all()

    def test_instance_weights_shift_sampling(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 1.0).astype(int)  # ~16% positive
        u = np.where(y == 1, 50.0, 1.0)
        f = train_random_forest(X, y, ForestParams(n_trees=10), u, seed=3)
        f0 = train_random_forest(X, y, ForestParams(n_trees=10), seed=3)
        assert predict_proba_trees(f, X).mean() > predict_proba_trees(f0, X).mean()

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(70, 6))
        X[np.abs(X) < 0.8] = 0.0
        y = (X[:, 0] > 0).astype(int)
        a = train_random_forest(X, y, ForestParams(n_trees=4), seed=5)
        b = train_random_forest(sp.csr_matrix(X), y, ForestParams(n_trees=4),
                                seed=5)
        assert a.to_json() == b.to_json()
        np.testing.assert_allclose(predict_proba_trees(a, X),
                                   predict_proba_trees(b, sp.csr_matrix(X)))

    def test_leaf_rowsets_partition(self):
        # every row lands in exactly one leaf: routing never loses a row
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        f = train_random_forest(X, y, ForestParams(n_trees=2), seed=1)
        for tree in f.trees:
            vals = tree.predict_value(X)
            assert np.isfinite(vals).all()
            assert ((vals >= 0) & (vals <= 1)).all()

    def test_param_validation(self):
        with pytest.raises(TreeError):
            train_random_forest(np.zeros((2, 1)), [0, 1],
                                ForestParams(n_trees=0))
        with pytest.raises(TreeError):
            train_random_forest(np.zeros((2, 1)), [0, 1],
                                instance_weights=[1.0])
        with pytest.raises(TreeError):
            train_random_forest(np.zeros((2, 1)), [0, 1],
                                instance_weights=[0.0, 0.0])


class TestGbt:
    def test_single_leaf_symmetric_cancellation(self):
        X = np.zeros((2, 1))
        y = np.array([1, 0])
        m = train_gbt(X, y, GbtParams(rounds=1, max_depth=0))
        assert m.trees[0].n_nodes == 1
        assert m.trees[0].value[0] == pytest.approx(0.0)

    def test_single_leaf_hand_computed_weight(self):
        # base p = 0.5 on labels {1,1}: G = -1, H = 0.5, leaf = 1/1.5
        X = np.zeros((2, 1))
        y = np.array([1, 1])
        m = train_gbt(X, y, GbtParams(rounds=1, max_depth=0, reg_lambda=1.0))
        assert m.trees[0].value[0] == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_zero_rounds_predicts_half(self):
        m = train_gbt(np.zeros((4, 2)), np.array([0, 1, 1, 0]),
                      GbtParams(rounds=0))
        np.testing.assert_allclose(
            predict_proba_trees(m, np.ones((5, 2))), 0.5)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 5))
        y = (X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=150) > 0).astype(int)
        m = train_gbt(X, y, GbtParams(rounds=40))
        losses = np.array(m.train_loss)
        assert len(losses) == 41
        assert (np.diff(losses) <= 1e-10).all()
        assert losses[-1] < losses[0]

    def test_loss_increase_raises(self, monkeypatch):
        import icumort.trees as trees

        losses = iter(range(10**6))
        monkeypatch.setattr(trees, "_log_loss_mean",
                            lambda margins, y: float(next(losses)))
        X = np.random.default_rng(3).normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(int)
        with pytest.raises(TreeError, match="boosting loss increased"):
            train_gbt(X, y, GbtParams(rounds=3))

    def test_learns_nonlinear_boundary(self):
        rng = np.random.default_rng(7)
        X = rng.random((300, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        m = train_gbt(X, y, GbtParams(rounds=60))
        acc = ((predict_proba_trees(m, X) >= 0.5).astype(int) == y).mean()
        assert acc >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(int)
        a = train_gbt(X, y, GbtParams(rounds=10))
        b = train_gbt(X, y, GbtParams(rounds=10))
        assert a.to_json() == b.to_json()

    def test_probability_range_and_dimension_check(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.4).astype(int)
        m = train_gbt(X, y, GbtParams(rounds=5))
        p = predict_proba_trees(m, rng.normal(size=(10, 4)))
        assert ((p > 0) & (p < 1)).all()
        with pytest.raises(TreeError):
            predict_proba_trees(m, rng.normal(size=(10, 5)))

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(90, 5))
        X[np.abs(X) < 0.9] = 0.0
        y = (X[:, 1] > 0).astype(int)
        a = train_gbt(X, y, GbtParams(rounds=8))
        b = train_gbt(sp.csr_matrix(X), y, GbtParams(rounds=8))
        assert a.to_json() == b.to_json()

    def test_param_validation(self):
        with pytest.raises(TreeError):
            GbtParams(learning_rate=0.0).validate()
        with pytest.raises(TreeError):
            GbtParams(rounds=-1).validate()
        with pytest.raises(TreeError):
            GbtParams(reg_lambda=-0.1).validate()


def test_label_permutation_sanity():
    """Shuffled labels carry no signal: held-out AUC stays near chance."""
    rng = np.random.default_rng(20)
    n = 2000
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
    y_shuf = rng.permutation(y)
    train, test = np.arange(0, 1400), np.arange(1400, n)
    f = train_random_forest(X[train], y_shuf[train],
                            ForestParams(n_trees=20), seed=3)
    auc = _rank_auc(predict_proba_trees(f, X[test]), y_shuf[test])
    assert 0.4 <= auc <= 0.6


def test_forest_json_round_trip():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(int)
    f = train_random_forest(X, y, ForestParams(n_trees=3), seed=6)
    again = RandomForest.from_json(f.to_json())
    np.testing.assert_allclose(predict_proba_trees(again, X),
                               predict_proba_trees(f, X))
    assert again.params == f.params


def test_gbt_json_round_trip():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(60, 4))
    y = (X[:, 2] > 0).astype(int)
    m = train_gbt(X, y, GbtParams(rounds=6))
    again = GradientBoostedTrees.from_json(m.to_json())
    np.testing.assert_allclose(predict_proba_trees(again, X),
                               predict_proba_trees(m, X))
    assert again.base_score == m.base_score
    assert again.params == m.params
