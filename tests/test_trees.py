import json
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import icumort.trees as trees
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


def _record(model):
    """The model's JSON record, as model.json stores it."""
    return json.dumps(model.to_obj(), sort_keys=True)


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
        assert _record(a) == _record(b)
        c = train_random_forest(X, y, ForestParams(n_trees=5), seed=8)
        assert _record(a) != _record(c)

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
        params = ForestParams(n_trees=1, max_depth=0)
        f = train_random_forest(X, y, params, seed=2)
        # the leaf is the positive fraction of tree 0's bootstrap draw,
        # which for seed 2 differs from the sample's 0.75
        rng = np.random.default_rng(np.random.SeedSequence([2, 0]))
        drawn = y[rng.choice(4, size=4, replace=True, p=np.full(4, 0.25))]
        assert drawn.mean() != y.mean()
        np.testing.assert_allclose(
            predict_proba_trees(f, np.zeros((3, 1))), drawn.mean())

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

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_sparse_matches_dense(self, fmt):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(70, 6))
        X[np.abs(X) < 0.8] = 0.0
        y = (X[:, 0] > 0).astype(int)
        Xs = sp.csr_matrix(X).asformat(fmt)
        a = train_random_forest(X, y, ForestParams(n_trees=4), seed=5)
        b = train_random_forest(Xs, y, ForestParams(n_trees=4), seed=5)
        assert _record(a) == _record(b)
        np.testing.assert_allclose(predict_proba_trees(a, X),
                                   predict_proba_trees(b, Xs))

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
        # base p = 0.5 on labels {1,1}: G = -1, H = 0.5, lambda = 1,
        # leaf = 1/1.5
        X = np.zeros((2, 1))
        y = np.array([1, 1])
        m = train_gbt(X, y, GbtParams(rounds=1, max_depth=0))
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
        assert _record(a) == _record(b)

    def test_probability_range_and_dimension_check(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.4).astype(int)
        m = train_gbt(X, y, GbtParams(rounds=5))
        p = predict_proba_trees(m, rng.normal(size=(10, 4)))
        assert ((p > 0) & (p < 1)).all()
        with pytest.raises(TreeError):
            predict_proba_trees(m, rng.normal(size=(10, 5)))

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_sparse_matches_dense(self, fmt):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(90, 5))
        X[np.abs(X) < 0.9] = 0.0
        y = (X[:, 1] > 0).astype(int)
        Xs = sp.csr_matrix(X).asformat(fmt)
        a = train_gbt(X, y, GbtParams(rounds=8))
        b = train_gbt(Xs, y, GbtParams(rounds=8))
        assert _record(a) == _record(b)
        np.testing.assert_array_equal(predict_proba_trees(a, X),
                                      predict_proba_trees(b, Xs))

    def test_param_validation(self):
        with pytest.raises(TreeError):
            GbtParams(learning_rate=0.0).validate()
        with pytest.raises(TreeError):
            GbtParams(rounds=-1).validate()
        with pytest.raises(TreeError):
            GbtParams(max_depth=-1).validate()


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
    again = RandomForest.from_obj(json.loads(json.dumps(f.to_obj())))
    np.testing.assert_allclose(predict_proba_trees(again, X),
                               predict_proba_trees(f, X))
    assert again.params == f.params


def test_gbt_json_round_trip():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(60, 4))
    y = (X[:, 2] > 0).astype(int)
    m = train_gbt(X, y, GbtParams(rounds=6))
    again = GradientBoostedTrees.from_obj(json.loads(json.dumps(m.to_obj())))
    np.testing.assert_allclose(predict_proba_trees(again, X),
                               predict_proba_trees(m, X))
    assert again.base_score == m.base_score
    assert again.params == m.params


@pytest.mark.parametrize("train", [train_random_forest, train_gbt])
@pytest.mark.parametrize("shape", [(6,), (3, 2, 2)])
def test_trainers_reject_non_matrix_input(train, shape):
    with pytest.raises(TreeError, match="2-d"):
        train(np.zeros(shape), np.zeros(shape[0]))


# Reference split search: one column at a time, each sorted on its own, the
# best kept by a strict '>'.  The block search must agree with it bit for bit.

def _ref_gini(values, a, b):
    """(gain, threshold) of one column; a = weight * label, b = weight."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    boundaries = np.nonzero(v[1:] > v[:-1])[0]
    if boundaries.size == 0:
        return None
    cp = np.cumsum(a[order])
    cw = np.cumsum(b[order])
    p_tot, w_tot = cp[-1], cw[-1]
    parent = 0.0 if w_tot <= 0 else 2.0 * (p_tot / w_tot) * (1.0 - p_tot / w_tot)
    pl, wl = cp[boundaries], cw[boundaries]
    pr, wr = p_tot - pl, w_tot - wl
    with np.errstate(invalid="ignore", divide="ignore"):
        gl = 2.0 * (pl / wl) * (1.0 - pl / wl)
        gr = 2.0 * (pr / wr) * (1.0 - pr / wr)
        gains = parent - (wl / w_tot) * gl - (wr / w_tot) * gr
    gains = np.nan_to_num(gains, nan=-np.inf)
    k = int(np.argmax(gains))
    if gains[k] <= 1e-12:
        return None
    b = boundaries[k]
    return float(gains[k]), 0.5 * (v[b] + v[b + 1])


def _ref_second_order(values, g, h, lam):
    """(gain, threshold) of one column from gradients g and hessians h."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    boundaries = np.nonzero(v[1:] > v[:-1])[0]
    if boundaries.size == 0:
        return None
    cg = np.cumsum(g[order])
    ch = np.cumsum(h[order])
    gains = _ref_second_order_gains(cg[boundaries], ch[boundaries],
                                    cg[-1], ch[-1], lam)
    k = int(np.argmax(gains))
    if gains[k] <= 1e-12:
        return None
    b = boundaries[k]
    return float(gains[k]), 0.5 * (v[b] + v[b + 1])


def _ref_second_order_gains(gl, hl, G, H, lam):
    """Gains at one column's boundaries; G and H are NumPy scalars."""
    gr, hr = G - gl, H - hl
    with np.errstate(invalid="ignore", divide="ignore"):
        return 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam)
                      - G ** 2 / (H + lam))


def _ref_best_split(X, rows, cols, a, b, score):
    best = None
    for j in cols:
        found = score(X[rows, j], a[rows], b[rows])
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], int(j), found[1])
    if best is None:
        return None
    _, j, thr = best
    return j, thr, X[rows, j] <= thr


def _reference_for(gain):
    if gain is trees._gini_gain:
        return _ref_gini
    return partial(_ref_second_order, lam=gain.keywords["lam"])


@st.composite
def split_cases(draw):
    """A node of a matrix with ties, exact zeros and one duplicated column."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 6))
    cell = st.sampled_from([0.0, 0.0, 0.0, -1.5, 0.25, 1.0, 2.0, 3.5])
    X = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d)
    dup = draw(st.integers(0, d - 1))
    X = np.insert(X, dup + 1, X[:, dup], axis=1)
    in_node = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = np.flatnonzero(in_node)
    if rows.size < 2:
        rows = np.arange(n)
    order = draw(st.permutations(range(d + 1)))
    cols = np.array(order[:draw(st.integers(1, d + 1))])
    label = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=float)
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0]),
                                   min_size=n, max_size=n)))
        a, b, gain = w * label, w, trees._gini_gain
    else:
        # p of exactly 0 or 1 gives zero hessians, and with lam 0 NaN gains
        p = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.5, 0.8, 1.0]),
            min_size=n, max_size=n)))
        lam = draw(st.sampled_from([0.0, 1.0]))
        a, b = p - label, p * (1.0 - p)
        gain = partial(trees._second_order_gain, lam=lam)
    return X, rows, cols, a, b, gain, dup


# Budgets that put any test input on each side of the presort rule: 0 makes
# every node sort its own columns, the input's size presorts it
def _presort_budgets(X):
    return (0, X.size)


@pytest.mark.parametrize("width", ["default", "one", "split_duplicates"])
@pytest.mark.parametrize("sparse", [False, True])
@settings(max_examples=150, deadline=None)
@given(case=split_cases())
def test_block_split_search_matches_reference(width, sparse, case):
    """Both sources of a block's sorted order, the fit's presort filtered to
    the node and the node's own sort, give the reference's split."""
    X, rows, cols, a, b, gain, dup = case
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _ref_best_split(X, rows, cols, a, b, _reference_for(gain))
    Xin = sp.csr_matrix(X) if sparse else X
    for budget in _presort_budgets(X):
        with pytest.MonkeyPatch.context() as mp, \
                np.errstate(invalid="ignore", divide="ignore"):
            mp.setattr(trees, "_PRESORT_VALUES", budget)
            _, XT, order, _ = trees._fit_inputs(Xin, np.zeros(X.shape[0]))
            assert (order is None) == (budget == 0)
            # values each candidate column adds to a block
            per_column = rows.size if order is None else X.shape[0]
            block_values = trees._BLOCK_VALUES
            if width == "one":
                block_values = 1
            elif width == "split_duplicates" and {dup, dup + 1} <= set(cols):
                # the later of the pair is the first column of the second block
                pos = [int(np.flatnonzero(cols == c)[0]) for c in (dup, dup + 1)]
                block_values = max(pos) * per_column
            mp.setattr(trees, "_BLOCK_VALUES", block_values)
            got = trees._best_split(XT, order, rows, cols, a, b, gain)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[0] == want[0]
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        np.testing.assert_array_equal(got[2], want[2])


@pytest.mark.parametrize("sparse", [False, True])
def test_fits_match_reference_split_search(monkeypatch, sparse):
    """Whole forests and boosted models equal those grown by the reference,
    on both sides of the presort budget."""
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(120, 9)), 1)
    X[rng.random(X.shape) < 0.6] = 0.0
    X[:, 4] = X[:, 3]
    y = (X[:, 0] - X[:, 3] + 0.5 * rng.normal(size=120) > 0).astype(int)
    Xin = sp.csr_matrix(X) if sparse else X
    monkeypatch.setattr(trees, "_BLOCK_VALUES", 300)
    fits = []
    for budget in _presort_budgets(X):
        monkeypatch.setattr(trees, "_PRESORT_VALUES", budget)
        fits.append((
            _record(train_random_forest(Xin, y, ForestParams(n_trees=4),
                                        seed=2)),
            _record(train_gbt(Xin, y, GbtParams(rounds=6)))))

    def reference(XT, order, rows, cols, a, b, gain):
        return _ref_best_split(X, rows, cols, a, b, _reference_for(gain))

    monkeypatch.setattr(trees, "_best_split", reference)
    want = (_record(train_random_forest(Xin, y, ForestParams(n_trees=4),
                                        seed=2)),
            _record(train_gbt(Xin, y, GbtParams(rounds=6))))
    assert fits == [want, want]


def test_wide_sparse_fit_is_never_densified(monkeypatch):
    """Over the presort budget a sparse fit holds less than X's dense size."""
    # small blocks keep the search's own scratch far below that size
    monkeypatch.setattr(trees, "_BLOCK_VALUES", 2 ** 14)
    rng = np.random.default_rng(23)
    n, d = 600, 5000
    assert n * d > trees._PRESORT_VALUES
    X = sp.random(n, d, density=0.02, format="csr", random_state=rng)
    y = (np.asarray(X[:, :10].sum(axis=1)).ravel() > 0.1).astype(int)
    tracemalloc.start()
    try:
        train_gbt(X, y, GbtParams(rounds=1, max_depth=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8


def test_second_order_gain_matches_scalar_totals():
    """Column totals enter the block gain as the reference's scalars do.

    G ** 2 on a NumPy scalar calls libm pow, which need not round like the
    array square; the block search must reproduce the scalar bits.
    """
    rng = np.random.default_rng(22)
    gl = rng.normal(size=(2000, 5))
    hl = rng.random((2000, 5))
    G = rng.normal(size=(2000, 1)) * 10.0 ** rng.uniform(-4, 2, (2000, 1))
    H = 5.0 + rng.random((2000, 1))
    got = trees._second_order_gain(gl, hl, G, H, lam=1.0)
    want = np.array([_ref_second_order_gains(gl[i], hl[i], G[i, 0], H[i, 0], 1.0)
                     for i in range(G.shape[0])])
    np.testing.assert_array_equal(got, want)
