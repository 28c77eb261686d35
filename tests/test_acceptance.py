"""Release gate: ten independent end-to-end checks.

Each check is one test function so `pytest -v` reports one pass/fail line
per item. Wall-clock budgets are asserted where the contract fixes one.
Expected values come from hand arithmetic, brute-force oracles kept next
to the tests, or frozen reference computations; none are tuned to the
implementation under test.
"""

import time

import numpy as np
import pytest

from icumort.cohort import synth_cohort, synth_cohort_with_truth
from icumort.evaluation import (
    auc,
    f1_score,
    perm_test_auc,
    stratified_split,
    undersample,
)
from icumort import cli, linmod
from icumort.experiment import ExperimentConfig, run_experiment, run_permtest
from icumort.impute import impute_fit_transform
from icumort.linmod import L1, L2, train_linear_svm, train_logreg
from icumort.neural import (
    CnnParams,
    Dense,
    Dropout,
    EmbeddingConvPool,
    FusionNet,
    ReLU,
    pad_sequences,
    predict_proba_net,
    softmax_xent,
    tokens_to_ids,
    train_cnn_fusion,
)
from icumort.textfeat import build_vocab, tokenize_corpus
from icumort.trees import GbtParams, train_gbt

from test_experiment import _run_bytes
from test_linmod import (
    REFERENCE_L2_OBJECTIVE,
    _logreg_dataset,
    _logreg_to_rounding,
)
from test_neural import TOL as FD_TOL
from test_neural import _fd_check


def test_c01_f1_from_precision_recall_pairs():
    assert f1_score(0.406, 0.692) == pytest.approx(0.512, abs=5e-4)
    assert f1_score(0.383, 0.754) == pytest.approx(0.508, abs=5e-4)


def test_c02_split_and_undersample_counts():
    y = np.zeros(5396, dtype=np.int64)
    y[:698] = 1
    y = np.random.default_rng(0).permutation(y)
    spec = stratified_split(y, seed=0)
    assert spec.train_indices.size == 3777
    assert spec.test_indices.size == 1619

    y2 = np.concatenate([np.ones(483, dtype=np.int64),
                         np.zeros(3294, dtype=np.int64)])
    kept = undersample(y2, seed=0)
    assert int(y2[kept].sum()) == 483
    assert int((y2[kept] == 0).sum()) == 1932


def _brute_auc(scores, labels):
    # independent pairwise oracle: 1 per win, 0.5 per tie
    s = np.asarray(scores, dtype=float)
    pos = s[labels == 1][:, None]
    neg = s[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


def test_c03_auc_brute_force_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, size=n).astype(np.int64)
        y[:2] = (0, 1)
        if rng.random() < 0.5:
            # coarse grid forces heavy score ties
            s = rng.integers(0, 5, size=n) / 4.0
        else:
            s = rng.normal(size=n)
        assert abs(auc(s, y) - _brute_auc(s, y)) <= 1e-12
    assert time.monotonic() - t0 < 5.0


def test_c04_convex_solver_optimality(monkeypatch):
    t0 = time.monotonic()
    X, y = _logreg_dataset()

    _logreg_to_rounding(monkeypatch)
    m = train_logreg(X, y, reg=L2, C=1.0)
    F = m.diagnostics["final_objective"]
    assert abs(F - REFERENCE_L2_OBJECTIVE) <= 1e-6 * REFERENCE_L2_OBJECTIVE

    # L1 logistic: grad_j = -sign(w_j)/C on active coords, |grad_j| <= 1/C at zeros
    for C in (0.5, 0.05):
        m1 = train_logreg(X, y, reg=L1, C=C)
        p = 1.0 / (1.0 + np.exp(-(X @ m1.w + m1.b)))
        grad = X.T @ (p - y)
        nz = m1.w != 0
        if nz.any():
            assert np.abs(grad[nz] + np.sign(m1.w[nz]) / C).max() <= 1e-4
        if (~nz).any():
            assert np.abs(grad[~nz]).max() <= 1.0 / C + 1e-4

    # L1 squared hinge, same conditions on its own gradient
    monkeypatch.setattr(linmod, "_TOL", 1e-10)
    yt = 2.0 * y - 1.0
    for C in (0.5, 0.05):
        ms = train_linear_svm(X, y, reg=L1, C=C)
        slack = np.maximum(0.0, 1.0 - yt * (X @ ms.w + ms.b))
        grad = X.T @ (-2.0 * slack * yt)
        nz = ms.w != 0
        if nz.any():
            assert np.abs(grad[nz] + np.sign(ms.w[nz]) / C).max() <= 1e-4
        if (~nz).any():
            assert np.abs(grad[~nz]).max() <= 1.0 / C + 1e-4

    # one informative + nine noise columns: strong L1 zeroes the noise
    # exactly, at the runner's own tolerance and caps
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    n = 60
    yc = (np.arange(n) % 2).astype(np.int64)
    Xc = np.column_stack([3.0 * (2 * yc - 1) + 0.01 * rng.normal(size=n),
                          *[rng.normal(size=n) for _ in range(9)]])
    for C in (0.01, 0.005):
        for trainer in (train_logreg, train_linear_svm):
            mc = trainer(Xc, yc, reg=L1, C=C)
            np.testing.assert_array_equal(mc.w[1:], 0.0)
            assert (mc.w == 0.0).any()
    assert time.monotonic() - t0 < 30.0


def _layer_fd_suite(rng):
    """FD-checks every layer type with dimensions drawn from rng."""
    n, din, dout = (int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                    int(rng.integers(1, 5)))
    dense = Dense(din, dout, rng)
    x = rng.normal(size=(n, din))
    R = rng.normal(size=(n, dout))
    f = lambda: float((dense.forward(x) * R).sum())
    dense.forward(x)
    for p in dense.params():
        p.zero_grad()
    dx = dense.backward(R)
    assert _fd_check(f, [(dense.W.value, dense.W.grad),
                         (dense.b.value, dense.b.grad), (x, dx)], rng) < FD_TOL

    relu = ReLU()
    xr = rng.normal(size=(n, din))
    xr[np.abs(xr) < 0.05] = 0.1  # keep probes off the kink
    Rr = rng.normal(size=(n, din))
    f = lambda: float((relu.forward(xr) * Rr).sum())
    relu.forward(xr)
    dxr = relu.backward(Rr)
    assert _fd_check(f, [(xr, dxr)], rng) < FD_TOL

    drop = Dropout(0.4)
    xd = rng.normal(size=(n, din))
    Rd = rng.normal(size=(n, din))
    f = lambda: float(
        (drop.forward(xd, True, np.random.default_rng(99)) * Rd).sum())
    drop.forward(xd, True, np.random.default_rng(99))
    dxd = drop.backward(Rd)
    assert _fd_check(f, [(xd, dxd)], rng) < FD_TOL

    V, E, L = (int(rng.integers(4, 9)), int(rng.integers(2, 6)),
               int(rng.integers(3, 7)))
    k = int(rng.integers(2, 4))
    F_ = int(rng.integers(1, 4))
    text = EmbeddingConvPool(V, E, tuple(range(1, k + 1)), F_, rng)
    ids = rng.integers(0, V, size=(n, L))
    Rt = rng.normal(size=(n, F_ * k))
    f = lambda: float((np.hstack(text.forward(ids)) * Rt).sum())
    text.forward(ids)
    for p in text.params():
        p.zero_grad()
    text.backward(Rt)
    assert _fd_check(f, [(p.value, p.grad) for p in text.params()],
                     rng) < FD_TOL

    logits = rng.normal(size=(n, 2))
    yl = rng.integers(0, 2, size=n)
    f = lambda: softmax_xent(logits, yl)[0]
    _, grad = softmax_xent(logits, yl)
    assert _fd_check(f, [(logits, grad)], rng) < FD_TOL


def _model_fd_suite(rng):
    """FD-checks the network end to end, without and with a text branch."""
    d = int(rng.integers(3, 6))
    nb = int(rng.integers(4, 8))
    X = rng.normal(size=(nb, d))
    y = rng.integers(0, 2, size=nb)
    mlp = FusionNet(d, int(rng.integers(3, 7)), 0.0,
                    seed=int(rng.integers(0, 100)))
    max_len = int(rng.integers(4, 7))
    ds = int(rng.integers(0, 4))
    cnn = FusionNet(ds, int(rng.integers(4, 8)), 0.0,
                    seed=int(rng.integers(0, 100)), widths=(2, 3),
                    filters=int(rng.integers(2, 5)),
                    embed_dim=int(rng.integers(3, 6)), vocab_size=8,
                    max_len=max_len)
    ids = rng.integers(0, 8, size=(nb, max_len))
    S = rng.normal(size=(nb, ds))
    for net, inputs in ((mlp, X), (cnn, (ids, S))):
        for p in net.params():
            p.value += rng.normal(0, 0.1, size=p.value.shape)  # break zero init
        f = lambda: softmax_xent(net.forward(inputs, train=False), y)[0]
        _, dlogits = softmax_xent(net.forward(inputs, train=False), y)
        for p in net.params():
            p.zero_grad()
        net.backward(dlogits)
        assert _fd_check(f, [(p.value, p.grad) for p in net.params()], rng,
                         samples=6) < FD_TOL


def test_c05_finite_difference_gradients():
    t0 = time.monotonic()
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        _layer_fd_suite(rng)
        _model_fd_suite(rng)
    assert time.monotonic() - t0 < 60.0


def test_c06_boosting_loss_descent_and_leaf_weights():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(150, 5))
        y = (X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=150) > 0).astype(int)
        m = train_gbt(X, y, GbtParams(rounds=40))
        losses = np.array(m.train_loss)
        assert (np.diff(losses) <= 1e-10).all()
        assert losses[-1] < losses[0]

    # forced single leaf from the 0.5 base: weight is -G/(H + lambda), lambda 1
    m = train_gbt(np.zeros((2, 1)), np.array([1, 0]),
                  GbtParams(rounds=1, max_depth=0))
    assert m.trees[0].value[0] == pytest.approx(0.0, abs=1e-12)
    m = train_gbt(np.zeros((2, 1)), np.array([1, 1]),
                  GbtParams(rounds=1, max_depth=0))
    assert m.trees[0].value[0] == pytest.approx(1.0 / 1.5, abs=1e-12)


def test_c07_chained_imputation_beats_mean_fill():
    t0 = time.monotonic()
    chained, mean_fill = [], []
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        z = rng.normal(size=2000)
        X = np.column_stack([2.0 * z, -1.5 * z + 3.0, 0.7 * z - 1.0,
                             1.1 * z, -0.4 * z + 0.5])
        X += 0.05 * rng.normal(size=X.shape)
        mask = rng.random(X.shape) < 0.30
        Xm = X.copy()
        Xm[mask] = np.nan
        out, _ = impute_fit_transform(Xm, seed=seed)
        chained.append(np.sqrt(np.mean((out[mask] - X[mask]) ** 2)))
        filled = np.where(np.isnan(Xm), np.nanmean(Xm, axis=0)[None, :], Xm)
        mean_fill.append(np.sqrt(np.mean((filled[mask] - X[mask]) ** 2)))
    assert np.mean(chained) <= 0.6 * np.mean(mean_fill)
    assert time.monotonic() - t0 < 30.0


def test_c08_permutation_test_behavior():
    t0 = time.monotonic()
    rng = np.random.default_rng(21)
    y = rng.integers(0, 2, size=50).astype(np.int64)
    y[:2] = (0, 1)
    s = rng.random(50)
    res = perm_test_auc(s, s.copy(), y, n_perm=1000, seed=0)
    assert res.p_value == 1.0

    # exchangeable scorers: p <= 0.05 must stay rare
    base_y = np.random.default_rng(22).integers(0, 2, size=40).astype(np.int64)
    base_y[:2] = (0, 1)
    hits = 0
    for trial in range(200):
        t = np.random.default_rng([23, trial])
        r = perm_test_auc(t.random(40), t.random(40), base_y,
                          n_perm=200, seed=trial)
        hits += r.p_value <= 0.05
    assert hits <= 16  # 8% of 200

    sig = 0
    for trial in range(20):
        cohort, risk = synth_cohort_with_truth(1000, seed=100 + trial)
        labels = cohort.labels("hospital")
        noise = np.random.default_rng([200, trial]).random(1000)
        r = perm_test_auc(risk, noise, labels, n_perm=1000, seed=trial)
        sig += r.p_value <= 0.05
    assert sig >= 19
    assert time.monotonic() - t0 < 120.0


def test_c09_feature_fusion_ordering_end_to_end(tmp_path):
    t0 = time.monotonic()
    cfg = ExperimentConfig.from_obj({
        "cohort": {"synth": {"n": 5396}},
        "outcomes": ["hospital"],
        "feature_sets": ["structured", "notes", "combined"],
        "sampling": ["none"],
        "algorithms": ["l2-lr"],
        "grids": {"l2-lr": {"C": [1.0]}},
        "folds": 5,
    })
    labels = synth_cohort(5396, seed=cfg.seed).labels("hospital")
    assert abs(labels.mean() - 0.1294) <= 0.01

    out = tmp_path / "fusion"
    rows = run_experiment(cfg, out)
    assert all(r["error"] is None for r in rows)
    by_fs = {r["feature_set"]: r["auc"] for r in rows}
    assert by_fs["combined"] >= by_fs["structured"] + 0.01
    assert by_fs["structured"] >= by_fs["notes"] + 0.02

    res = run_permtest(out, "combined/hospital/none/l2-lr",
                       "notes/hospital/none/l2-lr", n_perm=1000, seed=0)
    assert res.p_value < 0.05
    assert time.monotonic() - t0 < 600.0


def test_c10_manifest_replay_and_cnn_toy(tmp_path):
    cfg_obj = {
        "cohort": {"synth": {"n": 300}},
        "outcomes": ["hospital"],
        "feature_sets": ["structured", "notes"],
        "sampling": ["none"],
        "algorithms": ["l2-lr"],
        "grids": {"l2-lr": {"C": [1.0]}},
        "folds": 3,
        "min_df": 3,
    }
    first = tmp_path / "first"
    run_experiment(ExperimentConfig.from_obj(cfg_obj), first)
    again = tmp_path / "again"
    assert cli.main(["run", "--config", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
    a, b = _run_bytes(first), _run_bytes(again)
    assert "cells/notes/hospital/none/l2-lr/scores.tsv" in a
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs across replay"

    # text CNN at realistic length budget
    t0 = time.monotonic()
    cohort = synth_cohort(500, seed=0)
    docs = tokenize_corpus(cohort.notes)
    vocab = build_vocab(docs, min_df=5)
    ids = tokens_to_ids(docs, vocab)
    y = cohort.labels("hospital")
    S = np.zeros((500, 0))
    hp = CnnParams(embed_dim=16, filters=8, widths=(2, 3), hidden=16,
                   max_len=128, learning_rate=0.001, batch_size=32,
                   max_epochs=10, patience=None)
    padded = pad_sequences(ids, hp.max_len)
    model, log = train_cnn_fusion(padded, S, y, hp, seed=0,
                                  vocab_size=len(vocab.tokens) + 2)
    probs = predict_proba_net(model, (padded, S))
    assert np.isfinite(probs).all()
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    assert time.monotonic() - t0 < 300.0

    # eight-document token-presence rule must be driven to perfect recall
    docs8 = [[2, 3, 5, 4], [5, 2], [3, 4, 5], [2, 5, 3, 3],
             [2, 3, 4, 2], [4, 4, 3], [2, 2], [3, 2, 4, 4]]
    y8 = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    S8 = np.zeros((8, 0))
    hp8 = CnnParams(widths=(2, 3), filters=6, embed_dim=8, hidden=12,
                    dropout=0.0, max_len=6, learning_rate=0.01,
                    batch_size=4, max_epochs=200, patience=None)
    ids8 = pad_sequences(docs8, hp8.max_len)
    m8, _ = train_cnn_fusion(ids8, S8, y8, hp8, seed=0, vocab_size=6)
    p8 = predict_proba_net(m8, (ids8, S8))
    assert (((p8 >= 0.5).astype(int)) == y8).all()
