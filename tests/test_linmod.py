import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import icumort
from icumort import dense, linmod
from icumort.linmod import (
    L1,
    L2,
    LinModError,
    LinearModel,
    balanced_weights,
    predict_proba,
    predict_scores,
    rank_coefficients,
    train_linear_svm,
    train_logreg,
)


def _logreg_dataset():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(50, 10))
    w_true = rng.normal(size=10)
    y = (1.0 / (1.0 + np.exp(-(X @ w_true))) > rng.random(50)).astype(int)
    return X, y


# Frozen from a 1e6-step plain gradient-descent run of _reference_gd_oracle
# on _logreg_dataset (final gradient norm 3.3e-15).
REFERENCE_L2_OBJECTIVE = 15.538301322127694


def _reference_gd_oracle(steps=10**6):
    X, y = _logreg_dataset()
    yf = y.astype(float)
    L = 0.25 * np.linalg.eigvalsh(X.T @ X).max() + 1.0
    w, b = np.zeros(10), 0.0
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        r = p - yf
        w -= (X.T @ r + w) / L
        b -= r.sum() / L
    s = X @ w + b
    return float(np.sum(np.logaddexp(0.0, s) - yf * s) + 0.5 * (w @ w))


@pytest.mark.skipif(not os.environ.get("RUN_ORACLES"),
                    reason="long-running oracle; set RUN_ORACLES=1")
def test_reference_objective_regenerates():
    assert _reference_gd_oracle() == pytest.approx(REFERENCE_L2_OBJECTIVE,
                                                   rel=1e-12)


def _logreg_to_rounding(monkeypatch):
    """Logistic fits stop at a relative change of 1e-12, within 50,000
    steps: close enough to compare with the reference optimum."""
    monkeypatch.setattr(linmod, "_TOL", 1e-12)
    monkeypatch.setattr(linmod, "_LOGREG_STEPS", 50_000)


class TestClassWeights:
    def test_balanced_case(self):
        np.testing.assert_allclose(balanced_weights([0, 1, 0, 1]), 1.0)

    def test_published_cohort_counts(self):
        y = np.concatenate([np.ones(483), np.zeros(3294)])
        s = balanced_weights(y)
        assert s[0] == pytest.approx(3.9099, abs=1e-4)
        assert s[-1] == pytest.approx(0.5733, abs=1e-4)
        # each class carries half the total weight
        assert s[y == 1].sum() == pytest.approx(s[y == 0].sum())

    def test_single_class_rejected(self):
        with pytest.raises(LinModError):
            balanced_weights([0, 0, 0])
        with pytest.raises(LinModError):
            balanced_weights([1, 1])
        with pytest.raises(LinModError, match="0/1"):
            balanced_weights([0, 1, 2])

    def test_per_instance_expansion(self):
        s = balanced_weights([1, 0, 0, 0])
        np.testing.assert_allclose(s, [2.0, 2 / 3, 2 / 3, 2 / 3])


class TestLogReg:
    def test_tiny_c_gives_intercept_only_model(self, monkeypatch):
        X = np.array([[1.0], [2.0], [-1.0], [0.5]])
        y = np.array([1, 0, 0, 0])
        # tol below default so the flat intercept direction is fully driven
        monkeypatch.setattr(linmod, "_TOL", 1e-9)
        m = train_logreg(X, y, reg=L2, C=1e-8)
        assert np.abs(m.w).max() < 1e-4
        assert m.b == pytest.approx(np.log(1.0 / 3.0), abs=1e-3)

    def test_tiny_c_balanced_weights_center_intercept(self):
        X = np.array([[1.0], [2.0], [-1.0], [0.5]])
        y = np.array([1, 0, 0, 0])
        s = balanced_weights(y)
        m = train_logreg(X, y, reg=L2, C=1e-8, instance_weights=s)
        assert m.b == pytest.approx(0.0, abs=1e-3)

    def test_reaches_reference_optimum(self, monkeypatch):
        X, y = _logreg_dataset()
        _logreg_to_rounding(monkeypatch)
        m = train_logreg(X, y, reg=L2, C=1.0)
        F = m.diagnostics["final_objective"]
        assert abs(F - REFERENCE_L2_OBJECTIVE) <= 1e-6 * REFERENCE_L2_OBJECTIVE
        assert m.diagnostics["converged"]

    def test_weight_scaling_matches_halved_c(self, monkeypatch):
        X, y = _logreg_dataset()
        s = np.ones(len(y))
        monkeypatch.setattr(linmod, "_TOL", 1e-12)
        a = train_logreg(X, y, reg=L2, C=1.0, instance_weights=s)
        b = train_logreg(X, y, reg=L2, C=0.5, instance_weights=2 * s)
        np.testing.assert_allclose(a.w, b.w, atol=1e-6)
        assert a.b == pytest.approx(b.b, abs=1e-6)

    def test_l1_subgradient_optimality_at_zero_coords(self, monkeypatch):
        X, y = _logreg_dataset()
        C = 0.05
        _logreg_to_rounding(monkeypatch)
        m = train_logreg(X, y, reg=L1, C=C)
        zero = np.abs(m.w) == 0.0
        assert zero.any()  # L1 at this strength must zero something
        p = 1.0 / (1.0 + np.exp(-(X @ m.w + m.b)))
        grad = X.T @ (p - y)
        assert np.abs(grad[zero]).max() <= 1.0 / C + 1e-4

    def test_l1_sparser_than_l2(self):
        X, y = _logreg_dataset()
        m1 = train_logreg(X, y, reg=L1, C=0.05)
        m2 = train_logreg(X, y, reg=L2, C=0.05)
        assert (m1.w == 0).sum() > (m2.w == 0).sum()

    def test_sparse_input_matches_dense(self, monkeypatch):
        X, y = _logreg_dataset()
        X[np.abs(X) < 0.5] = 0.0
        monkeypatch.setattr(linmod, "_TOL", 1e-10)
        a = train_logreg(X, y, reg=L2, C=1.0)
        b = train_logreg(sp.csr_matrix(X), y, reg=L2, C=1.0)
        np.testing.assert_allclose(a.w, b.w, atol=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(LinModError):
            train_logreg(np.array([[np.inf]]), [1], C=1.0)
        with pytest.raises(LinModError):
            train_logreg(np.zeros((2, 1)), [0, 1], C=0.0)
        with pytest.raises(LinModError):
            train_logreg(np.zeros((2, 1)), [0, 2], C=1.0)
        with pytest.raises(LinModError):
            train_logreg(np.zeros((2, 1)), [0, 1], C=1.0,
                         instance_weights=[-1.0, 1.0])
        with pytest.raises(LinModError):
            train_logreg(np.zeros((2, 1)), [0, 1], reg="l3")
        # C out of range, in both trainers; C is their one fit setting
        for train in (train_logreg, train_linear_svm):
            for C, reg in itertools.product((0.0, -1.0, np.nan), (L1, L2)):
                with pytest.raises(LinModError, match="C must be positive"):
                    train(np.zeros((2, 1)), [0, 1], reg=reg, C=C)

    def test_unconverged_flag(self, monkeypatch):
        X, y = _logreg_dataset()
        monkeypatch.setattr(linmod, "_LOGREG_STEPS", 3)
        m = train_logreg(X, y, reg=L2, C=1.0)
        assert m.diagnostics["converged"] is False
        assert m.diagnostics["iterations"] == 3

    def test_objective_increase_raises(self, monkeypatch):
        # a penalty that grows on every evaluation defeats the restart
        import icumort.linmod as linmod

        evaluations = iter(range(1, 10**6))
        monkeypatch.setattr(linmod, "_penalty",
                            lambda w, reg: 1e6 * next(evaluations))
        X, y = _logreg_dataset()
        with pytest.raises(LinModError, match="objective increased"):
            train_logreg(X, y, reg=L2, C=1.0)


class TestSvm:
    def test_max_margin_two_points(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        m = train_linear_svm(X, y, reg=L2, C=1e6)
        scores = predict_scores(m, X)
        assert scores[0] < 0 < scores[1]
        assert abs(scores[0]) == pytest.approx(1.0, abs=0.05)
        assert abs(scores[1]) == pytest.approx(1.0, abs=0.05)

    def test_tiny_c_shrinks_weights(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5))
        y = (rng.random(40) < 0.5).astype(int)
        m = train_linear_svm(X, y, reg=L2, C=1e-8)
        assert np.linalg.norm(m.w) < 1e-3

    def test_l1_zeroes_noise_columns(self):
        rng = np.random.default_rng(3)
        n = 60
        y = (np.arange(n) % 2).astype(int)
        X = np.column_stack([3.0 * (2 * y - 1) + 0.01 * rng.normal(size=n),
                             *[rng.normal(size=n) for _ in range(9)]])
        m = train_linear_svm(X, y, reg=L1, C=0.1)
        assert m.w[0] != 0.0
        np.testing.assert_array_equal(m.w[1:], 0.0)
        assert m.loss == "squared-hinge"

    def test_determinism_fixed_seed(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 6))
        y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
        a = train_linear_svm(X, y, reg=L2, C=1.0)
        b = train_linear_svm(X, y, reg=L2, C=1.0)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b

    def test_weight_scaling_matches_halved_c_exactly(self):
        # dual box constraints depend only on the product C * s_i
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 4))
        y = (X[:, 1] > 0).astype(int)
        s = np.ones(60)
        a = train_linear_svm(X, y, reg=L2, C=2.0, instance_weights=s)
        b = train_linear_svm(X, y, reg=L2, C=1.0, instance_weights=2 * s)
        np.testing.assert_array_equal(a.w, b.w)

    def test_instance_weights_move_the_boundary(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        up = np.array([1.0, 1.0, 10.0, 10.0])
        m_flat = train_linear_svm(X, y, reg=L2, C=1.0)
        m_up = train_linear_svm(X, y, reg=L2, C=1.0, instance_weights=up)
        assert m_up.b > m_flat.b - 1e-12

    def test_sparse_input_matches_dense(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 8))
        X[np.abs(X) < 0.7] = 0.0
        y = (X[:, 0] > 0).astype(int)
        a = train_linear_svm(X, y, reg=L2, C=1.0)
        b = train_linear_svm(sp.csr_matrix(X), y, reg=L2, C=1.0)
        np.testing.assert_allclose(a.w, b.w, atol=1e-10)
        c = train_linear_svm(X, y, reg=L1, C=1.0)
        d = train_linear_svm(sp.csr_matrix(X), y, reg=L1, C=1.0)
        np.testing.assert_allclose(c.w, d.w, atol=1e-10)

    def test_hinge_duality_gap_certifies_optimum(self):
        # two columns are sums of two others; dual coordinate descent ran
        # out of its 1000 epochs on this set at C=1
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 6))
        X = np.column_stack([X, X[:, :2] + X[:, 2:4]])
        y = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
        C = 1.0
        m = train_linear_svm(X, y, reg=L2, C=C)
        gap = m.diagnostics["duality_gap"]
        assert m.diagnostics["converged"]
        assert 0.0 <= gap <= 1e-6

        reference, _ = _hinge_reference(X, y, np.ones(60), C)
        primal = m.diagnostics["final_objective"]
        assert reference <= primal
        assert primal - reference <= gap * primal

    def test_hinge_large_c_converges(self):
        # 25 x 11 with 70% zeros and random labels: at C=1e4 the rows on
        # the margin make D tiny, and without refinement the Woodbury solve
        # stopped this fit at gap 4.1e-2
        rng = np.random.default_rng(141)
        n, d = int(rng.integers(4, 60)), int(rng.integers(1, 15))
        X = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 5.0])
        X[rng.random((n, d)) < 0.7] = 0.0
        y = np.zeros(n, dtype=int)
        y[rng.permutation(n)[:rng.integers(1, n)]] = 1
        s = rng.uniform(0.2, 3.0, size=n)
        assert (n, d) == (25, 11)
        for C in (1e2, 1e4):
            m = train_linear_svm(X, y, reg=L2, C=C, instance_weights=s)
            assert m.diagnostics["converged"], (C, m.diagnostics)

    def test_unattainable_tol_stops_at_rounding(self, monkeypatch):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(60, 8))
        y = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
        monkeypatch.setattr(linmod, "_TOL", 0.0)
        for C in (1.0, 1e4):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                m = train_linear_svm(X, y, reg=L2, C=C)
            assert not m.diagnostics["converged"]
            assert m.diagnostics["iterations"] < 1000
            assert m.diagnostics["duality_gap"] <= 1e-9

    @pytest.mark.parametrize("solver", ["interior point", "dual"])
    def test_zero_weight_rows_equal_deleted_rows(self, monkeypatch, solver):
        if solver == "dual":
            monkeypatch.setattr(dense, "DENSE_VALUES", 0)
        rng = np.random.default_rng(29)
        X = rng.normal(size=(70, 5))
        y = (X[:, 0] + rng.normal(size=70) > 0).astype(int)
        s = rng.uniform(0.5, 2.0, size=70)
        s[::4] = 0.0
        keep = s > 0
        C = 1.0
        for Xin in (X, sp.csr_matrix(X)):
            a = train_linear_svm(Xin, y, reg=L2, C=C, instance_weights=s)
            b = train_linear_svm(Xin[keep], y[keep], reg=L2, C=C,
                                 instance_weights=s[keep])
            assert a.diagnostics["converged"] and b.diagnostics["converged"]
            Fa, Fb = (m.diagnostics["final_objective"] for m in (a, b))
            assert abs(Fa - Fb) <= 1e-6 * max(Fa, Fb)
            # the objective is 1/C-strongly convex in (w, b), so each fit
            # lies within sqrt(2 C gap F) of the optimum
            radius = sum(np.sqrt(2.0 * C * m.diagnostics["duality_gap"]
                                 * m.diagnostics["final_objective"])
                         for m in (a, b))
            assert np.linalg.norm(np.append(a.w - b.w, a.b - b.b)) <= radius
        m = train_linear_svm(X, y, reg=L2, instance_weights=np.zeros(70))
        assert not m.w.any() and m.b == 0.0 and m.diagnostics["converged"]

    @pytest.mark.parametrize("n, d", [(600, 5000), (300, 2000)],
                             ids=["over the budget", "fewer rows than columns"])
    def test_sparse_fit_on_the_dual_is_never_densified(self, monkeypatch, n,
                                                       d):
        calls = []
        dual = linmod._hinge_dual

        def spy(*args):
            calls.append(args[0].shape)
            return dual(*args)

        def no_ipm(*args):
            raise AssertionError("the interior point densifies its input")

        monkeypatch.setattr(linmod, "_hinge_dual", spy)
        monkeypatch.setattr(linmod, "_hinge_ipm", no_ipm)
        rng = np.random.default_rng(31)
        assert n * (d + 1) > dense.DENSE_VALUES or n <= d + 1
        X = sp.random(n, d, density=0.02, format="csr", random_state=rng)
        y = (np.asarray(X[:, :10].sum(axis=1)).ravel() > 0.1).astype(int)
        monkeypatch.setattr(linmod, "_DUAL_STEPS", 20)
        tracemalloc.start()
        try:
            train_linear_svm(X, y, reg=L2, C=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [(n, d)]
        assert peak < n * d * 8

    def test_l1_cdn_improves_on_zero(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 5))
        y = (X @ np.array([1.5, -1.0, 0.0, 0.0, 0.5]) > 0).astype(int)
        m = train_linear_svm(X, y, reg=L1, C=1.0)
        n = len(y)
        zero_obj = float(np.sum(np.ones(n) * 1.0))  # margins all 1 at w=0,b=0
        assert m.diagnostics["final_objective"] < zero_obj


class TestPredict:
    def test_zero_model_gives_half(self):
        m = LinearModel(np.zeros(3), 0.0, "logistic", L2, 1.0)
        p = predict_proba(m, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(p, 0.5)

    def test_sigmoid_hand_value(self):
        m = LinearModel(np.array([1.0]), 0.0, "logistic", L2, 1.0)
        p = predict_proba(m, np.array([[0.4055]]))
        assert p[0] == pytest.approx(0.6, abs=1e-4)

    def test_extreme_scores_saturate_without_warning(self):
        m = LinearModel(np.array([1.0]), 0.0, "logistic", L2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = predict_proba(m, np.array([[-1e6], [1e6]]))
        np.testing.assert_array_equal(p, [0.0, 1.0])

    def test_monotone_in_score(self):
        rng = np.random.default_rng(2)
        m = LinearModel(rng.normal(size=4), 0.3, "logistic", L2, 1.0)
        X = rng.normal(size=(20, 4))
        s = predict_scores(m, X)
        p = predict_proba(m, X)
        order = np.argsort(s)
        assert (np.diff(p[order]) >= 0).all()

    def test_dimension_mismatch(self):
        m = LinearModel(np.zeros(3), 0.0, "logistic", L2, 1.0)
        with pytest.raises(LinModError):
            predict_scores(m, np.zeros((2, 4)))

    def test_no_proba_for_hinge(self):
        m = LinearModel(np.zeros(2), 0.0, "hinge", L2, 1.0)
        with pytest.raises(LinModError):
            predict_proba(m, np.zeros((1, 2)))


class TestRank:
    def test_top1(self):
        assert rank_coefficients([0.2, -0.5, 0.9], ["a", "b", "c"], 1) == \
            [("c", 0.9)]

    def test_all_zero_ties_break_by_index(self):
        assert rank_coefficients(np.zeros(3), ["a", "b", "c"], 3) == \
            [("a", 0.0), ("b", 0.0), ("c", 0.0)]

    def test_length_mismatch(self):
        with pytest.raises(LinModError):
            rank_coefficients(np.zeros(3), ["a", "b"], 1)

    def test_recovers_dominant_generator_effect(self):
        rng = np.random.default_rng(17)
        n = 600
        X = rng.normal(size=(n, 6))
        logits = 2.5 * X[:, 0] + 0.4 * X[:, 1] - 0.3 * X[:, 2]
        y = (1 / (1 + np.exp(-logits)) > rng.random(n)).astype(int)
        m = train_logreg(X, y, reg=L2, C=1.0)
        top = [name for name, _ in
               rank_coefficients(m.w, [f"f{j}" for j in range(6)], 3)]
        assert "f0" in top


def test_json_round_trip():
    X, y = _logreg_dataset()
    m = train_logreg(X, y, reg=L1, C=0.1)
    again = LinearModel.from_obj(json.loads(json.dumps(m.to_obj())))
    np.testing.assert_array_equal(again.w, m.w)
    assert again.b == m.b
    assert again.loss == m.loss
    assert again.reg == m.reg
    assert again.C == m.C
    np.testing.assert_allclose(predict_scores(again, X), predict_scores(m, X))
    assert again.diagnostics == m.diagnostics
    assert type(again.diagnostics["iterations"]) is int
    svm = train_linear_svm(X, y, reg=L2, C=1.0)
    again = LinearModel.from_obj(json.loads(json.dumps(svm.to_obj())))
    assert again.diagnostics == svm.diagnostics
    assert "duality_gap" in again.diagnostics


def _hinge_reference(X, y, s, C):
    """(dual, primal) objective values, in the model's units, of an L-BFGS-B
    solution of the hinge dual: the dual value is never above the optimum
    and the primal value never below it."""
    from scipy.optimize import minimize

    X = X.toarray() if sp.issparse(X) else X
    n = X.shape[0]
    Z = (2.0 * y - 1.0)[:, None] * np.column_stack([X, np.ones(n)])

    def dual(a):
        v = Z.T @ a
        return 0.5 * (v @ v) - a.sum(), Z @ v - 1.0

    upper = C * s
    res = minimize(dual, np.zeros(n), jac=True, method="L-BFGS-B",
                   bounds=list(zip(np.zeros(n), upper)),
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10**4})
    v = Z.T @ res.x
    primal = upper @ np.maximum(1.0 - Z @ v, 0.0) + 0.5 * (v @ v)
    return -res.fun / C, primal / C


@st.composite
def hinge_fits(draw):
    """(X, y, weights, C): dense or CSR X with both classes, positive
    weights, C across four decades; n <= d + 1 in some draws."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    if draw(st.booleans()):
        X[rng.random((n, d)) < 0.7] = 0.0
        X = sp.csr_matrix(X)
    y = np.zeros(n, dtype=int)
    y[rng.permutation(n)[:draw(st.integers(1, n - 1))]] = 1
    return (X, y, rng.uniform(0.2, 3.0, size=n),
            draw(st.sampled_from([0.01, 0.1, 1.0, 10.0])))


@settings(max_examples=100, deadline=None)
@given(case=hinge_fits())
def test_hinge_gap_bounds_suboptimality(case):
    """The reported gap bounds the fit's relative suboptimality: the
    L-BFGS-B reference's primal point never beats the fit's objective by
    more than the gap, and its dual value never exceeds that objective,
    beyond the reference's own rounding."""
    X, y, s, C = case
    m = train_linear_svm(X, y, reg=L2, C=C, instance_weights=s)
    assert m.diagnostics["converged"]
    gap = m.diagnostics["duality_gap"]
    assert 0.0 < gap <= 1e-6
    primal = m.diagnostics["final_objective"]
    dual_ref, primal_ref = _hinge_reference(X, y, s, C)
    # the reference rounds its own sums of about n + d + 1 terms
    rounding = (sum(X.shape) + 1) * np.finfo(float).eps * primal
    assert dual_ref <= primal + rounding
    assert primal - primal_ref <= gap * primal + rounding


def test_hinge_dual_polishes_its_last_iterate():
    """Six rows whose features are 1/60 of the bias column's scale: the
    dual's curvature spans seven decades, and projected gradient ends its
    1000 steps at gap 3.7e-6. The polish of the last iterate converges, dense
    X or CSR."""
    entries = [(1, 1, -0.07474960145609663), (3, 4, 0.0395367303620608),
               (3, 5, -0.03962567664857985), (4, 1, 0.027728946892436795),
               (4, 2, -0.028541884625880344), (4, 4, 0.0839192561614076),
               (4, 5, 0.047175077527989995), (5, 1, 0.00045831692042032205),
               (5, 4, 0.003217513751169068)]
    rows, cols, values = zip(*entries)
    X = sp.csr_matrix((values, (rows, cols)), shape=(6, 6))
    y = np.array([1, 0, 0, 0, 0, 0])
    s = np.array([0.5077824970279398, 2.4553489967029978, 2.136373455606422,
                  1.7573230145066325, 0.28074947177577775, 2.352138301563488])
    _, primal_ref = _hinge_reference(X, y, s, 1.0)
    for Xin in (X, X.toarray()):
        m = train_linear_svm(Xin, y, reg=L2, C=1.0, instance_weights=s)
        assert m.diagnostics["iterations"] == linmod._DUAL_STEPS
        assert m.diagnostics["converged"]
        primal = m.diagnostics["final_objective"]
        assert primal - primal_ref <= m.diagnostics["duality_gap"] * primal


def test_hinge_factor_spans_several_tiles():
    """The blocked Cholesky factor and solve of a matrix three tiles wide
    agree with numpy's."""
    rng = np.random.default_rng(37)
    A = rng.normal(size=(300, 130))
    G = A.T @ A + np.eye(130)
    L, _ = factor = dense._cholesky(dense._gram(A, A) + np.eye(130))
    np.testing.assert_allclose(np.tril(L), np.linalg.cholesky(G), rtol=1e-10,
                               atol=1e-12)
    b = rng.normal(size=130)
    np.testing.assert_allclose(dense._cholesky_solve(factor, b),
                               np.linalg.solve(G, b), rtol=1e-9)


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from icumort.linmod import L2, balanced_weights, train_linear_svm
rng = np.random.default_rng(41)
for n in (280, 1400):
    X = rng.normal(size=(n, 178)) * (rng.random((n, 178)) < 0.5)
    y = (X[:, :3].sum(axis=1) + rng.normal(size=n) > 0).astype(int)
    m = train_linear_svm(X, y, reg=L2, C=1.0,
                         instance_weights=balanced_weights(y))
    digest = hashlib.sha256(m.w.tobytes() + np.float64(m.b).tobytes())
    print(n, m.diagnostics["converged"], m.diagnostics["iterations"],
          digest.hexdigest())
"""


def test_hinge_fit_is_independent_of_blas_threads():
    """280 x 179 and 1,400 x 179 augmented blocks give the same w and b
    bytes at one and at two OpenBLAS threads."""
    pkg_root = str(Path(icumort.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [pkg_root, inherited] if inherited else [pkg_root]))
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert [line.split()[:2] for line in outputs[0].splitlines()] == [
        ["280", "True"], ["1400", "True"]]
    assert outputs[0] == outputs[1]


_TILED_THREADS_SCRIPT = """
import hashlib
import numpy as np
from icumort.linmod import (L1, L2, balanced_weights, predict_scores,
                            train_linear_svm, train_logreg)
rng = np.random.default_rng(43)
for n, d in ((3778, 178), (600, 1200)):
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
    y = (X[:, :3].sum(axis=1) + rng.normal(size=n) > 0).astype(int)
    for train in (train_logreg, train_linear_svm):
        for reg in (L1, L2):
            m = train(X, y, reg=reg, C=0.1, instance_weights=balanced_weights(y))
            digest = hashlib.sha256(m.w.tobytes() + np.float64(m.b).tobytes()
                                    + predict_scores(m, X).tobytes())
            print(n, d, train.__name__, reg, m.diagnostics["converged"],
                  digest.hexdigest())
"""


def test_dense_fits_are_independent_of_blas_threads():
    """Dense blocks of several row tiles -- a paper-scale combined fold,
    3,778 x 178, and a 600 x 1,200 block whose l2-svm takes the dual -- give
    the same w, b and score bytes for every linear family at one and at two
    OpenBLAS threads."""
    pkg_root = str(Path(icumort.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [pkg_root, inherited] if inherited else [pkg_root]))
        proc = subprocess.run([sys.executable, "-c", _TILED_THREADS_SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    lines = [line.split()[:5] for line in outputs[0].splitlines()]
    assert len(lines) == 8
    assert all(converged == "True" for *_, converged in lines)
    assert outputs[0] == outputs[1]


def test_tiled_products_match_whole_products():
    """matvec and rmatvec over many row tiles agree with X @ v and X.T @ r;
    a CSR input gives scipy's own product bytes."""
    rng = np.random.default_rng(47)
    X = rng.normal(size=(700, 1200)) * (rng.random((700, 1200)) < 0.5)
    v, r = rng.normal(size=1200), rng.normal(size=700)
    assert 700 > 3 * (dense._ROW_TILE_VALUES // 1200)  # several tiles
    np.testing.assert_allclose(dense.matvec(X, v), X @ v, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(dense.rmatvec(X, r), X.T @ r, rtol=1e-12,
                               atol=1e-12)
    S = sp.csr_matrix(X)
    assert dense.matvec(S, v).tobytes() == (S @ v).tobytes()
    assert dense.rmatvec(S, r).tobytes() == (S.T @ r).tobytes()
    empty = np.zeros((0, 5))
    assert dense.matvec(empty, np.ones(5)).shape == (0,)
    assert dense.rmatvec(empty, np.zeros(0)).tobytes() == np.zeros(5).tobytes()


def test_issparse_agrees_with_scipy():
    """dense.issparse, which never imports scipy.sparse, gives scipy's
    answer for dense inputs and every sparse format, matrix or array."""
    D = np.eye(3)
    inputs = [D, D.tolist()]
    for fmt in ("csr", "csc", "coo"):
        inputs += [getattr(sp, f"{fmt}_matrix")(D),
                   getattr(sp, f"{fmt}_array")(D)]
    assert [dense.issparse(X) for X in inputs] == \
        [sp.issparse(X) for X in inputs] == [False] * 2 + [True] * 6


def _ref_proximal_gradient(smooth, gradient, d, reg, lam, tol, max_iter):
    """The proximal-gradient loop with smooth(w, b) and gradient(w, b) as
    closures that each compute the margins X @ w + b themselves."""
    from icumort.linmod import _penalty, _prox

    def objective(w, b):
        return smooth(w, b) + lam * _penalty(w, reg)

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
            theta_next = 1.0
            w_new, b_new, step = prox_step(w, b, step)
            F_new = objective(w_new, b_new)
        if not F_new <= F + 1e-9 * max(1.0, abs(F)):
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

    return w, b, {"final_objective": F, "iterations": iterations,
                  "converged": converged}


def _ref_fit(family, X, y, s, C, tol, max_iter):
    """(w, b, diagnostics) of the reference loop on l1-lr, l2-lr or l1-svm."""
    from icumort.linmod import _log_loss_sum

    if family == "l1-svm":
        y_pm = 2.0 * y - 1.0

        def smooth(w, b):
            slack = np.maximum(1.0 - y_pm * (X @ w + b), 0.0)
            return float(s @ (slack * slack))

        def gradient(w, b):
            r = -2.0 * s * y_pm * np.maximum(1.0 - y_pm * (X @ w + b), 0.0)
            return X.T @ r, float(r.sum())
    else:
        def smooth(w, b):
            return _log_loss_sum(X @ w + b, y, s)

        def gradient(w, b):
            p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
            r = s * (p - y)
            return X.T @ r, float(r.sum())
    reg = L2 if family == "l2-lr" else L1
    return _ref_proximal_gradient(smooth, gradient, X.shape[1], reg, 1.0 / C,
                                  tol, max_iter)


@st.composite
def proximal_fits(draw):
    """(family, X, y, weights, C, tol, max_iter): dense or CSR X with both
    classes, positive weights, C across four decades."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    if draw(st.booleans()):
        X[rng.random((n, d)) < 0.7] = 0.0
        X = sp.csr_matrix(X)
    y = np.zeros(n, dtype=int)
    y[rng.permutation(n)[:draw(st.integers(1, n - 1))]] = 1
    s = rng.uniform(0.2, 3.0, size=n)
    return (draw(st.sampled_from(["l1-lr", "l2-lr", "l1-svm"])), X, y, s,
            draw(st.sampled_from([0.01, 0.1, 1.0, 10.0])),
            draw(st.sampled_from([1e-3, 1e-6])), draw(st.integers(1, 300)))


@settings(max_examples=150, deadline=None)
@given(case=proximal_fits())
def test_proximal_gradient_matches_two_closure_loop(case):
    """Margins computed once per point give the loop's result bit for bit."""
    family, X, y, s, C, tol, max_iter = case
    w, b, diag = _ref_fit(family, X, y.astype(float), s, C, tol, max_iter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linmod, "_TOL", tol)
        if family == "l1-svm":
            mp.setattr(linmod, "_SQUARED_HINGE_STEPS", max_iter)
            m = train_linear_svm(X, y, reg=L1, C=C, instance_weights=s)
        else:
            mp.setattr(linmod, "_LOGREG_STEPS", max_iter)
            m = train_logreg(X, y, reg=L2 if family == "l2-lr" else L1, C=C,
                             instance_weights=s)
    assert m.w.tobytes() == w.tobytes()
    assert m.b == b
    assert m.diagnostics == diag
