import json
import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def test_tiny_c_gives_intercept_only_model(self):
        X = np.array([[1.0], [2.0], [-1.0], [0.5]])
        y = np.array([1, 0, 0, 0])
        # tol below default so the flat intercept direction is fully driven
        m = train_logreg(X, y, reg=L2, C=1e-8, tol=1e-9)
        assert np.abs(m.w).max() < 1e-4
        assert m.b == pytest.approx(np.log(1.0 / 3.0), abs=1e-3)

    def test_tiny_c_balanced_weights_center_intercept(self):
        X = np.array([[1.0], [2.0], [-1.0], [0.5]])
        y = np.array([1, 0, 0, 0])
        s = balanced_weights(y)
        m = train_logreg(X, y, reg=L2, C=1e-8, instance_weights=s)
        assert m.b == pytest.approx(0.0, abs=1e-3)

    def test_reaches_reference_optimum(self):
        X, y = _logreg_dataset()
        m = train_logreg(X, y, reg=L2, C=1.0, tol=1e-12, max_iter=50000)
        F = m.diagnostics["final_objective"]
        assert abs(F - REFERENCE_L2_OBJECTIVE) <= 1e-6 * REFERENCE_L2_OBJECTIVE
        assert m.diagnostics["converged"]

    def test_weight_scaling_matches_halved_c(self):
        X, y = _logreg_dataset()
        s = np.ones(len(y))
        a = train_logreg(X, y, reg=L2, C=1.0, instance_weights=s, tol=1e-12)
        b = train_logreg(X, y, reg=L2, C=0.5, instance_weights=2 * s, tol=1e-12)
        np.testing.assert_allclose(a.w, b.w, atol=1e-6)
        assert a.b == pytest.approx(b.b, abs=1e-6)

    def test_l1_subgradient_optimality_at_zero_coords(self):
        X, y = _logreg_dataset()
        C = 0.05
        m = train_logreg(X, y, reg=L1, C=C, tol=1e-12, max_iter=50000)
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

    def test_sparse_input_matches_dense(self):
        X, y = _logreg_dataset()
        X[np.abs(X) < 0.5] = 0.0
        a = train_logreg(X, y, reg=L2, C=1.0, tol=1e-10)
        b = train_logreg(sp.csr_matrix(X), y, reg=L2, C=1.0, tol=1e-10)
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

    def test_unconverged_flag(self):
        X, y = _logreg_dataset()
        m = train_logreg(X, y, reg=L2, C=1.0, max_iter=3)
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
        from scipy.optimize import minimize

        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 6))
        X = np.column_stack([X, X[:, :2] + X[:, 2:4]])
        y = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
        C = 1.0
        m = train_linear_svm(X, y, reg=L2, C=C)
        gap = m.diagnostics["duality_gap"]
        assert m.diagnostics["converged"]
        assert 0.0 <= gap <= 1e-6

        Z = (2.0 * y - 1.0)[:, None] * np.column_stack([X, np.ones(60)])

        def dual(a):
            v = Z.T @ a
            return 0.5 * (v @ v) - a.sum(), Z @ v - 1.0

        res = minimize(dual, np.zeros(60), jac=True, method="L-BFGS-B",
                       bounds=[(0.0, C)] * 60,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10**4})
        reference = -res.fun / C  # a dual value: never above the optimum
        primal = m.diagnostics["final_objective"]
        assert reference <= primal
        assert primal - reference <= gap * primal

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
    if family == "l1-svm":
        m = train_linear_svm(X, y, reg=L1, C=C, instance_weights=s, tol=tol,
                             max_epochs=max_iter)
    else:
        m = train_logreg(X, y, reg=L2 if family == "l2-lr" else L1, C=C,
                         instance_weights=s, tol=tol, max_iter=max_iter)
    assert m.w.tobytes() == w.tobytes()
    assert m.b == b
    assert m.diagnostics == diag
