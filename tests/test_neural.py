import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from icumort.neural import (
    EVAL_BATCH,
    Adam,
    CnnParams,
    Dense,
    Dropout,
    EmbeddingConvPool,
    FusionNet,
    MlpParams,
    NetError,
    Param,
    ReLU,
    embedding_matrix_for_vocab,
    load_checkpoint,
    load_embedding_file,
    pad_sequences,
    predict_proba_net,
    save_checkpoint,
    softmax_probs,
    softmax_xent,
    tokens_to_ids,
    train_cnn_fusion,
    train_mlp,
)

EPS = 1e-5
TOL = 1e-4


def _fd_check(f, pairs, rng, samples=8):
    """Central finite differences on sampled entries; returns worst rel err."""
    worst = 0.0
    for value, grad in pairs:
        fv, fg = value.ravel(), grad.ravel()
        k = min(samples, fv.size)
        for i in rng.choice(fv.size, size=k, replace=False):
            orig = fv[i]
            fv[i] = orig + EPS
            f_plus = f()
            fv[i] = orig - EPS
            f_minus = f()
            fv[i] = orig
            num = (f_plus - f_minus) / (2 * EPS)
            denom = max(abs(num), abs(fg[i]), 1e-8)
            worst = max(worst, abs(num - fg[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Dense reference for the text branch: the embedding, convolution and
# max-pool layers that EmbeddingConvPool replaced.  They materialize every
# position's embedding and conv output; the tests below check them against
# finite differences, and TestMatchesPerFamilyReference pins the new layer
# to them.

class Embedding:
    def __init__(self, vocab_size, dim, rng, init=None):
        if init is not None:
            self.W = Param(np.asarray(init, dtype=float).copy())
        else:
            self.W = Param(rng.normal(0.0, 0.1, size=(vocab_size, dim)))

    def forward(self, ids):
        self._ids = ids
        return self.W.value[ids]

    def backward(self, g):
        np.add.at(self.W.grad, self._ids.ravel(),
                  g.reshape(-1, self.W.value.shape[1]))

    def params(self):
        return [self.W]


class Conv1D:
    """Valid 1-D convolution over the token axis: (n, L, E) -> (n, L-k+1, F)."""

    def __init__(self, width, n_in, filters, rng):
        self.width = width
        self.W = Param(rng.normal(0.0, np.sqrt(2.0 / (width * n_in)),
                                  size=(width, n_in, filters)))
        self.b = Param(np.zeros(filters))

    def forward(self, x):
        n, L, _ = x.shape
        L_out = L - self.width + 1
        if L_out < 1:
            raise NetError(f"sequence length {L} shorter than filter width "
                           f"{self.width}")
        self._x = x
        out = np.broadcast_to(self.b.value, (n, L_out, self.b.value.size)).copy()
        for o in range(self.width):
            out += np.tensordot(x[:, o:o + L_out, :], self.W.value[o],
                                axes=([2], [0]))
        return out

    def backward(self, g):
        x = self._x
        L_out = g.shape[1]
        dx = np.zeros_like(x)
        for o in range(self.width):
            self.W.grad[o] += np.tensordot(x[:, o:o + L_out, :], g,
                                           axes=([0, 1], [0, 1]))
            dx[:, o:o + L_out, :] += np.tensordot(g, self.W.value[o],
                                                  axes=([2], [1]))
        self.b.grad += g.sum(axis=(0, 1))
        return dx

    def params(self):
        return [self.W, self.b]


class GlobalMaxPool:
    """Max over the token axis; gradient goes to the first argmax only."""

    def forward(self, x):
        self._idx = np.argmax(x, axis=1)
        self._shape = x.shape
        return np.take_along_axis(x, self._idx[:, None, :], axis=1)[:, 0, :]

    def backward(self, g):
        dx = np.zeros(self._shape)
        np.put_along_axis(dx, self._idx[:, None, :], g[:, None, :], axis=1)
        return dx


class TestLayerGradients:
    def test_dense(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, din, dout = rng.integers(1, 7), rng.integers(1, 6), rng.integers(1, 5)
            layer = Dense(din, dout, rng)
            x = rng.normal(size=(n, din))
            R = rng.normal(size=(n, dout))
            f = lambda: float((layer.forward(x) * R).sum())
            layer.forward(x)
            for p in layer.params():
                p.zero_grad()
            dx = layer.backward(R)
            pairs = [(layer.W.value, layer.W.grad),
                     (layer.b.value, layer.b.grad), (x, dx)]
            assert _fd_check(f, pairs, rng) < TOL

    def test_relu_pointwise(self):
        layer = ReLU()
        x = np.array([[-2.0, 2.0]])
        layer.forward(x)
        g = layer.backward(np.array([[5.0, 5.0]]))
        assert g[0, 0] == 0.0
        assert g[0, 1] == 5.0

    def test_relu_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 8)))
            layer = ReLU()
            # keep entries away from the kink where the derivative jumps
            x = rng.normal(size=shape)
            x[np.abs(x) < 0.05] = 0.1
            R = rng.normal(size=shape)
            f = lambda: float((layer.forward(x) * R).sum())
            layer.forward(x)
            dx = layer.backward(R)
            assert _fd_check(f, [(x, dx)], rng) < TOL

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 8)))
            layer = Dropout(0.4)
            x = rng.normal(size=shape)
            R = rng.normal(size=shape)
            f = lambda: float(
                (layer.forward(x, True, np.random.default_rng(99)) * R).sum())
            layer.forward(x, True, np.random.default_rng(99))
            dx = layer.backward(R)
            assert _fd_check(f, [(x, dx)], rng) < TOL

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.9)
        x = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_array_equal(layer.forward(x, False, None), x)

    def test_dropout_scale_preserves_expectation(self):
        rng = np.random.default_rng(3)
        layer = Dropout(0.5)
        x = np.ones((200, 50))
        out = layer.forward(x, True, rng)
        assert out.mean() == pytest.approx(1.0, abs=0.05)
        assert set(np.unique(out)) == {0.0, 2.0}

    def test_embedding(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            V, E = int(rng.integers(3, 9)), int(rng.integers(2, 6))
            n, L = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            layer = Embedding(V, E, rng)
            ids = rng.integers(0, V, size=(n, L))
            R = rng.normal(size=(n, L, E))
            f = lambda: float((layer.forward(ids) * R).sum())
            layer.forward(ids)
            layer.W.zero_grad()
            layer.backward(R)
            assert _fd_check(f, [(layer.W.value, layer.W.grad)], rng) < TOL

    def test_conv1d(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(2, 4))
            E, F = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            n, L = int(rng.integers(1, 4)), int(rng.integers(k, k + 5))
            layer = Conv1D(k, E, F, rng)
            x = rng.normal(size=(n, L, E))
            R = rng.normal(size=(n, L - k + 1, F))
            f = lambda: float((layer.forward(x) * R).sum())
            layer.forward(x)
            for p in layer.params():
                p.zero_grad()
            dx = layer.backward(R)
            pairs = [(layer.W.value, layer.W.grad),
                     (layer.b.value, layer.b.grad), (x, dx)]
            assert _fd_check(f, pairs, rng) < TOL

    def test_conv_shape_law(self):
        rng = np.random.default_rng(6)
        layer = Conv1D(3, 2, 4, rng)
        out = layer.forward(rng.normal(size=(2, 10, 2)))
        assert out.shape == (2, 8, 4)
        with pytest.raises(NetError):
            layer.forward(rng.normal(size=(1, 2, 2)))

    def test_maxpool_routing(self):
        layer = GlobalMaxPool()
        x = np.array([0.1, 0.9, 0.4]).reshape(1, 3, 1)
        out = layer.forward(x)
        assert out[0, 0] == pytest.approx(0.9)
        dx = layer.backward(np.array([[2.0]]))
        np.testing.assert_allclose(dx.ravel(), [0.0, 2.0, 0.0])

    def test_maxpool_first_argmax_on_ties(self):
        layer = GlobalMaxPool()
        x = np.array([0.7, 0.7, 0.2]).reshape(1, 3, 1)
        layer.forward(x)
        dx = layer.backward(np.array([[1.0]]))
        np.testing.assert_allclose(dx.ravel(), [1.0, 0.0, 0.0])

    def test_maxpool_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, L, F = (int(rng.integers(1, 4)), int(rng.integers(2, 7)),
                       int(rng.integers(1, 4)))
            layer = GlobalMaxPool()
            # spread values so the eps probe cannot flip an argmax
            x = rng.normal(size=(n, L, F)) * 10.0
            R = rng.normal(size=(n, F))
            f = lambda: float((layer.forward(x) * R).sum())
            layer.forward(x)
            dx = layer.backward(R)
            assert _fd_check(f, [(x, dx)], rng) < TOL

    def test_embedding_conv_pool(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            widths = tuple(range(1, k + 1))
            V, E, F = (int(rng.integers(3, 9)), int(rng.integers(2, 5)),
                       int(rng.integers(1, 4)))
            n, L = int(rng.integers(1, 4)), int(rng.integers(k, k + 4))
            layer = EmbeddingConvPool(V, E, widths, F, rng)
            ids = rng.integers(0, V, size=(n, L))
            R = rng.normal(size=(n, F * k))
            f = lambda: float((np.hstack(layer.forward(ids)) * R).sum())
            layer.forward(ids)
            for p in layer.params():
                p.zero_grad()
            layer.backward(R)
            pairs = [(p.value, p.grad) for p in layer.params()]
            assert _fd_check(f, pairs, rng) < TOL

    def test_embedding_conv_pool_first_argmax_on_ties(self):
        # with a zero table the repeated windows (1, 0) and (0, 1) all
        # output the bias exactly; the first, tokens (1, 0), takes the
        # gradient, which the table rows it reaches tell apart
        rng = np.random.default_rng(14)
        layer = EmbeddingConvPool(3, 2, (2,), 3, rng, init=np.zeros((3, 2)))
        (pooled,) = layer.forward(np.array([[1, 0, 1, 0, 1]]))
        np.testing.assert_array_equal(pooled, [[0.0, 0.0, 0.0]])
        g = rng.normal(size=(1, 3))
        layer.backward(g)
        W = layer.W[0].value
        want = np.zeros((3, 2))
        want[1], want[0] = W[0] @ g[0], W[1] @ g[0]
        np.testing.assert_allclose(layer.table.grad, want, rtol=1e-15)
        np.testing.assert_array_equal(layer.b[0].grad, g[0])

    def test_embedding_conv_pool_shape_law(self):
        rng = np.random.default_rng(15)
        layer = EmbeddingConvPool(5, 2, (1, 3), 4, rng)
        pooled = layer.forward(rng.integers(0, 5, size=(2, 10)))
        assert [p.shape for p in pooled] == [(2, 4), (2, 4)]
        with pytest.raises(NetError, match="shorter than filter width 3"):
            layer.forward(np.zeros((1, 2), dtype=np.int64))

    def test_softmax_xent_grad(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            logits = rng.normal(size=(n, 2))
            y = rng.integers(0, 2, size=n)
            f = lambda: softmax_xent(logits, y)[0]
            _, grad = softmax_xent(logits, y)
            assert _fd_check(f, [(logits, grad)], rng) < TOL


class TestMlp:
    def test_linearly_separable(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(size=(40, 2)) + 3.0,
                       rng.normal(size=(40, 2)) - 3.0])
        y = np.array([1] * 40 + [0] * 40)
        params = MlpParams(hidden=16, dropout=0.0, learning_rate=0.01,
                           max_epochs=60, patience=None)
        model, log = train_mlp(X, y, params, seed=1)
        acc = ((predict_proba_net(model, X) >= 0.5).astype(int) == y).mean()
        assert acc == 1.0

    def test_xor_with_small_hidden(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
        params = MlpParams(hidden=16, dropout=0.0, learning_rate=0.03,
                           max_epochs=500, patience=None)
        model, _ = train_mlp(X, y, params, seed=2)
        acc = ((predict_proba_net(model, X) >= 0.5).astype(int) == y).mean()
        assert acc >= 0.95

    @pytest.mark.parametrize("family", [MlpParams, CnnParams])
    @pytest.mark.parametrize("setting, value, message", [
        ("hidden", 0, "hidden must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("max_epochs", 0, "max_epochs must be >= 1"),
        ("learning_rate", 0.0, "learning_rate must be positive"),
        ("learning_rate", -1.0, "learning_rate must be positive"),
        ("dropout", 1.0, r"dropout rate must lie in \[0, 1\)"),
        ("dropout", -0.1, r"dropout rate must lie in \[0, 1\)")])
    def test_setting_out_of_range_refused(self, family, setting, value,
                                          message):
        family().validate()
        with pytest.raises(NetError, match=message):
            family(**{setting: value}).validate()

    def test_train_mlp_validates(self):
        X = np.zeros((8, 2))
        y = np.array([0, 1] * 4)
        with pytest.raises(NetError, match="batch_size must be >= 1"):
            train_mlp(X, y, MlpParams(batch_size=0))

    def test_probabilities_not_summing_to_one_raise(self, monkeypatch):
        import icumort.neural as neural

        X = np.random.default_rng(4).normal(size=(10, 3))
        y = np.array([0, 1] * 5)
        params = MlpParams(hidden=4, dropout=0.0, max_epochs=2, patience=None)
        model, _ = train_mlp(X, y, params, seed=0)
        monkeypatch.setattr(neural, "softmax_probs",
                            lambda logits: np.full(logits.shape, 0.4))
        with pytest.raises(NetError, match="do not sum to 1"):
            predict_proba_net(model, X)

    def test_full_model_gradient(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        model = FusionNet(4, hidden=5, dropout=0.0, seed=0)
        # break the zero init so fc2 gradients are informative
        for p in model.params():
            p.value += rng.normal(0, 0.1, size=p.value.shape)

        def f():
            return softmax_xent(model.forward(X, train=False), y)[0]

        loss, dlogits = softmax_xent(model.forward(X, train=False), y)
        for p in model.params():
            p.zero_grad()
        model.backward(dlogits)
        pairs = [(p.value, p.grad) for p in model.params()]
        assert _fd_check(f, pairs, rng) < TOL

    def test_train_loss_decreases_early(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(size=(50, 3)) + 1.5,
                       rng.normal(size=(50, 3)) - 1.5])
        y = np.array([1] * 50 + [0] * 50)
        params = MlpParams(hidden=8, dropout=0.0, learning_rate=0.01,
                           max_epochs=3, patience=None)
        _, log = train_mlp(X, y, params, seed=5)
        assert log[2]["train_loss"] < log[0]["train_loss"]

    def test_single_class_rejected(self):
        with pytest.raises(NetError, match="single-class"):
            train_mlp(np.zeros((4, 2)), np.array([1, 1, 1, 1]))
        with pytest.raises(NetError, match="empty"):
            train_mlp(np.zeros((0, 2)), np.array([], dtype=int))

    def test_early_stop_restores_best_epoch(self):
        """Stopping early must hand back exactly the best epoch's weights."""
        rng = np.random.default_rng(6)
        n = 60
        X = rng.normal(size=(n, 4))
        y = (rng.random(n) < 0.5).astype(int)  # noise: val loss soon worsens
        params = MlpParams(hidden=12, dropout=0.0, learning_rate=0.02,
                           max_epochs=30, patience=2)
        model, log = train_mlp(X, y, params, seed=7)
        vals = [e["val_loss"] for e in log]
        best_epoch = int(np.argmin(vals)) + 1
        assert len(log) < 30  # early stop actually triggered
        # a rerun truncated at the best epoch sees the identical rng stream
        params2 = MlpParams(hidden=12, dropout=0.0, learning_rate=0.02,
                            max_epochs=best_epoch, patience=2)
        model2, _ = train_mlp(X, y, params2, seed=7)
        for a, b in zip(model.params(), model2.params()):
            np.testing.assert_array_equal(a.value, b.value)


class TestCnn:
    def _toy(self):
        # label = presence of the token "dying" (id 5)
        docs = [
            [2, 3, 5, 4], [5, 2], [3, 4, 5], [2, 5, 3, 3],
            [2, 3, 4, 2], [4, 4, 3], [2, 2], [3, 2, 4, 4],
        ]
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        S = np.zeros((8, 0))
        params = CnnParams(widths=(2, 3), filters=6, embed_dim=8, hidden=12,
                           dropout=0.0, max_len=6, learning_rate=0.01,
                           batch_size=4, max_epochs=200, patience=None)
        return pad_sequences(docs, params.max_len), S, y, params

    def test_toy_overfit(self):
        ids, S, y, params = self._toy()
        model, log = train_cnn_fusion(ids, S, y, params, seed=0, vocab_size=6)
        p = predict_proba_net(model, (ids, S))
        assert (((p >= 0.5).astype(int)) == y).all()
        assert (p[y == 1] > 0.9).all()
        assert log[2]["train_loss"] < log[0]["train_loss"]

    def test_determinism(self):
        ids, S, y, params = self._toy()
        params.max_epochs = 20
        a, _ = train_cnn_fusion(ids, S, y, params, seed=3, vocab_size=6)
        b, _ = train_cnn_fusion(ids, S, y, params, seed=3, vocab_size=6)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_probability_rows_normalized(self):
        ids, S, y, params = self._toy()
        model, _ = train_cnn_fusion(ids, S, y, params, seed=1, vocab_size=6)
        probs = softmax_probs(model.forward((ids, S), train=False))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_unpadded_ids_rejected(self):
        ids, S, y, params = self._toy()
        for bad in ([[2, 3, 5, 4]] * 8, ids[:, :5], ids[:, :, None]):
            with pytest.raises(NetError, match="token ids must be"):
                train_cnn_fusion(bad, S, y, params, vocab_size=6)

    def test_token_ids_outside_the_table_rejected(self):
        ids, S, y, params = self._toy()
        params.max_epochs = 1
        model, _ = train_cnn_fusion(ids, S, y, params, vocab_size=6)
        for bad in (-1, 6):
            wrong = ids.copy()
            wrong[3, 1] = bad
            with pytest.raises(NetError, match="outside the embedding table"):
                train_cnn_fusion(wrong, S, y, params, vocab_size=6)
            with pytest.raises(NetError, match="outside the embedding table"):
                predict_proba_net(model, (wrong, S))

    def test_fresh_model_predicts_half(self):
        model = FusionNet(2, hidden=5, dropout=0.5, seed=0, widths=(2,),
                          filters=3, embed_dim=4, vocab_size=7, max_len=4)
        ids = np.array([[1, 2, 3, 0], [4, 5, 6, 0]])
        S = np.zeros((2, 2))
        p1 = predict_proba_net(model, (ids, S))
        np.testing.assert_allclose(p1, 0.5)
        np.testing.assert_array_equal(p1, predict_proba_net(model, (ids, S)))

    def test_full_model_gradient_with_structured(self):
        rng = np.random.default_rng(9)
        model = FusionNet(3, hidden=6, dropout=0.0, seed=2, widths=(2, 3),
                          filters=3, embed_dim=4, vocab_size=8, max_len=5)
        for p in model.params():
            p.value += rng.normal(0, 0.1, size=p.value.shape)
        ids = rng.integers(0, 8, size=(4, 5))
        S = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)

        def f():
            return softmax_xent(model.forward((ids, S), train=False), y)[0]

        _, dlogits = softmax_xent(model.forward((ids, S), train=False), y)
        for p in model.params():
            p.zero_grad()
        model.backward(dlogits)
        pairs = [(p.value, p.grad) for p in model.params()]
        assert _fd_check(f, pairs, rng, samples=6) < TOL

    def test_config_validation(self):
        with pytest.raises(NetError):
            CnnParams(widths=(3, 3, 5)).validate()
        with pytest.raises(NetError):
            CnnParams(widths=(3,), max_len=2).validate()
        with pytest.raises(NetError):
            Dropout(1.0)
        ids, S, y, params = self._toy()
        params.widths = (2, 2)
        with pytest.raises(NetError, match="distinct"):
            train_cnn_fusion(ids, S, y, params, vocab_size=6)


class TestHelpers:
    def test_pad_sequences(self):
        out = pad_sequences([[1, 2], [3, 4, 5, 6], []], 3)
        np.testing.assert_array_equal(out, [[1, 2, 0], [3, 4, 5], [0, 0, 0]])

    def test_tokens_to_ids_unk_and_shift(self):
        class FakeVocab:
            index = {"sepsis": 0, "shock": 1}

        ids = tokens_to_ids([["sepsis", "zebra", "shock"]], FakeVocab())
        assert ids == [[2, 1, 3]]

    def test_embedding_matrix_layout(self):
        tokens = ["alpha", "beta"]
        pre = (["beta"], np.array([[9.0, 9.0, 9.0]]))
        M = embedding_matrix_for_vocab(tokens, 3, seed=0, pretrained=pre)
        assert M.shape == (4, 3)
        np.testing.assert_array_equal(M[0], 0.0)  # padding row
        np.testing.assert_array_equal(M[3], [9.0, 9.0, 9.0])
        assert not np.allclose(M[2], 0.0)

    def test_embedding_file_loader(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("alpha 0.5 1.0\nbeta -1.0 2.0\n")
        tokens, M = load_embedding_file(p)
        assert tokens == ["alpha", "beta"]
        np.testing.assert_allclose(M, [[0.5, 1.0], [-1.0, 2.0]])
        bad = tmp_path / "bad.txt"
        for text, message in (
                ("alpha 0.5 1.0\nbeta -1.0\n", "inconsistent width at line 2"),
                ("alpha 0.5 1.0\nicu 0.3 abc\n", "non-numeric value on line 2")):
            bad.write_text(text)
            with pytest.raises(NetError, match=message):
                load_embedding_file(bad)


class TestCheckpoint:
    def test_mlp_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] > 0).astype(int)
        params = MlpParams(hidden=6, dropout=0.0, max_epochs=5, patience=None)
        model, _ = train_mlp(X, y, params, seed=4)
        path = tmp_path / "mlp.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        np.testing.assert_array_equal(predict_proba_net(again, X),
                                      predict_proba_net(model, X))

    def test_cnn_round_trip(self, tmp_path):
        docs = [[2, 3, 4], [4, 2], [3, 3, 3], [2, 4]]
        y = np.array([0, 1, 0, 1])
        S = np.ones((4, 2))
        params = CnnParams(widths=(2,), filters=3, embed_dim=4, hidden=5,
                           dropout=0.0, max_len=4, max_epochs=3,
                           patience=None)
        ids = pad_sequences(docs, 4)
        model, _ = train_cnn_fusion(ids, S, y, params, seed=6, vocab_size=5)
        path = tmp_path / "cnn.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        np.testing.assert_array_equal(predict_proba_net(again, (ids, S)),
                                      predict_proba_net(model, (ids, S)))

    def test_truncated_buffer_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] > 0).astype(int)
        model, _ = train_mlp(X, y, MlpParams(hidden=4, max_epochs=2,
                                             patience=None), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(NetError, match="buffer holds"):
            load_checkpoint(path)
        # a header line that is not JSON, or not a FusionNet header (the
        # old per-family format had a "kind" and an MLP "in_dim")
        header, blob = data.split(b"\n", 1)
        old = dict(json.loads(header), kind="mlp", in_dim=3)
        del old["structured_dim"]
        for first in (b"{not json", b"\xff\xfe", b"[1, 2]",
                      json.dumps(old).encode()):
            path.write_bytes(first + b"\n" + blob)
            with pytest.raises(NetError, match="checkpoint header"):
                load_checkpoint(path)

    def test_one_header_layout_for_both_families(self, tmp_path):
        mlp = FusionNet(3, hidden=4, dropout=0.5, seed=1)
        cnn = FusionNet(2, hidden=4, dropout=0.5, seed=1, widths=(2,),
                        filters=3, embed_dim=4, vocab_size=7, max_len=4)
        headers = []
        for net in (mlp, cnn):
            save_checkpoint(net, tmp_path / "m.ckpt")
            line = (tmp_path / "m.ckpt").read_bytes().split(b"\n", 1)[0]
            headers.append(json.loads(line))
        assert headers[0].keys() == headers[1].keys()
        assert headers[0]["widths"] == [] and headers[1]["widths"] == [2]


def test_adam_minimizes_quadratic():
    p = Param(np.array([5.0, -3.0]))
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        p.zero_grad()
        p.grad += 2.0 * p.value
        opt.step()
    assert np.abs(p.value).max() < 1e-3


# ---------------------------------------------------------------------------
# References: the two per-family networks, built from the dense layers
# above, and the training loop that FusionNet and _fit replaced.

class _RefMlpModel:
    def __init__(self, in_dim, params, seed):
        rng = np.random.default_rng([seed, 0])
        self.fc1 = Dense(in_dim, params.hidden, rng)
        self.relu = ReLU()
        self.drop = Dropout(params.dropout)
        self.fc2 = Dense(params.hidden, 2, rng, zero_init=True)

    def forward(self, X, train=False, rng=None):
        h = self.drop.forward(self.relu.forward(self.fc1.forward(X)),
                              train, rng)
        return self.fc2.forward(h)

    def backward(self, dlogits):
        g = self.fc2.backward(dlogits)
        g = self.drop.backward(g)
        g = self.relu.backward(g)
        return self.fc1.backward(g)

    def params(self):
        return self.fc1.params() + self.fc2.params()


class _RefCnnFusionModel:
    def __init__(self, vocab_size, structured_dim, params, seed,
                 embed_init=None):
        params.validate()
        self.structured_dim = structured_dim
        rng = np.random.default_rng([seed, 0])
        self.embedding = Embedding(vocab_size, params.embed_dim, rng,
                                   init=embed_init)
        self.convs = [Conv1D(k, params.embed_dim, params.filters, rng)
                      for k in params.widths]
        self.pools = [GlobalMaxPool() for _ in params.widths]
        concat_dim = params.filters * len(params.widths) + structured_dim
        self.fc1 = Dense(concat_dim, params.hidden, rng)
        self.relu = ReLU()
        self.drop = Dropout(params.dropout)
        self.fc2 = Dense(params.hidden, 2, rng, zero_init=True)

    def forward(self, inputs, train=False, rng=None):
        ids, structured = inputs
        emb = self.embedding.forward(ids)
        pooled = [pool.forward(conv.forward(emb))
                  for conv, pool in zip(self.convs, self.pools)]
        self._concat_parts = [p.shape[1] for p in pooled] + [self.structured_dim]
        h = np.hstack(pooled + [structured])
        h = self.drop.forward(self.relu.forward(self.fc1.forward(h)),
                              train, rng)
        return self.fc2.forward(h)

    def backward(self, dlogits):
        g = self.fc2.backward(dlogits)
        g = self.drop.backward(g)
        g = self.relu.backward(g)
        g = self.fc1.backward(g)
        splits = np.cumsum(self._concat_parts)[:-1]
        parts = np.hsplit(g, splits)
        demb = None
        for conv, pool, gp in zip(self.convs, self.pools, parts):
            d = conv.backward(pool.backward(gp))
            demb = d if demb is None else demb + d
        self.embedding.backward(demb)

    def params(self):
        out = self.embedding.params()
        for conv in self.convs:
            out += conv.params()
        return out + self.fc1.params() + self.fc2.params()


def _ref_fit(model, fetch, y, hp, seed):
    y = np.asarray(y).astype(np.int64)
    n = y.size
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(n)
    if hp.patience is None:
        train_rows, val_rows = perm, None
    else:
        n_val = max(1, int(round(0.1 * n)))
        val_rows, train_rows = perm[:n_val], perm[n_val:]
    opt = Adam(model.params(), hp.learning_rate)
    log = []
    best_val = np.inf
    best_snapshot = None
    bad_epochs = 0

    def eval_loss(rows):
        total, count = 0.0, 0
        for lo in range(0, rows.size, EVAL_BATCH):
            batch = rows[lo:lo + EVAL_BATCH]
            logits = model.forward(fetch(batch), train=False)
            loss, _ = softmax_xent(logits, y[batch])
            total += loss * batch.size
            count += batch.size
        return total / count

    for epoch in range(1, hp.max_epochs + 1):
        order = train_rows[rng.permutation(train_rows.size)]
        running, seen = 0.0, 0
        for lo in range(0, order.size, hp.batch_size):
            batch = order[lo:lo + hp.batch_size]
            logits = model.forward(fetch(batch), train=True, rng=rng)
            loss, dlogits = softmax_xent(logits, y[batch])
            for p in model.params():
                p.zero_grad()
            model.backward(dlogits)
            opt.step()
            running += loss * batch.size
            seen += batch.size
        entry = {"epoch": epoch, "train_loss": running / max(seen, 1)}
        if val_rows is not None:
            val_loss = eval_loss(val_rows)
            entry["val_loss"] = val_loss
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_snapshot = [p.value.copy() for p in model.params()]
                bad_epochs = 0
            else:
                bad_epochs += 1
            log.append(entry)
            if bad_epochs >= hp.patience:
                entry["stopped_early"] = True
                break
        else:
            log.append(entry)
    if best_snapshot is not None:
        for p, saved in zip(model.params(), best_snapshot):
            p.value[...] = saved
    return log


def _ref_dense_rows(X, rows):
    if sp.issparse(X):
        return np.asarray(X[rows].todense())
    return np.asarray(X, dtype=float)[rows]


@st.composite
def net_cases(draw):
    """A small MLP or fusion-CNN problem: (kind, data, params, seed).

    MLP inputs may be sparse; CNNs may have no structured block, a single
    width and a pretrained embedding table."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(12, 40))
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    common = dict(hidden=draw(st.integers(1, 6)),
                  dropout=draw(st.sampled_from([0.0, 0.3])),
                  learning_rate=0.02, batch_size=draw(st.integers(3, 9)),
                  max_epochs=draw(st.integers(1, 4)),
                  patience=draw(st.sampled_from([None, 1, 2])))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        X = rng.normal(size=(n, draw(st.integers(1, 5))))
        X[rng.random(X.shape) < 0.5] = 0.0
        if draw(st.booleans()):
            X = sp.csr_matrix(X)
        return "mlp", (X, y), MlpParams(**common), seed
    widths = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                                 unique=True)))
    params = CnnParams(widths=widths, filters=draw(st.integers(1, 4)),
                       embed_dim=draw(st.integers(1, 4)),
                       max_len=max(widths) + draw(st.integers(0, 3)),
                       **common)
    vocab = 6
    ids = rng.integers(0, vocab, size=(n, params.max_len))
    S = rng.normal(size=(n, draw(st.integers(0, 3))))
    init = (rng.normal(size=(vocab, params.embed_dim))
            if draw(st.booleans()) else None)
    return "cnn", (ids, S, y, vocab, init), params, seed


def _both_nets(kind, data, params, seed):
    """(FusionNet, reference net, fetch) built from the same arguments."""
    if kind == "mlp":
        X, _ = data
        net = FusionNet(X.shape[1], params.hidden, params.dropout, seed)
        return (net, _RefMlpModel(X.shape[1], params, seed),
                lambda rows: _ref_dense_rows(X, rows))
    ids, S, _, vocab, init = data
    net = FusionNet(S.shape[1], params.hidden, params.dropout, seed,
                    widths=params.widths, filters=params.filters,
                    embed_dim=params.embed_dim, vocab_size=vocab,
                    max_len=params.max_len, embed_init=init)
    return (net, _RefCnnFusionModel(vocab, S.shape[1], params, seed, init),
            lambda rows: (ids[rows], S[rows]))


def _assert_same_params(net, ref):
    assert [p.value.shape for p in net.params()] == \
           [p.value.shape for p in ref.params()]
    for a, b in zip(net.params(), ref.params()):
        np.testing.assert_array_equal(a.value, b.value)


# The text branch's gradients sum the same terms as the dense reference in
# another order, so they agree to a bound relative to each parameter's
# largest gradient, and trained CNNs to a bound of their own; the MLP and
# every forward pass stay bit-identical.
GRAD_TOL = 1e-11
TRAIN_TOL = 1e-12


def _assert_grads_match(kind, net, ref):
    for a, b in zip(net.params(), ref.params()):
        if kind == "mlp":
            np.testing.assert_array_equal(a.grad, b.grad)
        else:
            scale = np.abs(b.grad).max(initial=0.0)
            assert np.abs(a.grad - b.grad).max(initial=0.0) <= GRAD_TOL * scale


class TestMatchesPerFamilyReference:
    @settings(max_examples=40, deadline=None)
    @given(case=net_cases())
    def test_logits_and_gradients_match(self, case):
        kind, data, params, seed = case
        net, ref, fetch = _both_nets(kind, data, params, seed)
        _assert_same_params(net, ref)
        y = data[-1] if kind == "mlp" else data[2]
        rows = np.arange(y.size)
        # perturb both alike so the zero-initialized fc2 passes gradient
        rng = np.random.default_rng(seed)
        for a, b in zip(net.params(), ref.params()):
            a.value += rng.normal(0, 0.1, size=a.value.shape)
            b.value[...] = a.value
        for train in (False, True):
            logits = net.forward(fetch(rows), train=train,
                                 rng=np.random.default_rng(seed))
            want = ref.forward(fetch(rows), train=train,
                               rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(logits, want)
            _, dlogits = softmax_xent(logits, y)
            for p in net.params() + ref.params():
                p.zero_grad()
            net.backward(dlogits)
            ref.backward(dlogits)
            _assert_grads_match(kind, net, ref)

    @settings(max_examples=40, deadline=None)
    @given(case=net_cases())
    def test_training_matches(self, case):
        kind, data, params, seed = case
        _, ref, fetch = _both_nets(kind, data, params, seed)
        if kind == "mlp":
            X, y = data
            net, log = train_mlp(X, y, params, seed=seed)
            inputs = X
        else:
            ids, S, y, vocab, init = data
            net, log = train_cnn_fusion(ids, S, y, params, vocab_size=vocab,
                                        seed=seed, embed_init=init)
            inputs = (ids, S)
        ref_log = _ref_fit(ref, fetch, y, params, seed)
        want = softmax_probs(ref.forward(fetch(np.arange(y.size))))[:, 1]
        got = predict_proba_net(net, inputs)
        if kind == "mlp":
            assert log == ref_log
            _assert_same_params(net, ref)
            np.testing.assert_array_equal(got, want)
            return
        assert [sorted(e) for e in log] == [sorted(e) for e in ref_log]
        for entry, ref_entry in zip(log, ref_log):
            for key, value in entry.items():
                if key.endswith("_loss"):
                    assert value == pytest.approx(ref_entry[key],
                                                  rel=TRAIN_TOL)
                else:
                    assert value == ref_entry[key]
        for a, b in zip(net.params(), ref.params()):
            np.testing.assert_allclose(a.value, b.value, rtol=TRAIN_TOL,
                                       atol=TRAIN_TOL)
        np.testing.assert_allclose(got, want, rtol=TRAIN_TOL, atol=TRAIN_TOL)
