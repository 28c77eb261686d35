"""Minimal reverse-mode neural kernel: dense, relu, dropout, a text branch
(embedding, 1-D convolutions and global max-pool, computed from
per-vocabulary tables and backpropagated only through each max-pool's
winning window), softmax cross-entropy, and FusionNet, the one network
built from them for both the MLP and the text-fusion CNN.

Everything is float64 numpy; gradients are exact analytic expressions and
are exercised against central finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .textfeat import Corpus


class NetError(ValueError):
    pass


EVAL_BATCH = 256  # rows per forward pass when scoring or in validation loss


class Param:
    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


class Dense:
    def __init__(self, n_in, n_out, rng, zero_init=False):
        if zero_init:
            w = np.zeros((n_in, n_out))
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.W = Param(w)
        self.b = Param(np.zeros(n_out))

    def forward(self, x):
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, g):
        self.W.grad += self._x.T @ g
        self.b.grad += g.sum(axis=0)
        return g @ self.W.value.T

    def params(self):
        return [self.W, self.b]


class ReLU:
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, g):
        return np.where(self._mask, g, 0.0)


class Dropout:
    """Inverted dropout: kept units scaled by 1/(1-rate) so eval is identity."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise NetError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, g):
        if self._mask is None:
            return g
        return g * self._mask


class EmbeddingConvPool:
    """Embedding table -> one valid 1-D convolution bank per width -> global
    max-pool over positions: (n, L) token ids -> one (n, F) block per width.

    A conv output depends only on the tokens in its window, so offset o of
    a bank adds T_o[ids[:, o:o+L_out]] with T_o = table @ W[o], one (V, F)
    product per offset.  The max-pool passes gradient to its first argmax
    only, so the backward pass reads just the tokens of each row and
    filter's winning window; only the ids and those argmaxes are kept.
    """

    def __init__(self, vocab_size, dim, widths, filters, rng, init=None):
        if init is not None:
            init = np.asarray(init, dtype=float)
            if init.shape != (vocab_size, dim):
                raise NetError(
                    f"embedding init shape {init.shape} does not match "
                    f"({vocab_size}, {dim})")
            self.table = Param(init.copy())
        else:
            self.table = Param(rng.normal(0.0, 0.1, size=(vocab_size, dim)))
        self.widths = widths
        self.W = [Param(rng.normal(0.0, np.sqrt(2.0 / (k * dim)),
                                   size=(k, dim, filters))) for k in widths]
        self.b = [Param(np.zeros(filters)) for _ in widths]

    def forward(self, ids):
        table = self.table.value
        if ids.min() < 0 or ids.max() >= table.shape[0]:
            raise NetError("token id outside the embedding table")
        n, L = ids.shape
        self._ids, self._idx = ids, []
        pooled = []
        for k, W, b in zip(self.widths, self.W, self.b):
            L_out = L - k + 1
            if L_out < 1:
                raise NetError(f"sequence length {L} shorter than filter "
                               f"width {k}")
            out = np.broadcast_to(b.value, (n, L_out, b.value.size)).copy()
            for o in range(k):
                out += (table @ W.value[o])[ids[:, o:o + L_out]]
            idx = np.argmax(out, axis=1)  # first occurrence on ties
            self._idx.append(idx)
            pooled.append(np.take_along_axis(out, idx[:, None], axis=1)[:, 0])
        return pooled

    def backward(self, g):
        """g: (n, >= F * len(widths)); its leading columns are the pooled
        blocks' gradients side by side."""
        ids, table = self._ids, self.table.value
        V = table.shape[0]
        F = self.b[0].value.size
        rows = np.arange(ids.shape[0])[:, None]
        cols = np.arange(F)
        for i, (k, W, b, idx) in enumerate(zip(self.widths, self.W, self.b,
                                               self._idx)):
            gi = g[:, i * F:(i + 1) * F]
            b.grad += gi.sum(axis=0)
            for o in range(k):
                tok = ids[rows, idx + o]
                W.grad[o] += np.einsum("nfe,nf->ef", table[tok], gi)
                C = np.bincount((tok * F + cols).ravel(), weights=gi.ravel(),
                                minlength=V * F).reshape(V, F)
                self.table.grad += C @ W.value[o].T

    def params(self):
        return [self.table] + [p for W, b in zip(self.W, self.b)
                               for p in (W, b)]


def softmax_probs(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(logits, labels):
    """Mean cross-entropy; returns (loss, gradient wrt logits)."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(z).sum(axis=1))
    logp = z[np.arange(n), labels] - logsum
    probs = softmax_probs(logits)
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return float(-logp.mean()), grad / n


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            m[...] = b1 * m + (1 - b1) * p.grad
            v[...] = b2 * v + (1 - b2) * p.grad ** 2
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _check_training(params):
    """Range checks of the settings that both neural families share."""
    for name in ("hidden", "batch_size", "max_epochs"):
        if getattr(params, name) < 1:
            raise NetError(f"{name} must be >= 1")
    if not params.learning_rate > 0:
        raise NetError("learning_rate must be positive")
    if not 0.0 <= params.dropout < 1.0:
        raise NetError("dropout rate must lie in [0, 1)")


@dataclass
class MlpParams:
    hidden: int = 100
    dropout: float = 0.5
    learning_rate: float = 0.0005
    batch_size: int = 32
    max_epochs: int = 20
    patience: int | None = 3

    def validate(self):
        _check_training(self)


@dataclass
class CnnParams:
    widths: tuple = (3, 4, 5)
    filters: int = 64
    embed_dim: int = 64
    hidden: int = 128
    dropout: float = 0.5
    max_len: int = 512
    learning_rate: float = 0.0005
    batch_size: int = 32
    max_epochs: int = 20
    patience: int | None = 3

    def validate(self):
        _check_training(self)
        for name in ("filters", "embed_dim"):
            if getattr(self, name) < 1:
                raise NetError(f"{name} must be >= 1")
        if len(set(self.widths)) != len(self.widths):
            raise NetError("convolution widths must be distinct")
        if self.max_len < max(self.widths):
            raise NetError("max_len shorter than the widest filter")


class FusionNet:
    """Optional text branch (embedding -> one conv bank and max-pool per
    width) concatenated with the structured block -> FC1 + ReLU + dropout
    -> FC2 logits.  With no widths there is no text branch: the net is an
    MLP over the structured block.

    Its input is (padded ids, structured block) with a text branch and the
    feature matrix, dense or sparse, without one.
    """

    ARGS = ("structured_dim", "hidden", "dropout", "seed", "widths",
            "filters", "embed_dim", "vocab_size", "max_len")

    def __init__(self, structured_dim, hidden, dropout, seed, widths=(),
                 filters=0, embed_dim=0, vocab_size=0, max_len=0,
                 embed_init=None):
        self.structured_dim = structured_dim
        self.hidden = hidden
        self.dropout = dropout
        self.seed = seed
        self.widths = tuple(widths)
        self.filters = filters
        self.embed_dim = embed_dim
        self.vocab_size = vocab_size
        self.max_len = max_len
        # creation order fixes the rng draws and Adam's parameter order
        rng = np.random.default_rng([seed, 0])
        self.embedding = (EmbeddingConvPool(vocab_size, embed_dim,
                                            self.widths, filters, rng,
                                            init=embed_init)
                          if self.widths else None)
        self.fc1 = Dense(filters * len(self.widths) + structured_dim, hidden,
                         rng)
        self.relu = ReLU()
        self.drop = Dropout(dropout)
        self.fc2 = Dense(hidden, 2, rng, zero_init=True)

    def fetcher(self, inputs):
        """(row count, rows -> that batch's forward input); a sparse
        feature matrix is made dense one batch at a time.  Features must
        be finite."""
        if self.embedding is None:
            X = inputs
            if X.shape[1] != self.structured_dim:
                raise NetError(f"feature dimension {X.shape[1]} does not "
                               f"match model dimension {self.structured_dim}")
            if sp.issparse(X):
                if not np.isfinite(X.data).all():
                    raise NetError("features must be finite")
                return X.shape[0], lambda rows: np.asarray(X[rows].todense())
            X = np.asarray(X, dtype=float)
            if not np.isfinite(X).all():
                raise NetError("features must be finite")
            return X.shape[0], lambda rows: X[rows]
        ids, structured = inputs
        ids = np.asarray(ids)
        structured = np.asarray(structured, dtype=float)
        if ids.ndim != 2 or ids.shape[1] != self.max_len:
            raise NetError(f"token ids must be (n, {self.max_len}), "
                           f"not {ids.shape}")
        if structured.shape != (ids.shape[0], self.structured_dim):
            raise NetError(
                f"structured block shape {structured.shape} does not match "
                f"({ids.shape[0]}, {self.structured_dim})")
        if not np.isfinite(structured).all():
            raise NetError("features must be finite")
        return ids.shape[0], lambda rows: (ids[rows], structured[rows])

    def forward(self, inputs, train=False, rng=None):
        h = inputs
        if self.embedding is not None:
            ids, structured = inputs
            h = np.hstack(self.embedding.forward(ids) + [structured])
        h = self.drop.forward(self.relu.forward(self.fc1.forward(h)),
                              train, rng)
        return self.fc2.forward(h)

    def backward(self, dlogits):
        g = self.fc2.backward(dlogits)
        g = self.fc1.backward(self.relu.backward(self.drop.backward(g)))
        if self.embedding is not None:
            self.embedding.backward(g)

    def params(self):
        layers = [self.embedding] if self.embedding is not None else []
        layers += [self.fc1, self.fc2]
        return [p for layer in layers for p in layer.params()]


def pad_sequences(seqs, max_len):
    """Front-aligned padding/truncation to max_len with id 0, the pad row;
    `seqs` is a Corpus of ids or a list of id lists."""
    return Corpus.of(seqs).pad(max_len)


def _eval_batches(model, fetch, rows):
    """(batch rows, logits) with dropout off, EVAL_BATCH rows at a time."""
    for lo in range(0, rows.size, EVAL_BATCH):
        batch = rows[lo:lo + EVAL_BATCH]
        yield batch, model.forward(fetch(batch), train=False)


def _fit(model, inputs, y, hp, seed):
    """Shared minibatch loop: Adam, seed-derived val split, patience-based
    early stopping with best-snapshot restore."""
    y = np.asarray(y)
    n = y.size
    if n == 0:
        raise NetError("empty training set")
    if not ((y == 0) | (y == 1)).all():
        raise NetError("labels must be 0 or 1")
    y = y.astype(np.int64)
    if len(np.unique(y)) < 2:
        raise NetError("training labels are single-class")
    n_rows, fetch = model.fetcher(inputs)
    if n_rows != n:
        raise NetError("labels must align with rows")
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(n)
    if hp.patience is None:
        train_rows, val_rows = perm, None
    else:
        n_val = max(1, int(round(0.1 * n)))
        val_rows, train_rows = perm[:n_val], perm[n_val:]
        if train_rows.size == 0:
            raise NetError("training set too small for a validation split")

    opt = Adam(model.params(), hp.learning_rate)
    log = []
    best_val = np.inf
    best_snapshot = None
    bad_epochs = 0

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
            total = 0.0
            for batch, logits in _eval_batches(model, fetch, val_rows):
                total += softmax_xent(logits, y[batch])[0] * batch.size
            val_loss = total / val_rows.size
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


def train_mlp(X, y, params=None, seed=0):
    """Dense d -> hidden -> 2 classifier, the fusion net without a text
    branch; X may be sparse. Returns (model, per-epoch log)."""
    if params is None:
        params = MlpParams()
    params.validate()
    model = FusionNet(X.shape[1], params.hidden, params.dropout, seed)
    return model, _fit(model, X, y, params, seed)


def train_cnn_fusion(ids, structured, y, params, vocab_size, seed=0,
                     embed_init=None):
    """Text CNN fused with a structured block; returns (model, log).

    ids: (n, params.max_len) token ids, padded as pad_sequences pads them.
    structured: dense (n, d_s) block; d_s may be 0 for text-only models.
    """
    params.validate()
    structured = np.asarray(structured, dtype=float)
    if structured.ndim != 2:
        raise NetError("structured block must be (n, d_s)")
    model = FusionNet(structured.shape[1], params.hidden, params.dropout,
                      seed, widths=params.widths, filters=params.filters,
                      embed_dim=params.embed_dim, vocab_size=vocab_size,
                      max_len=params.max_len, embed_init=embed_init)
    return model, _fit(model, (ids, structured), y, params, seed)


def predict_proba_net(model, inputs):
    """Class-1 probabilities with dropout off; deterministic."""
    n, fetch = model.fetcher(inputs)
    out = np.empty(n)
    for rows, logits in _eval_batches(model, fetch, np.arange(n)):
        probs = softmax_probs(logits)
        if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
            raise NetError("softmax probabilities do not sum to 1")
        out[rows] = probs[:, 1]
    return out


# ---------------------------------------------------------------------------
# Checkpoints and embedding files
# ---------------------------------------------------------------------------

def save_checkpoint(model, path):
    """JSON header line (the net's constructor arguments and its parameter
    shapes) + concatenated little-endian float64 parameters."""
    header = {name: getattr(model, name) for name in FusionNet.ARGS}
    header["shapes"] = [list(p.value.shape) for p in model.params()]
    blob = np.concatenate([p.value.ravel() for p in model.params()])
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(blob.astype("<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        line = f.readline()
        blob = np.frombuffer(f.read(), dtype="<f8")
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError:
        raise NetError("checkpoint header is not JSON") from None
    if not isinstance(header, dict) or (
            set(header) != {*FusionNet.ARGS, "shapes"}):
        raise NetError("checkpoint header is not a FusionNet header")
    shapes = [tuple(s) for s in header.pop("shapes")]
    model = FusionNet(**header)
    if shapes != [p.value.shape for p in model.params()]:
        raise NetError("checkpoint shapes do not match the rebuilt model")
    total = sum(int(np.prod(s)) for s in shapes)
    if blob.size != total:
        raise NetError(
            f"checkpoint buffer holds {blob.size} values, expected {total}")
    offset = 0
    for p in model.params():
        p.value[...] = blob[offset:offset + p.value.size].reshape(p.value.shape)
        offset += p.value.size
    return model


def load_embedding_file(path):
    """'token v1 v2 ... vE' per line -> (token list, (n, E) matrix)."""
    tokens, rows = [], []
    dim = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError:
                raise NetError(f"non-numeric value on line {lineno}") from None
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise NetError(f"no values on line {lineno}")
            elif len(vec) != dim:
                raise NetError(f"inconsistent width at line {lineno}")
            if not all(map(math.isfinite, vec)):
                raise NetError(f"non-finite value on line {lineno}")
            tokens.append(parts[0])
            rows.append(vec)
    if not tokens:
        raise NetError("embedding file is empty")
    return tokens, np.asarray(rows)


def embedding_matrix_for_vocab(vocab_tokens, dim, seed, pretrained=None):
    """Rows: 0 = padding (zeros), 1 = unknown, then one per vocab token.

    Tokens found in the optional pretrained table keep their vectors;
    everything else draws from the seeded initializer.
    """
    rng = np.random.default_rng([seed, 2])
    V = len(vocab_tokens) + 2
    M = rng.normal(0.0, 0.1, size=(V, dim))
    M[0] = 0.0
    if pretrained is not None:
        tokens, matrix = pretrained
        if matrix.shape[1] != dim:
            raise NetError(f"pretrained width {matrix.shape[1]} does not "
                           f"match embed_dim {dim}")
        table = {t: i for i, t in enumerate(tokens)}
        for i, tok in enumerate(vocab_tokens):
            j = table.get(tok)
            if j is not None:
                M[i + 2] = matrix[j]
    return M


def tokens_to_ids(token_docs, vocab):
    """Map tokens through a Vocabulary to embedding rows (unk = 1, +2 shift);
    returns the Corpus of those rows."""
    return Corpus.of(token_docs).map(vocab.index, shift=2, unknown=1)
