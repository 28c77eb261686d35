"""Random forest and second-order gradient-boosted trees.

Both learners take a dense matrix or any scipy sparse format; absent sparse
entries mean feature value 0, which is exactly what a zero tf-idf weight
encodes.  One exact split search serves both learners: it scores every
boundary of a block of candidate columns at once, with Gini gain for the
forest and second-order gain for boosting.

Each fit transposes X once so that a node reads its candidate columns as
rows.  When X has at most _PRESORT_VALUES (2**21) values, the transposed
copy is dense and the fit stable-sorts every column once, over all of its
rows; boosting reuses that order in every round, and the forest in every
tree.  A node's sorted rows are then the presorted order filtered to the
node, which is the node's own stable sort because a node's rows are always
kept ascending.  A larger X keeps CSR form if sparse, and every node
densifies and sorts its candidate columns itself, in blocks of about
_BLOCK_VALUES (2**18) values; such an X is never copied to n x d dense form.
Both ways give the same splits, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp


class TreeError(ValueError):
    pass


# A forest node with less bootstrap weight than this is a leaf.
_MIN_NODE_WEIGHT = 2.0
# Boosting's L2 penalty on leaf values, lambda (Chen & Guestrin 2016).
_REG_LAMBDA = 1.0


@dataclass
class ForestParams:
    n_trees: int = 100
    max_depth: int = 10

    def validate(self):
        if self.n_trees < 1:
            raise TreeError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise TreeError("max_depth must be >= 0")


@dataclass
class GbtParams:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1

    def validate(self):
        if self.rounds < 0:
            raise TreeError("rounds must be >= 0")
        if self.max_depth < 0:
            raise TreeError("max_depth must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise TreeError("learning_rate must lie in (0, 1]")


class DecisionTree:
    """Flat-array binary tree; feature -1 marks a leaf holding its value."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        internal = self.feature >= 0
        if not np.isfinite(self.threshold[internal]).all():
            raise TreeError("internal thresholds must be finite")
        if np.any((self.left[internal] < 0) | (self.right[internal] < 0)):
            raise TreeError("internal nodes need two children")

    @property
    def n_nodes(self):
        return self.feature.size

    def predict_value(self, X):
        """Route every row of X to its leaf value.

        Rows move down one level per step; each step reads every active
        row's split value with one gather.
        """
        X = _as_matrix(X)
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.arange(X.shape[0])
        while active.size:
            cur = node[active]
            internal = self.feature[cur] >= 0
            active, cur = active[internal], cur[internal]
            if not active.size:
                break
            vals = np.asarray(X[active, self.feature[cur]]).ravel()
            node[active] = np.where(vals <= self.threshold[cur],
                                    self.left[cur], self.right[cur])
        return self.value[node]

    def to_obj(self, idx=0):
        if self.feature[idx] < 0:
            return {"leaf": float(self.value[idx])}
        return {"feature": int(self.feature[idx]),
                "threshold": float(self.threshold[idx]),
                "left": self.to_obj(self.left[idx]),
                "right": self.to_obj(self.right[idx])}

    @classmethod
    def from_obj(cls, obj):
        tb = _TreeBuilder()

        def walk(o):
            if "leaf" in o:
                return tb.add(value=o["leaf"])
            idx = tb.add(o["feature"], o["threshold"])
            tb.left[idx] = walk(o["left"])
            tb.right[idx] = walk(o["right"])
            return idx

        walk(obj)
        return tb.build()


class _TreeBuilder:
    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def add(self, feature=-1, threshold=np.nan, value=0.0):
        """Append a node, a leaf unless a feature is given; returns its index."""
        idx = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return idx

    def build(self):
        return DecisionTree(self.feature, self.threshold, self.left,
                            self.right, self.value)


def _as_matrix(X):
    """X as a CSR matrix if sparse, else as a float ndarray; must be 2-d."""
    if not sp.issparse(X):
        X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise TreeError("expected a 2-d matrix")
    return X.tocsr().astype(float, copy=False) if sp.issparse(X) else X


# Largest n x d of a fit that sorts each column once.  Above it a dense copy
# and an n x d order cost more time and memory than the per-node sorts they
# replace (on a 3,600 x 7,306 tf-idf block at 3.5% density, 1.8x the peak
# memory and no less time), so each node sorts its own candidate columns.
# Where between those two shapes the crossover lies has not been measured;
# 2**21 lies above every paper-scale fold at min_df 10 (about 672k values).
_PRESORT_VALUES = 2 ** 21

# Values gathered per block of candidate columns; a block's width is this
# divided by the values each column contributes, which bounds the search's
# scratch memory.
_BLOCK_VALUES = 2 ** 18


def _fit_inputs(X, y):
    """(X, XT, order, labels) for a fit; XT is X transposed.

    Within the presort budget XT is a dense copy and order[j] is the stable
    ascending order of column j over all rows.  Above it order is None and
    XT is CSR when X is sparse.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise TreeError("labels must align with rows")
    if X.shape[0] * X.shape[1] <= _PRESORT_VALUES:
        XT = X.T.toarray() if sp.issparse(X) else np.ascontiguousarray(X.T)
        return X, XT, np.argsort(XT, axis=1, kind="stable"), y
    XT = X.T.tocsr() if sp.issparse(X) else np.ascontiguousarray(X.T)
    return X, XT, None, y


def _best_split(XT, order, rows, cols, a, b, gain):
    """Best split of the node `rows` (sorted) over candidate columns `cols`.

    Each candidate column's node values are stable-sorted.  With a fit's
    presort (`order` not None) a block's sorted rows are order[block]
    filtered to the node: a stable order over ascending row ids keeps its
    relative order under filtering, so this is the node's own stable sort
    without sorting.  Without one, the block's node values are gathered
    from XT (densified if CSR) and argsorted.

    gain(al, bl, at, bt) scores every boundary between distinct values from
    the prefix sums al, bl of the per-row statistics a, b and their totals
    at, bt.  The threshold is the boundary's midpoint.  Returns (column,
    threshold, left mask over rows) or None when no gain exceeds 1e-12.
    Ties resolve as a left-to-right scan with a strict '>' would: the first
    column in `cols` and its first boundary win, and a NaN gain wins only
    when it comes first.
    """
    if rows.size < 2:
        return None
    if order is None:
        # S below indexes the node's rows, not all rows
        a, b = a[rows], b[rows]
        width = max(1, _BLOCK_VALUES // rows.size)
    else:
        in_node = np.zeros(XT.shape[1], dtype=bool)
        in_node[rows] = True
        width = max(1, _BLOCK_VALUES // XT.shape[1])
    best = None  # (gain, column, threshold, left entries of S)
    for start in range(0, len(cols), width):
        block = cols[start:start + width]
        if order is None:
            V = XT[np.ix_(block, rows)]
            if sp.issparse(V):
                V = V.toarray()
            S = np.argsort(V, axis=1, kind="stable")
            Vs = np.take_along_axis(V, S, axis=1)
        else:
            S = order[block]
            S = S[in_node[S]].reshape(block.size, rows.size)
            Vs = XT[block[:, None], S]
        ca = np.cumsum(a[S], axis=1)
        cb = np.cumsum(b[S], axis=1)
        gains = gain(ca[:, :-1], cb[:, :-1], ca[:, -1:], cb[:, -1:])
        gains[~(Vs[:, 1:] > Vs[:, :-1])] = -np.inf
        k = np.argmax(gains, axis=1)
        top = gains[np.arange(block.size), k]
        ok = np.flatnonzero(~(top <= 1e-12))
        if not ok.size:
            continue
        t = top[ok]
        if best is None and np.isnan(t[0]):
            i = 0
        else:
            i = int(np.argmax(np.where(np.isnan(t), -np.inf, t)))
        if best is None or t[i] > best[0]:
            c = ok[i]
            thr = 0.5 * (Vs[c, k[c]] + Vs[c, k[c] + 1])
            best = (t[i], int(block[c]), thr, S[c][Vs[c] <= thr])
    if best is None:
        return None
    _, j, thr, left = best
    go_left = np.zeros(a.size, dtype=bool)
    go_left[left] = True
    return j, thr, go_left if order is None else go_left[rows]


def _gini_gain(pl, wl, p_tot, w_tot):
    """Weighted Gini decrease from positive weight pl of left weight wl."""
    with np.errstate(invalid="ignore", divide="ignore"):
        p = p_tot / w_tot
        parent = np.where(w_tot <= 0, 0.0, 2.0 * p * (1.0 - p))
        pr, wr = p_tot - pl, w_tot - wl
        gl = 2.0 * (pl / wl) * (1.0 - pl / wl)
        gr = 2.0 * (pr / wr) * (1.0 - pr / wr)
        gains = parent - (wl / w_tot) * gl - (wr / w_tot) * gr
    return np.nan_to_num(gains, nan=-np.inf)


def _second_order_gain(gl, hl, G, H, lam):
    """Loss reduction of splitting gradient/hessian sums (G, H) at (gl, hl)."""
    gr, hr = G - gl, H - hl
    # float_power calls libm pow, as G ** 2 on a NumPy scalar does; an
    # array's ** 2 squares instead, which can differ in the last bit
    return 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam)
                  - np.float_power(G, 2) / (H + lam))


def _grow(rows, max_depth, split, leaf):
    """Depth-first tree over row set `rows`.

    Below max_depth, split(rows) gives (column, threshold, left mask) or
    None to stop; leaf(rows) gives a leaf's value.
    """
    tb = _TreeBuilder()

    def grow(rows, depth):
        found = split(rows) if depth < max_depth else None
        if found is None:
            return tb.add(value=leaf(rows))
        j, thr, go_left = found
        idx = tb.add(j, thr)
        tb.left[idx] = grow(rows[go_left], depth + 1)
        tb.right[idx] = grow(rows[~go_left], depth + 1)
        return idx

    grow(rows, 0)
    return tb.build()


@dataclass
class RandomForest:
    trees: list
    params: ForestParams
    seed: int
    n_features: int

    def to_obj(self):
        return {
            "kind": "forest", "seed": self.seed, "n_features": self.n_features,
            "params": asdict(self.params),
            "trees": [t.to_obj() for t in self.trees],
        }

    @classmethod
    def from_obj(cls, o):
        if o.get("kind") != "forest":
            raise TreeError("not a forest record")
        return cls(trees=[DecisionTree.from_obj(t) for t in o["trees"]],
                   params=ForestParams(**o["params"]), seed=o["seed"],
                   n_features=o["n_features"])


def _single_tree(XT, order, y, u, params, tree_seed):
    d, n = XT.shape
    rng = np.random.default_rng(tree_seed)
    picks = rng.choice(n, size=n, replace=True, p=u / u.sum())
    # sampling already folded the instance weights in
    weights = np.bincount(picks, minlength=n).astype(float)
    wy = weights * y
    m_try = max(1, math.ceil(math.sqrt(d)))

    def split(rows):
        ys = y[rows]
        if weights[rows].sum() < _MIN_NODE_WEIGHT or (ys == ys[0]).all():
            return None
        candidates = rng.choice(d, size=m_try, replace=False)
        return _best_split(XT, order, rows, candidates, wy, weights,
                           _gini_gain)

    def leaf(rows):
        w = weights[rows].sum()
        return 0.5 if w <= 0 else float(wy[rows].sum() / w)

    return _grow(np.nonzero(weights > 0)[0], params.max_depth, split, leaf)


def train_random_forest(X, y, params=None, instance_weights=None, seed=0):
    """Bagged Gini trees; instance weights bias the bootstrap draw.

    Tree t uses its own generator derived from (seed, t), so trees can be
    grown in any order or in parallel with identical results.
    """
    if params is None:
        params = ForestParams()
    params.validate()
    X, XT, order, y = _fit_inputs(X, y)
    n = X.shape[0]
    if instance_weights is None:
        u = np.ones(n)
    else:
        u = np.asarray(instance_weights, dtype=float)
        if u.shape != (n,) or (u < 0).any():
            raise TreeError("instance weights must be non-negative and aligned")
        if u.sum() <= 0:
            raise TreeError("instance weights sum to zero")
    trees = [_single_tree(XT, order, y, u, params,
                          np.random.SeedSequence([seed, t]))
             for t in range(params.n_trees)]
    return RandomForest(trees=trees, params=params, seed=seed,
                        n_features=X.shape[1])


@dataclass
class GradientBoostedTrees:
    base_score: float  # log-odds
    params: GbtParams
    trees: list
    n_features: int
    train_loss: list

    def to_obj(self):
        return {
            "kind": "gbt", "base_score": self.base_score,
            "n_features": self.n_features,
            "params": asdict(self.params),
            "trees": [t.to_obj() for t in self.trees],
            "train_loss": list(self.train_loss),
        }

    @classmethod
    def from_obj(cls, o):
        if o.get("kind") != "gbt":
            raise TreeError("not a boosted-tree record")
        return cls(base_score=o["base_score"],
                   params=GbtParams(**o["params"]),
                   trees=[DecisionTree.from_obj(t) for t in o["trees"]],
                   n_features=o["n_features"],
                   train_loss=o.get("train_loss", []))


def _log_loss_mean(margins, y):
    return float(np.mean(np.logaddexp(0.0, margins) - y * margins))


def train_gbt(X, y, params=None):
    """Second-order boosting on logistic loss from a 0.5-probability base.

    Each round fits a depth-limited tree to the gradient/hessian pairs
    g = p - y, h = p (1 - p); leaves carry -G/(H + lambda) and predictions
    shrink by the learning rate. A rise in training loss raises TreeError.
    """
    if params is None:
        params = GbtParams()
    params.validate()
    X, XT, order, y = _fit_inputs(X, y)
    n, d = X.shape
    gain = partial(_second_order_gain, lam=_REG_LAMBDA)
    cols = np.arange(d)
    base = 0.0
    margins = np.full(n, base)
    losses = [_log_loss_mean(margins, y)]
    trees = []
    for _ in range(params.rounds):
        p = 1.0 / (1.0 + np.exp(-margins))
        g = p - y
        h = p * (1.0 - p)
        tree = _grow(np.arange(n), params.max_depth,
                     lambda rows: _best_split(XT, order, rows, cols, g, h,
                                              gain),
                     lambda rows: float(-g[rows].sum() / (h[rows].sum() + _REG_LAMBDA)))
        trees.append(tree)
        margins = margins + params.learning_rate * tree.predict_value(X)
        loss = _log_loss_mean(margins, y)
        if not loss <= losses[-1] + 1e-10:  # NaN raises too
            raise TreeError(f"boosting loss increased from {losses[-1]!r} "
                            f"to {loss!r} in round {len(losses)}")
        losses.append(loss)
    return GradientBoostedTrees(base_score=base, params=params, trees=trees,
                                n_features=d, train_loss=losses)


def predict_proba_trees(model, X):
    """Forest: mean per-tree class-1 fraction. Boosted: sigmoid of margins."""
    X = _as_matrix(X)
    n, d = X.shape
    if d != model.n_features:
        raise TreeError(f"feature dimension {d} does not match "
                        f"training dimension {model.n_features}")
    if isinstance(model, RandomForest):
        acc = np.zeros(n)
        for tree in model.trees:
            acc += tree.predict_value(X)
        return acc / len(model.trees)
    if isinstance(model, GradientBoostedTrees):
        margins = np.full(n, model.base_score)
        for tree in model.trees:
            margins += model.params.learning_rate * tree.predict_value(X)
        return 1.0 / (1.0 + np.exp(-margins))
    raise TreeError(f"unknown model type {type(model).__name__}")
