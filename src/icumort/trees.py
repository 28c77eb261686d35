"""Random forest and second-order gradient-boosted trees.

Both operate on dense or CSR/CSC sparse matrices; absent sparse entries mean
feature value 0, which is exactly what a zero tf-idf weight encodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class TreeError(ValueError):
    pass


@dataclass
class ForestParams:
    n_trees: int = 100
    max_depth: int = 10
    min_node_weight: float = 2.0
    bootstrap: bool = True

    def validate(self):
        if self.n_trees < 1:
            raise TreeError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise TreeError("max_depth must be >= 0")
        if self.min_node_weight < 0:
            raise TreeError("min_node_weight must be >= 0")


@dataclass
class GbtParams:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    reg_lambda: float = 1.0

    def validate(self):
        if self.rounds < 0:
            raise TreeError("rounds must be >= 0")
        if self.max_depth < 0:
            raise TreeError("max_depth must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise TreeError("learning_rate must lie in (0, 1]")
        if self.reg_lambda < 0:
            raise TreeError("reg_lambda must be >= 0")


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
        """Route every row to its leaf value (vectorized level walk)."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        out = np.empty(n)
        active = np.arange(n)
        Xc = X.tocsc() if sp.issparse(X) else None
        while active.size:
            leaves = self.feature[node[active]] < 0
            done = active[leaves]
            out[done] = self.value[node[done]]
            active = active[~leaves]
            if not active.size:
                break
            cur = node[active]
            feats = self.feature[cur]
            thresholds = self.threshold[cur]
            vals = np.empty(active.size)
            for f in np.unique(feats):
                rows_mask = feats == f
                rows = active[rows_mask]
                if Xc is not None:
                    vals[rows_mask] = _gather_column(Xc, f, rows)
                else:
                    vals[rows_mask] = X[rows, f]
            go_left = vals <= thresholds
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return out

    def to_obj(self, idx=0):
        if self.feature[idx] < 0:
            return {"leaf": float(self.value[idx])}
        return {"feature": int(self.feature[idx]),
                "threshold": float(self.threshold[idx]),
                "left": self.to_obj(self.left[idx]),
                "right": self.to_obj(self.right[idx])}

    @classmethod
    def from_obj(cls, obj):
        feature, threshold, left, right, value = [], [], [], [], []

        def walk(o):
            idx = len(feature)
            if "leaf" in o:
                feature.append(-1)
                threshold.append(np.nan)
                left.append(-1)
                right.append(-1)
                value.append(o["leaf"])
                return idx
            feature.append(o["feature"])
            threshold.append(o["threshold"])
            left.append(-2)
            right.append(-2)
            value.append(0.0)
            left[idx] = walk(o["left"])
            right[idx] = walk(o["right"])
            return idx

        walk(obj)
        return cls(feature, threshold, left, right, value)


def _gather_column(Xc, j, rows):
    """Column j values at the given sorted row indices; absent entries are 0."""
    lo, hi = Xc.indptr[j], Xc.indptr[j + 1]
    nz_rows = Xc.indices[lo:hi]
    nz_vals = Xc.data[lo:hi]
    out = np.zeros(rows.size)
    pos = np.searchsorted(rows, nz_rows)
    ok = (pos < rows.size)
    ok[ok] = rows[pos[ok]] == nz_rows[ok]
    out[pos[ok]] = nz_vals[ok]
    return out


class _Cols:
    def __init__(self, X):
        self.sparse = sp.issparse(X)
        self.X = X.tocsc() if self.sparse else np.asarray(X, dtype=float)
        self.n, self.d = X.shape

    def values(self, j, rows):
        if self.sparse:
            return _gather_column(self.X, j, rows)
        return self.X[rows, j]


def _weighted_gini(w_pos, w_tot):
    # 2 p (1-p) scaled by total weight
    if w_tot <= 0:
        return 0.0
    p = w_pos / w_tot
    return 2.0 * p * (1.0 - p)


def _best_split_gini(values, y, u):
    """Best midpoint threshold for one feature by weighted Gini gain.

    Returns (gain, threshold) or None when the column is constant.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    yw = (u * y)[order]
    uw = u[order]
    boundaries = np.nonzero(v[1:] > v[:-1])[0]
    if boundaries.size == 0:
        return None
    cw = np.cumsum(uw)
    cp = np.cumsum(yw)
    w_tot, p_tot = cw[-1], cp[-1]
    parent = _weighted_gini(p_tot, w_tot)
    wl = cw[boundaries]
    pl = cp[boundaries]
    wr = w_tot - wl
    pr = p_tot - pl
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


class _TreeBuilder:
    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def add_leaf(self, value):
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return idx

    def add_internal(self, feature, threshold):
        idx = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return idx

    def build(self):
        return DecisionTree(self.feature, self.threshold, self.left,
                            self.right, self.value)


def _grow_gini_tree(cols, y, u, params, rng):
    m_try = max(1, math.ceil(math.sqrt(cols.d)))
    tb = _TreeBuilder()

    def leaf_value(rows):
        w = u[rows].sum()
        if w <= 0:
            return 0.5
        return float((u[rows] * y[rows]).sum() / w)

    def grow(rows, depth):
        w = u[rows].sum()
        ys = y[rows]
        pure = (ys == ys[0]).all() if rows.size else True
        if depth >= params.max_depth or w < params.min_node_weight or pure:
            return tb.add_leaf(leaf_value(rows))
        candidates = rng.choice(cols.d, size=m_try, replace=False)
        best = None
        for j in candidates:
            values = cols.values(j, rows)
            found = _best_split_gini(values, ys, u[rows])
            if found is None:
                continue
            gain, thr = found
            if best is None or gain > best[0]:
                best = (gain, int(j), thr)
        if best is None:
            return tb.add_leaf(leaf_value(rows))
        _, j, thr = best
        go_left = cols.values(j, rows) <= thr
        idx = tb.add_internal(j, thr)
        tb.left[idx] = grow(rows[go_left], depth + 1)
        tb.right[idx] = grow(rows[~go_left], depth + 1)
        return idx

    grow(np.arange(cols.n), 0)
    return tb.build()


@dataclass
class RandomForest:
    trees: list
    params: ForestParams
    seed: int
    n_features: int

    def to_json(self):
        return json.dumps({
            "kind": "forest", "seed": self.seed, "n_features": self.n_features,
            "params": {"n_trees": self.params.n_trees,
                       "max_depth": self.params.max_depth,
                       "min_node_weight": self.params.min_node_weight,
                       "bootstrap": self.params.bootstrap},
            "trees": [t.to_obj() for t in self.trees],
        })

    @classmethod
    def from_json(cls, text):
        o = json.loads(text)
        if o.get("kind") != "forest":
            raise TreeError("not a forest record")
        return cls(trees=[DecisionTree.from_obj(t) for t in o["trees"]],
                   params=ForestParams(**o["params"]), seed=o["seed"],
                   n_features=o["n_features"])


def _single_tree(X, y, u, params, tree_seed):
    cols = _Cols(X)
    n = cols.n
    rng = np.random.default_rng(tree_seed)
    if params.bootstrap:
        p = u / u.sum()
        picks = rng.choice(n, size=n, replace=True, p=p)
        mult = np.bincount(picks, minlength=n).astype(float)
        weights = mult  # sampling already folded the instance weights in
    else:
        weights = u.copy()
    rows = np.nonzero(weights > 0)[0]
    sub = _Sub(cols, rows)
    return _grow_gini_tree(sub, y[rows], weights[rows], params, rng)


class _Sub:
    """View of a column accessor restricted to a fixed row subset."""

    def __init__(self, cols, rows):
        self.cols = cols
        self.rows = rows  # sorted
        self.n = rows.size
        self.d = cols.d

    def values(self, j, local_rows):
        return self.cols.values(j, self.rows[local_rows])


def train_random_forest(X, y, params=None, instance_weights=None, seed=0):
    """Bagged Gini trees; instance weights bias the bootstrap draw.

    Tree t uses its own generator derived from (seed, t), so trees can be
    grown in any order or in parallel with identical results.
    """
    if params is None:
        params = ForestParams()
    params.validate()
    y = np.asarray(y, dtype=float)
    if sp.issparse(X):
        n = X.shape[0]
    else:
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
    if y.shape != (n,):
        raise TreeError("labels must align with rows")
    if instance_weights is None:
        u = np.ones(n)
    else:
        u = np.asarray(instance_weights, dtype=float)
        if u.shape != (n,) or (u < 0).any():
            raise TreeError("instance weights must be non-negative and aligned")
        if u.sum() <= 0:
            raise TreeError("instance weights sum to zero")
    trees = [_single_tree(X, y, u, params, np.random.SeedSequence([seed, t]))
             for t in range(params.n_trees)]
    return RandomForest(trees=trees, params=params, seed=seed,
                        n_features=X.shape[1])


@dataclass
class GradientBoostedTrees:
    base_score: float  # log-odds
    params: GbtParams
    trees: list
    seed: int
    n_features: int
    train_loss: list

    def to_json(self):
        return json.dumps({
            "kind": "gbt", "base_score": self.base_score, "seed": self.seed,
            "n_features": self.n_features,
            "params": {"rounds": self.params.rounds,
                       "max_depth": self.params.max_depth,
                       "learning_rate": self.params.learning_rate,
                       "reg_lambda": self.params.reg_lambda},
            "trees": [t.to_obj() for t in self.trees],
            "train_loss": list(self.train_loss),
        })

    @classmethod
    def from_json(cls, text):
        o = json.loads(text)
        if o.get("kind") != "gbt":
            raise TreeError("not a boosted-tree record")
        return cls(base_score=o["base_score"],
                   params=GbtParams(**o["params"]),
                   trees=[DecisionTree.from_obj(t) for t in o["trees"]],
                   seed=o["seed"], n_features=o["n_features"],
                   train_loss=o.get("train_loss", []))


def _best_split_second_order(values, g, h, lam):
    order = np.argsort(values, kind="stable")
    v = values[order]
    gs = g[order]
    hs = h[order]
    boundaries = np.nonzero(v[1:] > v[:-1])[0]
    if boundaries.size == 0:
        return None
    cg = np.cumsum(gs)
    ch = np.cumsum(hs)
    G, H = cg[-1], ch[-1]
    gl, hl = cg[boundaries], ch[boundaries]
    gr, hr = G - gl, H - hl
    gains = 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam)
                   - G ** 2 / (H + lam))
    k = int(np.argmax(gains))
    if gains[k] <= 1e-12:
        return None
    b = boundaries[k]
    return float(gains[k]), 0.5 * (v[b] + v[b + 1])


def _grow_gbt_tree(cols, g, h, params):
    tb = _TreeBuilder()
    lam = params.reg_lambda

    def leaf_weight(rows):
        return float(-g[rows].sum() / (h[rows].sum() + lam))

    def grow(rows, depth):
        if depth >= params.max_depth:
            return tb.add_leaf(leaf_weight(rows))
        best = None
        for j in range(cols.d):
            values = cols.values(j, rows)
            found = _best_split_second_order(values, g[rows], h[rows], lam)
            if found is None:
                continue
            gain, thr = found
            if best is None or gain > best[0]:
                best = (gain, j, thr)
        if best is None:
            return tb.add_leaf(leaf_weight(rows))
        _, j, thr = best
        go_left = cols.values(j, rows) <= thr
        idx = tb.add_internal(j, thr)
        tb.left[idx] = grow(rows[go_left], depth + 1)
        tb.right[idx] = grow(rows[~go_left], depth + 1)
        return idx

    grow(np.arange(cols.n), 0)
    return tb.build()


def _log_loss_mean(margins, y):
    return float(np.mean(np.logaddexp(0.0, margins) - y * margins))


def train_gbt(X, y, params=None, seed=0):
    """Second-order boosting on logistic loss from a 0.5-probability base.

    Each round fits a depth-limited tree to the gradient/hessian pairs
    g = p - y, h = p (1 - p); leaves carry -G/(H + lambda) and predictions
    shrink by the learning rate. A rise in training loss raises TreeError.
    """
    if params is None:
        params = GbtParams()
    params.validate()
    y = np.asarray(y, dtype=float)
    cols = _Cols(X)
    if y.shape != (cols.n,):
        raise TreeError("labels must align with rows")
    base = 0.0
    margins = np.full(cols.n, base)
    losses = [_log_loss_mean(margins, y)]
    trees = []
    for _ in range(params.rounds):
        p = 1.0 / (1.0 + np.exp(-margins))
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_gbt_tree(cols, g, h, params)
        trees.append(tree)
        margins = margins + params.learning_rate * tree.predict_value(cols.X)
        loss = _log_loss_mean(margins, y)
        if not loss <= losses[-1] + 1e-10:  # NaN raises too
            raise TreeError(f"boosting loss increased from {losses[-1]!r} "
                            f"to {loss!r} in round {len(losses)}")
        losses.append(loss)
    return GradientBoostedTrees(base_score=base, params=params, trees=trees,
                                seed=seed, n_features=cols.d,
                                train_loss=losses)


def predict_proba_trees(model, X):
    """Forest: mean per-tree class-1 fraction. Boosted: sigmoid of margins."""
    if sp.issparse(X):
        X = X.tocsc()  # single conversion shared by every tree walk
        n, d = X.shape
    else:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise TreeError("expected a 2-d matrix")
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
