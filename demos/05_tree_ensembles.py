"""Random forest and gradient boosting on a boundary no line can draw."""

import numpy as np

from icumort.evaluation import auc
from icumort.trees import (
    ForestParams,
    GbtParams,
    predict_proba_trees,
    train_gbt,
    train_random_forest,
)
from icumort.linmod import L2, predict_proba, train_logreg

rng = np.random.default_rng(4)
X = rng.random((900, 2))
y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)  # XOR quadrants
split = 600
Xtr, ytr, Xte, yte = X[:split], y[:split], X[split:], y[split:]

lin = train_logreg(Xtr, ytr, reg=L2, C=1.0)
print(f"logistic test AUC:  {auc(predict_proba(lin, Xte), yte):.3f}  (chance-level, as expected)")

rf = train_random_forest(Xtr, ytr, ForestParams(n_trees=100, max_depth=10), seed=0)
print(f"forest test AUC:    {auc(predict_proba_trees(rf, Xte), yte):.3f}")

gbt = train_gbt(Xtr, ytr, GbtParams(rounds=100, max_depth=3))
print(f"boosting test AUC:  {auc(predict_proba_trees(gbt, Xte), yte):.3f}")

losses = np.array(gbt.train_loss)
print(f"\nboosting train loss: {losses[0]:.4f} -> {losses[-1]:.4f} "
      f"over {len(losses) - 1} rounds, monotone: {(np.diff(losses) <= 0).all()}")

# bootstrap + feature subsampling decorrelates the forest's trees
first_splits = {int(t.feature[0]) for t in rf.trees if t.n_nodes > 1}
print(f"forest root-split features used: {sorted(first_splits)}")
