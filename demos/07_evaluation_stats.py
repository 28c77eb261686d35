"""Splitting, resampling, tie-aware AUC, and the paired permutation test."""

import numpy as np

from icumort.cohort import synth_cohort_with_truth
from icumort.evaluation import (
    auc,
    classification_report,
    perm_test_auc,
    stratified_split,
    undersample,
)

# stratified split preserves the class mix on both sides
y = np.zeros(5396, dtype=np.int64)
y[:698] = 1
y = np.random.default_rng(0).permutation(y)
spec = stratified_split(y, seed=0)
print(f"split: train {spec.train_indices.size}, test {spec.test_indices.size}")
print(f"positive rate: full {y.mean():.4f}, "
      f"train {y[spec.train_indices].mean():.4f}, "
      f"test {y[spec.test_indices].mean():.4f}")

# 1:4 undersampling keeps every minority row
ytr = y[spec.train_indices]
kept = undersample(ytr, seed=0)
print(f"\nundersampled train: {kept.size} rows, "
      f"{int(ytr[kept].sum())} positive / {int((ytr[kept] == 0).sum())} negative")

# ties credit half a win, matching the pairwise definition
s = np.array([0.2, 0.5, 0.5, 0.9])
lab = np.array([0, 0, 1, 1])
print(f"\nAUC with a cross-class tie: {auc(s, lab)}")

rep = classification_report(s, lab, threshold=0.5)
print(f"report: precision {rep.precision:.3f} recall {rep.recall:.3f} "
      f"f1 {rep.f1:.3f}")

# permutation test: real signal versus noise is significant,
# a model against itself never is
cohort, risk = synth_cohort_with_truth(n=1000, seed=5)
labels = cohort.labels("hospital")
noise = np.random.default_rng(6).random(1000)
res = perm_test_auc(risk, noise, labels, n_perm=1000, seed=0)
print(f"\nrisk vs noise: observed dAUC {res.observed:.4f}, p = {res.p_value:.4f}")
self_res = perm_test_auc(risk, risk.copy(), labels, n_perm=1000, seed=0)
print(f"risk vs itself: p = {self_res.p_value:.4f}")
