"""Regularized linear classifiers on encoded structured features.

L2 keeps every coefficient; L1 zeroes the uninformative ones. Balanced
class weights counter the mortality imbalance, and ranked coefficients
name the risk drivers the model found.
"""

import numpy as np

from icumort.cohort import fit_encoder, encode, synth_cohort
from icumort.impute import impute_fit_transform
from icumort.linmod import (
    L1,
    L2,
    balanced_weights,
    predict_proba,
    rank_coefficients,
    train_linear_svm,
    train_logreg,
)
from icumort.evaluation import auc

cohort = synth_cohort(n=1200, seed=11)
y = cohort.labels("hospital")

# impute, standardize, one-hot
filled, _ = impute_fit_transform(cohort.continuous_matrix(), seed=0)
imputed = cohort.with_continuous(filled)
enc = fit_encoder(imputed)
X = encode(enc, imputed)
print(f"design matrix: {X.shape}")

w = balanced_weights(y)
print(f"class weights: positive {w[y == 1][0]:.3f}, negative {w[y == 0][0]:.3f}")

m2 = train_logreg(X, y, reg=L2, C=1.0, instance_weights=w)
m1 = train_logreg(X, y, reg=L1, C=0.05, instance_weights=w)
print(f"\nL2 nonzero coefficients: {(m2.w != 0).sum()} of {m2.w.size}")
print(f"L1 nonzero coefficients: {(m1.w != 0).sum()} of {m1.w.size}")

print(f"\nin-sample AUC, L2 logistic: {auc(predict_proba(m2, X), y):.3f}")

print("\ntop risk coefficients (L2):")
for name, coef in rank_coefficients(m2.w, cohort.schema.column_names, 5):
    print(f"  {name:<28} {coef:+.3f}")

svm = train_linear_svm(X, y, reg=L2, C=1.0, instance_weights=w)
if not svm.diagnostics["converged"]:
    raise RuntimeError(f"SVM fit stopped unconverged: {svm.diagnostics}")
agree = ((predict_proba(m2, X) >= 0.5) == ((X @ svm.w + svm.b) >= 0.0)).mean()
print(f"\nSVM / logistic decision agreement: {agree:.2%}")
print(f"SVM relative duality gap: {svm.diagnostics['duality_gap']:.1e} "
      f"after {svm.diagnostics['iterations']} iterations")
