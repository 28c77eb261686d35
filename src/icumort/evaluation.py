"""Splits, seeds, resampling, cross-validated grid search, metrics,
permutation test."""

from dataclasses import dataclass, field

import numpy as np


class EvalError(ValueError):
    pass


# the paper's protocol: a stratified 7:3 train/test split, 1:4 undersampling
TRAIN_SHARE = 0.7
UNDERSAMPLE_RATIO = 4  # majority rows kept per minority row


# ---------------------------------------------------------------------------
# splitting and resampling

@dataclass(frozen=True)
class SplitSpec:
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        tr, te = set(self.train_indices.tolist()), set(self.test_indices.tolist())
        if tr & te:
            raise EvalError("train and test indices overlap")
        n = len(tr) + len(te)
        if tr | te != set(range(n)):
            raise EvalError("split does not cover 0..n-1")


def _check_labels(labels):
    y = np.asarray(labels)
    if y.ndim != 1:
        raise EvalError("labels must be one-dimensional")
    if not np.isin(y, (0, 1)).all():
        raise EvalError("labels must be 0/1")
    return y.astype(np.int64)


def stratified_split(labels, seed=0):
    """7:3 split; train size is floor(n * TRAIN_SHARE) exactly.

    Each class's train share stays within one row of proportional; the
    leftover goes to the largest fractional parts.
    """
    y = _check_labels(labels)
    classes = np.unique(y)
    if classes.size < 2:
        raise EvalError("stratified split needs both classes present")
    rng = np.random.default_rng(seed)
    n_train = int(np.floor(y.size * TRAIN_SHARE))
    members = [rng.permutation(np.flatnonzero(y == c)) for c in classes]
    quotas = [int(np.floor(m.size * TRAIN_SHARE)) for m in members]
    fracs = [m.size * TRAIN_SHARE - q for m, q in zip(members, quotas)]
    leftover = n_train - sum(quotas)
    # hand the remaining slots to the largest fractional parts
    for i in np.argsort(-np.asarray(fracs), kind="stable")[:leftover]:
        quotas[i] += 1
    train = np.concatenate([m[:q] for m, q in zip(members, quotas)])
    test = np.concatenate([m[q:] for m, q in zip(members, quotas)])
    return SplitSpec(np.sort(train), np.sort(test))


def derive_seed(*parts):
    """A 32-bit seed derived from integer parts, one stream per tuple."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def undersample(labels, seed=0):
    """Keep the minority class, cap the majority at UNDERSAMPLE_RATIO x it.

    Returns sorted retained indices; input order is untouched when the
    cap is already satisfied.
    """
    y = _check_labels(labels)
    counts = np.bincount(y, minlength=2)
    if counts.min() == 0:
        raise EvalError("undersampling needs both classes present")
    minority = int(np.argmin(counts))
    majority = 1 - minority
    cap = UNDERSAMPLE_RATIO * int(counts[minority])
    maj_idx = np.flatnonzero(y == majority)
    if maj_idx.size <= cap:
        return np.arange(y.size)
    rng = np.random.default_rng(seed)
    kept_maj = rng.choice(maj_idx, size=cap, replace=False)
    return np.sort(np.concatenate([np.flatnonzero(y == minority), kept_maj]))


# ---------------------------------------------------------------------------
# metrics

def _tie_counts(s, y):
    """Sort s once; for each sorted positive, the negatives below its tie
    group (lo) and up to the group's end (hi).  Over the positives, marked
    by pos, lo + hi sums to 2U (2 per win, 1 per tie): an exact count, so
    U / (n_pos * n_neg) is the average-rank AUC bit for bit.
    """
    order = np.argsort(s, kind="stable")
    v, pos = s[order], y[order] == 1
    below = np.r_[0, np.cumsum(~pos, dtype=np.int64)]
    return (order, pos, below[np.searchsorted(v, v[pos], side="left")],
            below[np.searchsorted(v, v[pos], side="right")])


def auc(scores, labels):
    """Rank AUC: P(score_pos > score_neg) with ties credited one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_labels(labels)
    if s.shape != y.shape:
        raise EvalError("scores and labels differ in length")
    if not np.isfinite(s).all():
        raise EvalError("scores must be finite")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("AUC needs both classes present")
    _, _, lo, hi = _tie_counts(s, y)
    return int(lo.sum() + hi.sum()) / (2 * n_pos * n_neg)


@dataclass(frozen=True)
class EvalReport:
    auc: float
    precision: float
    recall: float
    f1: float
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    no_predicted_positives: bool

    def to_obj(self):
        return {
            "auc": self.auc, "precision": self.precision,
            "recall": self.recall, "f1": self.f1,
            "threshold": self.threshold,
            "confusion": {"tp": self.tp, "fp": self.fp,
                          "tn": self.tn, "fn": self.fn},
            "no_predicted_positives": self.no_predicted_positives,
        }


def f1_score(precision, recall):
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def classification_report(scores, labels, threshold=0.5):
    """Threshold rule: scores >= threshold predict the positive class."""
    s = np.asarray(scores, dtype=np.float64)
    y = _check_labels(labels)
    if s.shape != y.shape:
        raise EvalError("scores and labels differ in length")
    if y.size == 0:
        raise EvalError("empty inputs")
    pred = (s >= threshold).astype(np.int64)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    no_pos = (tp + fp) == 0
    precision = 0.0 if no_pos else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    both = 0 < y.sum() < y.size
    area = auc(s, y) if both else None
    return EvalReport(area, precision, recall, f1_score(precision, recall),
                      threshold, tp, fp, tn, fn, no_pos)


# ---------------------------------------------------------------------------
# paired permutation test

@dataclass(frozen=True)
class PermTestResult:
    observed: float
    n_perm: int
    count_ge: int
    p_value: float


# Permutations counted per batch: at n = 600 one batch's draws and int64
# counts peak at about 1.3 MB, whatever n_perm is.
_PERM_BLOCK = 64


def perm_test_auc(scores_a, scores_b, labels, n_perm=1000, seed=0):
    """Paired test of |AUC(a) - AUC(b)| by per-instance score swapping.

    One sort of the 2n pooled scores serves every permutation: a permuted
    scorer holds one of each row's two entries, and its 2U is auc's count
    over the pooled tie groups restricted to them.  Swaps are drawn in
    blocks of _PERM_BLOCK, with the counts and p-value of one at a time.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    y = _check_labels(labels)
    if a.shape != y.shape or b.shape != y.shape:
        raise EvalError("paired score vectors must match the label length")
    if n_perm < 1:
        raise EvalError("n_perm must be at least 1")
    observed = abs(auc(a, y) - auc(b, y))
    n, denom = y.size, 2 * int(y.sum()) * int((y == 0).sum())
    # pooled entry j is a's score of row j % n (j < n) or b's; lo and hi
    # count both scorers' negative entries, so they index counts over those
    order, pos, lo, hi = _tie_counts(np.concatenate([a, b]), np.tile(y, 2))
    neg_j, pos_j = order[~pos], order[pos]
    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, n_perm, _PERM_BLOCK):
        # row i of one (block, n) draw equals the i-th of `block` successive
        # random(n) calls, so the swaps do not depend on the block size
        swap = rng.random((min(_PERM_BLOCK, n_perm - start), n)) < 0.5
        # the permuted a holds b's entry of a row exactly where it is swapped
        below_a = np.zeros((swap.shape[0], neg_j.size + 1), dtype=np.int64)
        np.cumsum(swap[:, neg_j % n] == (neg_j >= n), axis=1,
                  out=below_a[:, 1:])
        u2_a = below_a[:, lo] + below_a[:, hi]
        in_a = swap[:, pos_j % n] == (pos_j >= n)
        auc_a = np.where(in_a, u2_a, 0).sum(axis=1) / denom
        auc_b = np.where(in_a, 0, lo + hi - u2_a).sum(axis=1) / denom
        stat = np.abs(auc_a - auc_b)
        count += int(np.count_nonzero(stat >= observed - 1e-12))
    p = (1 + count) / (n_perm + 1)
    return PermTestResult(observed, n_perm, count, p)


# ---------------------------------------------------------------------------
# cross-validated grid search

def stratified_folds(labels, k, seed):
    """k folds with overall sizes within 1 and per-class counts within 1.

    Classes are dealt base shares first; each class's remainder goes to the
    currently lightest folds so the global sizes stay balanced.
    """
    y = _check_labels(labels)
    if k < 2:
        raise EvalError("k must be at least 2")
    if y.size < k:
        raise EvalError("fewer rows than folds")
    rng = np.random.default_rng(seed)
    loads = np.zeros(k, dtype=np.int64)
    folds = [[] for _ in range(k)]
    for c in np.unique(y):
        members = rng.permutation(np.flatnonzero(y == c))
        counts = np.full(k, members.size // k, dtype=np.int64)
        loads += counts
        extras = members.size - counts.sum()
        for f in np.lexsort((np.arange(k), loads))[:extras]:
            counts[f] += 1
            loads[f] += 1
        pos = 0
        for f in range(k):
            folds[f].append(members[pos:pos + counts[f]])
            pos += counts[f]
    out = [np.sort(np.concatenate(parts)) for parts in folds]
    for f, idx in enumerate(out):
        if np.unique(y[idx]).size < 2:
            raise EvalError(f"fold {f} contains a single class")
    return out


@dataclass
class GridSearchResult:
    best_params: dict
    best_index: int
    table: list = field(default_factory=list)


def kfold_grid_search(trainer, grid, labels, plan, seed=0, threshold=0.5):
    """Pick the grid cell with the best mean validation F1.

    plan holds one (fit rows, validation rows) pair per fold, indices into
    labels.  trainer(params, fold, fit_indices, val_indices, seed) returns
    validation scores; it must fit transformers and the model from fold
    rows only.  Grid cell c of fold f is seeded derive_seed(seed, c + 1, f).
    threshold is the F1 decision cut (margin scorers cut at 0).  Ties keep
    the earliest grid entry.
    """
    if not grid:
        raise EvalError("empty parameter grid")
    y = _check_labels(labels)
    for f, (fit_idx, val_idx) in enumerate(plan):
        if np.intersect1d(fit_idx, val_idx).size:
            raise EvalError(f"fold {f} fits on its own validation rows")

    scores = np.empty((len(grid), len(plan)))
    for c, params in enumerate(grid):
        for f, (fit_idx, val_idx) in enumerate(plan):
            fold_scores = np.asarray(trainer(dict(params), f, fit_idx, val_idx,
                                             derive_seed(seed, c + 1, f)))
            if fold_scores.shape != val_idx.shape:
                raise EvalError("trainer returned a wrong-length score vector")
            scores[c, f] = classification_report(
                fold_scores, y[val_idx], threshold=threshold).f1

    means = scores.mean(axis=1)
    best = int(np.argmax(means))  # argmax keeps the first of tied cells
    table = [{"params": dict(grid[c]), "per_fold": scores[c].tolist(),
              "mean": float(means[c])} for c in range(len(grid))]
    return GridSearchResult(dict(grid[best]), best, table)


def cv_table_tsv(result):
    keys = sorted({k for row in result.table for k in row["params"]})
    n_folds = len(result.table[0]["per_fold"])
    header = keys + [f"fold{f}" for f in range(n_folds)] + ["mean"]
    lines = ["\t".join(header)]
    for row in result.table:
        cells = [repr(row["params"].get(k)) for k in keys]
        cells += [f"{v:.6f}" for v in row["per_fold"]]
        cells.append(f"{row['mean']:.6f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
