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
    return _rank_auc(s, y)


def _rank_auc(s, y):
    """AUC of each score vector along the last axis of s, by average ranks.

    y holds validated 0/1 labels with both classes present.  Average ranks
    are multiples of one half, so the rank sums are exact in any order.
    """
    n = s.shape[-1]
    n_pos = int(y.sum())
    n_neg = n - n_pos
    order = np.argsort(s, axis=-1, kind="stable")
    sorted_s = np.take_along_axis(s, order, axis=-1)
    pos = np.arange(n)
    starts = np.ones(s.shape, dtype=bool)  # first position of a tie group
    starts[..., 1:] = sorted_s[..., 1:] != sorted_s[..., :-1]
    ends = np.ones(s.shape, dtype=bool)  # last position of a tie group
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(
        np.where(ends, pos, n - 1)[..., ::-1], axis=-1)[..., ::-1]
    ranks = 0.5 * (first + last) + 1.0  # average rank, 1-based, sorted order
    rank_sum = (ranks * y[order]).sum(axis=-1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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


# Permutations ranked per batch: two (block, n) float arrays of about 0.3 MB
# each at n = 600, so the batch stays small whatever n_perm is.
_PERM_BLOCK = 64


def perm_test_auc(scores_a, scores_b, labels, n_perm=1000, seed=0):
    """Paired test of |AUC(a) - AUC(b)| by per-instance score swapping.

    Permutations are drawn and ranked in blocks of _PERM_BLOCK; the swap
    draws, counts and p-value equal those of one permutation at a time.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    y = _check_labels(labels)
    if a.shape != y.shape or b.shape != y.shape:
        raise EvalError("paired score vectors must match the label length")
    if n_perm < 1:
        raise EvalError("n_perm must be at least 1")
    observed = abs(auc(a, y) - auc(b, y))
    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, n_perm, _PERM_BLOCK):
        # row i of one (block, n) draw equals the i-th of `block` successive
        # random(n) calls, so the swaps do not depend on the block size
        swap = rng.random((min(_PERM_BLOCK, n_perm - start), y.size)) < 0.5
        pa = np.where(swap, b, a)
        pb = np.where(swap, a, b)
        stat = np.abs(_rank_auc(pa, y) - _rank_auc(pb, y))
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
