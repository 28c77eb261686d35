"""Independent checks of icumort's outputs: AUC, the permutation test, digests.

Nothing here calls icumort.  The AUC comes from pairwise comparisons
(the Mann-Whitney count) instead of ranks, and score files are parsed here
instead of with the program's reader.
"""

import hashlib
from pathlib import Path

import numpy as np


def read_scores(path):
    """(rows, labels, scores) from a cell's scores.tsv."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "row\tlabel\tscore":
        raise ValueError(f"unexpected header in {path}: {lines[0]!r}")
    rows, labels, scores = [], [], []
    for line in lines[1:]:
        r, l, s = line.split("\t")
        rows.append(int(r))
        labels.append(int(l))
        scores.append(float(s))
    return np.array(rows), np.array(labels), np.array(scores)


def _pairwise_u2(pos, neg):
    """Twice the Mann-Whitney U over the last axis: 2 per win, 1 per tie."""
    diff = pos[..., :, None] - neg[..., None, :]
    return 2 * (diff > 0).sum(axis=(-2, -1)) + (diff == 0).sum(axis=(-2, -1))


def pairwise_auc(scores, labels):
    """P(score_pos > score_neg) + P(tie) / 2 over every positive-negative pair.

    U is a multiple of one half, so U / (n_pos * n_neg) is one correctly
    rounded division and reads bit for bit like any exact rank formula.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes present")
    return (int(_pairwise_u2(pos, neg)) / 2) / (pos.size * neg.size)


def counted_u2(pos, neg):
    """Twice the Mann-Whitney U of two 1-d arrays, by binary search.

    Counts, for each positive, the negatives below it (2 each) and equal to
    it (1 each): the pair count of _pairwise_u2 without the pos x neg array.
    """
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    return 2 * int(below.sum()) + int((upto - below).sum())


def perm_test(scores_a, scores_b, labels, n_perm, seed):
    """(observed, count_ge, p_value) of the paired swap test, from pair counts.

    Each permutation swaps the two models' scores where one uniform draw per
    instance falls below 0.5, drawn as n_perm successive `random(n)` calls on
    `default_rng(seed)`.  A permuted statistic counts when it reaches the
    observed one less 1e-12, and p = (1 + count) / (n_perm + 1).
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = y == 1, y == 0
    denom = int(pos.sum()) * int(neg.sum())
    observed = abs(pairwise_auc(a, y) - pairwise_auc(b, y))
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_perm):
        swap = rng.random(y.size) < 0.5
        pa = np.where(swap, b, a)
        pb = np.where(swap, a, b)
        auc_a = (counted_u2(pa[pos], pa[neg]) / 2) / denom
        auc_b = (counted_u2(pb[pos], pb[neg]) / 2) / denom
        count += bool(abs(auc_a - auc_b) >= observed - 1e-12)
    return observed, count, (1 + count) / (n_perm + 1)


def permtest_stdout(observed, p_value, n_perm):
    """What `icumort permtest` prints for a result, line for line."""
    verdict = ("significant at 0.05" if p_value < 0.05
               else "not significant at 0.05")
    return (f"observed |delta AUC| = {observed:.6f}\n"
            f"p = {p_value:.6f} ({n_perm} permutations, {verdict})\n")


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_digests(out_dir):
    """sha256 of results.json, manifest.json and every scores.tsv, by path."""
    out = Path(out_dir)
    paths = [out / "results.json", out / "manifest.json"]
    paths += sorted(out.glob("cells/**/scores.tsv"))
    return {p.relative_to(out).as_posix(): sha256_file(p) for p in paths}


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests):
    return sha256_text("".join(f"{k}\t{v}\n" for k, v in sorted(digests.items())))


def bytes_under(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
