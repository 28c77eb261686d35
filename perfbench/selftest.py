"""Self-tests of the benchmark's own logic; every benchmark run calls run_all().

Run alone from the repository root: python3 perfbench/selftest.py
"""

import sys
from pathlib import Path

import numpy as np

import oracles
from spans import Span, layer_metrics, self_times, union_length


def expect(ok, *detail):
    """A check that `python -O` keeps."""
    if not ok:
        raise AssertionError(detail)


def check_auc_oracle_on_ties():
    from icumort.evaluation import auc
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(8, 60))
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        s = rng.integers(0, 4, n).astype(float)  # four values: mostly ties
        expect(oracles.pairwise_auc(s, y) == auc(s, y), s, y)
        pos, neg = s[y == 1], s[y == 0]
        expect(oracles.counted_u2(pos, neg) == oracles._pairwise_u2(pos, neg),
               pos, neg)
    expect(oracles.pairwise_auc([1.0, 1.0, 1.0], [0, 1, 0]) == 0.5)
    expect(oracles.pairwise_auc([0.0, 1.0, 2.0, 2.0], [0, 0, 1, 1]) == 1.0)


def check_perm_test_oracle_tiny():
    # a = [0, 1] ranks perfectly, b = [1, 0] perfectly wrong: observed is 1.
    # A permutation keeps |delta| = 1 when it swaps both instances or
    # neither, and gives 0 when it swaps one, so the count is the number of
    # draws whose two uniforms fall on the same side of 0.5.
    seed, n_perm = 3, 50
    observed, count, p = oracles.perm_test([0.0, 1.0], [1.0, 0.0], [0, 1],
                                           n_perm, seed)
    rng = np.random.default_rng(seed)
    draws = np.array([rng.random(2) < 0.5 for _ in range(n_perm)])
    expected = int((draws[:, 0] == draws[:, 1]).sum())
    expect(observed == 1.0 and count == expected, observed, count, expected)
    expect(p == (1 + expected) / (n_perm + 1))
    # identical models: every permuted statistic ties the observed 0
    expect(oracles.perm_test([0.2, 0.4, 0.4], [0.2, 0.4, 0.4], [0, 1, 0],
                             9, 0) == (0.0, 9, 1.0))


def check_self_time_arithmetic():
    spans = [Span(0, "root", None, 0.0, 10.0),
             Span(1, "a", 0, 1.0, 4.0),
             Span(2, "a.child", 1, 2.0, 3.0),
             Span(3, "b", 0, 5.0, 6.5),
             Span(4, "late", 0, 9.5, 11.0)]  # overruns its parent: clipped
    own = self_times(spans)
    expected = {0: 10.0 - 3.0 - 1.5 - 0.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.5}
    for k, v in expected.items():
        expect(abs(own[k] - v) < 1e-12, k, own[k], v)
    expect(union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0)
    expect(union_length([]) == 0.0)
    # predict_proba calls predict_scores: one metric, counted once; the
    # self time of the grid search excludes both
    nested = [Span(0, "evaluation.kfold_grid_search", None, 0.0, 5.0),
              Span(1, "linmod.predict_proba", 0, 1.0, 3.0),
              Span(2, "linmod.predict_scores", 1, 1.5, 2.5),
              Span(3, "linmod.predict_scores", 0, 4.0, 4.5)]
    m = layer_metrics(nested)
    expect(m["linmod.predict_s"] == 2.5, m["linmod.predict_s"])
    expect(m["evaluation.grid_search_self_s"] == 2.5,
           m["evaluation.grid_search_self_s"])
    expect(m["neural.fit_s"] == 0 and m["linmod.fits"] == 0)


def run_all():
    check_auc_oracle_on_ties()
    check_perm_test_oracle_tiny()
    check_self_time_arithmetic()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    run_all()
    print("perfbench self-tests passed")
