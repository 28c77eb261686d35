"""Spans around icumort's public functions, and the layer metrics built from them.

The benchmark installs a wrapper around each public function listed in
TARGETS.  A wrapper records one span (name, start, end, parent) per call and,
for some functions, counts read from the arguments or the return value.  The
wrappers pass arguments and results through untouched, so a traced run writes
the same files as an untraced one; the benchmark checks that by digest.
"""

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np


def _rows_encoded(args, result):
    return {"rows": len(args["cohort"])}


def _missing_cells(args, result):
    return {"missing": int(np.isnan(args["matrix"]).sum())}


def _nnz(args, result):
    return {"nnz": int(result.nnz)}


def _solver(args, result):
    diag = result.diagnostics
    return {"iterations": int(diag["iterations"]),
            "unconverged": int(not diag["converged"])}


def _tree_nodes(args, result):
    return {"nodes": sum(int(t.n_nodes) for t in result.trees)}


def _epochs(args, result):
    _, log = result
    return {"epochs": len(log),
            "early_stops": int(any(e.get("stopped_early") for e in log))}


def _permutations(args, result):
    return {"permutations": int(result.n_perm)}


# (module, function or Class.method, span name, counter)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cohort", "load_cohort", "cohort.load_cohort", None),
    ("cohort", "filter_outliers", "cohort.filter_outliers", None),
    ("cohort", "Cohort.subset", "cohort.subset", None),
    ("cohort", "Cohort.with_continuous", "cohort.with_continuous", None),
    ("cohort", "Cohort.continuous_matrix", "cohort.continuous_matrix", None),
    ("cohort", "fit_encoder", "cohort.fit_encoder", None),
    ("cohort", "encode", "cohort.encode", _rows_encoded),
    ("impute", "impute_fit_transform", "impute.impute_fit_transform",
     _missing_cells),
    ("impute", "apply_imputation", "impute.apply_imputation", _missing_cells),
    ("textfeat", "tokenize_corpus", "textfeat.tokenize_corpus", None),
    ("textfeat", "build_vocab", "textfeat.build_vocab", None),
    ("textfeat", "tfidf_fit", "textfeat.tfidf_fit", None),
    ("textfeat", "transform_corpus", "textfeat.transform_corpus", _nnz),
    ("textfeat", "fuse_matrix", "textfeat.fuse_matrix", None),
    ("linmod", "train_logreg", "linmod.train_logreg", _solver),
    ("linmod", "train_linear_svm", "linmod.train_linear_svm", _solver),
    ("linmod", "predict_scores", "linmod.predict_scores", None),
    ("linmod", "predict_proba", "linmod.predict_proba", None),
    ("trees", "train_random_forest", "trees.train_random_forest", _tree_nodes),
    ("trees", "train_gbt", "trees.train_gbt", _tree_nodes),
    ("trees", "predict_proba_trees", "trees.predict_proba_trees", None),
    ("neural", "train_cnn_fusion", "neural.train_cnn_fusion", _epochs),
    ("neural", "train_mlp", "neural.train_mlp", _epochs),
    ("neural", "predict_proba_net", "neural.predict_proba_net", None),
    ("neural", "embedding_matrix_for_vocab", "neural.embedding_matrix_for_vocab",
     None),
    ("neural", "tokens_to_ids", "neural.tokens_to_ids", None),
    ("neural", "pad_sequences", "neural.pad_sequences", None),
    ("evaluation", "kfold_grid_search", "evaluation.kfold_grid_search", None),
    ("evaluation", "auc", "evaluation.auc", None),
    ("evaluation", "perm_test_auc", "evaluation.perm_test_auc", _permutations),
    ("experiment", "run_experiment", "experiment.run_experiment", None),
    ("experiment", "run_permtest", "experiment.run_permtest", None),
    ("experiment", "load_cell_scores", "experiment.load_cell_scores", None),
)

# Inclusive time: the union of the metric's spans, so a span nested inside
# another span of the same metric is counted once.
INCLUSIVE = {
    "cohort.load_s": ("cohort.load_cohort",),
    "cohort.filter_s": ("cohort.filter_outliers",),
    "cohort.subset_s": ("cohort.subset", "cohort.with_continuous",
                        "cohort.continuous_matrix"),
    "cohort.encode_s": ("cohort.fit_encoder", "cohort.encode"),
    "impute.fit_s": ("impute.impute_fit_transform",),
    "impute.apply_s": ("impute.apply_imputation",),
    "textfeat.tokenize_s": ("textfeat.tokenize_corpus",),
    "textfeat.vocab_s": ("textfeat.build_vocab", "textfeat.tfidf_fit"),
    "textfeat.transform_s": ("textfeat.transform_corpus",),
    "textfeat.fuse_s": ("textfeat.fuse_matrix",),
    "linmod.logreg_fit_s": ("linmod.train_logreg",),
    "linmod.svm_fit_s": ("linmod.train_linear_svm",),
    "linmod.predict_s": ("linmod.predict_scores", "linmod.predict_proba"),
    "trees.rf_fit_s": ("trees.train_random_forest",),
    "trees.gbt_fit_s": ("trees.train_gbt",),
    "trees.predict_s": ("trees.predict_proba_trees",),
    "neural.fit_s": ("neural.train_cnn_fusion", "neural.train_mlp"),
    "neural.predict_s": ("neural.predict_proba_net",),
    "neural.prep_s": ("neural.embedding_matrix_for_vocab",
                      "neural.tokens_to_ids", "neural.pad_sequences"),
    "evaluation.permtest_s": ("evaluation.perm_test_auc",),
    "evaluation.auc_s": ("evaluation.auc",),
    "experiment.load_scores_s": ("experiment.load_cell_scores",),
}

# Self time: the span minus the part of it that traced children cover.
SELF = {
    "cli.self_s": ("cli.main",),
    "evaluation.grid_search_self_s": ("evaluation.kfold_grid_search",),
    "experiment.self_s": ("experiment.run_experiment",
                          "experiment.run_permtest"),
}

# metric: (span names, count key); a key of None counts the spans
COUNTS = {
    "cohort.rows_encoded": (("cohort.encode",), "rows"),
    "impute.fit_calls": (("impute.impute_fit_transform",), None),
    "impute.values_imputed": (("impute.impute_fit_transform",
                               "impute.apply_imputation"), "missing"),
    "textfeat.nnz": (("textfeat.transform_corpus",), "nnz"),
    "linmod.fits": (("linmod.train_logreg", "linmod.train_linear_svm"), None),
    "linmod.iterations": (("linmod.train_logreg", "linmod.train_linear_svm"),
                          "iterations"),
    "linmod.unconverged_fits": (("linmod.train_logreg",
                                 "linmod.train_linear_svm"), "unconverged"),
    "trees.nodes": (("trees.train_random_forest", "trees.train_gbt"), "nodes"),
    "neural.epochs": (("neural.train_cnn_fusion", "neural.train_mlp"),
                      "epochs"),
    "neural.early_stops": (("neural.train_cnn_fusion", "neural.train_mlp"),
                           "early_stops"),
    "evaluation.permutations": (("evaluation.perm_test_auc",), "permutations"),
    "evaluation.auc_calls": (("evaluation.auc",), None),
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts")

    def __init__(self, id, name, parent, start, end):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = {}


class Tracer:
    """Records spans in memory; install() wraps TARGETS, uninstall() undoes it.

    One thread calls the program, so a stack of open spans gives each span its
    parent.  Results of functions named in `capture` are kept for checks.
    """

    def __init__(self, capture=()):
        self.spans = []
        self.captured = defaultdict(list)
        self._capture = set(capture)
        self._stack = []
        self._patches = []
        self._ids = itertools.count()  # unique across reset()

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(self._ids), name,
                        self._stack[-1] if self._stack else None, 0.0, None)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.counts = counter(bound, result)
            if name in self._capture:
                self.captured[name].append(result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "icumort" or n.startswith("icumort.")]
        for mod_name, attr, name, counter in TARGETS:
            owner = sys.modules[f"icumort.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counter)
            # `from .x import f` copies the reference: patch every holder
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def reset(self):
        """Start a new span list; captured results are kept."""
        self.spans = []


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered
    return out


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    by_id = {s.id: s for s in spans}
    chosen = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name not in names:
            parent = by_id[parent].parent
        if parent is None:
            chosen.append(s)
    return chosen


def layer_metrics(spans):
    """Every INCLUSIVE, SELF and COUNTS metric over one set of spans.

    A metric whose functions were never called reads 0.
    """
    out = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = float(sum(s.end - s.start
                                for s in _outermost(spans, set(names))))
    own = self_times(spans)
    for metric, names in SELF.items():
        out[metric] = float(sum(own[s.id] for s in spans if s.name in names))
    for metric, (names, key) in COUNTS.items():
        chosen = [s for s in spans if s.name in names]
        out[metric] = (len(chosen) if key is None
                       else sum(s.counts[key] for s in chosen))
    return out


def module_self_times(spans):
    """Module -> summed self time of its spans; the parts add up to the roots."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += own[s.id]
    return dict(out)
