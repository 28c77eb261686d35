"""Config-driven experiment runner: featurize per fold, grid-search, evaluate.

A run covers the cross product of outcomes, feature sets, sampling modes,
and algorithms.  Every cell of one outcome shares one fold plan -- its
train/test split, folds and model-fit rows -- so score files stay paired for
the permutation test.
"""

import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, linmod, neural, trees
from .cohort import (
    StructuredEncoder,
    SynthConfig,
    filter_outliers,
    is_number,
    load_cohort,
    load_ranges,
    synth_cohort,
)
from .evaluation import (
    SplitSpec,
    classification_report,
    cv_table_tsv,
    derive_seed,
    kfold_grid_search,
    perm_test_auc,
    stratified_folds,
    stratified_split,
    undersample,
)
from .impute import apply_imputation, impute_fit_transform
from .textfeat import (
    build_vocab,
    default_stopwords,
    fuse_matrix,
    load_stopwords,
    tfidf_fit,
    tokenize_corpus,
    transform_corpus,
)


class ConfigError(ValueError):
    pass


OUTCOMES = ("hospital", "30day")
FEATURE_SETS = ("structured", "notes", "combined")
SAMPLING_MODES = ("none", "1:4")
ALGORITHMS = ("l1-lr", "l2-lr", "rf", "l1-svm", "l2-svm", "gbt", "mlp", "cnn")

DEFAULT_GRIDS = {
    "l1-lr": {"C": [0.01, 0.1, 1.0]},
    "l2-lr": {"C": [0.01, 0.1, 1.0]},
    "l1-svm": {"C": [0.01, 0.1, 1.0]},
    "l2-svm": {"C": [0.01, 0.1, 1.0]},
    "rf": {"n_trees": [100], "max_depth": [10]},
    "gbt": {"rounds": [100], "max_depth": [3], "learning_rate": [0.1]},
    "mlp": {"hidden": [100], "learning_rate": [0.0005]},
    "cnn": {"filters": [64], "learning_rate": [0.0005]},
}

_GRID_KEYS = {
    "l1-lr": {"C", "tol", "max_iter"},
    "l2-lr": {"C", "tol", "max_iter"},
    "l1-svm": {"C", "tol", "max_epochs"},
    "l2-svm": {"C", "tol", "max_epochs"},
    "rf": {f.name for f in fields(trees.ForestParams)},
    "gbt": {f.name for f in fields(trees.GbtParams)},
    "mlp": {f.name for f in fields(neural.MlpParams)},
    "cnn": {f.name for f in fields(neural.CnnParams)},
}
_NEURAL_KEYS = _GRID_KEYS["mlp"] | _GRID_KEYS["cnn"]
_INTEGER_PARAMS = {"n_trees", "max_depth", "rounds", "hidden", "filters",
                   "embed_dim", "max_len", "batch_size", "max_epochs",
                   "max_iter"}


def _check_param(key, value, where):
    """Refuse a grid candidate or neural setting of the wrong type."""
    if key == "patience":
        ok, kind = value is None or is_number(value, True), "an integer or null"
    elif key == "widths":
        ok = (isinstance(value, (list, tuple)) and len(value) > 0
              and all(is_number(w, integral=True) for w in value))
        kind = "a non-empty list of integers"
    else:
        integral = key in _INTEGER_PARAMS
        ok = is_number(value, integral)
        kind = "an integer" if integral else "a number"
    if not ok:
        raise ConfigError(f"{where} {key} must be {kind}, not {value!r}")


def _check_cell(algo, params, config):
    """Run the family's own range checks on one grid cell's settings."""
    if algo == "rf":
        trees.ForestParams(**params).validate()
    elif algo == "gbt":
        trees.GbtParams(**params).validate()
    elif algo in ("mlp", "cnn"):
        _neural_params(neural.MlpParams if algo == "mlp"
                       else neural.CnnParams, config, params).validate()
    elif not params["C"] > 0:
        raise linmod.LinModError("C must be positive")


def _as_tuple(value, kind):
    items = [value] if isinstance(value, str) else value
    if not (isinstance(items, (list, tuple))
            and all(isinstance(item, str) for item in items)):
        raise ConfigError(f"{kind} must be a string or a list of strings")
    if not items:
        raise ConfigError(f"{kind} list is empty")
    if len(set(items)) != len(items):
        raise ConfigError(f"duplicate entries in {kind}")
    return tuple(items)


@dataclass
class ExperimentConfig:
    cohort_path: str = None
    synth: SynthConfig = None
    outcomes: tuple = ("hospital",)
    feature_sets: tuple = ("structured",)
    sampling: tuple = ("none",)
    algorithms: tuple = ("l2-lr",)
    grids: dict = field(default_factory=dict)
    seed: int = 0
    folds: int = 5
    min_df: int = 10
    neural: dict = field(default_factory=dict)

    def validate(self):
        if (self.cohort_path is None) == (self.synth is None):
            raise ConfigError(
                "exactly one cohort source required: a path or a synth block")
        if self.cohort_path is not None and not (
                isinstance(self.cohort_path, str) and self.cohort_path):
            raise ConfigError("cohort path must be a non-empty string")
        if not (isinstance(self.grids, dict)
                and all(isinstance(g, dict) for g in self.grids.values())):
            raise ConfigError("grids must map algorithms to objects")
        if not isinstance(self.neural, dict):
            raise ConfigError("neural must be an object")
        for value, known, kind in (
                (self.outcomes, OUTCOMES, "outcome"),
                (self.feature_sets, FEATURE_SETS, "feature set"),
                (self.sampling, SAMPLING_MODES, "sampling mode"),
                (self.algorithms, ALGORITHMS, "algorithm")):
            for item in value:
                if item not in known:
                    raise ConfigError(f"unknown {kind} {item!r}")
        if "mlp" in self.algorithms and "cnn" in self.algorithms:
            raise ConfigError("mlp and cnn are mutually exclusive")
        if "cnn" in self.algorithms and not (
                set(self.feature_sets) & {"notes", "combined"}):
            raise ConfigError("cnn needs a feature set that includes notes")
        if not (is_number(self.seed, integral=True) and self.seed >= 0):
            raise ConfigError("seed must be an integer >= 0")
        if not (is_number(self.folds, integral=True) and self.folds >= 2):
            raise ConfigError("folds must be an integer of at least 2")
        if not (is_number(self.min_df, integral=True) and self.min_df >= 1):
            raise ConfigError("min_df must be an integer >= 1")
        for algo, grid in self.grids.items():
            if algo not in ALGORITHMS:
                raise ConfigError(f"grid given for unknown algorithm {algo!r}")
            bad = set(grid) - _GRID_KEYS[algo]
            if bad:
                raise ConfigError(
                    f"unknown grid parameters for {algo}: {sorted(bad)}")
            for key, values in grid.items():
                for value in values if isinstance(values, list) else [values]:
                    _check_param(key, value, f"grid value for {algo}")
        bad = set(self.neural) - _NEURAL_KEYS
        if bad:
            raise ConfigError(f"unknown neural settings: {sorted(bad)}")
        for key, value in self.neural.items():
            _check_param(key, value, "neural setting")
        for algo in self.algorithms:
            for params in self.grid_cells(algo):
                try:
                    _check_cell(algo, params, self)
                except (trees.TreeError, neural.NetError,
                        linmod.LinModError) as exc:
                    raise ConfigError(f"grid cell {params} of {algo}: {exc}")
        return self

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        obj = dict(obj)
        known = ({f.name for f in fields(cls)} - {"cohort_path", "synth"}
                 | {"cohort"})
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        source = obj.pop("cohort", None)
        if source is not None:
            if not isinstance(source, dict) or set(source) - {"path", "synth"}:
                raise ConfigError(
                    'cohort block must be {"path": ...} or {"synth": {...}}')
            if "path" in source:
                kwargs["cohort_path"] = source["path"]
            if "synth" in source:
                kwargs["synth"] = SynthConfig.from_obj(source["synth"])
        for key in ("outcomes", "feature_sets", "sampling", "algorithms"):
            if key in obj:
                kwargs[key] = _as_tuple(obj.pop(key), key)
        kwargs.update(obj)
        return cls(**kwargs).validate()

    def to_obj(self):
        """Fully materialized form: every default echoed, grids resolved."""
        return {
            "cohort": ({"path": self.cohort_path} if self.cohort_path
                       else {"synth": self.synth.to_obj()}),
            "outcomes": list(self.outcomes),
            "feature_sets": list(self.feature_sets),
            "sampling": list(self.sampling),
            "algorithms": list(self.algorithms),
            "grids": {a: {k: list(v) for k, v in self.grid_for(a).items()}
                      for a in self.algorithms},
            "seed": self.seed,
            "folds": self.folds,
            "min_df": self.min_df,
            "neural": dict(self.neural),
        }

    def grid_for(self, algo):
        merged = dict(DEFAULT_GRIDS[algo])
        merged.update(self.grids.get(algo, {}))
        return {k: (v if isinstance(v, list) else [v])
                for k, v in merged.items()}

    def grid_cells(self, algo):
        grid = self.grid_for(algo)
        keys = list(grid)
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(grid[k] for k in keys))]


def load_run(path):
    """(config, inputs) read from an experiment config or a run's manifest.

    inputs holds the stopwords_path, ranges_path and embeddings_path keyword
    arguments of run_experiment that a manifest recorded, so a replay reads
    the files the recorded run read; a plain config records none.
    """
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if isinstance(obj, dict) and "config" in obj and "cells" in obj:
        inputs = obj.get("inputs", {})
        return (ExperimentConfig.from_obj(obj["config"]),
                {f"{name}_path": inputs.get(name)
                 for name in ("stopwords", "ranges", "embeddings")})
    return ExperimentConfig.from_obj(obj), {}


def algo_allowed(algo, feature_set):
    # text CNNs have no input on a purely structured feature set
    return not (algo == "cnn" and feature_set == "structured")


def sampling_dirname(sampling):
    return sampling.replace(":", "to")


def cell_id(feature_set, outcome, sampling, algo):
    return f"{feature_set}/{outcome}/{sampling}/{algo}"


def cell_dir(out_dir, feature_set, outcome, sampling, algo):
    return (Path(out_dir) / "cells" / feature_set / outcome /
            sampling_dirname(sampling) / algo)


# ---------------------------------------------------------------------------
# the fold plan and per-fold featurization

@dataclass(frozen=True)
class FoldPlan:
    """Every row set one outcome's fits see, decided once from its labels.

    For fold f < k, `val[f]` holds its validation rows and `fit[f]` the
    other training rows, on which its transformers are fitted; `fit[k]` is
    the whole training split, for the refit.  `model[sampling][f]` holds the
    rows a model fits on: `fit[f]` itself under "none", undersampled under
    "1:4".  Rows index the full cohort.
    """
    seed: int
    split: SplitSpec
    val: list
    fit: list
    model: dict

    def grid(self, sampling):
        """(model-fit rows, validation rows) per fold, for the grid search;
        zip drops the refit entry, which has no validation rows."""
        return list(zip(self.model[sampling], self.val))


def fold_plan(labels, config, seed):
    """The fold plan of one outcome; fits nothing.

    "1:4" undersamples fold f with derive_seed(seed, 0, f) and the refit
    with derive_seed(seed, 2), so every algorithm and feature set of the
    outcome fits on the same rows.
    """
    split = stratified_split(labels, seed=seed)
    train = split.train_indices
    folds = stratified_folds(labels[train], config.folds, seed)
    fit = [np.delete(train, pos) for pos in folds] + [train]
    seeds = [derive_seed(seed, 0, f) for f in range(len(folds))]
    seeds.append(derive_seed(seed, 2))
    model = {}
    for sampling in config.sampling:
        model[sampling] = fit if sampling == "none" else [
            rows[undersample(labels[rows], seed=s)]
            for rows, s in zip(fit, seeds)]
    return FoldPlan(seed, split, [train[pos] for pos in folds], fit, model)


class _Fold:
    """One fold's transformers, fitted once on its fit rows and shared by
    every feature set.

    The chained-equation imputer and standardizing encoder are fitted when
    `cohort` is given, the vocabulary and tf-idf when `tokens` (its
    tokenized notes) are.  The structured, text and fused
    blocks are memoized per requested row set; a feature set only picks
    which block, or the fused pair, to return.
    """

    def __init__(self, fit_rows, seed, cohort, tokens, min_df):
        self.fit_rows = np.asarray(fit_rows)
        self.cohort = cohort
        self.tokens = tokens
        self._memo = {}
        if cohort is not None:
            self._fit_imputed, self.imp_model = impute_fit_transform(
                cohort.continuous_matrix(self.fit_rows), seed=seed)
            self.encoder = StructuredEncoder.fit(cohort.schema,
                                                 self._fit_imputed)
        if tokens is not None:
            self.vocab = build_vocab([tokens[i] for i in self.fit_rows],
                                     min_df=min_df)
            self.tfidf = tfidf_fit(self.vocab)

    def _memoized(self, kind, rows, make):
        key = (kind, rows.tobytes())
        if key not in self._memo:
            self._memo[key] = make(rows)
        return self._memo[key]

    def _structured(self, rows):
        if np.array_equal(rows, self.fit_rows):
            imputed = self._fit_imputed
        else:
            imputed = apply_imputation(self.imp_model,
                                       self.cohort.continuous_matrix(rows))
        return self.cohort.encode(self.encoder, rows, imputed)

    def structured(self, rows):
        return self._memoized("structured", rows, self._structured)

    def text(self, rows):
        return self._memoized("text", rows, lambda r: transform_corpus(
            self.tfidf, [self.tokens[i] for i in r]))

    def matrix(self, feature_set, rows):
        """Design matrix for the linear/tree/MLP families."""
        rows = np.asarray(rows)
        if feature_set == "structured":
            return self.structured(rows)
        if feature_set == "notes":
            return self.text(rows)
        return self._memoized("combined", rows, lambda r: fuse_matrix(
            self.structured(r), self.text(r)))

    def cnn_inputs(self, feature_set, rows, max_len):
        """(padded token ids, structured block) for the fusion CNN."""
        rows = np.asarray(rows)
        padded = self._memoized(("ids", max_len), rows, lambda r: (
            neural.pad_sequences(neural.tokens_to_ids(
                [self.tokens[i] for i in r], self.vocab), max_len)))
        if feature_set == "combined":
            return padded, self.structured(rows)
        return padded, np.zeros((rows.size, 0))

    def feature_names(self, feature_set):
        """The feature set's column names, structured block first."""
        names = (() if feature_set == "notes"
                 else self.cohort.schema.column_names)
        if feature_set != "structured":
            names += self.vocab.tokens
        return list(names)


# ---------------------------------------------------------------------------
# model family adapters

def _neural_params(cls, config, params):
    base = asdict(cls())
    allowed = set(base)
    for k, v in config.neural.items():
        if k in allowed:
            base[k] = v
    base.update(params)
    if cls is neural.CnnParams and isinstance(base.get("widths"), list):
        base["widths"] = tuple(base["widths"])
    return cls(**base)


def _fit_model(algo, params, fold, feature_set, fit_rows, y_fit, seed,
               config, pretrained):
    """Returns (model, score_fn); score_fn maps rows to the model's scores."""
    if algo == "cnn":
        hp = _neural_params(neural.CnnParams, config, params)
        ids, S = fold.cnn_inputs(feature_set, fit_rows, hp.max_len)
        embed = neural.embedding_matrix_for_vocab(
            fold.vocab.tokens, hp.embed_dim, seed=seed,
            pretrained=pretrained)
        model, _ = neural.train_cnn_fusion(
            ids, S, y_fit, hp, seed=seed, vocab_size=embed.shape[0],
            embed_init=embed)
        return model, lambda r: neural.predict_proba_net(
            model, fold.cnn_inputs(feature_set, r, hp.max_len))
    if algo in ("l1-lr", "l2-lr", "l1-svm", "l2-svm", "rf"):
        weights = linmod.balanced_weights(y_fit)
    X = fold.matrix(feature_set, fit_rows)
    if algo in ("l1-lr", "l2-lr"):
        reg = linmod.L1 if algo == "l1-lr" else linmod.L2
        model = linmod.train_logreg(X, y_fit, reg=reg,
                                    instance_weights=weights, **params)
        predict = linmod.predict_proba
    elif algo in ("l1-svm", "l2-svm"):
        reg = linmod.L1 if algo == "l1-svm" else linmod.L2
        model = linmod.train_linear_svm(X, y_fit, reg=reg,
                                        instance_weights=weights, **params)
        predict = linmod.predict_scores
    elif algo == "rf":
        model = trees.train_random_forest(X, y_fit,
                                          trees.ForestParams(**params),
                                          instance_weights=weights, seed=seed)
        predict = trees.predict_proba_trees
    elif algo == "gbt":
        model = trees.train_gbt(X, y_fit, trees.GbtParams(**params))
        predict = trees.predict_proba_trees
    elif algo == "mlp":
        hp = _neural_params(neural.MlpParams, config, params)
        model, _ = neural.train_mlp(X, y_fit, hp, seed=seed)
        predict = neural.predict_proba_net
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    return model, lambda r: predict(model, fold.matrix(feature_set, r))


def _save_model(algo, model, fold, feature_set, path_base):
    if algo in ("mlp", "cnn"):
        neural.save_checkpoint(model, path_base.with_suffix(".ckpt"))
        return
    if algo in ("rf", "gbt"):
        payload = {"kind": "trees", "algorithm": algo,
                   "model": model.to_obj()}
    else:
        payload = {"kind": "linear", "algorithm": algo,
                   "model": model.to_obj(),
                   "n_structured": (0 if feature_set == "notes"
                                    else fold.cohort.schema.width),
                   "feature_names": fold.feature_names(feature_set)}
    path_base.with_suffix(".json").write_text(
        json.dumps(payload, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# the runner

class _OutcomeContext:
    """One outcome's labels, fold plan, and one _Fold per entry of the
    plan's `fit` (the folds, then the full training split).

    `tokens` are the cohort's tokenized notes (None when no feature set has
    notes); the folds get the cohort itself only when a feature set has a
    structured block.
    """

    def __init__(self, cohort, tokens, config, outcome, outcome_index):
        self.outcome = outcome
        self.labels = cohort.labels(outcome)
        self.plan = fold_plan(self.labels, config,
                              derive_seed(config.seed, outcome_index))
        structured = (cohort if set(config.feature_sets)
                      & {"structured", "combined"} else None)
        self.folds = [_Fold(rows, derive_seed(self.plan.seed, 1, f),
                            structured, tokens, config.min_df)
                      for f, rows in enumerate(self.plan.fit)]


def _run_cell(ctx, feature_set, sampling, algo, config, out_dir, pretrained):
    y, plan = ctx.labels, ctx.plan
    test_idx = plan.split.test_indices
    # probability scorers cut at 0.5, margin scorers at 0
    threshold = 0.0 if algo in ("l1-svm", "l2-svm") else 0.5
    converged = []  # one flag per linear fit, CV folds and refit

    def fit(params, fold, rows, seed):
        model, score_fn = _fit_model(algo, params, fold, feature_set, rows,
                                     y[rows], seed, config, pretrained)
        if isinstance(model, linmod.LinearModel):
            converged.append(model.diagnostics["converged"])
        return model, score_fn

    def trainer(params, f, fit_rows, val_rows, seed):
        _, score_fn = fit(params, ctx.folds[f], fit_rows, seed)
        return score_fn(val_rows)

    search = kfold_grid_search(trainer, config.grid_cells(algo), y,
                               plan.grid(sampling), seed=plan.seed,
                               threshold=threshold)

    refit = ctx.folds[-1]
    model, score_fn = fit(search.best_params, refit,
                          plan.model[sampling][-1],
                          derive_seed(plan.seed, 3, search.best_index))
    test_scores = np.asarray(score_fn(test_idx), dtype=float)
    report = classification_report(test_scores, y[test_idx],
                                   threshold=threshold)

    cdir = cell_dir(out_dir, feature_set, ctx.outcome, sampling, algo)
    cdir.mkdir(parents=True, exist_ok=True)
    (cdir / "cv.tsv").write_text(cv_table_tsv(search), encoding="utf-8")
    lines = ["row\tlabel\tscore"]
    for i, row in enumerate(test_idx):
        # Python float repr round-trips the exact value
        lines.append(f"{int(row)}\t{int(y[row])}\t{float(test_scores[i])!r}")
    (cdir / "scores.tsv").write_text("\n".join(lines) + "\n",
                                     encoding="utf-8")
    (cdir / "report.json").write_text(json.dumps({
        "cell": cell_id(feature_set, ctx.outcome, sampling, algo),
        "best_params": search.best_params,
        "report": report.to_obj(),
    }, sort_keys=True), encoding="utf-8")
    _save_model(algo, model, refit, feature_set, cdir / "model")

    return {
        "feature_set": feature_set, "outcome": ctx.outcome,
        "sampling": sampling, "algorithm": algo,
        "auc": report.auc, "precision": report.precision,
        "recall": report.recall, "f1": report.f1,
        "threshold": threshold, "best_params": search.best_params,
        "unconverged_fits": converged.count(False), "error": None,
    }


def _results_tsv(rows):
    lines = ["outcome\tsampling\talgorithm\tauc\tprecision\trecall\tf1"
             "\tbest_f"]
    best = {}
    for row in rows:
        if row["error"] is None:
            key = (row["outcome"], row["sampling"])
            if key not in best or row["f1"] > best[key][1]:
                best[key] = (row["algorithm"], row["f1"])
    for row in rows:
        if row["error"] is not None:
            cells = [row["outcome"], row["sampling"], row["algorithm"],
                     "NA", "NA", "NA", "NA", ""]
        else:
            flag = ("*" if best[(row["outcome"], row["sampling"])][0]
                    == row["algorithm"] else "")
            cells = [row["outcome"], row["sampling"], row["algorithm"],
                     f"{row['auc']:.4f}", f"{row['precision']:.4f}",
                     f"{row['recall']:.4f}", f"{row['f1']:.4f}", flag]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def run_experiment(config, out_dir, stopwords_path=None, ranges_path=None,
                   embeddings_path=None):
    """Execute every cell of an ExperimentConfig; returns the result rows.

    Writes per-feature-set results TSVs, per-cell artifacts, and a manifest
    that pins seeds and resolved settings so a rerun is byte-identical.
    """
    config.validate()
    if config.cohort_path is not None:
        cohort = load_cohort(config.cohort_path)
    else:
        cohort = synth_cohort(config.synth, seed=config.seed)
    cohort, outlier_report = filter_outliers(cohort, load_ranges(ranges_path))
    stopwords = (load_stopwords(stopwords_path) if stopwords_path
                 else default_stopwords())
    needs_text = bool(set(config.feature_sets) & {"notes", "combined"})
    tokens = (tokenize_corpus(cohort.notes, stopwords) if needs_text
              else None)
    pretrained = (neural.load_embedding_file(embeddings_path)
                  if embeddings_path else None)

    contexts = {outcome: _OutcomeContext(cohort, tokens, config, outcome, oi)
                for oi, outcome in enumerate(config.outcomes)}
    # every input is loaded and checked before anything is written
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = [(fs, outcome, sampling, algo)
             for fs in config.feature_sets
             for outcome in config.outcomes
             for sampling in config.sampling
             for algo in config.algorithms
             if algo_allowed(algo, fs)]

    rows = []
    for fs, outcome, sampling, algo in cells:
        try:
            row = _run_cell(contexts[outcome], fs, sampling, algo, config,
                            out, pretrained)
        except Exception as exc:  # record and continue with other cells
            row = {"feature_set": fs, "outcome": outcome,
                   "sampling": sampling, "algorithm": algo,
                   "auc": None, "precision": None, "recall": None,
                   "f1": None, "threshold": None, "best_params": None,
                   "unconverged_fits": None,
                   "error": f"{type(exc).__name__}: {exc}"}
        rows.append(row)

    for fs in config.feature_sets:
        fs_rows = [r for r in rows if r["feature_set"] == fs]
        (out / f"results-{fs}.tsv").write_text(_results_tsv(fs_rows),
                                               encoding="utf-8")
    (out / "results.json").write_text(
        json.dumps(rows, sort_keys=True, indent=2), encoding="utf-8")

    manifest = {
        "config": config.to_obj(),
        "inputs": {"stopwords": stopwords_path, "ranges": ranges_path,
                   "embeddings": embeddings_path},
        "versions": {"package": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "outliers_nulled": outlier_report,
        "splits": {outcome: {
            "seed": contexts[outcome].plan.seed,
            "train": contexts[outcome].plan.split.train_indices.tolist(),
            "test": contexts[outcome].plan.split.test_indices.tolist(),
        } for outcome in config.outcomes},
        "cells": {cell_id(*c): {"status": ("failed" if r["error"] else "ok"),
                                "error": r["error"],
                                "best_params": r["best_params"]}
                  for c, r in zip(cells, rows)},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")
    return rows


def load_cell_scores(out_dir, cell):
    parts = cell.split("/")
    if len(parts) != 4:
        raise ConfigError(
            f"cell id {cell!r} is not feature_set/outcome/sampling/algorithm")
    path = cell_dir(out_dir, *parts) / "scores.tsv"
    if not path.exists():
        raise ConfigError(f"no stored scores for cell {cell!r} at {path}")
    rows, labels, scores = [], [], []
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            r, l, s = line.rstrip("\n").split("\t")
            rows.append(int(r))
            labels.append(int(l))
            scores.append(float(s))
    return np.asarray(rows), np.asarray(labels), np.asarray(scores)


def run_permtest(out_dir, cell_a, cell_b, n_perm=1000, seed=0):
    """Paired AUC permutation test between two stored cells."""
    rows_a, y_a, s_a = load_cell_scores(out_dir, cell_a)
    rows_b, y_b, s_b = load_cell_scores(out_dir, cell_b)
    if not (np.array_equal(rows_a, rows_b) and np.array_equal(y_a, y_b)):
        raise ConfigError(
            "cells were evaluated on different test splits; "
            "the paired test requires identical test rows")
    return perm_test_auc(s_a, s_b, y_a, n_perm=n_perm, seed=seed)
