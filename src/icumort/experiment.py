"""Config-driven experiment runner: featurize per fold, grid-search, evaluate.

A run covers the cross product of outcomes, feature sets, sampling modes,
and algorithms.  Every cell of one outcome shares a single train/test split,
and the fold layout is shared across cells so score files stay paired for
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
    CohortArrays,
    PlausibleRangeTable,
    StructuredEncoder,
    SynthConfig,
    filter_outliers,
    load_cohort,
    synth_cohort,
)
from .evaluation import (
    classification_report,
    cv_table_tsv,
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
    preprocess_note,
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
    "rf": {"n_trees", "max_depth", "min_node_weight", "bootstrap"},
    "gbt": {"rounds", "max_depth", "learning_rate", "reg_lambda"},
    "mlp": {f.name for f in fields(neural.MlpParams)},
    "cnn": {f.name for f in fields(neural.CnnParams)},
}
_NEURAL_KEYS = _GRID_KEYS["mlp"] | _GRID_KEYS["cnn"]


def _as_tuple(value, kind):
    items = [value] if isinstance(value, str) else list(value)
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
    split_ratio: float = 0.7
    stratify: bool = True
    folds: int = 5
    selection_metric: str = "f1"
    min_df: int = 10
    undersample_ratio: float = 4.0
    neural: dict = field(default_factory=dict)

    def validate(self):
        if (self.cohort_path is None) == (self.synth is None):
            raise ConfigError(
                "exactly one cohort source required: a path or a synth block")
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
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must lie in (0, 1)")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.selection_metric not in ("f1", "auc"):
            raise ConfigError(
                f"unknown selection metric {self.selection_metric!r}")
        if self.min_df < 1:
            raise ConfigError("min_df must be >= 1")
        if self.undersample_ratio <= 0:
            raise ConfigError("undersample_ratio must be positive")
        for algo, grid in self.grids.items():
            if algo not in ALGORITHMS:
                raise ConfigError(f"grid given for unknown algorithm {algo!r}")
            bad = set(grid) - _GRID_KEYS[algo]
            if bad:
                raise ConfigError(
                    f"unknown grid parameters for {algo}: {sorted(bad)}")
        bad = set(self.neural) - _NEURAL_KEYS
        if bad:
            raise ConfigError(f"unknown neural settings: {sorted(bad)}")
        return self

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("experiment config must be a JSON object")
        obj = dict(obj)
        known = {f.name for f in fields(cls)} | {"cohort"}
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
        if "cohort_path" in obj:
            kwargs["cohort_path"] = obj.pop("cohort_path")
        if "synth" in obj:
            raw = obj.pop("synth")
            kwargs["synth"] = (raw if isinstance(raw, SynthConfig)
                               else SynthConfig.from_obj(raw))
        for key in ("outcomes", "feature_sets", "sampling", "algorithms"):
            if key in obj:
                kwargs[key] = _as_tuple(obj.pop(key), key)
        kwargs.update(obj)
        try:
            config = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        return config.validate()

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, encoding="utf-8") as f:
                obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_obj(obj)

    def to_obj(self):
        """Fully materialized form: every default echoed, grids resolved."""
        out = {
            "cohort": ({"path": self.cohort_path} if self.cohort_path
                       else {"synth": self.synth.to_obj()}),
            "outcomes": list(self.outcomes),
            "feature_sets": list(self.feature_sets),
            "sampling": list(self.sampling),
            "algorithms": list(self.algorithms),
            "grids": {a: {k: list(v) for k, v in self.grid_for(a).items()}
                      for a in self.algorithms},
            "seed": self.seed,
            "split_ratio": self.split_ratio,
            "stratify": self.stratify,
            "folds": self.folds,
            "selection_metric": self.selection_metric,
            "min_df": self.min_df,
            "undersample_ratio": self.undersample_ratio,
            "neural": dict(self.neural),
        }
        return out

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


def _derive_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


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
# per-fold featurization

class _StructuredFeatures:
    """Chained-equation imputation + standardizing encoder fitted on one set
    of training rows, applied to any rows of the run's decoded cohort.

    One instance per (outcome, fold) serves every view with a structured
    block.  Encoded matrices are memoized per requested row set.
    """

    def __init__(self, arrays, fit_rows, seed):
        self.arrays = arrays
        self.fit_rows = np.asarray(fit_rows)
        self._memo = {}
        self._fit_imputed, self.imp_model = impute_fit_transform(
            arrays.continuous[self.fit_rows], seed=seed)
        self.encoder = StructuredEncoder.fit(arrays.schema, self._fit_imputed)

    def matrix(self, rows):
        rows = np.asarray(rows)
        key = rows.tobytes()
        if key not in self._memo:
            if np.array_equal(rows, self.fit_rows):
                imputed = self._fit_imputed
            else:
                imputed = apply_imputation(self.imp_model,
                                           self.arrays.continuous[rows])
            self._memo[key] = self.arrays.encode(self.encoder, rows, imputed)
        return self._memo[key]

    def n_structured(self):
        return self.encoder.n_columns

    def feature_names(self):
        return self.encoder.column_names()


class _FoldFeatures:
    """Fold vocabulary + tf-idf fitted on one set of training rows, applied
    to any rows, optionally index-partition fused after a structured block.

    Notes: tf-idf only.  Combined: the fold's shared _StructuredFeatures
    block, then tf-idf.  Matrices are memoized per requested row set.
    """

    def __init__(self, tokens, fit_rows, min_df, structured=None):
        self.tokens = tokens
        self.structured = structured
        self._memo = {}
        self.vocab = build_vocab([tokens[i] for i in fit_rows],
                                 min_df=min_df)
        self.tfidf = tfidf_fit(self.vocab)

    def _text(self, rows):
        return transform_corpus(self.tfidf, [self.tokens[i] for i in rows])

    def matrix(self, rows):
        """Design matrix for the linear/tree/MLP families."""
        rows = np.asarray(rows)
        key = ("m", rows.tobytes())
        if key not in self._memo:
            if self.structured is None:
                X = self._text(rows)
            else:
                X = fuse_matrix(self.structured.matrix(rows),
                                self._text(rows))
            self._memo[key] = X
        return self._memo[key]

    def cnn_inputs(self, rows, max_len):
        """(padded token ids, structured block) for the fusion CNN."""
        rows = np.asarray(rows)
        key = ("c", rows.tobytes(), max_len)
        if key not in self._memo:
            ids = neural.tokens_to_ids(
                [self.tokens[i] for i in rows], self.vocab)
            padded = neural.pad_sequences(ids, max_len)
            if self.structured is None:
                S = np.zeros((rows.size, 0))
            else:
                S = self.structured.matrix(rows)
            self._memo[key] = (padded, S)
        return self._memo[key]

    def n_structured(self):
        return 0 if self.structured is None else self.structured.n_structured()

    def feature_names(self):
        names = []
        if self.structured is not None:
            names = self.structured.feature_names()
        return names + list(self.vocab.tokens)


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


def _fit_model(algo, params, feats, fit_rows, y_fit, seed, config,
               pretrained):
    """Returns (model, score_fn, threshold)."""
    if algo in ("l1-lr", "l2-lr", "l1-svm", "l2-svm", "rf"):
        weights = linmod.compute_class_weights(y_fit).per_instance(y_fit)
    if algo in ("l1-lr", "l2-lr"):
        X = feats.matrix(fit_rows)
        reg = linmod.L1 if algo == "l1-lr" else linmod.L2
        model = linmod.train_logreg(X, y_fit, reg=reg,
                                    instance_weights=weights, seed=seed,
                                    **params)
        return model, lambda r: linmod.predict_proba(
            model, feats.matrix(r)), 0.5
    if algo in ("l1-svm", "l2-svm"):
        X = feats.matrix(fit_rows)
        reg = linmod.L1 if algo == "l1-svm" else linmod.L2
        model = linmod.train_linear_svm(X, y_fit, reg=reg,
                                        instance_weights=weights, seed=seed,
                                        **params)
        return model, lambda r: linmod.predict_scores(
            model, feats.matrix(r)), 0.0
    if algo == "rf":
        X = feats.matrix(fit_rows)
        model = trees.train_random_forest(X, y_fit,
                                          trees.ForestParams(**params),
                                          instance_weights=weights, seed=seed)
        return model, lambda r: trees.predict_proba_trees(
            model, feats.matrix(r)), 0.5
    if algo == "gbt":
        X = feats.matrix(fit_rows)
        model = trees.train_gbt(X, y_fit, trees.GbtParams(**params),
                                seed=seed)
        return model, lambda r: trees.predict_proba_trees(
            model, feats.matrix(r)), 0.5
    if algo == "mlp":
        X = feats.matrix(fit_rows)
        hp = _neural_params(neural.MlpParams, config, params)
        model, _ = neural.train_mlp(X, y_fit, hp, seed=seed)
        return model, lambda r: neural.predict_proba_net(
            model, feats.matrix(r)), 0.5
    if algo == "cnn":
        hp = _neural_params(neural.CnnParams, config, params)
        ids, S = feats.cnn_inputs(fit_rows, hp.max_len)
        embed = neural.embedding_matrix_for_vocab(
            feats.vocab.tokens, hp.embed_dim, seed=seed,
            pretrained=pretrained)
        model, _ = neural.train_cnn_fusion(
            list(ids), S, y_fit, hp, seed=seed, vocab_size=embed.shape[0],
            embed_init=embed)
        return model, lambda r: neural.predict_proba_net(
            model, feats.cnn_inputs(r, hp.max_len)), 0.5
    raise ConfigError(f"unknown algorithm {algo!r}")


def _save_model(algo, model, feats, path_base):
    if algo in ("mlp", "cnn"):
        neural.save_checkpoint(model, path_base.with_suffix(".ckpt"))
        return
    if algo in ("rf", "gbt"):
        payload = {"kind": "trees", "algorithm": algo,
                   "model": json.loads(model.to_json())}
    else:
        payload = {"kind": "linear", "algorithm": algo,
                   "model": json.loads(model.to_json()),
                   "n_structured": feats.n_structured(),
                   "feature_names": feats.feature_names()}
    path_base.with_suffix(".json").write_text(
        json.dumps(payload, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# the runner

class _OutcomeContext:
    """Split, labels, the fold plan, and shared per-fold featurizations.

    Per-fold lists hold one entry per fold of the plan, then one for the
    full training split at index k.  `arrays` is the run's decoded cohort
    (None when no feature set has a structured block), `tokens` its
    tokenized notes (None when none has notes).
    """

    def __init__(self, cohort, arrays, tokens, config, outcome,
                 outcome_index):
        self.outcome = outcome
        self.labels = cohort.labels(outcome)
        self.search_seed = _derive_seed(config.seed, outcome_index)
        self.split = stratified_split(self.labels, config.split_ratio,
                                      config.stratify, seed=self.search_seed)
        train_idx = self.split.train_indices
        self.folds = stratified_folds(self.labels[train_idx], config.folds,
                                      self.search_seed)
        self.fit_rows = ([np.delete(train_idx, val_pos)
                          for val_pos in self.folds] + [train_idx])
        self.arrays = arrays
        self.tokens = tokens
        self.config = config
        self.features = {}
        self._structured = None  # per-fold _StructuredFeatures

    def build_features(self, feature_set):
        """Fit fold-train and full-train transformers once per feature set.

        Feature sets with a structured block share one structured fit per
        fold: same rows, same seed.
        """
        structured = [None] * len(self.fit_rows)
        if feature_set in ("structured", "combined"):
            if self._structured is None:
                self._structured = [
                    _StructuredFeatures(self.arrays, rows,
                                        _derive_seed(self.search_seed, 1, f))
                    for f, rows in enumerate(self.fit_rows)]
            structured = self._structured
        if feature_set == "structured":
            self.features[feature_set] = structured
        else:
            self.features[feature_set] = [
                _FoldFeatures(self.tokens, rows, self.config.min_df, block)
                for rows, block in zip(self.fit_rows, structured)]


def _run_cell(ctx, feature_set, sampling, algo, config, out_dir, pretrained):
    y = ctx.labels
    train_idx, test_idx = ctx.split.train_indices, ctx.split.test_indices
    y_train = y[train_idx]
    bank = ctx.features[feature_set]
    usr = config.undersample_ratio if sampling == "1:4" else None
    grid = config.grid_cells(algo)
    family_threshold = 0.0 if algo in ("l1-svm", "l2-svm") else 0.5
    converged = []  # one flag per linear fit, CV folds and refit

    def fit(params, feats, fit_rows, seed):
        model, score_fn, threshold = _fit_model(
            algo, params, feats, fit_rows, y[fit_rows], seed, config,
            pretrained)
        if isinstance(model, linmod.LinearModel):
            converged.append(model.diagnostics["converged"])
        return model, score_fn, threshold

    def trainer(params, fold, fit_pos, val_pos, seed):
        _, score_fn, _ = fit(params, bank[fold], train_idx[fit_pos], seed)
        return score_fn(train_idx[val_pos])

    search = kfold_grid_search(trainer, grid, y_train, ctx.folds,
                               metric=config.selection_metric,
                               seed=ctx.search_seed, undersample_ratio=usr,
                               threshold=family_threshold)

    feats = bank[len(ctx.folds)]
    fit_pos = np.arange(train_idx.size)
    if usr is not None:
        # one shared seed keeps the refit rows identical across algorithms
        keep = undersample(y_train, usr,
                           seed=_derive_seed(ctx.search_seed, 2))
        fit_pos = fit_pos[keep]
    refit_seed = _derive_seed(ctx.search_seed, 3, search.best_index)
    model, score_fn, threshold = fit(search.best_params, feats,
                                     train_idx[fit_pos], refit_seed)
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
        "report": json.loads(report.to_json()),
    }, sort_keys=True), encoding="utf-8")
    _save_model(algo, model, feats, cdir / "model")

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
    """Execute every configured cell; returns the result rows.

    Writes per-feature-set results TSVs, per-cell artifacts, and a manifest
    that pins seeds and resolved settings so a rerun is byte-identical.
    """
    if isinstance(config, (str, Path)):
        config = ExperimentConfig.from_json(config)
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if config.cohort_path is not None:
        cohort = load_cohort(config.cohort_path)
    else:
        cohort = synth_cohort(config.synth, seed=config.seed)
    ranges = (PlausibleRangeTable.load(ranges_path) if ranges_path
              else None)
    cohort, outlier_report = filter_outliers(cohort, ranges)
    stopwords = (load_stopwords(stopwords_path) if stopwords_path
                 else default_stopwords())
    needs_text = bool(set(config.feature_sets) & {"notes", "combined"})
    tokens = (tokenize_corpus(cohort.notes(), stopwords) if needs_text
              else None)
    needs_structured = bool(set(config.feature_sets)
                            & {"structured", "combined"})
    arrays = CohortArrays(cohort) if needs_structured else None
    pretrained = (neural.load_embedding_file(embeddings_path)
                  if embeddings_path else None)

    contexts = {}
    for oi, outcome in enumerate(config.outcomes):
        ctx = _OutcomeContext(cohort, arrays, tokens, config, outcome, oi)
        for fs in config.feature_sets:
            ctx.build_features(fs)
        contexts[outcome] = ctx

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
            "seed": contexts[outcome].search_seed,
            "train": contexts[outcome].split.train_indices.tolist(),
            "test": contexts[outcome].split.test_indices.tolist(),
        } for outcome in config.outcomes},
        "cells": {cell_id(*c): {"status": ("failed" if r["error"] else "ok"),
                                "error": r["error"],
                                "best_params": r["best_params"]}
                  for c, r in zip(cells, rows)},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")
    return rows


def replay_manifest(manifest_path, out_dir):
    """Re-run an experiment exactly as its manifest recorded it."""
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    config = ExperimentConfig.from_obj(manifest["config"])
    inputs = manifest.get("inputs", {})
    return run_experiment(config, out_dir,
                          stopwords_path=inputs.get("stopwords"),
                          ranges_path=inputs.get("ranges"),
                          embeddings_path=inputs.get("embeddings"))


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
