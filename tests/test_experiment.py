import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import icumort
from icumort import dense, experiment, linmod
from icumort.cohort import (
    Cohort,
    CohortError,
    FeatureSchema,
    StructuredEncoder,
    load_cohort,
    save_cohort,
    synth_cohort,
)
from icumort.evaluation import derive_seed
from icumort.experiment import (
    ConfigError,
    ExperimentConfig,
    _Fold,
    cell_dir,
    fold_plan,
    load_cell_scores,
    run_experiment,
    run_permtest,
)
from icumort.impute import apply_imputation, impute_fit_transform
from icumort.textfeat import build_vocab, fuse_matrix, tfidf_fit, tokenize_corpus
from test_cohort import (
    _ref_continuous,
    _ref_fold_matrix,
    _ref_fold_stats,
    _saved_records,
)
from test_textfeat import _ref_corpus, assert_csr_identical


def _base_obj(**overrides):
    obj = {
        "cohort": {"synth": {"n": 260}},
        "outcomes": ["hospital"],
        "feature_sets": ["structured"],
        "sampling": ["none"],
        "algorithms": ["l2-lr"],
        "grids": {"l2-lr": {"C": [1.0]}},
        "folds": 2,
        "min_df": 3,
    }
    obj.update(overrides)
    return obj


class TestConfig:
    def test_scalar_fields_normalized(self):
        cfg = ExperimentConfig.from_obj(_base_obj(
            outcomes="30day", algorithms="gbt", grids={}))
        assert cfg.outcomes == ("30day",)
        assert cfg.algorithms == ("gbt",)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_obj(_base_obj(shuffle=True))
        # the split, its stratification, F1 selection and the 1:4 cap are
        # fixed: a config that still sets them is refused, not replayed
        # under a different protocol
        for key, value in (("split_ratio", 0.7), ("stratify", True),
                           ("selection_metric", "f1"),
                           ("undersample_ratio", 4.0)):
            with pytest.raises(ConfigError, match="unknown config keys"):
                ExperimentConfig.from_obj(_base_obj(**{key: value}))
        # only the cohort block names the cohort source
        for key, value in (("cohort_path", "x.jsonl"), ("synth", {"n": 9})):
            obj = _base_obj(**{key: value})
            del obj["cohort"]
            with pytest.raises(ConfigError, match="unknown config keys"):
                ExperimentConfig.from_obj(obj)
        with pytest.raises(ConfigError, match="unknown neural settings"):
            ExperimentConfig.from_obj(_base_obj(
                neural={"undersample_ratio": 1.0}))

    @pytest.mark.parametrize("key, value, message", [
        ("outcomes", 5, "outcomes must be a string or a list"),
        ("outcomes", [["hospital"]], "outcomes must be a string or a list"),
        ("seed", "1", "seed must be an integer"),
        ("folds", "3", "folds must be an integer"),
        ("folds", True, "folds must be an integer"),
        ("min_df", 2.5, "min_df must be an integer"),
        ("cohort", {"path": 3}, "cohort path must be a non-empty string"),
        ("cohort", {"path": ""}, "cohort path must be a non-empty string"),
        ("neural", 3, "neural must be an object"),
        ("neural", ["max_epochs"], "neural must be an object"),
        ("grids", 3, "grids must map algorithms to objects"),
        ("grids", {"rf": 3}, "grids must map algorithms to objects"),
        ("cohort", {"synth": {"n": "60"}}, "integer n >= 10, not '60'"),
        ("grids", {"l2-lr": {"C": ["x"]}},
         "grid value for l2-lr C must be a number, not 'x'"),
        ("grids", {"rf": {"max_depth": ["3"]}},
         "grid value for rf max_depth must be an integer, not '3'"),
        ("neural", {"max_epochs": "2"},
         "neural setting max_epochs must be an integer, not '2'"),
        ("grids", {"l1-lr": {"C": True}}, "l1-lr C must be a number"),
        # bootstrap is no longer a forest setting; the case keeps its id
        pytest.param("grids", {"rf": {"bootstrap": [1]}},
                     r"unknown grid parameters for rf: \['bootstrap'\]",
                     id="grids-value17-bootstrap must be true or false"),
        # patience and widths are fixed at their defaults; the cases keep
        # their ids
        pytest.param("neural", {"patience": 2.5},
                     r"unknown neural settings: \['patience'\]",
                     id="neural-value18-patience must be an integer or null"),
        pytest.param("neural", {"widths": []},
                     r"unknown neural settings: \['widths'\]",
                     id="neural-value19-widths must be a non-empty list"),
        pytest.param("grids", {"cnn": {"widths": [3, 4]}},
                     r"unknown grid parameters for cnn: \['widths'\]",
                     id="grids-value20-widths must be a non-empty list"),
        ("neural", {"embed_dim": 4.0},
         "neural setting embed_dim must be an integer, not 4.0"),
        ("neural", {"max_len": None},
         "neural setting max_len must be an integer, not None"),
        ("grids", {"cnn": {"filters": [True]}},
         "grid value for cnn filters must be an integer, not True"),
        ("grids", {"mlp": {"learning_rate": ["0.1"]}},
         "grid value for mlp learning_rate must be a number, not '0.1'")])
    def test_wrongly_typed_value_rejected(self, key, value, message):
        with pytest.raises((ConfigError, CohortError), match=message):
            ExperimentConfig.from_obj(_base_obj(**{key: value}))

    def test_cli_reports_wrongly_typed_value(self, tmp_path, capsys):
        from icumort import cli

        (tmp_path / "exp.json").write_text(json.dumps(_base_obj(folds="3")))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: folds must be an integer")
        # a grid value of the wrong type is a config error, not a failed cell
        (tmp_path / "exp.json").write_text(json.dumps(_base_obj(
            algorithms=["mlp"], grids={}, neural={"max_epochs": "2"})))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: neural setting max_epochs must be an integer")
        # a non-string path is refused before the output directory is made
        (tmp_path / "exp.json").write_text(
            json.dumps(_base_obj(cohort={"path": 3})))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: cohort path must be a non-empty string")
        assert not (tmp_path / "res").exists()
        # a cohort line that is not a record object is an error line too
        for line, message in (
                ("5", "record must be a JSON object at line 1"),
                ('{"id": "a", "features": [1], "note": "", '
                 '"label_hospital": 0, "label_30day": 0}',
                 "features must be an object at line 1")):
            (tmp_path / "c.jsonl").write_text(line + "\n")
            (tmp_path / "exp.json").write_text(json.dumps(_base_obj(
                cohort={"path": str(tmp_path / "c.jsonl")})))
            rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                           "--out", str(tmp_path / "res")])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: {message} of cohort {tmp_path / 'c.jsonl'}\n")
        (tmp_path / "synth.json").write_text('{"n": "50"}')
        rc = cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                       "--out", str(tmp_path / "c.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: generator needs an integer n")

    @pytest.mark.parametrize("overrides, args, message", [
        ({"seed": -1}, [], "seed must be an integer >= 0"),
        ({"folds": 1}, [], "folds must be an integer of at least 2"),
        ({"algorithms": ["rf"], "grids": {"rf": {"n_trees": [0]}}}, [],
         "n_trees must be >= 1"),
        ({"algorithms": ["gbt"], "grids": {"gbt": {"learning_rate": [2.0]}}},
         [], "learning_rate must lie in (0, 1]"),
        ({"grids": {"l2-lr": {"C": [1.0, 0]}}}, [], "C must be positive"),
        ({"algorithms": ["l1-svm"], "grids": {"l1-svm": {"C": -1.0}}}, [],
         "C must be positive"),
        # dropout and batch_size are fixed at their defaults, refused by
        # name in a config (their range checks are test_neural's); the
        # cases keep their ids
        pytest.param({"algorithms": ["mlp"], "neural": {"dropout": 1.0}}, [],
                     "unknown neural settings: ['dropout']",
                     id="overrides6-args6-dropout rate must lie in [0, 1)"),
        ({"algorithms": ["cnn"], "feature_sets": ["notes"],
          "neural": {"max_len": 4}},
         [], "max_len shorter than the widest filter"),
        pytest.param({"algorithms": ["mlp"], "neural": {"batch_size": 0}}, [],
                     "unknown neural settings: ['batch_size']",
                     id="overrides8-args8-batch_size must be >= 1"),
        ({"algorithms": ["mlp"], "grids": {"mlp": {"hidden": [0]}}}, [],
         "hidden must be >= 1"),
        ({"algorithms": ["mlp"], "neural": {"max_epochs": 0}}, [],
         "max_epochs must be >= 1"),
        ({"algorithms": ["mlp"], "grids": {"mlp": {"learning_rate": [-1]}}},
         [], "learning_rate must be positive"),
        pytest.param({"algorithms": ["cnn"], "feature_sets": ["notes"],
                      "grids": {"cnn": {"hidden": [0]}}}, [],
                     "unknown grid parameters for cnn: ['hidden']",
                     id="overrides12-args12-batch_size must be >= 1"),
        ({"algorithms": ["cnn"], "feature_sets": ["notes"],
          "grids": {"cnn": {"learning_rate": [0]}}}, [],
         "learning_rate must be positive"),
        ({"min_df": 0}, [], "min_df must be an integer >= 1"),
        ({"grids": {"l2-lr": {"C": []}}}, [], "grid for l2-lr C is empty"),
        ({"algorithms": ["rf"], "grids": {"l2-lr": {"C": [1.0]},
                                          "rf": {"max_depth": []}}},
         [], "grid for rf max_depth is empty"),
        ({"algorithms": ["cnn"], "feature_sets": ["notes"],
          "grids": {"cnn": {"filters": [0]}}}, [], "filters must be >= 1"),
        ({"algorithms": ["cnn"], "feature_sets": ["notes"],
          "neural": {"embed_dim": 0}}, [], "embed_dim must be >= 1")])
    def test_cli_refuses_out_of_range_value(self, tmp_path, capsys,
                                            overrides, args, message):
        """Refused before any work: exit 1, an error line, no output."""
        from icumort import cli

        (tmp_path / "exp.json").write_text(json.dumps(_base_obj(**overrides)))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res"), *args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"algorithms": ["rf"], "grids": {"rf": {"bootstrap": [True]}}},
         "unknown grid parameters for rf: ['bootstrap']"),
        ({"algorithms": ["rf"], "grids": {"rf": {"min_node_weight": [2.0]}}},
         "unknown grid parameters for rf: ['min_node_weight']"),
        ({"algorithms": ["gbt"], "grids": {"gbt": {"reg_lambda": [1.0]}}},
         "unknown grid parameters for gbt: ['reg_lambda']"),
        *(({"cohort": {"synth": {"n": 260, key: value}}},
           f"unknown generator config key {key!r}")
          for key, value in (
              ("rate_hospital", 0.1294), ("rate_30day", 0.1651),
              ("missing_rates", {"bmi": 0.48}), ("structured_weight", 1.8),
              ("text_weight", 0.8), ("risk_tokens", ["arrest"]),
              ("note_length", [40, 120]), ("risk_token_mean", 0.9))),
        *(({"algorithms": [algo], "grids": {algo: {"C": [1.0], key: [value]}}},
           f"unknown grid parameters for {algo}: [{key!r}]")
          for algo, key, value in (
              ("l1-lr", "tol", 1e-6), ("l2-lr", "max_iter", 10000),
              ("l1-svm", "max_epochs", 1000), ("l2-svm", "tol", 1e-6),
              ("l2-svm", "max_epochs", 1000))),
        *(({"algorithms": [algo], "feature_sets": ["notes"],
            "grids": {algo: {key: [value]}}},
           f"unknown grid parameters for {algo}: [{key!r}]")
          for algo, key, value in (
              ("mlp", "dropout", 0.5), ("mlp", "batch_size", 32),
              ("mlp", "max_epochs", 20), ("mlp", "patience", 3),
              ("cnn", "widths", [3, 4, 5]), ("cnn", "hidden", 128),
              ("cnn", "embed_dim", 64), ("cnn", "max_len", 512))),
        *(({"algorithms": [algo], "feature_sets": ["notes"],
            "neural": {key: value}}, f"unknown neural settings: [{key!r}]")
          for algo, key, value in (
              ("mlp", "hidden", 100), ("mlp", "learning_rate", 0.0005),
              ("cnn", "filters", 64), ("cnn", "widths", [3, 4, 5]),
              ("cnn", "dropout", 0.5), ("cnn", "batch_size", 32),
              ("cnn", "patience", None)))])
    def test_cli_refuses_removed_setting(self, tmp_path, capsys, overrides,
                                         message):
        """The generator statistics, the forest's bootstrap and node weight,
        boosting's lambda, the linear solvers' tolerance and step caps, and
        the neural widths, dropout, batch size, patience and CNN hidden width
        are constants: naming one is a config error, even at its fixed value.
        A neural value has one home: grid keys are refused in `neural`, and
        `neural` keys in a grid."""
        from icumort import cli

        (tmp_path / "exp.json").write_text(json.dumps(_base_obj(**overrides)))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "res").exists()
        if "cohort" in overrides:  # icumort synth reads the same block
            (tmp_path / "synth.json").write_text(
                json.dumps(overrides["cohort"]["synth"]))
            rc = cli.main(["synth", "--config", str(tmp_path / "synth.json"),
                           "--out", str(tmp_path / "c.jsonl")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "c.jsonl").exists()

    def test_cli_refuses_manifest_with_removed_setting(self, tmp_path,
                                                       capsys):
        from icumort import cli

        (tmp_path / "exp.json").write_text(json.dumps(_base_obj(
            algorithms=["rf", "gbt"], grids={"rf": {"n_trees": [2]},
                                              "gbt": {"rounds": [2]}})))
        assert cli.main(["run", "--config", str(tmp_path / "exp.json"),
                         "--out", str(tmp_path / "res")]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "res" / "manifest.json").read_text())
        assert manifest["config"]["cohort"] == {"synth": {"n": 260}}
        for edit, message in (
                (("cohort", "synth", "text_weight", 0.8),
                 "unknown generator config key 'text_weight'"),
                (("grids", "rf", "bootstrap", [True]),
                 "unknown grid parameters for rf: ['bootstrap']"),
                (("grids", "gbt", "reg_lambda", [1.0]),
                 "unknown grid parameters for gbt: ['reg_lambda']"),
                (("grids", "cnn", "widths", [[3, 4, 5]]),
                 "unknown grid parameters for cnn: ['widths']"),
                (("neural", "patience", 3),
                 "unknown neural settings: ['patience']")):
            *path, key, value = edit
            changed = json.loads(json.dumps(manifest))
            block = changed["config"]
            for name in path:
                block = block.setdefault(name, {})
            block[key] = value
            (tmp_path / "m.json").write_text(json.dumps(changed))
            rc = cli.main(["run", "--config", str(tmp_path / "m.json"),
                           "--out", str(tmp_path / "again")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "again").exists()

    def test_cli_refuses_negative_seed_flags(self, tmp_path, capsys):
        """synth and permtest refuse a negative --seed; run has no --seed,
        since the config's seed is its one seed."""
        from icumort import cli

        for argv in (["synth", "--seed", "-1", "--out",
                      str(tmp_path / "c.jsonl")],
                     ["permtest", str(tmp_path), "a/b/c/d", "a/b/c/e",
                      "--seed", "-1"]):
            assert cli.main(argv) == 1
            assert (capsys.readouterr().err
                    == "error: --seed must be an integer >= 0\n")
        (tmp_path / "exp.json").write_text(json.dumps(_base_obj()))
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(tmp_path / "exp.json"),
                      "--out", str(tmp_path / "res"), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.json"]

    @pytest.mark.parametrize("text, message", [
        ("{", "range table is not valid JSON"),
        (b"\xff\xfe{", "range table is not valid JSON"),
        ("[1, 2]", "range table must be a JSON object"),
        ('{"age": 5}', "range for 'age' must be a pair of numbers"),
        ('{"age": [null, 5]}', "range for 'age' must be a pair of numbers"),
        ('{"age": [1]}', "range for 'age' must be a pair of numbers"),
        ('{"age": ["a", 5]}', "range for 'age' must be a pair of numbers"),
        ('{"age": [false, 5]}', "range for 'age' must be a pair of numbers"),
        ('{"age": [5, 5]}', "range for 'age' must satisfy min < max"),
        ('{"age": [NaN, 5]}', "range for 'age' must satisfy min < max")])
    def test_cli_refuses_malformed_ranges(self, tmp_path, capsys, text,
                                          message):
        from icumort import cli

        path = tmp_path / "ranges.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        (tmp_path / "exp.json").write_text(json.dumps(_base_obj()))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res"), "--ranges", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        if message == "range table is not valid JSON":
            message = f"range table {path} is not valid JSON: "
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("text, message", [
        ("tok 1 x\n", "non-numeric value on line 1"),
        (b"\xff\xfe tok 1\n", "'utf-8' codec can't decode"),
        ("a 1 2\nb 1\n", "inconsistent width at line 2"),
        ("a 1 2\nb nan 2\n", "non-finite value on line 2"),
        ("a\n", "no values on line 1"),
        ("\n", "embedding file is empty")])
    def test_cli_refuses_malformed_embeddings(self, tmp_path, capsys, text,
                                              message):
        from icumort import cli

        path = tmp_path / "emb.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        (tmp_path / "exp.json").write_text(json.dumps(_base_obj()))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res"),
                       "--embeddings", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: embedding file {path}: {message}")
        assert not (tmp_path / "res").exists()

    def test_cli_refuses_embedding_width_of_any_cnn_cell(self, tmp_path,
                                                        capsys):
        from icumort import cli

        path = tmp_path / "emb.txt"
        path.write_text("sepsis 0.1 0.2 0.3 0.4\nshock 0.5 0.6 0.7 0.8\n")
        obj = _base_obj(feature_sets=["notes"], algorithms=["cnn"],
                        grids={"cnn": {"filters": [2, 3]}},
                        neural={"embed_dim": 6})
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res"),
                       "--embeddings", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: embedding file {path} has width 4, but the cnn "
            f"embed_dim is 6\n")
        assert not (tmp_path / "res").exists()
        # embed_dim is one value per run, which every cnn cell shares: the
        # neural block's, or the default 64 without one
        del obj["neural"]
        ok = ExperimentConfig.from_obj(dict(obj, neural={"embed_dim": 4}))
        tokens, matrix = experiment._load_pretrained(path, ok)
        assert tokens == ["sepsis", "shock"] and matrix.shape == (2, 4)
        with pytest.raises(ConfigError, match="the cnn embed_dim is 64"):
            experiment._load_pretrained(path, ExperimentConfig.from_obj(obj))
        # without a cnn cell no width is required
        plain = ExperimentConfig.from_obj(_base_obj())
        assert experiment._load_pretrained(path, plain)[1].shape == (2, 4)

    def test_cli_refuses_config_that_is_not_json(self, tmp_path, capsys):
        from icumort import cli

        path = tmp_path / "config.json"
        for text in ('{"n": ', b'\xff{}'):
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text)
            rc = cli.main(["synth", "--config", str(path),
                           "--out", str(tmp_path / "c.jsonl")])
            assert rc == 1
            assert capsys.readouterr().err.startswith(
                f"error: generator config {path} is not valid JSON: ")
            rc = cli.main(["run", "--config", str(path),
                           "--out", str(tmp_path / "res")])
            assert rc == 1
            assert capsys.readouterr().err.startswith(
                f"error: config {path} is not valid JSON: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_cli_refuses_non_positive_counts(self, tmp_path, capsys):
        from icumort import cli

        for name in ("a", "b"):
            cdir = cell_dir(tmp_path / "res", "structured", "hospital",
                            "none", name)
            cdir.mkdir(parents=True)
            (cdir / "scores.tsv").write_text(
                "row\tlabel\tscore\n0\t0\t0.1\n1\t1\t0.9\n")
        model = linmod.train_logreg(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                    np.array([0, 1]))
        (tmp_path / "model.json").write_text(json.dumps({
            "kind": "linear", "model": model.to_obj(), "n_structured": 2,
            "feature_names": ["u", "v"]}))
        before = sorted(tmp_path.rglob("*"))
        for argv, message in (
                (["permtest", str(tmp_path / "res"),
                  "structured/hospital/none/a", "structured/hospital/none/b",
                  "--n-perm", "0"],
                 "--n-perm must be an integer >= 1"),
                (["rank", str(tmp_path / "model.json"), "-k", "0"],
                 "-k must be an integer >= 1")):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            # the same files still run with a count of 1
            argv[-1] = "1"
            assert cli.main(argv) == 0
            capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == before

    def test_cohort_source_exclusive(self):
        obj = _base_obj()
        obj["cohort"] = {"path": "x.jsonl", "synth": {"n": 100}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_obj(obj)
        obj = _base_obj()
        del obj["cohort"]
        with pytest.raises(ConfigError, match="cohort source"):
            ExperimentConfig.from_obj(obj)

    def test_mlp_cnn_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            ExperimentConfig.from_obj(_base_obj(
                feature_sets=["combined"], algorithms=["mlp", "cnn"],
                grids={}))

    def test_cnn_needs_notes(self):
        with pytest.raises(ConfigError, match="notes"):
            ExperimentConfig.from_obj(_base_obj(algorithms=["cnn"], grids={}))

    def test_unknown_algorithm_and_grid(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            ExperimentConfig.from_obj(_base_obj(algorithms=["xgb"], grids={}))
        with pytest.raises(ConfigError, match="grid parameters"):
            ExperimentConfig.from_obj(_base_obj(
                grids={"l2-lr": {"gamma": [1]}}))

    def test_grid_cells_cartesian_order(self):
        cfg = ExperimentConfig.from_obj(_base_obj(
            algorithms=["rf"],
            grids={"rf": {"n_trees": [5, 10], "max_depth": [2]}}))
        cells = cfg.grid_cells("rf")
        assert cells == [{"n_trees": 5, "max_depth": 2},
                         {"n_trees": 10, "max_depth": 2}]

    def test_defaults_echoed(self):
        cfg = ExperimentConfig.from_obj(_base_obj(grids={}))
        obj = cfg.to_obj()
        assert obj["grids"]["l2-lr"]["C"] == [0.01, 0.1, 1.0]
        assert obj["cohort"]["synth"]["n"] == 260
        # an empty synth block takes the published cohort's size, and the
        # caller's block is left as it was
        given_obj = _base_obj(cohort={"synth": {}})
        assert ExperimentConfig.from_obj(given_obj).to_obj()["cohort"] == {
            "synth": {"n": 5396}}
        assert given_obj["cohort"] == {"synth": {}}
        path = _base_obj(cohort={"path": "c.jsonl"})
        assert ExperimentConfig.from_obj(path).to_obj()["cohort"] == {
            "path": "c.jsonl"}
        assert set(obj) == {"cohort", "outcomes", "feature_sets", "sampling",
                            "algorithms", "grids", "seed", "folds", "min_df",
                            "neural"}

    def test_readme_configs_valid(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
        assert blocks
        for block in blocks:
            config = ExperimentConfig.from_obj(json.loads(block)).to_obj()
            # the echoed form a manifest records is accepted as it is
            assert ExperimentConfig.from_obj(config).to_obj() == config

    def test_settable_values_are_pinned(self):
        """Every value a run config sets, by its path.  A new knob has to be
        added here, on purpose."""
        settable = (
            [f.name for f in fields(ExperimentConfig)]
            + ["cohort.path", "cohort.synth.n"]
            + [f"grids.{algo}.{key}"
               for algo, keys in experiment._GRID_KEYS.items()
               for key in sorted(keys)]
            + [f"neural.{key}" for key in sorted(experiment._NEURAL_KEYS)])
        assert settable == [
            "cohort", "outcomes", "feature_sets", "sampling", "algorithms",
            "grids", "seed", "folds", "min_df", "neural",
            "cohort.path", "cohort.synth.n",
            "grids.l1-lr.C", "grids.l2-lr.C", "grids.l1-svm.C",
            "grids.l2-svm.C", "grids.rf.max_depth", "grids.rf.n_trees",
            "grids.gbt.learning_rate", "grids.gbt.max_depth",
            "grids.gbt.rounds", "grids.mlp.hidden", "grids.mlp.learning_rate",
            "grids.cnn.filters", "grids.cnn.learning_rate",
            "neural.embed_dim", "neural.max_epochs", "neural.max_len"]
        assert len(settable) == 28
        # each grid key is its default grid's, so every default cell runs
        assert experiment._GRID_KEYS == {
            algo: set(grid) for algo, grid in experiment.DEFAULT_GRIDS.items()}
        # and every listed value is accepted in one config
        cfg = ExperimentConfig.from_obj(_base_obj(
            feature_sets=["notes"], algorithms=["l2-lr", "cnn"],
            grids={algo: {key: [value] for key, value in
                          ExperimentConfig().grid_cells(algo)[0].items()}
                   for algo in experiment.ALGORITHMS},
            neural={"embed_dim": 8, "max_len": 16, "max_epochs": 2}))
        assert cfg.to_obj()["neural"] == {"embed_dim": 8, "max_len": 16,
                                          "max_epochs": 2}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig.from_obj(_base_obj(
        feature_sets=["structured", "notes"],
        sampling=["none", "1:4"],
        algorithms=["l2-lr", "gbt"],
        grids={"l2-lr": {"C": [0.1, 1.0]}, "gbt": {"rounds": [10]}}))
    rows = run_experiment(cfg, out)
    return cfg, out, rows


class TestRun:
    def test_row_per_cell(self, small_run):
        cfg, out, rows = small_run
        assert len(rows) == 2 * 2 * 2  # fs x sampling x algo
        assert all(r["error"] is None for r in rows)

    def test_artifacts_exist(self, small_run):
        cfg, out, rows = small_run
        d = cell_dir(out, "structured", "hospital", "1:4", "gbt")
        for name in ("cv.tsv", "scores.tsv", "report.json", "model.json"):
            assert (d / name).exists()
        assert (out / "results-structured.tsv").exists()
        assert (out / "results-notes.tsv").exists()
        assert (out / "manifest.json").exists()

    def test_results_tsv_columns_and_best_flag(self, small_run):
        cfg, out, rows = small_run
        lines = (out / "results-structured.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header == ["outcome", "sampling", "algorithm", "auc",
                          "precision", "recall", "f1", "best_f"]
        for sampling in ("none", "1:4"):
            block = [l for l in lines[1:] if l.split("\t")[1] == sampling]
            assert sum(l.split("\t")[7] == "*" for l in block) == 1

    def test_scores_cover_test_split(self, small_run):
        cfg, out, rows = small_run
        manifest = json.loads((out / "manifest.json").read_text())
        test_rows = manifest["splits"]["hospital"]["test"]
        d = cell_dir(out, "notes", "hospital", "none", "l2-lr")
        lines = (d / "scores.tsv").read_text().strip().split("\n")[1:]
        assert [int(l.split("\t")[0]) for l in lines] == test_rows

    def test_permtest_self_is_one(self, small_run):
        cfg, out, rows = small_run
        res = run_permtest(out, "structured/hospital/none/l2-lr",
                           "structured/hospital/none/l2-lr", n_perm=50)
        assert res.p_value == 1.0

    def test_permtest_across_feature_sets(self, small_run):
        cfg, out, rows = small_run
        res = run_permtest(out, "structured/hospital/none/l2-lr",
                           "notes/hospital/none/l2-lr", n_perm=50, seed=1)
        assert 0.0 < res.p_value <= 1.0

    def test_permtest_missing_cell_named(self, small_run):
        cfg, out, rows = small_run
        with pytest.raises(ConfigError, match="combined/hospital/none/rf"):
            run_permtest(out, "structured/hospital/none/l2-lr",
                         "combined/hospital/none/rf")


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_obj(_base_obj())
        run_experiment(cfg, tmp_path / "a")
        cfg2 = ExperimentConfig.from_obj(_base_obj())
        run_experiment(cfg2, tmp_path / "b")
        for name in ("results-structured.tsv", "results.json",
                     "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
        sc = Path("cells/structured/hospital/none/l2-lr/scores.tsv")
        assert (tmp_path / "a" / sc).read_bytes() == \
               (tmp_path / "b" / sc).read_bytes()

    def test_replay_manifest(self, tmp_path):
        from icumort import cli

        cfg = ExperimentConfig.from_obj(_base_obj())
        run_experiment(cfg, tmp_path / "a")
        manifest = str(tmp_path / "a" / "manifest.json")
        assert cli.main(["run", "--config", manifest,
                         "--out", str(tmp_path / "b")]) == 0
        assert _run_bytes(tmp_path / "a") == _run_bytes(tmp_path / "b")

    def test_mlp_cells_replay_byte_identical(self, tmp_path):
        """mlp cells run end to end, the notes and combined ones on sparse
        tf-idf rows made dense batch by batch, and replay byte for byte,
        model.ckpt included."""
        from icumort import cli
        from icumort.neural import load_checkpoint

        obj = _base_obj(feature_sets=["structured", "notes", "combined"],
                        algorithms=["mlp"],
                        grids={"mlp": {"hidden": [4, 8]}},
                        neural={"max_epochs": 3})
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        assert cli.main(["run", "--config", str(tmp_path / "exp.json"),
                         "--out", str(tmp_path / "a")]) == 0
        manifest = str(tmp_path / "a" / "manifest.json")
        assert cli.main(["run", "--config", manifest,
                         "--out", str(tmp_path / "b")]) == 0
        first = _run_bytes(tmp_path / "a")
        assert first == _run_bytes(tmp_path / "b")
        ckpts = sorted(name for name in first if name.endswith("model.ckpt"))
        assert len(ckpts) == 3
        rows = json.loads(first["results.json"])
        assert [r["error"] for r in rows] == [None] * 3
        for name in ckpts:
            model = load_checkpoint(tmp_path / "a" / name)
            assert model.embedding is None
            assert model.hidden in (4, 8)


    def test_cli_replay_reads_the_recorded_inputs(self, tmp_path,
                                                  monkeypatch):
        from icumort import cli

        monkeypatch.chdir(tmp_path)
        Path("sw.txt").write_text("the\npatient\n")
        Path("exp.json").write_text(json.dumps(_base_obj(
            feature_sets=["notes"])))
        assert cli.main(["run", "--config", "exp.json", "--out", "a",
                         "--stopwords", "sw.txt"]) == 0
        assert cli.main(["run", "--config", "a/manifest.json",
                         "--out", "b"]) == 0
        manifest = json.loads(Path("b/manifest.json").read_text())
        assert manifest["inputs"]["stopwords"] == "sw.txt"
        for name in ("results.json", "manifest.json",
                     "cells/notes/hospital/none/l2-lr/scores.tsv"):
            assert Path("a", name).read_bytes() == Path("b", name).read_bytes()

    @pytest.mark.parametrize("inputs", [[], {"ranges": 7},
                                        {"stopwords": ["a"]}])
    def test_cli_refuses_malformed_manifest_inputs(self, tmp_path, capsys,
                                                   inputs):
        """A manifest whose inputs block is no object of paths or nulls is
        an error line naming it, and nothing is written."""
        from icumort import cli

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": _base_obj(), "cells": {},
                                    "inputs": inputs}))
        rc = cli.main(["run", "--config", str(path),
                       "--out", str(tmp_path / "res")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest {path}: inputs must be an object of file "
            "paths or nulls\n")
        assert not (tmp_path / "res").exists()


    @pytest.mark.parametrize("name", ["stopwords", "ranges", "embeddings"])
    def test_cli_refuses_empty_input_path(self, tmp_path, capsys, name):
        """An empty path, as a flag or in a manifest's inputs, is an error
        line naming the flag or the manifest and field, and nothing is
        written."""
        from icumort import cli

        (tmp_path / "exp.json").write_text(json.dumps(_base_obj()))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": _base_obj(), "cells": {},
                                        "inputs": {name: ""}}))
        for argv, message in (
                (["--config", str(tmp_path / "exp.json"), f"--{name}", ""],
                 f"--{name} is an empty path"),
                (["--config", str(manifest)],
                 f"manifest {manifest}: inputs {name} is an empty path")):
            rc = cli.main(["run", *argv, "--out", str(tmp_path / "res")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "res").exists()

    def test_cli_refuses_unknown_inputs_field(self, tmp_path, capsys):
        """A misspelt field in a manifest's inputs is an error line naming
        the manifest and the field, and nothing is written."""
        from icumort import cli

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "config": _base_obj(), "cells": {},
            "inputs": {"stopwords": None, "stopword": "missing.txt"}}))
        rc = cli.main(["run", "--config", str(manifest),
                       "--out", str(tmp_path / "res")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: manifest {manifest}: unknown inputs field 'stopword'\n")
        assert not (tmp_path / "res").exists()


def _run_bytes(out):
    """Every file a run wrote, by its path under the output directory."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(Path(out).rglob("*")) if p.is_file()}


@st.composite
def labelled_plans(draw):
    """(labels, folds, sampling modes, seed): n from 30 to 200 with a
    minority of 2k+2 up to a quarter of the rows."""
    n = draw(st.integers(30, 200))
    k = draw(st.integers(2, 5))
    n_pos = draw(st.integers(2 * k + 2, max(2 * k + 2, n // 4)))
    labels = np.zeros(n, dtype=np.int64)
    labels[np.random.default_rng(draw(st.integers(0, 2**16))).choice(
        n, n_pos, replace=False)] = 1
    sampling = draw(st.sampled_from([("none",), ("1:4",), ("none", "1:4")]))
    return labels, k, sampling, draw(st.integers(0, 2**32 - 1))


class TestFoldPlan:
    @settings(max_examples=60, deadline=None)
    @given(case=labelled_plans())
    def test_plan_separates_caps_and_repeats(self, case):
        labels, k, sampling, seed = case
        config = ExperimentConfig(cohort={"synth": {}}, folds=k,
                                  sampling=sampling)
        plan = fold_plan(labels, config, seed)
        train, test = plan.split.train_indices, plan.split.test_indices
        assert len(plan.val) == k and len(plan.fit) == k + 1
        assert sorted(plan.model) == sorted(sampling)
        np.testing.assert_array_equal(np.sort(np.concatenate(plan.val)),
                                      train)
        for f, fit in enumerate(plan.fit):
            val = plan.val[f] if f < k else np.zeros(0, dtype=np.int64)
            np.testing.assert_array_equal(fit, np.setdiff1d(train, val))
            for mode in sampling:
                rows = plan.model[mode][f]
                assert not np.intersect1d(rows, val).size
                assert not np.intersect1d(rows, test).size
                assert np.isin(rows, fit).all()
                if mode == "none":
                    np.testing.assert_array_equal(rows, fit)
                    continue
                have = np.bincount(labels[fit], minlength=2)
                kept = np.bincount(labels[rows], minlength=2)
                minority = int(np.argmin(have))
                assert kept[minority] == have[minority]
                assert kept[1 - minority] == min(have[1 - minority],
                                                 4 * have[minority])
            if f < k:
                for mode in sampling:
                    rows, val_rows = plan.grid(mode)[f]
                    assert rows is plan.model[mode][f]
                    assert val_rows is plan.val[f]
        again = fold_plan(labels, config, seed)
        np.testing.assert_array_equal(again.split.test_indices, test)
        for a, b in zip(plan.val + plan.fit, again.val + again.fit):
            np.testing.assert_array_equal(a, b)
        for mode in sampling:
            for a, b in zip(plan.model[mode], again.model[mode]):
                np.testing.assert_array_equal(a, b)

    def test_every_cell_of_an_outcome_sees_the_same_rows(self, tmp_path,
                                                          monkeypatch):
        """Paired splits: per sampling mode, every algorithm and feature
        set fits on the same fold objects and rows, and stores its scores
        on the same test rows."""
        import icumort.experiment as experiment

        real_cell, real_fit = experiment._run_cell, experiment._fit_model
        current, fits = {}, []

        def cell_spy(ctx, fs, sampling, algo, *args):
            current.update(ctx=ctx, sampling=sampling)
            return real_cell(ctx, fs, sampling, algo, *args)

        def fit_spy(algo, params, fold, fs, rows, *args):
            folds = current["ctx"].folds
            index = next(i for i, f in enumerate(folds) if f is fold)
            fits.append((current["sampling"], fs, algo, index, rows.copy()))
            return real_fit(algo, params, fold, fs, rows, *args)

        monkeypatch.setattr(experiment, "_run_cell", cell_spy)
        monkeypatch.setattr(experiment, "_fit_model", fit_spy)
        obj = _base_obj(feature_sets=["structured", "notes", "combined"],
                        sampling=["none", "1:4"], algorithms=["l2-lr", "rf"],
                        grids={"l2-lr": {"C": [0.1, 1.0]},
                               "rf": {"n_trees": [3], "max_depth": [2]}})
        rows = run_experiment(ExperimentConfig.from_obj(obj), tmp_path)
        assert all(r["error"] is None for r in rows)

        for sampling in ("none", "1:4"):
            per_cell = {}
            for s, fs, algo, index, fit_rows in fits:
                if s == sampling:
                    per_cell.setdefault((fs, algo), {})[index] = fit_rows
            assert len(per_cell) == 6
            first = next(iter(per_cell.values()))
            assert sorted(first) == [0, 1, 2]  # two folds, then the refit
            for seen in per_cell.values():
                assert sorted(seen) == sorted(first)
                for index, fit_rows in seen.items():
                    np.testing.assert_array_equal(fit_rows, first[index])
        none_refit = [r for s, _, _, i, r in fits if s == "none" and i == 2]
        sampled_refit = [r for s, _, _, i, r in fits if s == "1:4" and i == 2]
        assert sampled_refit[0].size < none_refit[0].size

        cells = [f"{r['feature_set']}/hospital/{r['sampling']}/"
                 f"{r['algorithm']}" for r in rows]
        test_rows, labels, _ = load_cell_scores(tmp_path, cells[0])
        for cell in cells[1:]:
            other_rows, other_labels, _ = load_cell_scores(tmp_path, cell)
            np.testing.assert_array_equal(other_rows, test_rows)
            np.testing.assert_array_equal(other_labels, labels)

    def test_one_fold_plan_per_outcome(self, tmp_path, monkeypatch):
        import icumort.evaluation as evaluation
        import icumort.experiment as experiment

        calls = []
        real = evaluation.stratified_folds

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "stratified_folds", counting)
        monkeypatch.setattr(evaluation, "stratified_folds", counting)
        obj = _base_obj(outcomes=["hospital", "30day"],
                        feature_sets=["structured", "notes"],
                        sampling=["none", "1:4"],
                        algorithms=["l2-lr", "rf"],
                        grids={"l2-lr": {"C": [1.0]},
                               "rf": {"n_trees": [3], "max_depth": [2]}})
        rows = run_experiment(ExperimentConfig.from_obj(obj), tmp_path)
        assert len(rows) == 16
        assert all(r["error"] is None for r in rows)
        assert len(calls) == 2


class TestConvergence:
    def test_unconverged_fits_counted_and_reported(self, tmp_path, capsys,
                                                   monkeypatch):
        from icumort import cli, linmod

        # one step of either hinge solver leaves every fit unconverged
        monkeypatch.setattr(linmod, "_NEWTON_STEPS", 1)
        monkeypatch.setattr(linmod, "_DUAL_STEPS", 1)
        obj = _base_obj(algorithms=["l2-svm", "rf"], folds=3,
                        grids={"l2-svm": {"C": [1.0]},
                               "rf": {"n_trees": [3], "max_depth": [2]}})
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        rows = json.loads((tmp_path / "res" / "results.json").read_text())
        by_algo = {r["algorithm"]: r for r in rows}
        assert by_algo["l2-svm"]["unconverged_fits"] == 3 + 1
        assert by_algo["rf"]["unconverged_fits"] == 0
        assert ("cell structured/hospital/none/l2-svm: 4 of its linear "
                "fits did not converge") in captured.err
        assert "rf:" not in captured.err
        assert "4 unconverged linear fits" in captured.out


class TestSharedStructuredFit:
    def test_structured_and_combined_share_each_fold_fit(self, tmp_path,
                                                         monkeypatch):
        import icumort.experiment as experiment

        calls = []
        real = experiment.impute_fit_transform

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "impute_fit_transform", counting)
        both = _base_obj(feature_sets=["structured", "combined"], folds=3)
        rows = run_experiment(ExperimentConfig.from_obj(both),
                              tmp_path / "both")
        assert all(r["error"] is None for r in rows)
        assert len(calls) == 4  # 3 folds + the full training split

        alone = _base_obj(feature_sets=["structured"], folds=3)
        run_experiment(ExperimentConfig.from_obj(alone), tmp_path / "alone")
        cell = Path("cells/structured/hospital/none/l2-lr")
        for name in ("scores.tsv", "cv.tsv", "model.json"):
            assert (tmp_path / "both" / cell / name).read_bytes() == \
                   (tmp_path / "alone" / cell / name).read_bytes()


class TestLeakage:
    def test_test_rows_do_not_touch_fitted_models(self, tmp_path):
        """Corrupting test-split rows must not change any fitted artifact."""
        cohort = synth_cohort(240, seed=4)
        path_a = tmp_path / "a.jsonl"
        save_cohort(cohort, path_a)
        obj = _base_obj(feature_sets=["structured", "notes"])
        obj["cohort"] = {"path": str(path_a)}
        run_experiment(ExperimentConfig.from_obj(obj), tmp_path / "ra")
        manifest = json.loads((tmp_path / "ra" / "manifest.json").read_text())
        test_rows = set(manifest["splits"]["hospital"]["test"])

        # rewrite every test row: shifted vitals, replaced note text
        rows = sorted(test_rows)
        cells = np.ix_(rows, cohort.schema.continuous_columns)
        values = cohort.values.copy()
        values[cells] = values[cells] * 1.5 + 1.0
        notes = ["unrelated words only" if i in test_rows else note
                 for i, note in enumerate(cohort.notes)]
        mutated = Cohort(cohort.schema, cohort.ids, notes,
                         cohort.label_hospital, cohort.label_30day, values)
        path_b = tmp_path / "b.jsonl"
        save_cohort(mutated, path_b)
        obj_b = _base_obj(feature_sets=["structured", "notes"])
        obj_b["cohort"] = {"path": str(path_b)}
        run_experiment(ExperimentConfig.from_obj(obj_b), tmp_path / "rb")

        for fs in ("structured", "notes"):
            rel = Path(f"cells/{fs}/hospital/none/l2-lr/model.json")
            assert (tmp_path / "ra" / rel).read_bytes() == \
                   (tmp_path / "rb" / rel).read_bytes()
        # the changed test rows do change the scores, proving the rows moved
        rel = Path("cells/structured/hospital/none/l2-lr/scores.tsv")
        assert (tmp_path / "ra" / rel).read_bytes() != \
               (tmp_path / "rb" / rel).read_bytes()


# Generated cohorts for the fold properties: a few features of the default
# schema, with missing values in two continuous columns at drawn rates.
_FOLD_SCHEMA = FeatureSchema([FeatureSchema.default().by_name[n] for n in (
    "age", "lactate", "diabetes", "sofa", "admission_type", "albumin")])
# _FOLD_SCHEMA's columns within the default schema's layout
_FOLD_COLUMNS = np.concatenate([
    np.arange(a, end) for name in _FOLD_SCHEMA.by_name
    for d, a, end in FeatureSchema.default().columns if d.name == name])
_FOLD_MIN_DF = 2


@st.composite
def fold_plans(draw):
    """(cohort, fit rows per fold, fold seed): n from 30 to 120, any plan
    of 2-4 folds, each fold's rows in the plan's (unsorted) order."""
    n = draw(st.integers(30, 120))
    cohort = synth_cohort(n, seed=draw(st.integers(0, 2**16)))
    # replace the generator's missingness of lactate and albumin by a drawn
    # rate: fill every cell from the column's observed values, then mask
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = cohort.values[:, _FOLD_COLUMNS]
    for name, rates in (("lactate", [0.0, 0.1, 0.3]), ("albumin", [0.1, 0.3])):
        column = values[:, _FOLD_SCHEMA.column_names.index(name)]
        observed = column[~np.isnan(column)]
        gaps = np.isnan(column)
        column[gaps] = rng.choice(observed, size=int(gaps.sum()))
        column[rng.random(n) < draw(st.sampled_from(rates))] = np.nan
    cohort = Cohort(_FOLD_SCHEMA, cohort.ids, cohort.notes,
                    cohort.label_hospital, cohort.label_30day, values)
    order = np.array(draw(st.permutations(range(n))))
    k = draw(st.integers(2, 4))
    fit_rows = [np.concatenate([order[g::k] for g in range(k) if g != f])
                for f in range(k)]
    return cohort, fit_rows, draw(st.integers(0, 2**16))


# a fold's table is dense within the budget, and CSR at budget 0
_BUDGETS = (dense.DENSE_VALUES, 0)


def _fold_at(budget, *args, **kwargs):
    """_fold(*args, **kwargs) built with dense.DENSE_VALUES at `budget`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "DENSE_VALUES", budget)
        return _fold(*args, **kwargs)


def assert_block_identical(got, want, budget):
    """A fold's notes or combined rows equal `want` (dense or CSR): as dense
    bytes within the budget, as identical CSR arrays at budget 0."""
    if budget:
        want = want.toarray() if sp.issparse(want) else want
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert sp.issparse(got)
        assert_csr_identical(got, want)


def _fold(cohort, fit_rows, seed, held_rows=None):
    """A fold with structured and note transformers, as the runner builds
    it; it holds out every other row unless `held_rows` names them."""
    if held_rows is None:
        held_rows = np.setdiff1d(np.arange(len(cohort)), fit_rows)
    return _Fold(fit_rows, held_rows, seed, cohort,
                 tokenize_corpus(cohort.notes), _FOLD_MIN_DF)


def _imputer_state(model):
    """Every fitted value of an imputation model, comparable with ==."""
    return (model.n_columns, model.means.tobytes(), model.visit_order,
            {j: c.tobytes() for j, c in model.coefficients.items()},
            model.residual_sds, model.seed,
            model.rank_deficient_columns, model.cycle_median_change)


def _ref_fold(cohort, fit_rows, held_rows, seed):
    """The same fold through the record-based reference path, on the
    records of the cohort's saved file: a function from requested rows to
    (structured, notes, combined matrix).  Fit rows keep the chain's
    imputations; the held-out rows are imputed by one call."""
    records = _saved_records(cohort)
    features = [r["features"] for r in records]
    continuous = _ref_continuous(cohort.schema, features)
    fit_block, imputer = impute_fit_transform(continuous[fit_rows], seed=seed)
    imputed = dict(zip(fit_rows.tolist(), fit_block))
    imputed.update(zip(held_rows.tolist(), apply_imputation(
        imputer, continuous[held_rows])))
    encoder = StructuredEncoder(cohort.schema,
                                *_ref_fold_stats(cohort.schema, fit_block))
    tokens = tokenize_corpus([r["note"] for r in records])
    tfidf = tfidf_fit(build_vocab([tokens[i] for i in fit_rows],
                                  min_df=_FOLD_MIN_DF))

    def matrices(rows):
        block = np.array([imputed[r] for r in rows.tolist()]).reshape(
            rows.size, fit_block.shape[1])
        S = _ref_fold_matrix(encoder, features, rows, block)
        T = _ref_corpus(tfidf, [tokens[i] for i in rows])
        return S, T, fuse_matrix(S, T)
    return matrices


class TestFoldFeatures:
    @settings(max_examples=30, deadline=None)
    @given(plan=fold_plans(), data=st.data())
    def test_fold_matrices_match_record_reference(self, plan, data):
        """Fit rows, held-out rows, an unsorted subset and no rows at all
        encode bit for bit as the record-based path encodes them, from a
        dense table and from a CSR one."""
        cohort, fit_rows, seed = plan
        n = len(cohort)
        for rows in fit_rows[:2]:
            held_out = np.setdiff1d(np.arange(n), rows)
            reference = _ref_fold(cohort, rows, held_out, seed)
            subset = np.array(data.draw(st.permutations(range(n))))
            subset = subset[:data.draw(st.integers(1, n))]
            for budget in _BUDGETS:
                fold = _fold_at(budget, cohort, rows, seed, held_out)
                for request in (rows, held_out, subset,
                                np.zeros(0, dtype=np.int64)):
                    want_s, want_t, want_c = reference(request)
                    got_s = fold.matrix("structured", request)
                    assert isinstance(got_s, np.ndarray)
                    assert got_s.shape == want_s.shape
                    assert got_s.tobytes() == want_s.tobytes()
                    assert_block_identical(fold.matrix("combined", request),
                                           want_c, budget)
                    assert_block_identical(fold.matrix("notes", request),
                                           want_t, budget)

    @settings(max_examples=30, deadline=None)
    @given(plan=fold_plans())
    def test_fold_state_ignores_non_fit_rows(self, plan):
        """Leakage: rewriting every row outside a fold's fit rows (continuous
        values and note text) leaves the fold's imputer, encoder statistics,
        vocabulary, idf and fit-row matrices unchanged."""
        cohort, fit_rows, seed = plan
        for rows in fit_rows:
            fit = set(rows.tolist())
            values = cohort.values.copy()
            notes = list(cohort.notes)
            for i in range(len(cohort)):
                if i not in fit:
                    for j, col in enumerate(cohort.schema.continuous_columns):
                        values[i, col] = np.nan if (i + j) % 3 == 0 else 7.0 * i + j
                    notes[i] = f"leaked{i % 4} pressors w{i}"
            mutated = Cohort(cohort.schema, cohort.ids, notes,
                             cohort.label_hospital, cohort.label_30day, values)
            for budget in _BUDGETS:
                a = _fold_at(budget, cohort, rows, seed)
                b = _fold_at(budget, mutated, rows, seed)
                assert (_imputer_state(a.imp_model)
                        == _imputer_state(b.imp_model))
                assert a.encoder.means.tobytes() == b.encoder.means.tobytes()
                assert a.encoder.sds.tobytes() == b.encoder.sds.tobytes()
                assert a.vocab.tokens == b.vocab.tokens
                assert a.vocab.dfs == b.vocab.dfs
                assert a.vocab.n_docs == b.vocab.n_docs
                assert a.tfidf.idf.tobytes() == b.tfidf.idf.tobytes()
                assert (a.matrix("structured", rows).tobytes()
                        == b.matrix("structured", rows).tobytes())
                assert_block_identical(a.matrix("combined", rows),
                                       b.matrix("combined", rows), budget)
                # the rewrite reached the other rows
                others = np.setdiff1d(np.arange(len(cohort)), rows)
                assert (a.matrix("structured", others).tobytes()
                        != b.matrix("structured", others).tobytes())

    @settings(max_examples=20, deadline=None)
    @given(plan=fold_plans())
    def test_undersampled_fit_rows_keep_their_features(self, plan):
        """A fit row's structured and combined rows are bit-identical among
        the "none" model rows and the "1:4" ones, and are the chain's own
        imputations; validation and test rows are imputed by one call over
        exactly those rows, whichever sampling asks."""
        cohort, _, _ = plan
        # one positive in eight: "1:4" drops negatives from every fit set,
        # and 30 rows still give each of two folds a positive
        labels = (np.arange(len(cohort)) % 8 == 0).astype(np.int64)
        cohort = Cohort(cohort.schema, cohort.ids, cohort.notes, labels,
                        labels, cohort.values)
        config = ExperimentConfig.from_obj(_base_obj(
            feature_sets=["structured", "combined"], sampling=["none", "1:4"],
            folds=2, min_df=_FOLD_MIN_DF))
        tokens = tokenize_corpus(cohort.notes)
        for budget in _BUDGETS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dense, "DENSE_VALUES", budget)
                ctx = experiment._OutcomeContext(cohort, tokens, config,
                                                 "hospital", 0)
            model_rows, seed = ctx.plan.model, ctx.plan.seed
            held = ctx.plan.val + [ctx.plan.split.test_indices]
            for f, fold in enumerate(ctx.folds):
                full, part = model_rows["none"][f], model_rows["1:4"][f]
                assert part.size < full.size
                at = np.searchsorted(full, part)  # fit rows ascend
                assert np.array_equal(full[at], part)
                chain, _ = impute_fit_transform(
                    cohort.continuous_matrix(full),
                    seed=derive_seed(seed, 1, f))
                whole = fold.matrix("structured", full)
                assert (whole.tobytes()
                        == cohort.encode(fold.encoder, full, chain).tobytes())
                assert (fold.matrix("structured", part).tobytes()
                        == whole[at].tobytes())
                assert_block_identical(fold.matrix("combined", part),
                                       fold.matrix("combined", full)[at],
                                       budget)
                rows = held[f]
                once = apply_imputation(fold.imp_model,
                                        cohort.continuous_matrix(rows))
                assert (fold.matrix("structured", rows).tobytes()
                        == cohort.encode(fold.encoder, rows, once).tobytes())

    def test_rows_outside_the_fold_are_refused(self):
        cohort = synth_cohort(120, seed=3)
        fold = _fold(cohort, np.arange(0, 120, 2), 5, np.arange(1, 60, 2))
        for request in ([0, 61], [119]):
            outside = str(request[-1])
            with pytest.raises(IndexError, match=rf"rows \[{outside}\] are "
                               "not in the fold"):
                fold.matrix("structured", request)
            with pytest.raises(IndexError, match=rf"rows \[{outside}\]"):
                fold.cnn_inputs("combined", request, 8)


class TestFailureIsolation:
    def test_failed_cell_recorded_others_proceed(self, tmp_path,
                                                 monkeypatch):
        import icumort.experiment as experiment

        real = experiment._fit_model

        def failing_l1(algo, *args, **kwargs):
            if algo == "l1-lr":
                raise RuntimeError("forced l1-lr failure")
            return real(algo, *args, **kwargs)

        monkeypatch.setattr(experiment, "_fit_model", failing_l1)
        obj = _base_obj(algorithms=["l2-lr", "l1-lr"],
                        grids={"l2-lr": {"C": [1.0]}, "l1-lr": {"C": [1.0]}})
        rows = run_experiment(ExperimentConfig.from_obj(obj), tmp_path)
        by_algo = {r["algorithm"]: r for r in rows}
        assert by_algo["l2-lr"]["error"] is None
        assert by_algo["l1-lr"]["error"] is not None
        assert by_algo["l2-lr"]["unconverged_fits"] == 0
        assert by_algo["l1-lr"]["unconverged_fits"] is None
        text = (tmp_path / "results-structured.tsv").read_text()
        assert "\tNA\t" in text
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["cells"]["structured/hospital/none/l1-lr"][
            "status"] == "failed"

    def test_cli_run_exits_2_when_a_cell_fails(self, tmp_path, monkeypatch,
                                               capsys):
        import icumort.experiment as experiment
        from icumort import cli

        real = experiment._fit_model

        def failing_gbt(algo, *args, **kwargs):
            if algo == "gbt":
                raise RuntimeError("forced gbt failure")
            return real(algo, *args, **kwargs)

        monkeypatch.setattr(experiment, "_fit_model", failing_gbt)
        obj = _base_obj(algorithms=["l2-lr", "gbt"],
                        grids={"l2-lr": {"C": [1.0]}, "gbt": {"rounds": [2]}})
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        captured = capsys.readouterr()
        assert rc == 2
        assert ("cell structured/hospital/none/gbt failed: "
                "RuntimeError: forced gbt failure") in captured.err
        assert "l2-lr failed" not in captured.err
        assert "(1 ok, 1 failed)" in captured.out
        manifest = json.loads((tmp_path / "res" / "manifest.json").read_text())
        assert manifest["cells"]["structured/hospital/none/l2-lr"][
            "status"] == "ok"

    @pytest.mark.parametrize("left_out", ["mlp", "cnn"])
    def test_cli_fails_every_family_on_notes_without_columns(
            self, tmp_path, capsys, left_out):
        """A vocabulary empty at min_df fails each notes cell by name, for
        every family (mlp and cnn in separate runs), instead of fitting
        constant scores."""
        from icumort import cli

        algos = [a for a in experiment.DEFAULT_GRIDS if a != left_out]
        obj = _base_obj(cohort={"synth": {"n": 100}}, feature_sets=["notes"],
                        algorithms=algos, grids={}, min_df=1000,
                        neural={"max_epochs": 1})
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        rc = cli.main(["run", "--config", str(tmp_path / "exp.json"),
                       "--out", str(tmp_path / "res")])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"(0 ok, {len(algos)} failed)" in captured.out
        error = ("TextFeatError: feature set 'notes' has no columns: the "
                 "fold's vocabulary is empty at min_df=1000")
        rows = json.loads((tmp_path / "res" / "results.json").read_text())
        assert {(r["algorithm"], r["auc"], r["error"]) for r in rows} == {
            (algo, None, error) for algo in algos}
        for algo in algos:
            assert f"cell notes/hospital/none/{algo} failed: {error}" in \
                captured.err

    def test_cnn_skipped_on_structured(self, tmp_path):
        obj = _base_obj(
            feature_sets=["structured", "notes"],
            algorithms=["l2-lr", "cnn"],
            grids={"l2-lr": {"C": [1.0]}, "cnn": {"filters": [2]}},
            neural={"embed_dim": 4, "max_len": 16, "max_epochs": 2},
            min_df=2)
        rows = run_experiment(ExperimentConfig.from_obj(obj), tmp_path)
        combos = {(r["feature_set"], r["algorithm"]) for r in rows}
        assert ("structured", "cnn") not in combos
        assert ("notes", "cnn") in combos
        cnn_row = next(r for r in rows
                       if r["algorithm"] == "cnn")
        assert cnn_row["error"] is None


# a linear model file as rank reads it: three weights, two structured
_MODEL = {"loss": "logistic", "reg": "l2", "C": 1.0, "intercept": 0.0,
          "dim": 3, "weights": {"0": 0.5, "2": -0.25}}


def _linear_file(**fields):
    return {"kind": "linear", "model": _MODEL, "n_structured": 2,
            "feature_names": ["u", "v", "tok"], **fields}


_LEAN_SCRIPT = """
import sys
import icumort.cli
print("scipy.sparse" in sys.modules)
rc = icumort.cli.main(["run", "--config", "exp.json", "--out", "res"])
print(rc, "scipy.sparse" in sys.modules)
"""


class TestCli:
    def _python(self, *args, cwd):
        # The subprocess runs in cwd, where a relative PYTHONPATH (such as
        # "src") no longer resolves; lead with the absolute directory this
        # process imported icumort from, so both run the same code.
        pkg_root = str(Path(icumort.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [pkg_root, inherited] if inherited else [pkg_root]))
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, cwd=cwd, env=env)

    def _run(self, *args, cwd):
        return self._python("-m", "icumort.cli", *args, cwd=cwd)

    def test_in_budget_run_never_imports_scipy_sparse(self, tmp_path):
        """Importing the CLI, and a run whose fold tables are all within
        dense.DENSE_VALUES, leave scipy.sparse unimported."""
        obj = _base_obj(feature_sets=["notes", "combined"],
                        algorithms=["l2-lr", "gbt"],
                        grids={"l2-lr": {"C": [1.0]}, "gbt": {"rounds": [2]}})
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        proc = self._python("-c", _LEAN_SCRIPT, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "False"
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_synth_line_count(self, tmp_path):
        (tmp_path / "s.json").write_text('{"n": 100}')
        proc = self._run("synth", "--config", "s.json", "--seed", "3",
                         "--out", "c.jsonl", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 100
        load_cohort(tmp_path / "c.jsonl")  # validates every record

    def test_run_permtest_rank_flow(self, tmp_path):
        (tmp_path / "s.json").write_text('{"n": 220}')
        proc = self._run("synth", "--config", "s.json", "--out", "c.jsonl",
                         cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        obj = _base_obj(feature_sets=["structured", "combined"])
        obj["cohort"] = {"path": "c.jsonl"}
        (tmp_path / "exp.json").write_text(json.dumps(obj))
        proc = self._run("run", "--config", "exp.json", "--out", "res",
                         cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = self._run("permtest", "res", "structured/hospital/none/l2-lr",
                         "combined/hospital/none/l2-lr", "--n-perm", "50",
                         cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "p = " in proc.stdout
        proc = self._run(
            "rank", "res/cells/combined/hospital/none/l2-lr/model.json",
            "-k", "3", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        names = [l.split("\t")[0] for l in proc.stdout.strip().split("\n")]
        assert len(names) == 3
        # structured names only: no bare lowercase note tokens leak through
        schema_prefixes = {n.split("=")[0] for n in names}
        from icumort.cohort import FeatureSchema

        known = {d.name for d in FeatureSchema.default().descriptors}
        assert schema_prefixes <= known

    def test_config_error_exit_code(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"algorithms": ["xgb"]}')
        proc = self._run("run", "--config", "bad.json", "--out", "r",
                         cwd=tmp_path)
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_input_error_leaves_no_output_directory(self, tmp_path):
        (tmp_path / "c.jsonl").write_text("5\n")
        (tmp_path / "exp.json").write_text(
            json.dumps(_base_obj(cohort={"path": "c.jsonl"})))
        proc = self._run("run", "--config", "exp.json", "--out", "res",
                         cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ("error: record must be a JSON object at line 1 "
                               "of cohort c.jsonl\n")
        assert not (tmp_path / "res").exists()

    def test_missing_config_exit_code(self, tmp_path):
        proc = self._run("run", "--config", "absent.json", "--out", "r",
                         cwd=tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "absent.json" in proc.stderr

    def test_rank_wrong_kind_exit_code(self, tmp_path):
        (tmp_path / "m.json").write_text('{"kind": "trees"}')
        proc = self._run("rank", "m.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert "linear models only" in proc.stderr

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "linear"}, " has no key 'model'"),
        ([{"kind": "linear"}], ": rank works on linear models only"),
        (_linear_file(n_structured="2"),
         ": n_structured must be an integer from 0 to dim 3, not '2'"),
        (_linear_file(n_structured=4),
         ": n_structured must be an integer from 0 to dim 3, not 4"),
        (_linear_file(n_structured=-1),
         ": n_structured must be an integer from 0 to dim 3, not -1"),
        (_linear_file(n_structured=0),
         ": model has no structured block to rank"),
        (_linear_file(model=[_MODEL]), ": model must be a JSON object"),
        (_linear_file(model=dict(_MODEL, weights={"3": 0.5})),
         ": weight index 3 is outside dim 3"),
        (_linear_file(model=dict(_MODEL, weights={"-1": 0.5})),
         ": weight index -1 is outside dim 3"),
        (_linear_file(feature_names=["u"]), ": 1 names for 2 coefficients")])
    def test_rank_bad_model_file_names_it(self, tmp_path, capsys, payload,
                                          message):
        from icumort import cli

        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["rank", str(path)]) == 1
        assert capsys.readouterr().err == f"error: model file {path}{message}\n"

    @pytest.mark.parametrize("text, message", [
        ("", "no header at line 1"),
        ("row\tlabel\tscore\n5\t1\t0.5\n6\t0\n", "malformed line 3")])
    def test_permtest_bad_scores_file_names_it(self, tmp_path, capsys, text,
                                               message):
        from icumort import cli

        cell = "structured/hospital/none/l2-lr"
        path = cell_dir(tmp_path, *cell.split("/")) / "scores.tsv"
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert cli.main(["permtest", str(tmp_path), cell, cell]) == 1
        assert (capsys.readouterr().err
                == f"error: {message} of scores file {path}\n")
