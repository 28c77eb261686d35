import json
import math
import tempfile
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icumort.cohort import (
    CohortError,
    FeatureDescriptor,
    FeatureSchema,
    SynthConfig,
    StructuredEncoder,
    encode,
    filter_outliers,
    fit_encoder,
    load_cohort,
    load_ranges,
    save_cohort,
    synth_cohort,
    synth_cohort_with_truth,
)


def _rank_auc(scores, labels):
    # independent check: Mann-Whitney U from average ranks
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = labels == 1
    n1, n0 = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)


@pytest.fixture(scope="module")
def schema():
    return FeatureSchema.default()


class TestSchema:
    def test_default_counts(self, schema):
        assert len(schema.descriptors) == 44
        assert len(schema.continuous) == 36
        assert sum(d.kind == "binary" for d in schema.descriptors) == 4
        assert len(schema.categorical) == 4

    def test_default_layout(self, schema):
        # 36 continuous + 4 binary + (5 + 5 + 5 + 3) one-hot = 58
        assert schema.width == len(schema.column_names) == 58
        assert schema.continuous_columns.size == 36
        assert ([schema.column_names[c] for c in schema.continuous_columns]
                == list(schema.continuous))
        # the features tile the columns in schema order
        spans = [(a, b) for _, a, b in schema.columns]
        assert [d for d, _, _ in schema.columns] == list(schema.descriptors)
        assert spans[0][0] == 0 and spans[-1][1] == 58
        assert all(b == a for (_, b), (a, _) in zip(spans, spans[1:]))

    def test_tiny_layout_spans_its_one_hot_block(self):
        sch = _tiny_schema()
        assert [(d.name, a, b) for d, a, b in sch.columns] == [
            ("x", 0, 1), ("flag", 1, 2), ("color", 2, 5)]
        assert sch.width == 5
        assert sch.continuous_columns.tolist() == [0]
        assert sch.column_names == (
            "x", "flag", "color=red", "color=green", "color=blue")

    def test_duplicate_names_rejected(self):
        d = FeatureDescriptor("age", "continuous")
        with pytest.raises(CohortError):
            FeatureSchema([d, d])

    def test_categorical_needs_categories(self):
        with pytest.raises(CohortError):
            FeatureDescriptor("race", "categorical")


def _record(rid, features, hospital=0, day30=0, note=""):
    """One admission as a cohort file line holds it."""
    return {"id": rid, "features": features, "note": note,
            "label_hospital": hospital, "label_30day": day30}


def _jsonl(records):
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def _load(schema, records):
    """load_cohort of the records' JSONL file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cohort.jsonl"
        path.write_text(_jsonl(records), encoding="utf-8")
        return load_cohort(path, schema)


def _saved_records(cohort):
    """The cohort's records, read back one JSON object per line of its
    saved file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cohort.jsonl"
        save_cohort(cohort, path)
        return [json.loads(line) for line in path.read_text().splitlines()]


def _cell(cohort, i, name):
    """Continuous value of `name` in row i, NaN when missing."""
    return cohort.continuous_matrix()[i, cohort.schema.continuous.index(name)]


class TestCohortValidation:
    def test_duplicate_ids_rejected(self, schema):
        r = _record("a", {})
        with pytest.raises(CohortError, match="duplicate record id 'a' at line 2"):
            _load(schema, [r, r])

    def test_bad_categorical_value(self, schema):
        with pytest.raises(CohortError, match="Martian"):
            _load(schema, [_record("a", {"race": "Martian"})])

    def test_binary_must_be_01(self, schema):
        with pytest.raises(CohortError, match="0 or 1"):
            _load(schema, [_record("a", {"diabetes": 2})])

    def test_unknown_feature_rejected(self, schema):
        with pytest.raises(CohortError, match="unknown feature"):
            _load(schema, [_record("a", {"shoe_size": 11})])

    def test_labels_vector(self, schema):
        c = _load(schema, [_record("a", {}, 1, 1), _record("b", {}, 0, 1)])
        assert c.labels("hospital").tolist() == [1, 0]
        assert c.labels("30day").tolist() == [1, 1]
        with pytest.raises(CohortError):
            c.labels("90day")


class TestIO:
    def test_round_trip_bytes(self, schema, tmp_path):
        """save -> load -> save reproduces the file byte for byte."""
        c = _load(schema, [
            _record("p1", {"age": 71, "race": "White", "diabetes": 1}, 0, 1,
                    "stable overnight"),
            _record("p2", {"age": 54.5, "sofa": 9, "diabetes": 1.0}, 1, 1)])
        assert len(c) == 2
        # a loaded cohort holds floats: integer 71 is saved as 71.0, and a
        # binary 1.0 as 1
        assert _cell(c, 0, "age") == 71.0
        p, q = tmp_path / "c.jsonl", tmp_path / "again.jsonl"
        save_cohort(c, p)
        assert '"age":71.0' in p.read_text()
        assert '"diabetes":1,' in p.read_text().splitlines()[1]
        save_cohort(load_cohort(p, schema), q)
        assert q.read_bytes() == p.read_bytes()

    def test_error_carries_line_number(self, schema, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = {"id": "p1", "features": {}, "note": "", "label_hospital": 0,
                "label_30day": 0}
        bad = {"id": "p2", "features": {"age": "old"}, "note": "",
               "label_hospital": 0, "label_30day": 0}
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(CohortError, match="line 2"):
            load_cohort(p, schema)

    @pytest.mark.parametrize("text", ["1" + "0" * 400, "1e400", "NaN",
                                      "-Infinity"])
    def test_non_finite_value_rejected(self, schema, tmp_path, text):
        """A continuous value that is no finite float, such as an integer
        beyond the float range, is a cohort error with its line."""
        p = tmp_path / "bad.jsonl"
        p.write_text(_jsonl([_record("p1", {})]) + '{"id":"p2","features":'
                     '{"age":' + text + '},"label_30day":0,"label_hospital":0,'
                     '"note":""}\n')
        with pytest.raises(CohortError,
                           match="'age' needs a finite number.* at line 2"):
            load_cohort(p, schema)

    def test_malformed_json_line(self, schema, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("{not json}\n")
        with pytest.raises(CohortError, match="line 1"):
            load_cohort(p, schema)

    @pytest.mark.parametrize("line, message", [
        ("5", "record must be a JSON object at line 2"),
        ('["p2"]', "record must be a JSON object at line 2"),
        ('{"id":"p2","features":[1],"label_30day":0,"label_hospital":0,'
         '"note":""}', "features must be an object at line 2")])
    def test_non_object_line_rejected(self, schema, tmp_path, line, message):
        p = tmp_path / "bad.jsonl"
        p.write_text(_jsonl([_record("p1", {})]) + line + "\n")
        with pytest.raises(CohortError, match=message):
            load_cohort(p, schema)

    def test_missing_key(self, schema, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"id": "x", "features": {}, "note": "",
                                 "label_hospital": 0}) + "\n")
        with pytest.raises(CohortError, match="label_30day"):
            load_cohort(p, schema)


class TestOutlierFilter:
    def test_out_of_range_becomes_missing(self, schema):
        c = _load(schema, [_record("a", {"heart_rate": 400.0, "age": 60})])
        filtered, report = filter_outliers(c)
        assert math.isnan(_cell(filtered, 0, "heart_rate"))
        assert _cell(filtered, 0, "age") == 60
        assert report == {"heart_rate": 1}

    def test_boundary_values_kept(self, schema):
        table = {"heart_rate": (0, 350)}
        c = _load(schema, [_record("a", {"heart_rate": 350})])
        filtered, report = filter_outliers(c, table)
        assert _cell(filtered, 0, "heart_rate") == 350
        assert report == {}

    def test_idempotent(self, schema):
        c = _load(schema, [_record("a", {"heart_rate": 400.0, "ph": 5.0}),
                           _record("b", {"heart_rate": 82.0}, 1, 0)])
        c1, rep1 = filter_outliers(c)
        c2, rep2 = filter_outliers(c1)
        assert rep1 == {"heart_rate": 1, "ph": 1}
        assert rep2 == {}
        assert c2.values.tobytes() == c1.values.tobytes()

    def test_unknown_entry_warns_and_is_ignored(self, schema):
        table = {"banana": (0, 1), "race": (0, 1)}
        c = _load(schema, [_record("a", {"age": 50})])
        with pytest.warns(UserWarning):
            filtered, report = filter_outliers(c, table)
        assert report == {}
        assert _cell(filtered, 0, "age") == 50


class TestRanges:
    def test_bundled_table_loads_its_bounds(self):
        raw = json.loads(resources.files("icumort.data")
                         .joinpath("ranges.json").read_text(encoding="utf-8"))
        ranges = load_ranges()
        assert ranges == {name: (float(lo), float(hi))
                          for name, (lo, hi) in raw.items()}
        assert all(type(v) is float for pair in ranges.values() for v in pair)
        assert ranges["heart_rate"] == (0.0, 350.0)

    def test_file_loads_as_a_mapping(self, tmp_path):
        path = tmp_path / "ranges.json"
        path.write_text('{"age": [18, 120.5], "ph": [6, 8]}')
        assert load_ranges(path) == {"age": (18.0, 120.5), "ph": (6.0, 8.0)}
        # an integer beyond the float range is an infinite bound, not an error
        path.write_text('{"age": [0, 1%s]}' % ("0" * 400))
        assert load_ranges(path) == {"age": (0.0, math.inf)}


def _complete_synth(n, seed):
    """A synthetic cohort with every missing continuous cell filled by its
    column's observed mean, so the encoder can read it directly."""
    c = synth_cohort(SynthConfig(n=n), seed=seed)
    M = c.continuous_matrix()
    return c.with_continuous(np.where(np.isnan(M), np.nanmean(M, axis=0), M))


def _tiny_schema():
    return FeatureSchema([
        FeatureDescriptor("x", "continuous"),
        FeatureDescriptor("flag", "binary"),
        FeatureDescriptor("color", "categorical", categories=("red", "green", "blue")),
    ])


class TestEncoder:
    def test_column_count_default_schema(self, schema):
        # 36 continuous + 4 binary + (5 + 5 + 5 + 3) one-hot = 58
        rng = np.random.default_rng(0)
        records = []
        for i in range(5):
            values = {}
            for d in schema.descriptors:
                if d.kind == "continuous":
                    values[d.name] = float(rng.normal())
                elif d.kind == "binary":
                    values[d.name] = int(rng.integers(0, 2))
                else:
                    values[d.name] = d.categories[int(rng.integers(len(d.categories)))]
            records.append(_record(f"p{i}", values))
        cohort = _load(schema, records)
        assert encode(fit_encoder(cohort), cohort).shape == (5, 58)

    def test_standardization_stats(self):
        """Values {2, 4}: mean 3, population sd 1."""
        sch = _tiny_schema()
        c = _load(sch, [_record("a", {"x": 2.0, "flag": 0, "color": "red"}),
                        _record("b", {"x": 4.0, "flag": 1, "color": "blue"})])
        enc = fit_encoder(c)
        assert enc.means[0] == pytest.approx(3.0)
        assert enc.sds[0] == pytest.approx(1.0)
        X = encode(enc, c)
        assert X.shape == (2, 5)
        np.testing.assert_allclose(X[:, 0], [-1.0, 1.0])
        np.testing.assert_allclose(X[:, 1], [0.0, 1.0])
        np.testing.assert_allclose(X[0, 2:], [1, 0, 0])  # red
        np.testing.assert_allclose(X[1, 2:], [0, 0, 1])  # blue

    def test_one_hot_slot_matches_category_order(self, schema):
        # race categories are (White, Black, Hispanic, Asian, Other)
        desc = schema.by_name["race"]
        assert desc.categories.index("Asian") == 3

    def test_training_columns_have_zero_mean(self, schema):
        c = _complete_synth(200, seed=3)
        enc = fit_encoder(c)
        X = encode(enc, c)
        cont = X[:, :36]
        assert np.abs(cont.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(cont.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_warns_and_uses_unit_sd(self):
        sch = _tiny_schema()
        c = _load(sch, [_record(f"p{i}", {"x": 7.0, "flag": 0, "color": "red"})
                        for i in range(3)])
        with pytest.warns(UserWarning, match="constant"):
            enc = fit_encoder(c)
        assert enc.sds[0] == 1.0
        X = encode(enc, c)
        np.testing.assert_allclose(X[:, 0], 0.0)

    def test_float_constant_with_nonzero_rounded_sd_is_constant(self):
        # the mean of 7 copies of v rounds away from v: sd 1.1e-13, not 0
        v = -559.4764078878736
        block = np.full((7, 1), v)
        assert block.std() > 0
        schema = FeatureSchema([FeatureDescriptor("x", "continuous")])
        with pytest.warns(UserWarning, match="constant"):
            enc = StructuredEncoder.fit(schema, block)
        assert enc.sds[0] == 1.0
        encoded = _load(schema, [_record(f"p{i}", {"x": v}) for i in range(7)]
                        ).encode(enc, list(range(7)), block)
        assert np.abs(encoded).max() < 1e-9  # was -1.0 for every row

    def test_tiny_varying_column_keeps_its_scale(self):
        # its squared deviations underflow: the plain sd is exactly 0
        block = np.array([[0.0], [5.03e-226]])
        assert block.std() == 0.0
        schema = FeatureSchema([FeatureDescriptor("x", "continuous")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enc = StructuredEncoder.fit(schema, block)
        assert enc.constant_columns == ()
        assert enc.sds[0] == pytest.approx(2.515e-226, rel=1e-12)
        encoded = _load(schema, [_record(f"p{i}", {"x": float(v)})
                                 for i, v in enumerate(block[:, 0])]
                        ).encode(enc, [0, 1], block)
        np.testing.assert_allclose(encoded[:, 0], [-1.0, 1.0], rtol=1e-12)

    def test_missing_values_rejected_with_pointer(self):
        sch = _tiny_schema()
        c = _load(sch, [_record("a", {"flag": 0, "color": "red"})])
        with pytest.raises(CohortError, match="impute"):
            fit_encoder(c)

    def test_encode_injective_on_distinct_rows(self, schema):
        c = _complete_synth(80, seed=11)
        enc = fit_encoder(c)
        X = encode(enc, c)
        assert len({tuple(row) for row in np.round(X, 10)}) == 80

    def test_with_continuous_round_trip(self, schema):
        c = _complete_synth(30, seed=5)
        M = c.continuous_matrix()
        assert not np.isnan(M).any()
        c2 = c.with_continuous(M + 1.0)
        M2 = c2.continuous_matrix()
        np.testing.assert_allclose(M2, M + 1.0)
        # untouched parts carried over
        assert c2.notes == c.notes
        others = np.delete(np.arange(c.values.shape[1]), c.schema.continuous_columns)
        assert c2.values[:, others].tobytes() == c.values[:, others].tobytes()

    def test_with_continuous_refuses_bad_block(self, schema):
        c = _complete_synth(30, seed=5)
        M = c.continuous_matrix()
        with pytest.raises(CohortError, match="shape"):
            c.with_continuous(M[:, 1:])
        M[4, 2] = np.nan
        with pytest.raises(CohortError, match="finite"):
            c.with_continuous(M)

    def test_missing_binary_value_raises(self):
        sch = _tiny_schema()
        rs = [_record("a", {"x": 1.0, "flag": 0, "color": "red"}),
              _record("b", {"x": 2.0, "color": "blue"})]
        c = _load(sch, rs)
        enc = fit_encoder(c)
        with pytest.raises(CohortError, match="missing value for 'flag' in record 'b'"):
            encode(enc, c)
        # rows without the gap still encode
        np.testing.assert_array_equal(
            c.encode(enc, [0], [[1.0]]), encode(enc, _load(sch, rs[:1])))

    def test_missing_continuous_value_raises(self):
        sch = _tiny_schema()
        rs = [_record("a", {"x": 1.0, "flag": 0, "color": "red"}),
              _record("c", {"x": 3.0, "flag": 0, "color": "red"}),
              _record("b", {"flag": 1, "color": "blue"})]
        enc = fit_encoder(_load(sch, rs[:2]))
        with pytest.raises(CohortError, match="missing value for 'x' in record 'b'"):
            encode(enc, _load(sch, rs))

    def test_block_shape_mismatch_raises(self):
        sch = _tiny_schema()
        c = _load(sch, [_record(f"p{i}", {"x": float(i), "flag": 0, "color": "red"})
                        for i in range(3)])
        enc = fit_encoder(c)
        with pytest.raises(CohortError, match="shape"):
            c.encode(enc, [0, 1], np.zeros((3, 1)))
        with pytest.raises(CohortError, match="shape"):
            StructuredEncoder.fit(sch, np.zeros((3, 2)))
        with pytest.raises(CohortError, match="empty"):
            StructuredEncoder.fit(sch, np.zeros((0, 1)))


# Record reference: the cohort as a list of per-record feature dicts, decoded
# one record and one feature at a time, as the cohort was before it became
# columns.  load_cohort, filter_outliers, StructuredEncoder.fit and
# Cohort.encode must agree with it bit for bit.

def _ref_values(schema, features):
    """Values matrix of per-record feature dicts: continuous and binary
    values as floats, categoricals one-hot, NaN across a missing feature's
    columns."""
    widths = [len(d.categories) if d.kind == "categorical" else 1
              for d in schema.descriptors]
    out = np.zeros((len(features), sum(widths)))
    for i, values in enumerate(features):
        col = 0
        for d, width in zip(schema.descriptors, widths):
            v = values.get(d.name)
            if v is None:
                out[i, col:col + width] = np.nan
            elif d.kind == "categorical":
                out[i, col + d.categories.index(v)] = 1.0
            else:
                out[i, col] = float(v)
            col += width
    return out


def _ref_continuous(schema, features):
    """Continuous block of per-record feature dicts, NaN where missing."""
    return np.array([[np.nan if values.get(name) is None else float(values[name])
                      for name in schema.continuous] for values in features]
                    ).reshape(len(features), len(schema.continuous))


def _ref_filter(features, bounds):
    """Per-record outlier filter: (filtered feature dicts, report)."""
    report = {}
    out = []
    for values in features:
        values = dict(values)
        for name, (lo, hi) in bounds.items():
            v = values.get(name)
            if v is not None and (v < lo or v > hi):
                values[name] = None
                report[name] = report.get(name, 0) + 1
        out.append(values)
    return out, report


def _exact_sd(values):
    """Population sd of float values from exact rational arithmetic, so it
    cannot underflow: the variance is scaled by 4**k into the normal float
    range, rooted, and the root scaled back by 2**-k."""
    values = [Fraction(v) for v in values]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    k = max(0, (var.denominator.bit_length() - var.numerator.bit_length()) // 2)
    return math.ldexp(math.sqrt(var * 4 ** k), -k)


def _ref_fold_stats(schema, fit_block):
    """Encoder statistics of a completed continuous block, read row by row
    into a fresh matrix.  A column whose float sd underflows to 0 although
    its values differ takes the exact sd."""
    fit_block = np.array(fit_block.tolist()).reshape(fit_block.shape)
    means = fit_block.mean(axis=0)
    sds = fit_block.std(axis=0)  # ddof=0
    constant = []
    for j, name in enumerate(schema.continuous):
        column = fit_block[:, j].tolist()
        flat = len(set(column)) == 1
        if sds[j] == 0.0 and not flat:
            sds[j] = _exact_sd(column)
        if flat or sds[j] == 0.0:
            # even the exact sd can round to 0 below the least subnormal
            sds[j] = 1.0
            constant.append(name)
    return means, sds, constant


def _ref_fold_matrix(encoder, features, rows, block):
    """Rows `rows` of per-record feature dicts, their continuous values
    replaced by `block`, encoded one record and one feature at a time."""
    first, width = {}, 0
    for d in encoder.schema.descriptors:
        first[d.name] = width
        width += len(d.categories) if d.kind == "categorical" else 1
    X = np.zeros((len(rows), width))
    cont_index = {name: j for j, name in enumerate(encoder.schema.continuous)}
    for i, row in enumerate(rows):
        for d in encoder.schema.descriptors:
            a = first[d.name]
            v = features[row].get(d.name)
            if d.kind == "continuous":
                j = cont_index[d.name]
                X[i, a] = (float(block[i, j]) - encoder.means[j]) / encoder.sds[j]
            elif d.kind == "binary":
                X[i, a] = float(v)
            else:
                X[i, a + d.categories.index(v)] = 1.0
    return X


_SMALL_SCHEMA = FeatureSchema([
    FeatureDescriptor("x", "continuous"),
    FeatureDescriptor("flag", "binary"),
    FeatureDescriptor("y", "continuous"),
    FeatureDescriptor("color", "categorical", categories=("red", "green", "blue")),
    FeatureDescriptor("z", "continuous"),
])
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False, width=64)
_SMALL_RANGES = {"x": (-10.0, 10.0), "z": (0.0, 5.5)}


@st.composite
def record_features(draw):
    """Feature dicts for _SMALL_SCHEMA: any value may be missing, either
    left out or null; continuous values are integers or floats, binary
    values integers or floats."""
    features = []
    for _ in range(draw(st.integers(0, 10))):
        values = {}
        for name in _SMALL_SCHEMA.continuous:
            # the range bounds themselves, which the filter keeps
            values[name] = draw(st.one_of(
                st.none(), st.integers(-50, 50), _FLOATS,
                st.sampled_from([-10.0, 10.0, 0.0, 5.5, -0.0])))
        values["flag"] = draw(st.sampled_from([None, 0, 1, 0.0, 1.0]))
        values["color"] = draw(st.sampled_from([None, "red", "green", "blue"]))
        features.append({name: v for name, v in values.items()
                         if v is not None or draw(st.booleans())})
    return features


@settings(max_examples=100, deadline=None)
@given(features=record_features())
def test_columns_match_record_reference(features):
    """load_cohort builds the reference matrix bit for bit; save -> load ->
    save is byte stable; filter_outliers nulls the reference's cells with
    the reference's counts."""
    records = [_record(f"r{i}", values, i % 2, 1, f"note {i}")
               for i, values in enumerate(features)]
    cohort = _load(_SMALL_SCHEMA, records)
    assert cohort.values.tobytes() == _ref_values(_SMALL_SCHEMA, features).tobytes()
    assert cohort.ids == [r["id"] for r in records]
    assert cohort.notes == [r["note"] for r in records]
    assert cohort.labels("hospital").tolist() == [i % 2 for i in range(len(records))]

    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d) / "first.jsonl", Path(d) / "second.jsonl"
        save_cohort(cohort, first)
        save_cohort(load_cohort(first, _SMALL_SCHEMA), second)
        assert first.read_bytes() == second.read_bytes()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filtered, report = filter_outliers(cohort, _SMALL_RANGES)
    want, want_report = _ref_filter(features, _SMALL_RANGES)
    assert filtered.values.tobytes() == _ref_values(_SMALL_SCHEMA, want).tobytes()
    assert report == want_report
    # the input cohort is left as it was
    assert cohort.values.tobytes() == _ref_values(_SMALL_SCHEMA, features).tobytes()


@st.composite
def encoder_cases(draw):
    """Feature dicts with missing continuous values, fit rows and a completed
    block for them (one column constant on request), and a second row
    request with its block: rows unsorted, possibly none."""
    n = draw(st.integers(1, 12))
    features = []
    for i in range(n):
        values = {name: draw(st.one_of(st.none(), _FLOATS))
                  for name in _SMALL_SCHEMA.continuous}
        values["flag"] = draw(st.sampled_from([0, 1]))
        values["color"] = draw(st.sampled_from(["red", "green", "blue"]))
        features.append(values)
    fit_rows = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    fit_block = np.array(draw(st.lists(
        st.lists(_FLOATS, min_size=3, max_size=3),
        min_size=len(fit_rows), max_size=len(fit_rows))))
    constant = draw(st.sampled_from([None, 0, 1, 2]))
    if constant is not None:
        # a float constant's rounded mean can leave it a tiny nonzero sd
        fit_block[:, constant] = draw(_FLOATS)
    rows = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    block = np.array(draw(st.lists(
        st.lists(_FLOATS, min_size=3, max_size=3),
        min_size=len(rows), max_size=len(rows)))).reshape(len(rows), 3)
    return features, list(fit_rows), fit_block, list(rows), block, constant


@settings(max_examples=100, deadline=None)
@given(case=encoder_cases())
def test_arrays_match_record_reference(case):
    features, fit_rows, fit_block, rows, block, constant = case
    cohort = _load(_SMALL_SCHEMA, [_record(f"r{i}", values)
                                   for i, values in enumerate(features)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enc = StructuredEncoder.fit(cohort.schema, fit_block)
    means, sds, const_names = _ref_fold_stats(cohort.schema, fit_block)
    assert enc.means.tobytes() == means.tobytes()
    # an exact sd matches the encoder's to rounding, every other bit for bit
    underflow = np.flatnonzero((fit_block.std(axis=0) == 0.0)
                               & (fit_block.max(axis=0) != fit_block.min(axis=0)))
    plain = np.setdiff1d(np.arange(len(sds)), underflow)
    assert enc.sds[plain].tobytes() == sds[plain].tobytes()
    np.testing.assert_allclose(enc.sds[underflow], sds[underflow], rtol=1e-12)
    assert enc.constant_columns == tuple(const_names)
    assert [str(w.message) for w in caught] == [
        f"continuous feature {name!r} is constant; sd set to 1"
        for name in const_names]
    if constant is not None:
        assert cohort.schema.continuous[constant] in const_names
        column = cohort.schema.continuous_columns[constant]
        fit_matrix = cohort.encode(enc, fit_rows, fit_block)
        assert np.abs(fit_matrix[:, column]).max() < 1e-9

    for request, values in ((fit_rows, fit_block), (rows, block)):
        got = cohort.encode(enc, request, values)
        want = _ref_fold_matrix(enc, features, request, values)
        assert got.shape == want.shape == (len(request), cohort.schema.width)
        assert got.tobytes() == want.tobytes()


_UNKNOWN = "unknown generator config key"


class TestSynth:
    def test_seed_determinism_byte_identical(self, tmp_path):
        cfg = SynthConfig(n=150)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_cohort(synth_cohort(cfg, seed=42), a)
        save_cohort(synth_cohort(cfg, seed=42), b)
        assert a.read_bytes() == b.read_bytes()
        save_cohort(synth_cohort(cfg, seed=43), b)
        assert a.read_bytes() != b.read_bytes()

    def test_base_rates_hit_targets(self):
        c = synth_cohort(seed=7)
        assert len(c) == 5396
        rate_h = c.labels("hospital").mean()
        rate_30 = c.labels("30day").mean()
        assert abs(rate_h - 0.1294) <= 0.01
        assert abs(rate_30 - 0.1651) <= 0.01

    def test_hospital_deaths_nest_in_30day(self):
        c = synth_cohort(SynthConfig(n=1500), seed=9)
        h = c.labels("hospital")
        d30 = c.labels("30day")
        assert np.all(d30[h == 1] == 1)
        assert d30.sum() > h.sum()

    def test_missingness_rates(self):
        c = synth_cohort(seed=1)
        n = len(c)
        missing = np.isnan(c.continuous_matrix())
        column = c.schema.continuous.index
        miss_bmi = missing[:, column("bmi")].sum() / n
        miss_ast = missing[:, column("aspartate_aminotransferase")].sum() / n
        miss_age = missing[:, column("age")].sum() / n
        assert 0.46 <= miss_bmi <= 0.50
        assert 0.39 <= miss_ast <= 0.43
        assert miss_age == 0.0

    def test_notes_contain_mask_spans(self):
        c = synth_cohort(SynthConfig(n=50), seed=2)
        assert any("[**" in note for note in c.notes)
        assert all(c.notes)

    def test_true_risk_separates_labels(self):
        """The generator's own risk score must be a strong ranker."""
        c, risk = synth_cohort_with_truth(SynthConfig(n=4000), seed=13)
        auc = _rank_auc(risk, c.labels("30day"))
        assert auc > 0.85

    def test_config_validation(self):
        with pytest.raises(CohortError):
            synth_cohort(SynthConfig(n=5))
        # the generator's statistics are constants, not settings
        for key in ("rate_hospital", "missing_rates"):
            with pytest.raises(TypeError, match=key):
                SynthConfig(**{key: 0.5})

    def test_config_json_round_trip(self, tmp_path):
        (tmp_path / "synth.json").write_text('{"n": 64}')
        cfg = SynthConfig.load(tmp_path / "synth.json")
        assert cfg.n == 64
        assert cfg.to_obj() == {"n": 64}
        # methods and dunders are attributes, not settings
        for key in ("banana", "to_obj", "from_json", "load", "__class__"):
            with pytest.raises(CohortError,
                               match="unknown generator config key"):
                SynthConfig.from_obj({key: 1})
        with pytest.raises(CohortError, match="JSON object"):
            SynthConfig.from_obj([1, 2])

    # Every key but n names a former setting, now a constant: it is refused
    # as unknown whatever its value. Those cases keep the ids they had as
    # type checks of the setting.
    @pytest.mark.parametrize("key, value, message", [
        ("n", "50", "integer n"), ("n", 50.0, "integer n"),
        ("n", True, "integer n"),
        pytest.param("rate_hospital", None, _UNKNOWN,
                     id="rate_hospital-None-base rate"),
        pytest.param("text_weight", "0.3", _UNKNOWN,
                     id="text_weight-0.3-text_weight"),
        pytest.param("risk_token_mean", [1], _UNKNOWN,
                     id="risk_token_mean-value5-risk_token_mean"),
        pytest.param("missing_rates", ["bmi"], _UNKNOWN,
                     id="missing_rates-value6-missing_rates"),
        pytest.param("missing_rates", {"bmi": "0.4"}, _UNKNOWN,
                     id="missing_rates-value7-missingness rate"),
        pytest.param("risk_tokens", "arrest", _UNKNOWN,
                     id="risk_tokens-arrest-risk_tokens"),
        pytest.param("risk_tokens", ["arrest", 3], _UNKNOWN,
                     id="risk_tokens-value9-risk_tokens"),
        pytest.param("note_length", 40, _UNKNOWN,
                     id="note_length-40-note_length"),
        pytest.param("note_length", [40], _UNKNOWN,
                     id="note_length-value11-note_length"),
        pytest.param("note_length", [40, "120"], _UNKNOWN,
                     id="note_length-value12-note_length")])
    def test_wrongly_typed_value_rejected(self, key, value, message):
        with pytest.raises(CohortError, match=message):
            SynthConfig.from_obj({key: value})

    def test_values_respect_plausible_ranges(self):
        c = synth_cohort(SynthConfig(n=800), seed=21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = filter_outliers(c)
        assert report == {}
