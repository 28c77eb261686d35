import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icumort.cohort import (
    Cohort,
    CohortArrays,
    CohortError,
    FeatureDescriptor,
    FeatureSchema,
    PatientRecord,
    PlausibleRangeTable,
    SynthConfig,
    StructuredEncoder,
    encode,
    filter_outliers,
    fit_encoder,
    load_cohort,
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
        assert len(schema.names) == 44
        assert len(schema.continuous) == 36
        assert len(schema.binary) == 4
        assert len(schema.categorical) == 4

    def test_duplicate_names_rejected(self):
        d = FeatureDescriptor("age", "continuous")
        with pytest.raises(CohortError):
            FeatureSchema([d, d])

    def test_categorical_needs_categories(self):
        with pytest.raises(CohortError):
            FeatureDescriptor("race", "categorical")


class TestCohortValidation:
    def test_duplicate_ids_rejected(self, schema):
        r = PatientRecord("a", {}, "", False, False)
        with pytest.raises(CohortError, match="duplicate record id"):
            Cohort(schema, [r, r])

    def test_bad_categorical_value(self, schema):
        r = PatientRecord("a", {"race": "Martian"}, "", False, False)
        with pytest.raises(CohortError, match="Martian"):
            Cohort(schema, [r])

    def test_binary_must_be_01(self, schema):
        r = PatientRecord("a", {"diabetes": 2}, "", False, False)
        with pytest.raises(CohortError, match="0 or 1"):
            Cohort(schema, [r])

    def test_unknown_feature_rejected(self, schema):
        r = PatientRecord("a", {"shoe_size": 11}, "", False, False)
        with pytest.raises(CohortError, match="unknown feature"):
            Cohort(schema, [r])

    def test_labels_vector(self, schema):
        rs = [PatientRecord("a", {}, "", True, True),
              PatientRecord("b", {}, "", False, True)]
        c = Cohort(schema, rs)
        assert c.labels("hospital").tolist() == [1, 0]
        assert c.labels("30day").tolist() == [1, 1]
        with pytest.raises(CohortError):
            c.labels("90day")


class TestIO:
    def test_round_trip_bytes(self, schema, tmp_path):
        """save -> load -> save reproduces the file byte for byte."""
        lines = [
            {"id": "p1", "features": {"age": 71, "race": "White", "diabetes": 1},
             "note": "stable overnight", "label_hospital": 0, "label_30day": 1},
            {"id": "p2", "features": {"age": 54.5, "sofa": 9},
             "note": "", "label_hospital": 1, "label_30day": 1},
        ]
        p = tmp_path / "c.jsonl"
        p.write_text("".join(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
                             for obj in lines))
        c = load_cohort(p, schema)
        assert len(c) == 2
        assert c.records[0].get("age") == 71
        q = tmp_path / "again.jsonl"
        save_cohort(c, q)
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

    def test_malformed_json_line(self, schema, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("{not json}\n")
        with pytest.raises(CohortError, match="line 1"):
            load_cohort(p, schema)

    def test_missing_key(self, schema, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"id": "x", "features": {}, "note": "",
                                 "label_hospital": 0}) + "\n")
        with pytest.raises(CohortError, match="label_30day"):
            load_cohort(p, schema)


class TestOutlierFilter:
    def test_out_of_range_becomes_missing(self, schema):
        r = PatientRecord("a", {"heart_rate": 400.0, "age": 60}, "", False, False)
        c = Cohort(schema, [r])
        filtered, report = filter_outliers(c)
        assert filtered.records[0].get("heart_rate") is None
        assert filtered.records[0].get("age") == 60
        assert report == {"heart_rate": 1}

    def test_boundary_values_kept(self, schema):
        table = PlausibleRangeTable({"heart_rate": (0, 350)})
        r = PatientRecord("a", {"heart_rate": 350}, "", False, False)
        filtered, report = filter_outliers(Cohort(schema, [r]), table)
        assert filtered.records[0].get("heart_rate") == 350
        assert report == {}

    def test_idempotent(self, schema):
        rs = [PatientRecord("a", {"heart_rate": 400.0, "ph": 5.0}, "", False, False),
              PatientRecord("b", {"heart_rate": 82.0}, "", True, False)]
        c1, rep1 = filter_outliers(Cohort(schema, rs))
        c2, rep2 = filter_outliers(c1)
        assert rep1 == {"heart_rate": 1, "ph": 1}
        assert rep2 == {}
        assert [r.values for r in c2.records] == [r.values for r in c1.records]

    def test_unknown_entry_warns_and_is_ignored(self, schema):
        table = PlausibleRangeTable({"banana": (0, 1), "race": (0, 1)})
        r = PatientRecord("a", {"age": 50}, "", False, False)
        with pytest.warns(UserWarning):
            filtered, report = filter_outliers(Cohort(schema, [r]), table)
        assert report == {}
        assert filtered.records[0].get("age") == 50


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
            records.append(PatientRecord(f"p{i}", values, "", False, False))
        enc = fit_encoder(Cohort(schema, records))
        assert enc.n_columns == 58
        assert len(enc.column_names()) == 58

    def test_standardization_stats(self):
        """Values {2, 4}: mean 3, population sd 1."""
        sch = _tiny_schema()
        rs = [PatientRecord("a", {"x": 2.0, "flag": 0, "color": "red"}, "", False, False),
              PatientRecord("b", {"x": 4.0, "flag": 1, "color": "blue"}, "", False, False)]
        enc = fit_encoder(Cohort(sch, rs))
        assert enc.means[0] == pytest.approx(3.0)
        assert enc.sds[0] == pytest.approx(1.0)
        X = encode(enc, Cohort(sch, rs))
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
        c = synth_cohort(SynthConfig(n=200, missing_rates={}), seed=3)
        enc = fit_encoder(c)
        X = encode(enc, c)
        cont = X[:, :36]
        assert np.abs(cont.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(cont.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_warns_and_uses_unit_sd(self):
        sch = _tiny_schema()
        rs = [PatientRecord(f"p{i}", {"x": 7.0, "flag": 0, "color": "red"}, "",
                            False, False) for i in range(3)]
        with pytest.warns(UserWarning, match="constant"):
            enc = fit_encoder(Cohort(sch, rs))
        assert enc.sds[0] == 1.0
        X = encode(enc, Cohort(sch, rs))
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
        encoded = CohortArrays(Cohort(schema, [
            PatientRecord(f"p{i}", {"x": v}, "", False, False)
            for i in range(7)])).encode(enc, list(range(7)), block)
        assert np.abs(encoded).max() < 1e-9  # was -1.0 for every row

    def test_missing_values_rejected_with_pointer(self):
        sch = _tiny_schema()
        rs = [PatientRecord("a", {"flag": 0, "color": "red"}, "", False, False)]
        with pytest.raises(CohortError, match="impute"):
            fit_encoder(Cohort(sch, rs))

    def test_encode_injective_on_distinct_rows(self, schema):
        c = synth_cohort(SynthConfig(n=80, missing_rates={}), seed=11)
        enc = fit_encoder(c)
        X = encode(enc, c)
        assert len({tuple(row) for row in np.round(X, 10)}) == 80

    def test_with_continuous_round_trip(self, schema):
        c = synth_cohort(SynthConfig(n=30, missing_rates={}), seed=5)
        M = c.continuous_matrix()
        assert not np.isnan(M).any()
        c2 = c.with_continuous(M + 1.0)
        M2 = c2.continuous_matrix()
        np.testing.assert_allclose(M2, M + 1.0)
        # untouched parts carried over
        assert c2.records[0].note_text == c.records[0].note_text
        assert c2.records[0].get("race") == c.records[0].get("race")


    def test_missing_binary_value_raises(self):
        sch = _tiny_schema()
        rs = [PatientRecord("a", {"x": 1.0, "flag": 0, "color": "red"}, "", False, False),
              PatientRecord("b", {"x": 2.0, "color": "blue"}, "", False, False)]
        enc = fit_encoder(Cohort(sch, rs))
        with pytest.raises(CohortError, match="missing value for 'flag' in record 'b'"):
            encode(enc, Cohort(sch, rs))
        arrays = CohortArrays(Cohort(sch, rs))
        # rows without the gap still encode
        np.testing.assert_array_equal(
            arrays.encode(enc, [0], [[1.0]]), encode(enc, Cohort(sch, rs[:1])))

    def test_missing_continuous_value_raises(self):
        sch = _tiny_schema()
        rs = [PatientRecord("a", {"x": 1.0, "flag": 0, "color": "red"}, "", False, False),
              PatientRecord("c", {"x": 3.0, "flag": 0, "color": "red"}, "", False, False),
              PatientRecord("b", {"flag": 1, "color": "blue"}, "", False, False)]
        enc = fit_encoder(Cohort(sch, rs[:2]))
        with pytest.raises(CohortError, match="missing value for 'x' in record 'b'"):
            encode(enc, Cohort(sch, rs))

    def test_block_shape_mismatch_raises(self):
        sch = _tiny_schema()
        rs = [PatientRecord(f"p{i}", {"x": float(i), "flag": 0, "color": "red"}, "",
                            False, False) for i in range(3)]
        arrays = CohortArrays(Cohort(sch, rs))
        enc = fit_encoder(Cohort(sch, rs))
        with pytest.raises(CohortError, match="shape"):
            arrays.encode(enc, [0, 1], np.zeros((3, 1)))
        with pytest.raises(CohortError, match="shape"):
            StructuredEncoder.fit(sch, np.zeros((3, 2)))
        with pytest.raises(CohortError, match="empty"):
            StructuredEncoder.fit(sch, np.zeros((0, 1)))


# Reference encoder: the record-based path the runner took before the cohort
# was decoded into arrays -- subset, then with_continuous, then statistics
# and encoding one record and one feature at a time.  StructuredEncoder.fit
# and CohortArrays.encode must agree with it bit for bit.

def _ref_fit_stats(cohort):
    X = cohort.continuous_matrix()
    means = X.mean(axis=0)
    sds = X.std(axis=0)  # ddof=0
    constant = []
    for j, name in enumerate(cohort.schema.continuous):
        if len(set(X[:, j].tolist())) == 1 or sds[j] == 0.0:
            sds[j] = 1.0
            constant.append(name)
    return means, sds, constant


def _ref_encode(encoder, cohort):
    X = np.zeros((len(cohort), encoder.n_columns))
    cont_index = {name: j for j, name in enumerate(encoder.schema.continuous)}
    first = {name: a for name, a, _ in encoder.layout}
    for i, r in enumerate(cohort.records):
        for d in encoder.schema.descriptors:
            a = first[d.name]
            v = r.values[d.name]
            if d.kind == "continuous":
                j = cont_index[d.name]
                X[i, a] = (float(v) - encoder.means[j]) / encoder.sds[j]
            elif d.kind == "binary":
                X[i, a] = float(v)
            else:
                X[i, a + d.categories.index(v)] = 1.0
    return X


def _ref_fold_stats(cohort, fit_rows, fit_block):
    return _ref_fit_stats(cohort.subset(fit_rows).with_continuous(fit_block))


def _ref_fold_matrix(encoder, cohort, rows, block):
    return _ref_encode(encoder, cohort.subset(rows).with_continuous(block))


_SMALL_SCHEMA = FeatureSchema([
    FeatureDescriptor("x", "continuous"),
    FeatureDescriptor("flag", "binary"),
    FeatureDescriptor("y", "continuous"),
    FeatureDescriptor("color", "categorical", categories=("red", "green", "blue")),
    FeatureDescriptor("z", "continuous"),
])
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def encoder_cases(draw):
    """A cohort with missing continuous values, fit rows and a completed
    block for them (one column constant on request), and a second row
    request with its block: rows unsorted, possibly none."""
    n = draw(st.integers(1, 12))
    records = []
    for i in range(n):
        values = {name: draw(st.one_of(st.none(), _FLOATS))
                  for name in _SMALL_SCHEMA.continuous}
        values["flag"] = draw(st.sampled_from([0, 1]))
        values["color"] = draw(st.sampled_from(["red", "green", "blue"]))
        records.append(PatientRecord(f"r{i}", values, "", False, False))
    cohort = Cohort(_SMALL_SCHEMA, records)
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
    return cohort, list(fit_rows), fit_block, list(rows), block, constant


@settings(max_examples=100, deadline=None)
@given(case=encoder_cases())
def test_arrays_match_record_reference(case):
    cohort, fit_rows, fit_block, rows, block, constant = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enc = StructuredEncoder.fit(cohort.schema, fit_block)
    means, sds, const_names = _ref_fold_stats(cohort, fit_rows, fit_block)
    assert enc.means.tobytes() == means.tobytes()
    assert enc.sds.tobytes() == sds.tobytes()
    assert enc.constant_columns == tuple(const_names)
    assert [str(w.message) for w in caught] == [
        f"continuous feature {name!r} is constant; sd set to 1"
        for name in const_names]
    if constant is not None:
        assert cohort.schema.continuous[constant] in const_names
        column = enc.continuous_columns[constant]
        fit_matrix = CohortArrays(cohort).encode(enc, fit_rows, fit_block)
        assert np.abs(fit_matrix[:, column]).max() < 1e-9

    arrays = CohortArrays(cohort)
    for request, values in ((fit_rows, fit_block), (rows, block)):
        got = arrays.encode(enc, request, values)
        want = _ref_fold_matrix(enc, cohort, request, values)
        assert got.shape == want.shape == (len(request), enc.n_columns)
        assert got.tobytes() == want.tobytes()


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
        miss_bmi = sum(r.get("bmi") is None for r in c.records) / n
        miss_ast = sum(r.get("aspartate_aminotransferase") is None
                       for r in c.records) / n
        miss_age = sum(r.get("age") is None for r in c.records) / n
        assert 0.46 <= miss_bmi <= 0.50
        assert 0.39 <= miss_ast <= 0.43
        assert miss_age == 0.0

    def test_notes_contain_mask_spans(self):
        c = synth_cohort(SynthConfig(n=50), seed=2)
        assert any("[**" in r.note_text for r in c.records)
        assert all(r.note_text for r in c.records)

    def test_true_risk_separates_labels(self):
        """The generator's own risk score must be a strong ranker."""
        c, risk = synth_cohort_with_truth(SynthConfig(n=4000), seed=13)
        auc = _rank_auc(risk, c.labels("30day"))
        assert auc > 0.85

    def test_config_validation(self):
        with pytest.raises(CohortError):
            synth_cohort(SynthConfig(n=5))
        with pytest.raises(CohortError):
            synth_cohort(SynthConfig(rate_hospital=0.0))
        with pytest.raises(CohortError):
            synth_cohort(SynthConfig(missing_rates={"race": 0.5}))
        with pytest.raises(CohortError):
            synth_cohort(SynthConfig(missing_rates={"bmi": 1.0}))

    def test_config_json_round_trip(self, tmp_path):
        (tmp_path / "synth.json").write_text('{"n": 64, "text_weight": 0.3}')
        cfg = SynthConfig.load(tmp_path / "synth.json")
        assert cfg.n == 64
        assert cfg.text_weight == 0.3
        assert cfg.rate_hospital == 0.1294
        # methods and dunders are attributes, not settings
        for key in ("banana", "to_obj", "from_json", "load", "__class__"):
            with pytest.raises(CohortError,
                               match="unknown generator config key"):
                SynthConfig.from_obj({key: 1})
        with pytest.raises(CohortError, match="JSON object"):
            SynthConfig.from_obj([1, 2])

    @pytest.mark.parametrize("key, value, message", [
        ("n", "50", "integer n"), ("n", 50.0, "integer n"),
        ("n", True, "integer n"), ("rate_hospital", None, "base rate"),
        ("text_weight", "0.3", "text_weight"),
        ("risk_token_mean", [1], "risk_token_mean"),
        ("missing_rates", ["bmi"], "missing_rates"),
        ("missing_rates", {"bmi": "0.4"}, "missingness rate"),
        ("risk_tokens", "arrest", "risk_tokens"),
        ("risk_tokens", ["arrest", 3], "risk_tokens"),
        ("note_length", 40, "note_length"),
        ("note_length", [40], "note_length"),
        ("note_length", [40, "120"], "note_length")])
    def test_wrongly_typed_value_rejected(self, key, value, message):
        with pytest.raises(CohortError, match=message):
            SynthConfig.from_obj({key: value})

    def test_values_respect_plausible_ranges(self):
        c = synth_cohort(SynthConfig(n=800), seed=21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = filter_outliers(c)
        assert report == {}
