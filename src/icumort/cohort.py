"""Patient data model: schema, cohort IO, outlier filtering, structured encoding,
and a seeded synthetic cohort generator calibrated to published ICU statistics,
whose one setting is the cohort size n.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"
CATEGORICAL = "categorical"
_KINDS = (CONTINUOUS, BINARY, CATEGORICAL)


class CohortError(ValueError):
    """Schema violation or malformed cohort data."""


def _data_text(name):
    return resources.files("icumort.data").joinpath(name).read_text(encoding="utf-8")


def read_json(path, what, error=CohortError, **kw):
    """The JSON value in the file at path; if malformed, error names it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), **kw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    kind: str
    unit: str = ""
    categories: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CohortError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL:
            if not self.categories:
                raise CohortError(f"categorical feature {self.name!r} has no categories")
            if len(set(self.categories)) != len(self.categories):
                raise CohortError(f"duplicate categories for {self.name!r}")
        elif self.categories:
            raise CohortError(f"non-categorical feature {self.name!r} declares categories")


class FeatureSchema:
    """Ordered feature descriptors, names unique, and the one encoded column
    layout: in schema order a column per continuous or binary feature and per
    category.  `columns` holds (descriptor, first column, end column) per
    feature; `column_names` names each of the `width` columns."""

    def __init__(self, descriptors):
        self.descriptors = tuple(descriptors)
        self.by_name = {d.name: d for d in self.descriptors}
        if len(self.by_name) != len(self.descriptors):
            raise CohortError("duplicate feature names in schema")
        self.continuous = tuple(d.name for d in self.descriptors if d.kind == CONTINUOUS)
        self.categorical = tuple(d.name for d in self.descriptors if d.kind == CATEGORICAL)
        columns, names = [], []
        for d in self.descriptors:
            first = len(names)
            if d.kind == CATEGORICAL:
                names.extend(f"{d.name}={c}" for c in d.categories)
            else:
                names.append(d.name)
            columns.append((d, first, len(names)))
        self.columns = tuple(columns)
        self.width = len(names)
        self.column_names = tuple(names)
        self.continuous_columns = np.array(
            [a for d, a, _ in columns if d.kind == CONTINUOUS], dtype=np.intp)

    def __eq__(self, other):
        return isinstance(other, FeatureSchema) and self.descriptors == other.descriptors

    @classmethod
    def default(cls):
        """The bundled schema of the published cohort's features."""
        return cls(FeatureDescriptor(
            name=e["name"], kind=e["kind"], unit=e.get("unit", ""),
            categories=tuple(e.get("categories", ())))
            for e in json.loads(_data_text("schema.json")))


class Cohort:
    """Admissions as columns: record ids, notes, the two outcome label
    vectors, and `values`, one float row per admission in the schema's
    column layout.

    Continuous columns hold raw values, binary columns 0/1, and each
    categorical its one-hot columns; NaN across a feature's columns marks it
    missing.  load_cohort checks outside data once, at its line; the
    constructor takes what it is given.
    """

    def __init__(self, schema, ids, notes, label_hospital, label_30day,
                 values):
        self.schema = schema
        self.ids = list(ids)
        self.notes = list(notes)
        self.label_hospital = np.asarray(label_hospital, dtype=np.int64)
        self.label_30day = np.asarray(label_30day, dtype=np.int64)
        self.values = values

    def __len__(self):
        return len(self.ids)

    def labels(self, outcome):
        if outcome not in ("hospital", "30day"):
            raise CohortError(f"unknown outcome {outcome!r}; expected 'hospital' or '30day'")
        return self.label_hospital if outcome == "hospital" else self.label_30day

    def _with_values(self, values):
        return Cohort(self.schema, self.ids, self.notes, self.label_hospital,
                      self.label_30day, values)

    def continuous_matrix(self, rows=None):
        """The continuous block of `rows` (default: every row), one column
        per schema.continuous feature, NaN marking missing cells."""
        rows = np.arange(len(self)) if rows is None else rows
        return self.values[np.ix_(np.asarray(rows, dtype=np.intp),
                                  self.schema.continuous_columns)]

    def with_continuous(self, matrix):
        """New cohort whose continuous values are replaced from a completed matrix."""
        matrix = np.asarray(matrix, dtype=float)
        shape = (len(self), self.schema.continuous_columns.size)
        if matrix.shape != shape:
            raise CohortError(f"matrix shape {matrix.shape} does not match {shape}")
        if not np.isfinite(matrix).all():
            raise CohortError("continuous values must be finite numbers")
        values = self.values.copy()
        values[:, self.schema.continuous_columns] = matrix
        return self._with_values(values)

    def subset(self, indices):
        rows = np.asarray(indices, dtype=np.intp)
        return Cohort(self.schema, [self.ids[i] for i in rows],
                      [self.notes[i] for i in rows], self.label_hospital[rows],
                      self.label_30day[rows], self.values[rows])

    def encode(self, encoder, rows, continuous):
        """Design matrix of `rows`: their values with
        (continuous - means) / sds written into the continuous columns.

        `continuous` is the rows' completed continuous block, in `rows` order.
        """
        if self.schema != encoder.schema:
            raise CohortError("cohort schema does not match the fitted encoder")
        rows = np.asarray(rows, dtype=np.intp)
        continuous = np.asarray(continuous, dtype=float)
        if continuous.shape != (rows.size, encoder.means.size):
            raise CohortError(
                f"continuous block shape {continuous.shape} does not match "
                f"({rows.size}, {encoder.means.size})")
        X = self.values[rows]
        X[:, self.schema.continuous_columns] = (continuous - encoder.means) / encoder.sds
        missing = np.isnan(X)
        if missing.any():
            i, col = np.argwhere(missing)[0]
            name = next(d.name for d, a, b in self.schema.columns if a <= col < b)
            raise CohortError(
                f"missing value for {name!r} in record {self.ids[rows[i]]!r}; "
                "encode requires a fully imputed cohort")
        return X


def _set_value(row, slots, name, value, where):
    """Check one feature value of a record and write it into its columns
    of the record's values row; None leaves the feature missing."""
    if name not in slots:
        raise CohortError(f"unknown feature {name!r}{where}")
    desc, a, b = slots[name]
    if value is None:
        return
    if desc.kind == CATEGORICAL:
        if value not in desc.categories:
            raise CohortError(
                f"value {value!r} for categorical feature {name!r} is not one of "
                f"{list(desc.categories)}{where}")
        row[a:b] = [0.0] * (b - a)
        row[a + desc.categories.index(value)] = 1.0
    elif desc.kind == BINARY:
        if isinstance(value, bool) or value not in (0, 1):
            raise CohortError(f"binary feature {name!r} must be 0 or 1, got {value!r}{where}")
        row[a] = float(value)
    else:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
            finite = False
        if not finite:
            raise CohortError(
                f"continuous feature {name!r} needs a finite number, got {value!r}{where}")
        row[a] = float(value)


def load_cohort(path):
    """Read a JSONL cohort file, checking every record against the default schema."""
    schema = FeatureSchema.default()
    slots = {d.name: (d, a, b) for d, a, b in schema.columns}
    ids, notes, rows = [], [], []
    labels = {"label_hospital": [], "label_30day": []}
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f" at line {lineno} of cohort {path}"
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise CohortError(f"malformed JSON{where}: {exc}") from None
            if not isinstance(obj, dict):
                raise CohortError(f"record must be a JSON object{where}")
            for key in ("id", "features", "note", *labels):
                if key not in obj:
                    raise CohortError(f"missing key {key!r}{where}")
            if not isinstance(obj["features"], dict):
                raise CohortError(f"features must be an object{where}")
            for lab, column in labels.items():
                if isinstance(obj[lab], bool) or obj[lab] not in (0, 1):
                    raise CohortError(f"{lab} must be 0 or 1{where}")
                column.append(int(obj[lab]))
            rid = str(obj["id"])
            if rid in seen:
                raise CohortError(f"duplicate record id {rid!r}{where}")
            seen.add(rid)
            row = [math.nan] * schema.width
            for name, value in obj["features"].items():
                _set_value(row, slots, name, value, where)
            ids.append(rid)
            notes.append(str(obj["note"]))
            rows.append(row)
    values = np.array(rows, dtype=float).reshape(len(rows), schema.width)
    return Cohort(schema, ids, notes, labels["label_hospital"],
                  labels["label_30day"], values)


def save_cohort(cohort, path):
    """Write a cohort as canonical JSONL, leaving missing values out;
    save-load-save is byte stable."""
    columns = [(d.name, d.kind, a, b, d.categories)
               for d, a, b in cohort.schema.columns]
    records = zip(cohort.ids, cohort.notes, cohort.label_hospital.tolist(),
                  cohort.label_30day.tolist(), cohort.values.tolist())
    with open(path, "w", encoding="utf-8") as f:
        for rid, note, hospital, day30, row in records:
            features = {}
            for name, kind, a, b, categories in columns:
                if math.isnan(row[a]):
                    continue
                if kind == CONTINUOUS:
                    features[name] = row[a]
                elif kind == BINARY:
                    features[name] = int(row[a])
                else:
                    features[name] = categories[row.index(1.0, a, b) - a]
            f.write(json.dumps({"id": rid, "features": features, "note": note,
                                "label_hospital": hospital, "label_30day": day30},
                               sort_keys=True, separators=(",", ":")) + "\n")


def load_ranges(path=None):
    """{feature name: (min, max)} inclusive plausible bounds from a JSON
    object of [min, max] pairs; the bundled table when path is None."""
    # integers parse as floats, so a huge bound cannot overflow float()
    obj = (json.loads(_data_text("ranges.json"), parse_int=float) if path is None
           else read_json(path, "range table", parse_int=float))
    if not isinstance(obj, dict):
        raise CohortError("range table must be a JSON object of [min, max] pairs")
    for name, pair in obj.items():
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_number, pair))):
            raise CohortError(f"range for {name!r} must be a pair of numbers [min, max], "
                              f"not {pair!r}")
        if not pair[0] < pair[1]:
            raise CohortError(f"range for {name!r} must satisfy min < max")
    return {name: tuple(pair) for name, pair in obj.items()}


def filter_outliers(cohort, ranges=None):
    """Replace values strictly outside their plausible range with missing.

    Returns (new cohort, report) where report counts replacements per feature.
    No record is dropped; already-missing cells are not counted. Range entries
    for unknown or non-continuous features are ignored with a warning.
    """
    if ranges is None:
        ranges = load_ranges()
    first = {d.name: a for d, a, _ in cohort.schema.columns}
    values = cohort.values.copy()
    report = {}
    for name, (lo, hi) in ranges.items():
        desc = cohort.schema.by_name.get(name)
        if desc is None or desc.kind != CONTINUOUS:
            warnings.warn(f"range table entry {name!r} does not match a continuous "
                          "feature; ignored")
            continue
        column = values[:, first[name]]  # a view; NaN compares False
        out = (column < lo) | (column > hi)
        if out.any():
            column[out] = np.nan
            report[name] = int(out.sum())
    return cohort._with_values(values), report


class StructuredEncoder:
    """Per-continuous-column standardization statistics.

    Cohort.encode writes a design matrix in the schema's column layout:
    continuous columns z-scored, binary as {0,1}, categoricals expanded to
    all categories (no reference drop).
    """

    def __init__(self, schema, means, sds, constant_columns=()):
        self.schema = schema
        self.means = np.asarray(means, dtype=float)
        self.sds = np.asarray(sds, dtype=float)
        self.constant_columns = tuple(constant_columns)
        if np.any(self.sds <= 0):
            raise CohortError("encoder standard deviations must be positive")

    @classmethod
    def fit(cls, schema, continuous):
        """Fit standardization statistics on a completed continuous block.

        `continuous` has one column per schema.continuous feature. Population
        (1/n) standard deviation; constant columns (max equal to min) get sd
        1 and a recorded warning.  A column whose values differ but whose
        squared deviations underflow to sd 0 takes its sd from the column
        scaled to a largest magnitude of 1; if even that sd rounds to 0, the
        column counts as constant.  Missing values are rejected with a
        pointer to the impute module.
        """
        # C order: the column reductions' summation order depends on layout
        X = np.ascontiguousarray(continuous, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(schema.continuous):
            raise CohortError(
                f"continuous block shape {X.shape} does not match "
                f"(n, {len(schema.continuous)})")
        if X.shape[0] == 0:
            raise CohortError("cannot fit an encoder on an empty cohort")
        if np.isnan(X).any():
            bad = [schema.continuous[j] for j in np.where(np.isnan(X).any(axis=0))[0]]
            raise CohortError(
                f"continuous features {bad} contain missing values; run the impute "
                "module (impute_fit_transform) before fitting the encoder")
        means = X.mean(axis=0)
        sds = X.std(axis=0)  # ddof=0
        # a rounded mean can leave a constant column a tiny nonzero sd
        flat = X.max(axis=0) == X.min(axis=0)
        constant = []
        for j, name in enumerate(schema.continuous):
            if sds[j] == 0.0 and not flat[j]:
                scale = np.abs(X[:, j]).max()
                sds[j] = (X[:, j] / scale).std() * scale
            if flat[j] or sds[j] == 0.0:
                sds[j] = 1.0
                constant.append(name)
                warnings.warn(f"continuous feature {name!r} is constant; sd set to 1")
        return cls(schema, means, sds, constant)



def fit_encoder(cohort):
    """Fit standardization statistics on a fully imputed cohort
    (StructuredEncoder.fit on its continuous block)."""
    return StructuredEncoder.fit(cohort.schema, cohort.continuous_matrix())


def encode(encoder, cohort):
    """Encode a cohort into the dense structured design matrix."""
    return cohort.encode(encoder, np.arange(len(cohort)), cohort.continuous_matrix())


# ---------------------------------------------------------------------------
# Synthetic cohort generation
# ---------------------------------------------------------------------------

# Published univariate statistics used as generator defaults (mean, sd).
_CONTINUOUS_STATS = {
    "age": (65.5, 17.6),
    "bmi": (28.6, 8.55),
    "elixhauser_score": (3.80, 7.00),
    "sofa": (4.61, 3.10),
    "sirs": (2.92, 0.93),
    "albumin": (3.01, 0.61),
    "aspartate_aminotransferase": (191.0, 837.0),
    "base_excess": (-1.52, 5.45),
    "bicarbonate": (22.9, 4.95),
    "blood_urea_nitrogen": (29.0, 24.1),
    "carbon_dioxide": (24.6, 5.77),
    "chloride": (105.0, 6.85),
    "creatinine": (1.55, 1.64),
    "diastolic_blood_pressure": (66.7, 17.5),
    "gcs_motor": (4.92, 1.80),
    "glucose": (148.0, 72.1),
    "heart_rate": (91.1, 20.4),
    "hematocrit": (32.3, 6.17),
    "hemoglobin": (10.8, 2.09),
    "inr": (1.50, 0.75),
    "lactate": (2.16, 1.74),
    "magnesium": (1.92, 0.44),
    "mean_arterial_pressure": (82.0, 18.5),
    "oxygen_saturation": (96.7, 4.47),
    "ph": (7.36, 0.10),
    "platelet_count": (214.0, 116.0),
    "potassium": (4.18, 0.79),
    "ptt": (36.8, 21.7),
    "red_blood_cell_count": (3.58, 0.71),
    "respiration_rate": (19.4, 6.64),
    "sodium": (138.0, 5.66),
    "systolic_blood_pressure": (124.0, 25.1),
    "temperature": (36.6, 1.03),
    "total_bilirubin": (1.56, 3.38),
    "urine_output": (214.0, 207.0),
    "white_blood_cell_count": (12.7, 12.7),
}

_BINARY_PREVALENCE = {
    "sex": 0.441,
    "metastatic_cancer": 0.0576,
    "diabetes": 0.284,
    "mechanical_ventilation": 0.479,
}

# Category proportions (percent columns of the published table, normalized).
_CATEGORICAL_PROBS = {
    "race": (0.727, 0.0877, 0.0337, 0.0309, 0.121),
    "marital_status": (0.0608, 0.441, 0.285, 0.147, 0.0663),
    "insurance": (0.0291, 0.0986, 0.579, 0.285, 0.0085),
    "admission_type": (0.0574, 0.931, 0.0111),
}

# True standardized effects of the label model. Positive raises risk.
_TRUE_EFFECTS_CONTINUOUS = {
    "sofa": 0.65,
    "age": 0.40,
    "lactate": 0.55,
    "elixhauser_score": 0.30,
    "blood_urea_nitrogen": 0.25,
    "inr": 0.20,
    "aspartate_aminotransferase": 0.15,
    "total_bilirubin": 0.15,
    "albumin": -0.35,
    "gcs_motor": -0.40,
    "oxygen_saturation": -0.20,
    "systolic_blood_pressure": -0.25,
    "temperature": -0.10,
    "ph": -0.20,
}
_TRUE_EFFECTS_BINARY = {
    "metastatic_cancer": 0.9,
    "mechanical_ventilation": 0.7,
}
_TRUE_EFFECTS_CATEGORICAL = {
    "admission_type": {"Elective": -0.5, "Emergency": 0.0, "Urgent": 0.4},
}

_RISK_TOKENS = (
    "unresponsive", "pressors", "intubated", "deteriorating", "anuric",
    "hypotensive", "obtunded", "coagulopathy", "hospice", "arrest",
)

# Background note lexicon; common clinical filler sampled with a Zipf-like law.
_NOTE_LEXICON = (
    "pt", "patient", "admitted", "icu", "exam", "alert", "oriented", "stable",
    "afebrile", "lungs", "clear", "auscultation", "bilaterally", "heart",
    "regular", "rate", "rhythm", "abdomen", "soft", "nontender", "extremities",
    "edema", "neuro", "intact", "plan", "continue", "monitor", "labs", "pending",
    "cultures", "sent", "antibiotics", "started", "fluids", "bolus", "given",
    "urine", "output", "adequate", "respiratory", "status", "oxygen", "nasal",
    "cannula", "room", "air", "saturating", "well", "denies", "pain", "nausea",
    "vomiting", "fever", "chills", "history", "hypertension", "copd", "renal",
    "failure", "chronic", "acute", "sepsis", "infection", "source", "unclear",
    "blood", "pressure", "improved", "overnight", "family", "updated", "bedside",
    "nursing", "notes", "tolerating", "diet", "ambulating", "assistance",
    "follow", "daily", "weights", "strict", "ins", "outs", "repeat", "morning",
    "chest", "xray", "consolidation", "effusion", "creatinine", "trending",
    "down", "white", "count", "elevated", "lactate", "cleared", "vitals",
    "reviewed", "tele", "sinus", "tachycardia", "resolved", "appreciated",
    "consult", "placed", "line", "access", "secured", "sedation", "weaned",
)


def is_number(value, integral=False):
    """A real (or, with integral, an integer) number that is not a bool."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _default_missing_rates():
    rates = {
        "bmi": 0.48,
        "albumin": 0.48,
        "aspartate_aminotransferase": 0.41,
        "total_bilirubin": 0.39,
        "base_excess": 0.35,
        "carbon_dioxide": 0.35,
        "lactate": 0.33,
        "ph": 0.33,
        "inr": 0.11,
        "ptt": 0.11,
    }
    never_missing = {"age", "elixhauser_score", "sofa", "sirs"}
    for name in _CONTINUOUS_STATS:
        if name not in rates and name not in never_missing:
            rates[name] = 0.01
    return rates


# The generator's fixed statistics: the size, outcome base rates and
# per-feature missingness of the published cohort, the weights of the
# structured and note parts of the true risk, and the note shape (length
# range, mean count of risk tokens per note, Zipf-like lexicon weights as
# a cdf, full-stop rate). Only the size can be set.
_PUBLISHED_N = 5396
_MISSING_RATES = _default_missing_rates()
_RATE_HOSPITAL = 0.1294
_RATE_30DAY = 0.1651
_STRUCTURED_WEIGHT = 1.8
_TEXT_WEIGHT = 0.8
_NOTE_LENGTH = (40, 120)
_RISK_TOKEN_MEAN = 0.9
# rng.choice(n, size, p=weights) is cdf.searchsorted(rng.random(size),
# side="right") over this cdf of the weights; searching it directly skips
# choice's checks of p and keeps its bits
_LEXICON_CDF = 1.0 / (np.arange(len(_NOTE_LEXICON)) + 5.0)
_LEXICON_CDF = (_LEXICON_CDF / _LEXICON_CDF.sum()).cumsum()
_LEXICON_CDF /= _LEXICON_CDF[-1]
_STOP_RATE = 0.08


def _check_n(n):
    if not (is_number(n, integral=True) and n >= 10):
        raise CohortError(f"generator needs an integer n >= 10, not {n!r}")
    return n


def synth_size(obj):
    """The cohort size a generator config object {"n": N} sets, checked;
    the published cohort's 5,396 when n is absent."""
    if not isinstance(obj, dict):
        raise CohortError("generator config must be a JSON object")
    for key in obj:
        if key != "n":
            raise CohortError(f"unknown generator config key {key!r}")
    return _check_n(obj.get("n", _PUBLISHED_N))


def _standardize(x):
    sd = x.std()
    if sd == 0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def _labels_at_rate(thresholds, rate):
    """Positive labels at the least intercept whose positive rate reaches
    rate: a record is positive iff its threshold is at most the k-th
    smallest, k the least count with k / n >= rate."""
    n = thresholds.size
    k = int(np.searchsorted(np.arange(1, n + 1) / n, rate)) + 1
    return thresholds <= np.partition(thresholds, k - 1)[k - 1]


def _make_note(rng, n_risk):
    lo, hi = _NOTE_LENGTH
    length = int(rng.integers(lo, hi + 1))
    tokens = _LEXICON_CDF.searchsorted(rng.random(length), side="right")
    words = [_NOTE_LEXICON[t] for t in tokens.tolist()]
    for _ in range(n_risk):
        pos = int(rng.integers(0, len(words) + 1))
        words.insert(pos, _RISK_TOKENS[int(rng.integers(0, len(_RISK_TOKENS)))])
    # de-identification masks and numerals, to exercise note preprocessing
    n_masks = int(rng.integers(1, 4))
    masks = ("[**Name (NI) %d**]" % rng.integers(10, 9999),
             "[**%d-%d-%d**]" % (2100 + rng.integers(0, 12),
                                 1 + rng.integers(0, 12), 1 + rng.integers(0, 28)),
             "[**Hospital %d**]" % rng.integers(1, 99))
    for _ in range(n_masks):
        pos = int(rng.integers(0, len(words) + 1))
        words.insert(pos, masks[int(rng.integers(0, len(masks)))])
    if rng.random() < 0.8:
        pos = int(rng.integers(0, len(words) + 1))
        words.insert(pos, str(int(rng.integers(1, 999))))
    # the note's last draws, one per word: below _STOP_RATE, a full stop
    for i in np.flatnonzero(rng.random(len(words)) < _STOP_RATE).tolist():
        words[i] += "."
    return " ".join(words)


def synth_cohort(n=_PUBLISHED_N, seed=0):
    """Deterministic synthetic cohort of n >= 10 admissions with a known
    logistic ground truth."""
    cohort, _ = synth_cohort_with_truth(n, seed)
    return cohort


def synth_cohort_with_truth(n=_PUBLISHED_N, seed=0):
    """Generate a cohort of n >= 10 admissions and return it with the true
    per-record risk scores.

    The risk score combines a linear function of standardized structured
    features with the count of risk tokens placed in each note; both outcome
    labels are thresholded draws against a sigmoid of intercept + risk, with
    the intercept the least one whose positive rate reaches the published
    base rate.
    """
    _check_n(n)
    schema = FeatureSchema.default()
    rng = np.random.default_rng(seed)
    ranges = load_ranges()

    cont_values = {}
    for name in schema.continuous:
        mean, sd = _CONTINUOUS_STATS[name]
        x = rng.normal(mean, sd, size=n)
        # elixhauser_score has no plausible range
        if name in ranges:
            x = np.clip(x, *ranges[name])
        cont_values[name] = x
    bin_values = {name: (rng.random(n) < p).astype(int)
                  for name, p in _BINARY_PREVALENCE.items()}
    cat_values = {}
    for name in schema.categorical:
        probs = np.asarray(_CATEGORICAL_PROBS[name], dtype=float)
        cat_values[name] = rng.choice(probs.size, size=n, p=probs / probs.sum())

    struct_score = np.zeros(n)
    for name, beta in _TRUE_EFFECTS_CONTINUOUS.items():
        struct_score += beta * _standardize(cont_values[name])
    for name, beta in _TRUE_EFFECTS_BINARY.items():
        x = bin_values[name].astype(float)
        struct_score += beta * (x - x.mean())
    for name, effects in _TRUE_EFFECTS_CATEGORICAL.items():
        e = np.array([effects.get(c, 0.0)
                      for c in schema.by_name[name].categories])
        contrib = e[cat_values[name]]
        struct_score += contrib - contrib.mean()

    n_risk = rng.poisson(_RISK_TOKEN_MEAN, size=n)
    text_score = n_risk.astype(float)

    risk = (_STRUCTURED_WEIGHT * _standardize(struct_score)
            + _TEXT_WEIGHT * _standardize(text_score))

    u = rng.random(n)
    # positive iff logit(u) - risk < intercept
    thresholds = np.log(u / (1.0 - u)) - risk
    label_hosp = _labels_at_rate(thresholds, _RATE_HOSPITAL)
    label_30d = _labels_at_rate(thresholds, _RATE_30DAY)

    notes = [_make_note(rng, int(k)) for k in n_risk]

    # sorted draw order keeps the stream independent of dict insertion order
    missing_masks = {name: rng.random(n) < _MISSING_RATES[name]
                     for name in sorted(_MISSING_RATES)}

    values = np.zeros((n, schema.width))
    for d, a, _ in schema.columns:
        if d.kind == CONTINUOUS:
            # Python's round: a saved cohort holds values to 4 decimals
            values[:, a] = [round(x, 4) for x in cont_values[d.name].tolist()]
            # age, elixhauser_score, sofa and sirs are never missing
            if d.name in missing_masks:
                values[missing_masks[d.name], a] = np.nan
        elif d.kind == BINARY:
            values[:, a] = bin_values[d.name]
        else:
            values[np.arange(n), a + cat_values[d.name]] = 1.0
    digits = len(str(n - 1))
    ids = [f"synth-{i:0{digits}d}" for i in range(n)]
    return Cohort(schema, ids, notes, label_hosp, label_30d, values), risk
