"""Patient data model: schema, cohort IO, outlier filtering, structured encoding,
and a seeded synthetic cohort generator calibrated to published ICU statistics.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"
CATEGORICAL = "categorical"
_KINDS = (CONTINUOUS, BINARY, CATEGORICAL)


class CohortError(ValueError):
    """Schema violation or malformed cohort data."""


def _data_text(name):
    return resources.files("icumort.data").joinpath(name).read_text(encoding="utf-8")


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
    """Ordered list of feature descriptors with name uniqueness enforced."""

    def __init__(self, descriptors):
        self.descriptors = tuple(descriptors)
        names = [d.name for d in self.descriptors]
        if len(set(names)) != len(names):
            raise CohortError("duplicate feature names in schema")
        self.by_name = {d.name: d for d in self.descriptors}
        self.continuous = tuple(d.name for d in self.descriptors if d.kind == CONTINUOUS)
        self.binary = tuple(d.name for d in self.descriptors if d.kind == BINARY)
        self.categorical = tuple(d.name for d in self.descriptors if d.kind == CATEGORICAL)

    @property
    def names(self):
        return tuple(d.name for d in self.descriptors)

    def __eq__(self, other):
        return isinstance(other, FeatureSchema) and self.descriptors == other.descriptors

    @classmethod
    def default(cls):
        """The bundled schema of the published cohort's features."""
        return cls(FeatureDescriptor(
            name=e["name"], kind=e["kind"], unit=e.get("unit", ""),
            categories=tuple(e.get("categories", ())))
            for e in json.loads(_data_text("schema.json")))


def _check_value(schema, name, value, where=""):
    desc = schema.by_name.get(name)
    if desc is None:
        raise CohortError(f"unknown feature {name!r}{where}")
    if value is None:
        return
    if desc.kind == CATEGORICAL:
        if value not in desc.categories:
            raise CohortError(
                f"value {value!r} for categorical feature {name!r} is not one of "
                f"{list(desc.categories)}{where}")
    elif desc.kind == BINARY:
        if isinstance(value, bool) or value not in (0, 1):
            raise CohortError(f"binary feature {name!r} must be 0 or 1, got {value!r}{where}")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CohortError(
                f"continuous feature {name!r} needs a finite number, got {value!r}{where}")


@dataclass(frozen=True)
class PatientRecord:
    """One admission: feature values (possibly missing), note text, two outcome labels."""

    id: str
    values: dict
    note_text: str
    label_hospital: bool
    label_30day: bool

    def get(self, name):
        return self.values.get(name)


class Cohort:
    """Schema plus an ordered list of validated records with unique ids."""

    def __init__(self, schema, records):
        self.schema = schema
        self.records = list(records)
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise CohortError(f"duplicate record id {r.id!r}")
            seen.add(r.id)
            for name, value in r.values.items():
                _check_value(schema, name, value, where=f" (record {r.id!r})")

    def __len__(self):
        return len(self.records)

    def labels(self, outcome):
        if outcome == "hospital":
            return np.array([int(r.label_hospital) for r in self.records], dtype=np.int64)
        if outcome == "30day":
            return np.array([int(r.label_30day) for r in self.records], dtype=np.int64)
        raise CohortError(f"unknown outcome {outcome!r}; expected 'hospital' or '30day'")

    def notes(self):
        return [r.note_text for r in self.records]

    def continuous_matrix(self):
        """Continuous block as float array, NaN marking missing cells."""
        cols = self.schema.continuous
        out = np.full((len(self.records), len(cols)), np.nan)
        for i, r in enumerate(self.records):
            for j, name in enumerate(cols):
                v = r.values.get(name)
                if v is not None:
                    out[i, j] = float(v)
        return out

    def with_continuous(self, matrix):
        """New cohort whose continuous values are replaced from a completed matrix."""
        cols = self.schema.continuous
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (len(self.records), len(cols)):
            raise CohortError(
                f"matrix shape {matrix.shape} does not match "
                f"({len(self.records)}, {len(cols)})")
        records = []
        for i, r in enumerate(self.records):
            values = dict(r.values)
            for j, name in enumerate(cols):
                values[name] = float(matrix[i, j])
            records.append(PatientRecord(r.id, values, r.note_text,
                                         r.label_hospital, r.label_30day))
        return Cohort(self.schema, records)

    def subset(self, indices):
        return Cohort(self.schema, [self.records[i] for i in indices])


def _record_to_obj(record):
    features = {}
    for name, value in record.values.items():
        if value is not None:
            features[name] = value
    return {
        "id": record.id,
        "features": features,
        "note": record.note_text,
        "label_hospital": int(record.label_hospital),
        "label_30day": int(record.label_30day),
    }


def _record_from_obj(obj, schema, lineno):
    where = f" at line {lineno}"
    for key in ("id", "features", "note", "label_hospital", "label_30day"):
        if key not in obj:
            raise CohortError(f"missing key {key!r}{where}")
    for lab in ("label_hospital", "label_30day"):
        if isinstance(obj[lab], bool) or obj[lab] not in (0, 1):
            raise CohortError(f"{lab} must be 0 or 1{where}")
    values = {}
    for name, value in obj["features"].items():
        _check_value(schema, name, value, where=where)
        values[name] = value
    return PatientRecord(
        id=str(obj["id"]),
        values=values,
        note_text=str(obj["note"]),
        label_hospital=bool(obj["label_hospital"]),
        label_30day=bool(obj["label_30day"]),
    )


def load_cohort(path, schema=None):
    """Read a JSONL cohort file, validating every record against the schema."""
    if schema is None:
        schema = FeatureSchema.default()
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CohortError(f"malformed JSON at line {lineno}: {exc}") from None
            records.append(_record_from_obj(obj, schema, lineno))
    return Cohort(schema, records)


def save_cohort(cohort, path):
    """Write a cohort as canonical JSONL; save-load-save is byte stable."""
    with open(path, "w", encoding="utf-8") as f:
        for r in cohort.records:
            f.write(json.dumps(_record_to_obj(r), sort_keys=True,
                               separators=(",", ":")) + "\n")


class PlausibleRangeTable:
    """Inclusive [min, max] bounds per continuous feature."""

    def __init__(self, bounds):
        self.bounds = {}
        for name, (lo, hi) in bounds.items():
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise CohortError(f"range for {name!r} must satisfy min < max")
            self.bounds[name] = (lo, hi)

    @classmethod
    def from_json(cls, text):
        return cls({k: tuple(v) for k, v in json.loads(text).items()})

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())

    @classmethod
    def default(cls):
        return cls.from_json(_data_text("ranges.json"))

    def get(self, name):
        return self.bounds.get(name)


def filter_outliers(cohort, ranges=None):
    """Replace values strictly outside their plausible range with missing.

    Returns (new cohort, report) where report counts replacements per feature.
    No record is dropped; already-missing cells are not counted. Range entries
    for unknown or non-continuous features are ignored with a warning.
    """
    if ranges is None:
        ranges = PlausibleRangeTable.default()
    applicable = {}
    for name, bound in ranges.bounds.items():
        desc = cohort.schema.by_name.get(name)
        if desc is None or desc.kind != CONTINUOUS:
            warnings.warn(f"range table entry {name!r} does not match a continuous "
                          "feature; ignored")
            continue
        applicable[name] = bound
    report = {}
    records = []
    for r in cohort.records:
        values = dict(r.values)
        for name, (lo, hi) in applicable.items():
            v = values.get(name)
            if v is None:
                continue
            if v < lo or v > hi:
                values[name] = None
                report[name] = report.get(name, 0) + 1
        records.append(PatientRecord(r.id, values, r.note_text,
                                     r.label_hospital, r.label_30day))
    return Cohort(cohort.schema, records), report


def _layout(schema):
    """((feature name, first column, end column) per feature in schema
    order, total column count)."""
    layout = []
    col = 0
    for d in schema.descriptors:
        width = len(d.categories) if d.kind == CATEGORICAL else 1
        layout.append((d.name, col, col + width))
        col += width
    return tuple(layout), col


class StructuredEncoder:
    """One-hot layout plus per-continuous-column standardization statistics.

    Column order follows schema order: continuous columns z-scored, binary as
    {0,1}, categoricals expanded to all categories (no reference drop).
    """

    def __init__(self, schema, means, sds, constant_columns=()):
        self.schema = schema
        self.means = np.asarray(means, dtype=float)
        self.sds = np.asarray(sds, dtype=float)
        self.constant_columns = tuple(constant_columns)
        self.layout, self.n_columns = _layout(schema)
        first = {n: a for n, a, _ in self.layout}
        self.continuous_columns = np.array(
            [first[name] for name in schema.continuous], dtype=np.intp)
        if np.any(self.sds <= 0):
            raise CohortError("encoder standard deviations must be positive")

    @classmethod
    def fit(cls, schema, continuous):
        """Fit standardization statistics on a completed continuous block.

        `continuous` has one column per schema.continuous feature. Population
        (1/n) standard deviation; constant columns (max equal to min, or sd
        0) get sd 1 and a recorded warning. Missing values are rejected with
        a pointer to the impute module.
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
            if flat[j] or sds[j] == 0.0:
                sds[j] = 1.0
                constant.append(name)
                warnings.warn(f"continuous feature {name!r} is constant; sd set to 1")
        return cls(schema, means, sds, constant)

    def column_names(self):
        names = []
        for d in self.schema.descriptors:
            if d.kind == CATEGORICAL:
                names.extend(f"{d.name}={c}" for c in d.categories)
            else:
                names.append(d.name)
        return names


class CohortArrays:
    """A cohort decoded once into the two arrays that fold encoding needs.

    `continuous` is the continuous block with NaN for missing values.
    `fixed` is the design matrix in encoder layout with binary and one-hot
    columns set and continuous columns zero; no fold changes it. A missing
    binary or categorical value is NaN in its columns, so encoding a row that
    holds one raises.
    """

    def __init__(self, cohort):
        self.schema = cohort.schema
        self.ids = [r.id for r in cohort.records]
        self.continuous = cohort.continuous_matrix()
        layout, width = _layout(self.schema)
        self.fixed = np.zeros((len(cohort), width))
        for d, (_, a, b) in zip(self.schema.descriptors, layout):
            if d.kind == CONTINUOUS:
                continue
            for i, r in enumerate(cohort.records):
                v = r.values.get(d.name)
                if v is None:
                    self.fixed[i, a:b] = np.nan
                elif d.kind == BINARY:
                    self.fixed[i, a] = float(v)
                else:
                    self.fixed[i, a + d.categories.index(v)] = 1.0

    def encode(self, encoder, rows, continuous):
        """Design matrix of `rows`: their fixed block with
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
        X = self.fixed[rows]
        X[:, encoder.continuous_columns] = (continuous - encoder.means) / encoder.sds
        missing = np.isnan(X)
        if missing.any():
            i, col = np.argwhere(missing)[0]
            name = next(n for n, a, b in encoder.layout if a <= col < b)
            raise CohortError(
                f"missing value for {name!r} in record {self.ids[rows[i]]!r}; "
                "encode requires a fully imputed cohort")
        return X


def fit_encoder(cohort):
    """Fit standardization statistics on a fully imputed cohort
    (StructuredEncoder.fit on its continuous block)."""
    return StructuredEncoder.fit(cohort.schema, cohort.continuous_matrix())


def encode(encoder, cohort):
    """Encode a cohort into the dense structured design matrix."""
    arrays = CohortArrays(cohort)
    return arrays.encode(encoder, np.arange(len(cohort)), arrays.continuous)


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

DEFAULT_RISK_TOKENS = (
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


@dataclass
class SynthConfig:
    """Generator settings; defaults follow the published cohort statistics."""

    n: int = 5396
    rate_hospital: float = 0.1294
    rate_30day: float = 0.1651
    missing_rates: dict = field(default_factory=lambda: dict(DEFAULT_MISSING_RATES))
    structured_weight: float = 1.8
    text_weight: float = 0.8
    risk_tokens: tuple = DEFAULT_RISK_TOKENS
    note_length: tuple = (40, 120)
    risk_token_mean: float = 0.9

    @classmethod
    def from_obj(cls, obj):
        if not isinstance(obj, dict):
            raise CohortError("generator config must be a JSON object")
        cfg = cls()
        names = {f.name for f in fields(cls)}
        for key, value in obj.items():
            if key not in names:
                raise CohortError(f"unknown generator config key {key!r}")
            if key in ("risk_tokens", "note_length") and isinstance(value, list):
                value = tuple(value)
            setattr(cfg, key, value)
        _validate_synth_config(cfg, FeatureSchema.default())
        return cfg

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_obj(json.load(f))

    def to_obj(self):
        return asdict(self)


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


DEFAULT_MISSING_RATES = _default_missing_rates()


def _validate_synth_config(config, schema):
    if not (is_number(config.n, integral=True) and config.n >= 10):
        raise CohortError(f"generator needs an integer n >= 10, not {config.n!r}")
    for rate in (config.rate_hospital, config.rate_30day):
        if not (is_number(rate) and 0.0 < rate < 1.0):
            raise CohortError(f"target base rate {rate!r} must lie strictly in (0, 1)")
    if not isinstance(config.missing_rates, dict):
        raise CohortError("missing_rates must map features to rates")
    for name, rate in config.missing_rates.items():
        desc = schema.by_name.get(name)
        if desc is None or desc.kind != CONTINUOUS:
            raise CohortError(f"missingness configured for non-continuous feature {name!r}")
        if not (is_number(rate) and 0.0 <= rate < 1.0):
            raise CohortError(f"missingness rate {rate!r} for {name!r} must lie in [0, 1)")
    lengths = config.note_length
    if not (isinstance(lengths, (list, tuple)) and len(lengths) == 2
            and all(is_number(v, integral=True) for v in lengths)
            and 5 <= lengths[0] <= lengths[1]):
        raise CohortError("note_length must be integers (lo, hi) with 5 <= lo <= hi")
    if not (isinstance(config.risk_tokens, (list, tuple)) and config.risk_tokens
            and all(isinstance(token, str) for token in config.risk_tokens)):
        raise CohortError("risk_tokens must be a non-empty list of strings")
    weights = (config.structured_weight, config.text_weight, config.risk_token_mean)
    if not all(map(is_number, weights)):
        raise CohortError("structured_weight, text_weight and risk_token_mean must be numbers")


def _standardize(x):
    sd = x.std()
    if sd == 0:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def _calibrate_intercept(thresholds, target, iters=100):
    """Bisect the label-model intercept until the empirical rate hits target.

    A record is positive iff its threshold is below the intercept, so the
    empirical rate is a monotone step function of the intercept; bisection
    lands within one step (1/n) of the target.
    """
    lo, hi = float(thresholds.min()) - 1.0, float(thresholds.max()) + 1.0
    n = thresholds.size
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        rate = float(np.mean(thresholds < mid))
        if rate >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _make_note(rng, config, n_risk):
    lo, hi = config.note_length
    length = int(rng.integers(lo, hi + 1))
    probs = 1.0 / (np.arange(len(_NOTE_LEXICON)) + 5.0)
    probs /= probs.sum()
    tokens = list(rng.choice(len(_NOTE_LEXICON), size=length, p=probs))
    words = [_NOTE_LEXICON[t] for t in tokens]
    for _ in range(n_risk):
        pos = int(rng.integers(0, len(words) + 1))
        words.insert(pos, config.risk_tokens[int(rng.integers(0, len(config.risk_tokens)))])
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
    text = []
    for w in words:
        text.append(w)
        if rng.random() < 0.08:
            text[-1] = text[-1] + "."
    return " ".join(text)


def synth_cohort(config=None, seed=0, schema=None):
    """Deterministic synthetic cohort with a known logistic ground truth."""
    cohort, _ = synth_cohort_with_truth(config, seed, schema)
    return cohort


def synth_cohort_with_truth(config=None, seed=0, schema=None):
    """Generate a cohort and return it with the true per-record risk scores.

    The risk score combines a linear function of standardized structured
    features with the count of risk tokens placed in each note; both outcome
    labels are thresholded draws against a sigmoid of intercept + risk, with
    the intercept calibrated by bisection to the configured base rates.
    """
    if config is None:
        config = SynthConfig()
    if schema is None:
        schema = FeatureSchema.default()
    _validate_synth_config(config, schema)
    rng = np.random.default_rng(seed)
    n = config.n
    ranges = PlausibleRangeTable.default()

    cont_values = {}
    for name in schema.continuous:
        mean, sd = _CONTINUOUS_STATS.get(name, (0.0, 1.0))
        x = rng.normal(mean, sd, size=n)
        bound = ranges.get(name)
        if bound is not None:
            x = np.clip(x, bound[0], bound[1])
        cont_values[name] = x
    bin_values = {name: (rng.random(n) < p).astype(int)
                  for name, p in _BINARY_PREVALENCE.items()}
    cat_values = {}
    for name in schema.categorical:
        cats = schema.by_name[name].categories
        probs = np.asarray(_CATEGORICAL_PROBS.get(name, ()), dtype=float)
        if probs.size != len(cats):
            probs = np.ones(len(cats))
        probs = probs / probs.sum()
        cat_values[name] = rng.choice(len(cats), size=n, p=probs)

    struct_score = np.zeros(n)
    for name, beta in _TRUE_EFFECTS_CONTINUOUS.items():
        if name in cont_values:
            struct_score += beta * _standardize(cont_values[name])
    for name, beta in _TRUE_EFFECTS_BINARY.items():
        if name in bin_values:
            x = bin_values[name].astype(float)
            struct_score += beta * (x - x.mean())
    for name, effects in _TRUE_EFFECTS_CATEGORICAL.items():
        if name in cat_values:
            cats = schema.by_name[name].categories
            e = np.array([effects.get(c, 0.0) for c in cats])
            contrib = e[cat_values[name]]
            struct_score += contrib - contrib.mean()

    n_risk = rng.poisson(config.risk_token_mean, size=n)
    text_score = n_risk.astype(float)

    risk = (config.structured_weight * _standardize(struct_score)
            + config.text_weight * _standardize(text_score))

    u = rng.random(n)
    # positive iff logit(u) - risk < intercept
    thresholds = np.log(u / (1.0 - u)) - risk
    a_hosp = _calibrate_intercept(thresholds, config.rate_hospital)
    a_30d = _calibrate_intercept(thresholds, config.rate_30day)
    label_hosp = thresholds < a_hosp
    label_30d = thresholds < a_30d

    notes = [_make_note(rng, config, int(k)) for k in n_risk]

    # sorted draw order keeps the stream independent of dict insertion order
    missing_masks = {name: rng.random(n) < config.missing_rates[name]
                     for name in sorted(config.missing_rates)
                     if config.missing_rates[name] > 0}

    width = len(str(n - 1))
    records = []
    for i in range(n):
        values = {}
        for name in schema.names:
            desc = schema.by_name[name]
            if desc.kind == CONTINUOUS:
                if name in missing_masks and missing_masks[name][i]:
                    values[name] = None
                else:
                    values[name] = round(float(cont_values[name][i]), 4)
            elif desc.kind == BINARY:
                values[name] = int(bin_values[name][i])
            else:
                values[name] = desc.categories[int(cat_values[name][i])]
        records.append(PatientRecord(
            id=f"synth-{i:0{width}d}",
            values=values,
            note_text=notes[i],
            label_hospital=bool(label_hosp[i]),
            label_30day=bool(label_30d[i]),
        ))
    return Cohort(schema, records), risk
