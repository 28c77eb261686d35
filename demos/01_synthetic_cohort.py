"""Generate a synthetic ICU cohort and look inside it.

The generator draws 44 structured features with realistic marginals,
de-identified-style note text, per-feature missingness, and two mortality
labels whose base rates are met by construction: each label's intercept is
an order statistic of the records' thresholds. The cohort size n is the
generator's only setting.
"""

import tempfile
from pathlib import Path

import numpy as np

from icumort.cohort import (
    filter_outliers,
    load_cohort,
    save_cohort,
    synth_cohort,
)

cohort = synth_cohort(n=800, seed=7)
print(f"records: {len(cohort)}")
print(f"hospital mortality: {cohort.labels('hospital').mean():.3f}")
print(f"30-day mortality:   {cohort.labels('30day').mean():.3f}")

# missingness lands where the config put it
X = cohort.continuous_matrix()
frac = np.isnan(X).mean(axis=0)
worst = np.argsort(-frac)[:5]
print("\nmost-missing continuous features:")
for j in worst:
    print(f"  {cohort.schema.continuous[j]:<28} {frac[j]:.2%}")

column = {name: j for j, name in enumerate(cohort.schema.continuous)}
age, sofa = X[0, column["age"]], X[0, column["sofa"]]
print(f"\nfirst record {cohort.ids[0]}: age={float(age)}, sofa={float(sofa)}")
print("note starts:", cohort.notes[0][:110], "...")

# values outside plausible physiology become missing, nothing is dropped
heart_rate = cohort.schema.continuous_columns[column["heart_rate"]]
cohort.values[3, heart_rate] = 5000.0  # corrupt one cell
filtered, report = filter_outliers(cohort)
print(f"\noutlier cells nulled: {sum(report.values())} "
      f"({dict(report)}); records kept: {len(filtered)}")
print(f"corrupted cell now missing: {bool(np.isnan(filtered.values[3, heart_rate]))}")

with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "cohort.jsonl"
    save_cohort(cohort, path)
    again = load_cohort(path)
    same = (np.array_equal(cohort.values, again.values, equal_nan=True)
            and cohort.notes == again.notes)
    print(f"\nsave/load round trip intact: {same}")
