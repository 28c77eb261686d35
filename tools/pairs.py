"""Alternating parent/change benchmark pairs, summarized as a BENCH_*.json.

    python tools/pairs.py PARENT CHANGE --out BENCH_x.json

Run from the repository root.  Each revision is extracted with `git archive`
into a temporary directory, where perfbench/run.py runs each workload over
seeds 1-10 for 8 s with --trace 0, one run at a time; odd seeds run PARENT
first, even seeds CHANGE first.  Per workload, each end-to-end metric of
BENCHMARK.json, and the report's import_s and median synth_s, gets its
medians, the parent's interquartile range and the pairs the change won.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SEEDS = 10
SECONDS = 8


def run(tree, workload, seed):
    """(metric values, correct, failed, digest) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True).stdout
    *_, report, result = [json.loads(line) for line in out.splitlines()
                          if line.startswith("{")]
    report = report["report"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values.update(import_s=report["import_s"],
                  synth_s=statistics.median(report["synth_s"]))
    return values, result["correct"], result["failed"], report["digest"]


def summary(pairs, better):
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        sign = 1 if direction == "lower" else -1
        out[name] = {"parent_median": statistics.median(parent),
                     "change_median": statistics.median(change),
                     "parent_iqr": q3 - q1,
                     "change_better": sum(sign * (c - p) < 0
                                          for p, c in zip(parent, change)),
                     "equal": sum(p == c for p, c in zip(parent, change))}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better.update(import_s="lower", synth_s="lower")
    sides = {s: subprocess.run(["git", "rev-parse", rev], check=True,
                               capture_output=True, text=True).stdout.strip()
             for s, rev in (("parent", args.parent), ("change", args.change))}
    out = {"revisions": sides,
           "host": f"{os.cpu_count()} cores, Python "
                   f"{platform.python_version()}, load average "
                   f"{os.getloadavg()[1]:.2f} at the start",
           "quartiles": "statistics.quantiles, inclusive (numpy.percentile's "
                        "linear interpolation); iqr = q3 - q1"}
    with tempfile.TemporaryDirectory() as tmp:
        for side, rev in sides.items():
            subprocess.run(["git", "archive", "-o", f"{tmp}/{side}.tar", rev],
                           check=True)
            with tarfile.open(f"{tmp}/{side}.tar") as tar:
                tar.extractall(f"{tmp}/{side}")
        for w in (w["name"] for w in bench["workloads"]):
            pairs = []
            for seed in range(1, SEEDS + 1):
                order = ("parent", "change")[::1 if seed % 2 else -1]
                runs = {s: run(f"{tmp}/{s}", w, seed) for s in order}
                pairs.append({"seed": seed, **{s: runs[s][0] for s in sides},
                              "correct": [runs[s][1] for s in sides],
                              "failed": [runs[s][2] for s in sides],
                              "digest_equal": (runs["parent"][3]
                                               == runs["change"][3])})
            out[w] = {"command": f"python3 perfbench/run.py --workload {w} "
                                 f"--seed N --seconds {SECONDS} --trace 0",
                      "order": "odd seeds ran the parent first",
                      "summary": summary(pairs, better), "pairs": pairs}
    out["load_average_at_end"] = round(os.getloadavg()[1], 2)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
