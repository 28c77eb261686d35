"""Command line front end: synth, run, permtest, rank."""

import argparse
import json
import sys

from . import linmod
from .cohort import CohortError, SynthConfig, save_cohort, synth_cohort
from .evaluation import EvalError
from .experiment import (
    ConfigError,
    cell_id,
    load_run,
    run_experiment,
    run_permtest,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="icumort",
        description="Mortality-model experiments on structured ICU features "
                    "fused with clinical note text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort JSONL file")
    p.add_argument("--config", help='generator config JSON: {"n": N}')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("--config", required=True,
                   help="experiment config or manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--stopwords", help="stop word list, one token per line")
    p.add_argument("--ranges", help="plausible-range table JSON")
    p.add_argument("--embeddings", help="pretrained embedding text file")

    p = sub.add_parser("permtest",
                       help="paired AUC permutation test between two cells")
    p.add_argument("results_dir")
    p.add_argument("cell_a", help="feature_set/outcome/sampling/algorithm")
    p.add_argument("cell_b")
    p.add_argument("--n-perm", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rank",
                       help="top structured coefficients of a linear model")
    p.add_argument("model_path")
    p.add_argument("-k", type=int, default=10)
    return parser


def cmd_synth(args):
    config = SynthConfig.load(args.config) if args.config else SynthConfig()
    cohort = synth_cohort(config, seed=args.seed)
    save_cohort(cohort, args.out)
    print(f"wrote {len(cohort)} records to {args.out}")
    return 0


def cmd_run(args):
    # a manifest's recorded input files apply unless a flag names others
    config, inputs = load_run(args.config)
    if args.seed is not None:
        config.seed = args.seed
    for name in ("stopwords", "ranges", "embeddings"):
        flag = getattr(args, name)
        if flag:
            inputs[f"{name}_path"] = flag
    rows = run_experiment(config, args.out, **inputs)
    failed = 0
    unconverged = 0
    for row in rows:
        cell = cell_id(row["feature_set"], row["outcome"], row["sampling"],
                       row["algorithm"])
        if row["error"] is not None:
            failed += 1
            print(f"cell {cell} failed: {row['error']}", file=sys.stderr)
        elif row["unconverged_fits"]:
            unconverged += row["unconverged_fits"]
            print(f"cell {cell}: {row['unconverged_fits']} of its linear "
                  f"fits did not converge", file=sys.stderr)
    print(f"wrote {len(rows)} cells to {args.out} "
          f"({len(rows) - failed} ok, {failed} failed); "
          f"{unconverged} unconverged linear fits")
    return 2 if failed else 0


def cmd_permtest(args):
    result = run_permtest(args.results_dir, args.cell_a, args.cell_b,
                          n_perm=args.n_perm, seed=args.seed)
    verdict = ("significant at 0.05" if result.p_value < 0.05
               else "not significant at 0.05")
    print(f"observed |delta AUC| = {result.observed:.6f}")
    print(f"p = {result.p_value:.6f} ({result.n_perm} permutations, "
          f"{verdict})")
    return 0


def cmd_rank(args):
    try:
        with open(args.model_path, encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ConfigError("rank works on linear models only") from None
    if payload.get("kind") != "linear":
        raise ConfigError("rank works on linear models only")
    model = linmod.LinearModel.from_obj(payload["model"])
    n_structured = payload["n_structured"]
    if n_structured == 0:
        raise ConfigError("model has no structured block to rank")
    names = payload["feature_names"][:n_structured]
    for name, coef in linmod.rank_coefficients(model.w[:n_structured], names,
                                               args.k):
        print(f"{name}\t{coef:+.6f}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"synth": cmd_synth, "run": cmd_run,
                "permtest": cmd_permtest, "rank": cmd_rank}
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError("--seed must be an integer >= 0")
        return handlers[args.command](args)
    except (ConfigError, CohortError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EvalError, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
