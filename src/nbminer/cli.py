"""Command line entry point: fit, mine, baselines, generate, evaluate, benchmark.

Every command that writes an output file also writes a JSON run manifest
next to it (``<out>.manifest.json``) recording the resolved flags, seed,
input/output paths, each input's SHA-256, timing and the nbminer and numpy
versions (a generated basket's bytes depend on numpy: NEP 19 keeps only the
bit generator's raw stream stable across releases, not methods such as
``Generator.poisson``).  Output files themselves are
deterministic: rerunning a command with the same flags and inputs produces
byte-identical files (wall-clock values live only in the manifest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy

from . import __version__
from .baselines import mine_allconf, mine_frequent
from .evaluation import (SCORING_MODES, allconf_runs, nb_runs, score, support_runs, sweep,
                         write_sweep)
from .mining import MinerConfig, nb_dfs, read_itemsets, write_itemsets
from .nbmodel import fit_database, gof_chi2, read_model, write_model
from .synthgen import GenConfig, PRESETS, generate, preset_config, read_truth, write_truth
from .transactions import load_basket, write_basket

__all__ = ["main"]


def _write_manifest(args: argparse.Namespace, seed, inputs, outputs,
                    started_utc: str, elapsed: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "version": __version__,
        "numpy": numpy.__version__,
        "flags": flags,
        "seed": seed,
        "inputs": list(inputs),
        "input_sha256": {str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
                         for path in inputs},
        "outputs": list(outputs),
        "started_utc": started_utc,
        "elapsed_seconds": elapsed,
    }
    with open(f"{outputs[0]}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trim", type=float, default=0.025,
                     help="fraction of item occurrences to trim from the most "
                          "frequent classes before fitting (default 0.025)")
    sub.add_argument("--total-items", type=int, default=None,
                     help="known total number of available items; skips the "
                          "zero-class EM estimate")


def cmd_fit(args: argparse.Namespace):
    db = load_basket(args.basket)
    params, hist = fit_database(db, trim_fraction=args.trim, n_known=args.total_items)
    write_model(params, args.out)
    print(f"fitted: k={params.k:.6g} a={params.a:.6g} n_total={params.n_total} "
          f"em_iterations={params.em_iterations} trimmed_items={params.trimmed_items}")
    try:
        gof = gof_chi2(hist, params)
    except ValueError as exc:
        print(f"warning: goodness of fit not computable: {exc}", file=sys.stderr)
    else:
        print(f"gof: chi2={gof.chi2:.6g} df={gof.df} p={gof.p_value:.6g}")
    return None, [args.basket], [args.out]


def _write_mined(out: str, mined: list) -> None:
    write_itemsets(out, mined)
    max_size = max((len(m.items) for m in mined), default=0)
    print(f"mined {len(mined)} itemsets (max size {max_size}) -> {out}")


def cmd_mine(args: argparse.Namespace):
    db = load_basket(args.basket)
    inputs = [args.basket]
    if args.model:
        params = read_model(args.model)
        inputs.append(args.model)
    else:
        params, _ = fit_database(db, trim_fraction=args.trim, n_known=args.total_items)
    mined = nb_dfs(db, MinerConfig(params, pi=args.pi, theta=args.theta),
                   max_size=args.max_size)
    _write_mined(args.out, mined)
    return None, inputs, [args.out]


def cmd_mine_baseline(args: argparse.Namespace):
    """``mine-support`` or ``mine-allconf``, as ``args.command`` names it."""
    db = load_basket(args.basket)
    if args.command == "mine-support":
        miner, threshold = mine_frequent, args.min_support
    else:
        miner, threshold = mine_allconf, args.min_allconf
    _write_mined(args.out, miner(db, threshold))
    return None, [args.basket], [args.out]


# generator flag name -> GenConfig field
_GEN_FIELDS = {
    "transactions": "n_transactions",
    "avg_transaction_size": "avg_transaction_size",
    "items": "n_items",
    "patterns": "n_patterns",
    "avg_pattern_size": "avg_pattern_size",
    "correlation": "correlation",
    "corruption": "corruption",
    "seed": "seed",
}


def _gen_config(args: argparse.Namespace) -> GenConfig:
    # a command without some generator flag (benchmark) reads it as absent
    overrides = {field: getattr(args, flag, None)
                 for flag, field in _GEN_FIELDS.items()
                 if getattr(args, flag, None) is not None}
    if args.preset:
        return preset_config(args.preset, **overrides)
    required = ("n_transactions", "avg_transaction_size", "n_items",
                "n_patterns", "avg_pattern_size")
    missing = [f for f in required if f not in overrides]
    if missing:
        raise ValueError(f"without --preset these are required: {missing}")
    return GenConfig(**overrides)


def cmd_generate(args: argparse.Namespace):
    config = _gen_config(args)
    db, truth = generate(config)
    write_basket(db, args.out)
    write_truth(truth, args.truth)
    mean = db.incidence_total / len(db)
    print(f"generated {len(db)} transactions (mean size {mean:.4g}) and "
          f"{len(truth)} patterns, seed {config.seed}")
    return config.seed, [], [args.out, args.truth]


def _report_lines(report) -> list:
    by_size = " ".join(f"{size}:{tp}/{fp}" for size, (tp, fp) in report.by_size.items())
    fmt = lambda v: "" if v is None else f"{v:.12g}"
    return [
        f"tp\t{report.true_positives}",
        f"fp\t{report.false_positives}",
        f"positives_total\t{report.positives_total}",
        f"precision\t{fmt(report.precision)}",
        f"recall\t{fmt(report.recall)}",
        f"by_size\t{by_size}",
    ]


def cmd_evaluate(args: argparse.Namespace):
    report = score(read_itemsets(args.mined), read_truth(args.truth),
                   scoring_mode=args.scoring_mode)
    text = "\n".join(_report_lines(report)) + "\n"
    print(text, end="")
    if not args.out:
        return None, [], []
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return None, [args.mined, args.truth], [args.out]


def _csv_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def cmd_benchmark(args: argparse.Namespace):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    unknown = set(methods) - {"nb", "support", "allconf"}
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")

    if args.basket:
        if not args.truth:
            raise ValueError("--basket requires --truth for scoring")
        db = load_basket(args.basket)
        truth = read_truth(args.truth)
        seed = None
        inputs = [args.basket, args.truth]
    elif args.preset:
        config = _gen_config(args)
        db, truth = generate(config)
        seed = config.seed
        inputs = []
    else:
        raise ValueError("either --basket or --preset is required")

    runs = []
    if "nb" in methods:
        params, _ = fit_database(db, trim_fraction=args.trim)
        pi_grid = _csv_floats(args.pi_grid) if args.pi_grid else None
        for theta in _csv_floats(args.theta):
            runs.extend(nb_runs(params, theta, pi_grid))
    if "support" in methods:
        runs.extend(support_runs(_csv_floats(args.support_grid) if args.support_grid else None))
    if "allconf" in methods:
        runs.extend(allconf_runs(_csv_floats(args.allconf_grid) if args.allconf_grid else None))

    entries = sweep(db, truth, runs, scoring_mode=args.scoring_mode, jobs=args.jobs)
    for e in entries:
        if e.error is not None:
            print(f"warning: {e.method} at {e.parameter:g} failed: {e.error}",
                  file=sys.stderr)
    write_sweep(args.out, entries)
    done = sum(e.report is not None for e in entries)
    print(f"benchmark: {done}/{len(entries)} grid points -> {args.out}")
    return seed, inputs, [args.out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbminer",
        description="Mine itemsets whose co-occurrence beats a negative "
                    "binomial item-frequency model, plus baselines and a "
                    "synthetic data generator.")
    parser.add_argument("--version", action="version", version=f"nbminer {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="fit the frequency model to a basket file")
    p.add_argument("basket")
    p.add_argument("--out", required=True, help="model file to write")
    _fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("mine", help="mine itemsets with model-derived thresholds")
    p.add_argument("basket")
    p.add_argument("--out", required=True, help="itemset file to write")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="model file from `fit`")
    src.add_argument("--fit-inline", action="store_true",
                     help="fit the model from the basket file first")
    p.add_argument("--pi", type=float, default=0.95,
                   help="required predicted precision, in (0, 1]; 0 is refused "
                        "because it would select every co-occurring item "
                        "(default 0.95)")
    p.add_argument("--theta", type=float, default=0.5,
                   help="fraction of subsets that must propose an itemset "
                        "(default 0.5)")
    p.add_argument("--max-size", type=int, default=None,
                   help="stop extending itemsets beyond this size")
    _fit_flags(p)
    p.set_defaults(func=cmd_mine)

    p = subs.add_parser("mine-support", help="mine frequent itemsets (baseline)")
    p.add_argument("basket")
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", type=float, required=True)
    p.set_defaults(func=cmd_mine_baseline)

    p = subs.add_parser("mine-allconf", help="mine all-confidence itemsets (baseline)")
    p.add_argument("basket")
    p.add_argument("--out", required=True)
    p.add_argument("--min-allconf", type=float, required=True)
    p.set_defaults(func=cmd_mine_baseline)

    p = subs.add_parser("generate", help="generate synthetic transactions")
    p.add_argument("--out", required=True, help="basket file to write")
    p.add_argument("--truth", required=True, help="ground truth pattern file to write")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named configuration; explicit flags override its fields")
    p.add_argument("--transactions", type=int)
    p.add_argument("--avg-transaction-size", type=float)
    p.add_argument("--items", type=int)
    p.add_argument("--patterns", type=int)
    p.add_argument("--avg-pattern-size", type=float)
    p.add_argument("--correlation", type=float)
    p.add_argument("--corruption", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("evaluate", help="score a mined itemset file against ground truth")
    p.add_argument("--mined", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--scoring-mode", choices=SCORING_MODES, default="closure")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("benchmark", help="sweep methods over parameter grids and score")
    p.add_argument("--basket", help="existing basket file (requires --truth)")
    p.add_argument("--truth", help="ground truth for --basket")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="generate the dataset from a preset instead")
    p.add_argument("--transactions", type=int, help="override preset transaction count")
    p.add_argument("--seed", type=int, help="override preset seed")
    p.add_argument("--out", required=True, help="sweep table to write")
    p.add_argument("--methods", default="nb,support,allconf")
    p.add_argument("--theta", default="0,0.5,1",
                   help="comma list of theta settings for the nb method")
    p.add_argument("--pi-grid", default=None,
                   help="comma list of pi values (default: built-in grid, "
                        "restricted per theta)")
    p.add_argument("--support-grid", default=None)
    p.add_argument("--allconf-grid", default=None)
    p.add_argument("--scoring-mode", choices=SCORING_MODES, default="closure")
    p.add_argument("--trim", type=float, default=0.025)
    p.add_argument("--jobs", type=int, default=1,
                   help="run grid points in this many processes")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started, t0 = datetime.now(timezone.utc).isoformat(), time.perf_counter()
    try:
        # every command returns (seed, inputs, outputs); the manifest goes
        # next to its first output, and a command without outputs has none
        seed, inputs, outputs = args.func(args)
        if outputs:
            _write_manifest(args, seed, inputs, outputs, started, time.perf_counter() - t0)
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
