"""The benchmark's workloads and the code that makes their inputs.

Each workload is one generated basket file plus its ground-truth file,
made from the workload seed alone, and the parameters every operation
runs at. Run as a script, this module makes one workload's inputs
several times in a fresh interpreter, so that its memory stays out of
the measuring process, and prints the time of each step of each
repetition as one JSON line. ``run.py`` starts it as

    PYTHONPATH=src python3 perfbench/workloads.py --spec JSON --seed 1 --reps 3 --out DIR

where JSON is a Workload as written by ``spec_json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# Operating point shared by every workload: the nb miner's precision and
# subset-agreement targets, which are also the CLI defaults.
PI = 0.95
THETA = 0.5

BASKET = "input.basket"
TRUTH = "input.truth"

# The artif workloads draw their transactions from one fixed base
# database per workload: the generator runs with BASE_SEED on
# n_transactions / KEEP transactions, and the workload seed picks which
# n_transactions of them to keep, in their original order. Every seed
# then carries the same planted patterns, so the work per run stays
# within a few percent across seeds; with a fresh pattern pool per seed,
# the work of artif1-deep varied by a quarter (rows counted) and its
# support output by two thirds, which no timing bound can absorb.
BASE_SEED = 1
KEEP = 0.8

# The null workload's items have Gamma(NULL_SHAPE) rates, scaled so that a
# transaction holds NULL_MEAN_SIZE items on average.
NULL_SHAPE = 2.0
NULL_MEAN_SIZE = 10.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the thresholds it is mined at.

    ``source`` is an nbminer generator preset ("artif-1", "artif-2"), with
    ``n_items`` and ``n_patterns`` overriding the preset's, or "null" for
    independent items with Gamma(NULL_SHAPE) rates and no planted
    structure, drawn afresh from each seed. ``min_support`` and ``min_allconf`` drive the two
    baselines and the sweep's single grid point for each.
    """

    name: str
    source: str
    n_transactions: int
    n_items: int
    n_patterns: int
    min_support: float
    min_allconf: float


# Why each workload was chosen is recorded in BENCHMARK.json.
# Sizes are chosen so that one round (mine, support, allconf and a
# two-worker sweep) takes a few seconds on a 2-core machine, which lets
# a run take the median of several rounds. The two artif workloads keep
# the contrast the search depends on: artif2-dense has few large
# conditional databases (1.9k nodes of 112 rows on average at seed 1),
# artif1-deep many tiny ones (33k nodes of 4.8 rows, itemsets up to
# size 12). artif1-deep's baseline thresholds are the ones, among a few
# tried, whose output size varied least across seeds.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="artif2-dense-8k",
        source="artif-2", n_transactions=8_000, n_items=200, n_patterns=800,
        min_support=0.01, min_allconf=0.1),
    Workload(
        name="artif1-deep-1500",
        source="artif-1", n_transactions=1_500, n_items=1000, n_patterns=2000,
        min_support=0.006, min_allconf=0.3),
    Workload(
        name="null-12k",
        source="null", n_transactions=12_000, n_items=1000, n_patterns=0,
        min_support=0.002, min_allconf=0.05),
)}


def null_database(n_transactions: int, n_items: int, shape: float,
                  mean_size: float, seed: int):
    """Independent items: item i joins each transaction with probability p_i.

    The p_i are Gamma(shape) draws scaled so a transaction holds
    ``mean_size`` items on average. Transactions left empty are dropped,
    because the basket format has no way to write them.
    """
    import numpy as np
    from nbminer.transactions import TransactionDatabase

    rng = np.random.default_rng(seed)
    rates = rng.gamma(shape, 1.0, n_items)
    p = np.minimum(rates * (mean_size / rates.sum()), 1.0)
    tids, items = [], []
    for item in range(n_items):
        chosen = rng.choice(n_transactions, rng.binomial(n_transactions, p[item]),
                            replace=False)
        tids.append(chosen)
        items.append(np.full(len(chosen), item))
    tids = np.concatenate(tids)
    items = np.concatenate(items)
    order = np.lexsort((items, tids))
    tids, items = tids[order], items[order]
    rows = np.split(items, np.flatnonzero(np.diff(tids)) + 1)
    return TransactionDatabase(r.tolist() for r in rows if len(r))


def make_inputs(w: Workload, seed: int):
    """(TransactionDatabase, GroundTruth) for a workload and seed."""
    import numpy as np
    from nbminer.synthgen import GroundTruth, generate, preset_config
    from nbminer.transactions import TransactionDatabase

    if w.source == "null":
        db = null_database(w.n_transactions, w.n_items, NULL_SHAPE, NULL_MEAN_SIZE, seed)
        return db, GroundTruth({})
    n_base = round(w.n_transactions / KEEP)
    base, truth = generate(preset_config(w.source, n_transactions=n_base,
                                         n_items=w.n_items, n_patterns=w.n_patterns,
                                         seed=BASE_SEED))
    keep = np.sort(np.random.default_rng(seed).choice(n_base, w.n_transactions,
                                                      replace=False))
    rows = base.transactions
    return TransactionDatabase(rows[i] for i in keep.tolist()), truth


def spec_json(w: Workload) -> str:
    return json.dumps(asdict(w))


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def setup(w: Workload, seed: int, reps: int, out: Path) -> list:
    """Make and write the inputs ``reps`` times; per repetition, the time of
    each step, the speed factor (see speed.py) and the digests of the files
    written."""
    from nbminer.synthgen import write_truth
    from nbminer.transactions import write_basket
    from speed import Scaler

    out.mkdir(parents=True, exist_ok=True)
    results = []
    gc.collect()
    with Scaler() as scaler:
        for _ in range(reps):
            t0 = time.perf_counter()
            db, truth = make_inputs(w, seed)
            t1 = time.perf_counter()
            write_basket(db, out / BASKET)
            t2 = time.perf_counter()
            write_truth(truth, out / TRUTH)
            t3 = time.perf_counter()
            factor = scaler.factor()
            del db, truth
            gc.collect()
            results.append({"generate_s": t1 - t0, "write_basket_s": t2 - t1,
                            "write_truth_s": t3 - t2, "total_s": t3 - t0, "factor": factor,
                            "basket": sha256(out / BASKET), "truth": sha256(out / TRUTH)})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True, help="a Workload as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    w = Workload(**json.loads(args.spec))
    print(json.dumps(setup(w, args.seed, args.reps, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
