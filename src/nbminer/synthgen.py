"""Synthetic transaction data built from weighted, partially shared patterns.

The classic market-basket construction: a pool of patterns (itemsets) is
drawn first, each pattern borrowing a random fraction of the previous
pattern's items so that patterns overlap; exponential weights decide how
often each pattern is used. Transactions are then filled by drawing
patterns, corrupting them (each surviving item is dropped while a uniform
draw stays below the corruption level), and packing them until the drawn
transaction size is reached. An itemset that does not fit is added anyway
half the time and otherwise carried over to the next transaction.

Determinism: one PCG64 stream (numpy default_rng) seeded from the config,
consumed in this exact order: (1) pattern sizes, one Poisson vector;
(2) per pattern, one exponential for the reuse fraction (patterns after the
first), one choice among the previous pattern's items, one choice among the
remaining items; (3) one exponential weight vector; (4) per transaction,
one Poisson size, then per fill attempt one uniform for the pattern pick
(skipped when a carried-over itemset is pending), one uniform per drop
decision and one integer per drop, and one uniform coin when the itemset
does not fit. The same seed therefore reproduces the same database and
truth bit for bit.

Two orders fix what those draws pick. The fresh-item pool a pattern chooses
from is the ascending list of the items it has not already chosen, and a
corruption drop removes the item at the drawn index in the itemset's
ascending items.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .transactions import TransactionDatabase, _digits, _read_lines, _real


# the largest mean numpy's Poisson sampler accepts
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; sizes are averages of Poisson draws."""

    n_transactions: int
    avg_transaction_size: float
    n_items: int
    n_patterns: int
    avg_pattern_size: float
    correlation: float = 0.5
    corruption: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # generate would fail on these later, without naming the field
        for name in ("n_transactions", "n_items", "n_patterns"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in ("avg_transaction_size", "avg_pattern_size"):
            value = getattr(self, name)
            if not (0 < value <= _POISSON_LAM_MAX):
                raise ValueError(
                    f"{name} must be positive and at most {_POISSON_LAM_MAX:.6g}, got {value!r}")
        if self.avg_pattern_size > self.n_items:
            raise ValueError(
                f"average pattern size {self.avg_pattern_size} exceeds "
                f"the item pool {self.n_items}")
        if not self.correlation >= 0:  # inf is full reuse; nan is rejected
            raise ValueError(f"correlation must be non-negative, got {self.correlation!r}")
        if not (0.0 <= self.corruption <= 1.0):
            raise ValueError("corruption must be in [0, 1]")


# named setups used throughout: both 100k transactions of average size 10
# over 1000 items; they differ in pattern pool size and pattern length.
PRESETS = {
    "artif-1": GenConfig(n_transactions=100_000, avg_transaction_size=10,
                         n_items=1000, n_patterns=2000, avg_pattern_size=4),
    "artif-2": GenConfig(n_transactions=100_000, avg_transaction_size=10,
                         n_items=1000, n_patterns=4000, avg_pattern_size=2),
}


def preset_config(name: str, **overrides) -> GenConfig:
    """A preset by name, with any field overridden (e.g. n_transactions, seed)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides)


@dataclass(frozen=True)
class GroundTruth:
    """The generated patterns with their draw weights (summing to 1).

    Patterns that happened to draw identical item sets are merged, their
    weights added.
    """

    patterns: dict

    def __post_init__(self):
        for p, w in self.patterns.items():
            if not p:
                raise ValueError("patterns must be non-empty itemsets")
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"pattern weights must be finite and non-negative, got {w!r}")
        total = _weight_sum(self.patterns)
        if self.patterns and abs(total - 1.0) > 1e-9:
            raise ValueError(f"pattern weights sum to {total}, expected 1")

    def __len__(self):
        return len(self.patterns)


def _weight_sum(patterns: dict) -> float:
    """The exact sum of the weights rounded once; inf when it overflows."""
    try:
        return math.fsum(patterns.values())
    except OverflowError:
        return math.inf


def generate(config: GenConfig):
    """Generate (TransactionDatabase, GroundTruth) for the given config."""
    rng = np.random.default_rng(config.seed)
    n_items = config.n_items

    sizes = np.clip(rng.poisson(config.avg_pattern_size, config.n_patterns),
                    1, n_items)
    patterns = []
    prev = None
    all_items = np.arange(n_items)
    for size in sizes:
        size = int(size)
        chosen = np.empty(0, dtype=np.int64)
        if prev is not None:
            frac = min(rng.exponential(config.correlation), 1.0)
            n_reuse = min(int(frac * size + 0.5), size, len(prev))
            if n_reuse > 0:
                chosen = rng.choice(prev, n_reuse, replace=False)
        if size - len(chosen) > 0:
            keep = np.ones(n_items, dtype=bool)
            keep[chosen] = False
            pool = all_items[keep]
            fresh = rng.choice(pool, size - len(chosen), replace=False)
            chosen = np.concatenate([chosen, fresh])
        prev = chosen
        patterns.append(frozenset(int(i) for i in chosen))

    weights = rng.exponential(1.0, config.n_patterns)
    weights /= weights.sum()
    # a list: bisect on Python floats is faster per draw than searchsorted
    cumw = np.cumsum(weights).tolist()
    # each pattern's items in ascending order, the order a drop indexes into
    draws = [sorted(p) for p in patterns]

    rows = []
    pending = None
    for _ in range(config.n_transactions):
        size = max(1, int(rng.poisson(config.avg_transaction_size)))
        t = set()
        attempts = 0
        while len(t) < size:
            attempts += 1
            if attempts > 1000:
                break
            if pending is not None:
                items = pending
                pending = None
            else:
                idx = bisect.bisect_right(cumw, rng.random())
                items = draws[min(idx, config.n_patterns - 1)][:]
                # corruption: keep dropping a random item while the draw says so;
                # deleting from an ascending list keeps it ascending
                while items and rng.random() < config.corruption:
                    del items[int(rng.integers(len(items)))]
            if not items:
                continue
            merged = t.union(items)
            if len(merged) <= size:
                t = merged
            elif rng.random() < 0.5:
                t = merged
                break
            else:
                pending = items
                if t:
                    break
                # an empty transaction never closes; retry with a fresh draw
        if not t:
            # degenerate configs (corruption ~ 1) can exhaust the attempt cap
            t = {int(rng.integers(n_items))}
        rows.append(sorted(t))

    merged_patterns = {}
    for p, w in zip(patterns, weights):
        merged_patterns[p] = merged_patterns.get(p, 0.0) + float(w)
    return TransactionDatabase._from_rows(tuple(tuple(r) for r in rows)), \
        GroundTruth(merged_patterns)


def write_truth(truth: GroundTruth, path) -> None:
    """Write patterns as `weight TAB item ids`, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in sorted(truth.patterns, key=lambda p: (len(p), sorted(p))):
            ids = " ".join(map(str, sorted(p)))
            fh.write(f"{truth.patterns[p]:.17g}\t{ids}\n")


def read_truth(path) -> GroundTruth:
    """Read a truth file; weights are renormalized if they drifted from 1."""
    def row(text):
        fields = text.strip().split("\t")
        if len(fields) != 2:
            raise ValueError("expected `weight TAB items`")
        w = _real(fields[0], "weight")
        items = frozenset(map(_digits, fields[1].split()))
        if not (math.isfinite(w) and w >= 0) or not items:
            raise ValueError("bad weight or empty pattern")
        return items, w

    patterns = {}
    for items, w in _read_lines(path, row):
        patterns[items] = patterns.get(items, 0.0) + w
    if not patterns:
        return GroundTruth({})
    total = _weight_sum(patterns)
    if not 0 < total < math.inf:
        raise ValueError(f"{path}: pattern weights sum to {total}")
    if abs(total - 1.0) > 1e-12:
        patterns = {p: w / total for p, w in patterns.items()}
    return GroundTruth(patterns)
