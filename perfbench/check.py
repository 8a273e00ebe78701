"""Independent checks of every file the benchmarked program writes.

Nothing here calls nbminer: the basket and truth files are parsed again,
frequencies are recounted with packed transaction-id bitsets, pair
counts come from one sparse product, and the sweep table is rebuilt from
the checked itemset files. Each check returns a list of error strings,
empty when the file is right.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy import sparse

_CHUNK = 4096


def read_rows(path) -> list:
    """Basket lines as sorted tuples of distinct ids (blank and # lines skipped)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = line.strip()
            if s and not s.startswith("#"):
                rows.append(tuple(sorted({int(tok) for tok in s.split()})))
    return rows


def read_truth_patterns(path) -> list:
    """The item sets of a truth file (weights are not needed here)."""
    with open(path, encoding="utf-8") as fh:
        return [frozenset(int(tok) for tok in line.split("\t")[1].split())
                for line in fh if line.strip() and not line.startswith("#")]


def positives_closure(patterns) -> set:
    """Every subset of size >= 2 of a truth pattern: the true positives."""
    out = set()
    for p in patterns:
        items = sorted(p)
        for size in range(2, len(items) + 1):
            out.update(map(frozenset, combinations(items, size)))
    return out


class Basket:
    """A basket file held as one packed bitset of transaction ids per item."""

    def __init__(self, path):
        rows = read_rows(path)
        self.n = len(rows)
        self.incidences = sum(map(len, rows))
        self.items = sorted({i for r in rows for i in r})
        self.index = {item: j for j, item in enumerate(self.items)}
        col = np.fromiter((self.index[i] for r in rows for i in r), dtype=np.int64,
                          count=self.incidences)
        tid = np.repeat(np.arange(self.n), [len(r) for r in rows])
        self.freq = np.bincount(col, minlength=len(self.items))
        words = (self.n + 63) // 64
        bits = np.zeros((len(self.items), words), dtype=np.uint64)
        np.bitwise_or.at(bits, (col, tid // 64),
                         np.left_shift(np.uint64(1), (tid % 64).astype(np.uint64)))
        self.bits = bits
        self._coords = (tid, col)

    def item_freq(self, item) -> int:
        return int(self.freq[self.index[item]]) if item in self.index else 0

    def recount(self, itemsets) -> list:
        """Number of transactions containing each itemset (all known items)."""
        out = [0] * len(itemsets)
        by_size = {}
        for pos, items in enumerate(itemsets):
            by_size.setdefault(len(items), []).append(pos)
        for size, positions in by_size.items():
            cols = np.array([[self.index[i] for i in itemsets[p]] for p in positions],
                            dtype=np.int64).reshape(len(positions), size)
            for lo in range(0, len(positions), _CHUNK):
                block = cols[lo:lo + _CHUNK]
                acc = self.bits[block[:, 0]].copy()
                for j in range(1, size):
                    acc &= self.bits[block[:, j]]
                counts = np.bitwise_count(acc).sum(axis=1)
                for p, c in zip(positions[lo:lo + _CHUNK], counts.tolist()):
                    out[p] = c
        return out

    def pair_counts(self) -> dict:
        """Co-occurrence count of every pair of items that ever co-occurs."""
        tid, col = self._coords
        x = sparse.csr_matrix((np.ones(len(tid), dtype=np.int64), (tid, col)),
                              shape=(self.n, len(self.items)))
        c = sparse.triu(x.T @ x, k=1).tocoo()
        return {(self.items[i], self.items[j]): int(v)
                for i, j, v in zip(c.row.tolist(), c.col.tolist(), c.data.tolist())}


def read_itemset_lines(path):
    """(items, freq, threshold field, precision field) per line, or errors."""
    recs, errors = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                errors.append(f"{path}:{lineno}: expected 4 fields")
                continue
            try:
                items = tuple(int(tok) for tok in fields[0].split())
                freq = int(fields[1])
            except ValueError:
                errors.append(f"{path}:{lineno}: unparseable ids or frequency")
                continue
            recs.append((items, freq, fields[2], fields[3]))
    return recs, errors


def _common(path, recs, basket: Basket, min_size: int) -> list:
    errors = []
    seen = set()
    for items, _, _, _ in recs:
        if len(items) < min_size or list(items) != sorted(set(items)):
            errors.append(f"{path}: {items} is not {min_size}+ ascending distinct ids")
        elif any(i not in basket.index for i in items):
            errors.append(f"{path}: {items} holds an item absent from the basket")
        elif items in seen:
            errors.append(f"{path}: {items} listed twice")
        seen.add(items)
    if errors:
        return errors
    counts = basket.recount([r[0] for r in recs])
    for (items, freq, _, _), true in zip(recs, counts):
        if freq != true:
            errors.append(f"{path}: {items} reported freq {freq}, recount gives {true}")
    return errors


def _missing_subsets(path, keys: set, min_size: int) -> list:
    errors = []
    for items in keys:
        if len(items) > min_size:
            for j in range(len(items)):
                if items[:j] + items[j + 1:] not in keys:
                    errors.append(f"{path}: {items} kept but its subset "
                                  f"{items[:j] + items[j + 1:]} is missing")
                    break
    return errors


def _pair_completeness(path, keys: set, pairs: dict, admit) -> list:
    want = {p for p, f in pairs.items() if admit(p, f)}
    have = {k for k in keys if len(k) == 2}
    errors = [f"{path}: pair {p} qualifies but is missing" for p in sorted(want - have)[:5]]
    errors += [f"{path}: pair {p} listed but does not qualify" for p in sorted(have - want)[:5]]
    return errors


def check_nb(path, basket: Basket, pi: float, theta: float):
    """Errors in an nb itemset file, and its parsed records."""
    recs, errors = read_itemset_lines(path)
    errors += _common(path, recs, basket, 2)
    accepted = {(i,) for i in basket.items} | {r[0] for r in recs}
    for items, freq, sigma, prec in recs:
        try:
            sigma_v, prec_v = int(sigma), float(prec)
        except ValueError:
            errors.append(f"{path}: {items} has threshold {sigma!r} / precision {prec!r}")
            continue
        if not (freq >= sigma_v >= 1) or not (pi <= prec_v <= 1.0):
            errors.append(f"{path}: {items} freq {freq}, threshold {sigma_v}, "
                          f"precision {prec_v} break freq >= threshold >= 1, precision >= {pi}")
        # the proposers of an emitted itemset are accepted (size-1) subsets
        votes = sum(items[:j] + items[j + 1:] in accepted for j in range(len(items)))
        if votes < max(1, math.ceil(theta * len(items))):
            errors.append(f"{path}: {items} has {votes} accepted subsets, "
                          f"theta {theta} needs {math.ceil(theta * len(items))}")
    return errors, recs


def check_support(path, basket: Basket, min_support: float, pairs: dict):
    recs, errors = read_itemset_lines(path)
    errors += _common(path, recs, basket, 1)
    n = basket.n
    for items, freq, thr, prec in recs:
        if thr != f"{min_support:.12g}" or prec != "" or not freq / n >= min_support:
            errors.append(f"{path}: {items} freq {freq} fields {thr!r} {prec!r} "
                          f"do not fit min_support {min_support}")
    keys = {r[0] for r in recs}
    singles = {(i,) for i, f in zip(basket.items, basket.freq.tolist()) if f / n >= min_support}
    if {k for k in keys if len(k) == 1} != singles:
        errors.append(f"{path}: frequent single items differ from a recount")
    errors += _missing_subsets(path, keys, 1)
    errors += _pair_completeness(path, keys, pairs, lambda p, f: f / n >= min_support)
    return errors, recs


def check_allconf(path, basket: Basket, min_allconf: float, pairs: dict):
    recs, errors = read_itemset_lines(path)
    errors += _common(path, recs, basket, 2)
    if errors:
        return errors, recs
    for items, freq, thr, prec in recs:
        denom = max(basket.item_freq(i) for i in items)
        if thr != f"{min_allconf:.12g}" or prec != "" or not freq / denom >= min_allconf:
            errors.append(f"{path}: {items} freq {freq} fields {thr!r} {prec!r} "
                          f"do not fit min_allconf {min_allconf}")
    keys = {r[0] for r in recs}
    errors += _missing_subsets(path, keys, 2)
    errors += _pair_completeness(
        path, keys, pairs,
        lambda p, f: f / max(basket.item_freq(p[0]), basket.item_freq(p[1])) >= min_allconf)
    return errors, recs


def sweep_row(method: str, parameter: float, recs, positives: set) -> str:
    """The sweep table row a correct program writes for these mined records."""
    mined = {frozenset(r[0]) for r in recs if len(r[0]) >= 2}
    tp = len(mined & positives)
    fp = len(mined) - tp
    precision = f"{tp / (tp + fp):.12g}" if mined else ""
    recall = f"{tp / len(positives):.12g}" if positives else ""
    return "\t".join((method, f"{parameter:.12g}", str(len(mined)),
                      str(max(map(len, mined), default=0)), str(tp), str(fp),
                      str(len(positives)), precision, recall))


SWEEP_HEADER = ("method\tparameter\tmined_count\tmax_size\ttp\tfp\t"
                "positives_total\tprecision\trecall")


def check_sweep(path, expected_rows: list) -> list:
    with open(path, encoding="ascii") as fh:
        got = fh.read().split("\n")
    want = [SWEEP_HEADER, *expected_rows, ""]
    if got == want:
        return []
    return [f"{path}: line {i + 1} is {g!r}, expected {w!r}"
            for i, (g, w) in enumerate(zip(got, want)) if g != w][:5] or \
        [f"{path}: {len(got) - 1} lines, expected {len(want) - 1}"]


def false_discoveries(recs, positives: set) -> tuple:
    """(true positives, false discoveries) among the size >= 2 records."""
    mined = {frozenset(r[0]) for r in recs if len(r[0]) >= 2}
    tp = len(mined & positives)
    return tp, len(mined) - tp
