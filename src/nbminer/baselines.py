"""Reference miners: global minimum support and all-confidence.

Both miners are one level-wise search that differs only in its acceptance
rule. An itemset with frequency f is accepted when f divided by the
largest weight among its items reaches the threshold: every item weighs
the number of transactions for minimum support and its own frequency for
all-confidence. Both rules are anti-monotone, so candidates of size k+1
come from the accepted itemsets of size k by prefix join plus subset
pruning.

Counting is vertical, as in Eclat (Zaki, "Scalable algorithms for
association mining", IEEE TKDE 2000). Accepted single items are remapped
to dense column numbers, so no allocation depends on the size of the item
ids. The pair counts are the columns after j of each row j of X.T @ X, X
being the transaction-by-column incidence matrix, from the pair-count
kernel of ``transactions``. From size 3 on, each candidate is counted by
intersecting the tid bitset of its prefix, a Python int with bit t set for
each transaction t that contains it, with the bitset of its last item.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import chain
from operator import and_
from typing import NamedTuple

import numpy as np

from .transactions import TransactionDatabase, _PairCounts


class FrequentItemset(NamedTuple):
    items: tuple
    freq: int


def _apriori_gen(prev_level) -> list:
    """Size k+1 candidates from sorted k-tuples sharing a k-1 prefix."""
    prev = set(prev_level)
    by_prefix = defaultdict(list)
    for t in prev:
        by_prefix[t[:-1]].append(t[-1])
    out = []
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for i, x in enumerate(lasts):
            for y in lasts[i + 1:]:
                cand = prefix + (x, y)
                if all(cand[:j] + cand[j + 1:] in prev
                       for j in range(len(cand) - 2)):
                    out.append(cand)
    return out


def _bitset(tids, n: int) -> int:
    """The Python int with bit t set for each transaction t in ``tids``."""
    row = np.zeros(n, bool)
    row[tids] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _mine_vertical(db: TransactionDatabase, weight: dict, threshold: float) -> list:
    """Every itemset whose frequency f satisfies
    ``f / max(weight[i] for i in itemset) >= threshold``, sorted by size
    then items.
    """
    freq = db.item_freq
    ids = sorted(i for i, f in freq.items() if f / weight[i] >= threshold)
    out = [((i,), freq[i]) for i in ids]
    if len(ids) < 2:
        return [FrequentItemset(*rec) for rec in out]
    m = len(ids)
    w = np.array([weight[i] for i in ids], np.int64)
    pairs = _PairCounts(db, {i: j for j, i in enumerate(ids)})
    level = []
    for j in range(m - 1):
        f = pairs.row(j)[j + 1:]
        ok = np.flatnonzero(f / np.maximum(w[j], w[j + 1:]) >= threshold)
        for k, c in zip((ok + (j + 1)).tolist(), f[ok].tolist()):
            level.append((j, k))
            out.append(((ids[j], ids[k]), c))
    tids = pairs.tids
    del pairs

    cands = _apriori_gen(level)
    if cands:
        bits = {j: _bitset(tids[j], len(db)) for j in set(chain.from_iterable(level))}
        del tids
        w = w.tolist()
        prefix = None
        while cands:
            found = []
            # candidates come grouped by prefix; holding one prefix bitset at
            # a time, not one per accepted itemset, keeps the heap from growing
            for c in cands:
                if c[:-1] != prefix:
                    prefix = c[:-1]
                    t = reduce(and_, map(bits.__getitem__, prefix))
                f = (t & bits[c[-1]]).bit_count()
                if f / max(w[j] for j in c) >= threshold:
                    found.append(c)
                    out.append((tuple(ids[j] for j in c), f))
            cands = _apriori_gen(found)
    out.sort(key=lambda rec: (len(rec[0]), rec[0]))
    return [FrequentItemset(*rec) for rec in out]


def mine_frequent(db: TransactionDatabase, min_support: float) -> list:
    """All itemsets (size >= 1) with support >= min_support, with frequencies."""
    if not (0.0 < min_support <= 1.0):
        raise ValueError(f"min_support must be in (0, 1], got {min_support}")
    n = len(db)
    if n == 0:
        raise ValueError("cannot mine an empty database")
    return _mine_vertical(db, dict.fromkeys(db.item_freq, n), min_support)


def all_confidence(db: TransactionDatabase, itemset) -> float:
    """Support of the itemset over the largest support of its single items."""
    z = frozenset(itemset)
    if not z:
        raise ValueError("all-confidence is undefined for the empty itemset")
    if len(db) == 0:
        raise ValueError("all-confidence is undefined on an empty database")
    denom = max(db.item_freq.get(i, 0) for i in z)
    if denom == 0:
        return 0.0
    freq = sum(1 for t in db.transactions if z.issubset(t))
    return freq / denom


def mine_allconf(db: TransactionDatabase, min_allconf: float) -> list:
    """All itemsets (size >= 2) with all-confidence >= min_allconf."""
    if not (0.0 < min_allconf <= 1.0):
        raise ValueError(f"min_allconf must be in (0, 1], got {min_allconf}")
    if len(db) == 0:
        raise ValueError("cannot mine an empty database")
    # each single item has all-confidence 1, so every item takes part
    return [fs for fs in _mine_vertical(db, db.item_freq, min_allconf)
            if len(fs.items) >= 2]


def confidence(db: TransactionDatabase, antecedent, consequent_item: int) -> float:
    """conf(antecedent -> {consequent_item}) = freq(both) / freq(antecedent)."""
    l = frozenset(antecedent)
    if consequent_item in l:
        raise ValueError("consequent must not be part of the antecedent")
    if len(db) == 0:
        raise ValueError("confidence is undefined on an empty database")
    freq_l = len(db) if not l else sum(1 for t in db.transactions if l.issubset(t))
    if freq_l == 0:
        raise ValueError("antecedent never occurs; confidence undefined")
    both = l | {consequent_item}
    return sum(1 for t in db.transactions if both.issubset(t)) / freq_l
