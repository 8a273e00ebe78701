"""Reference miners: global minimum support and all-confidence.

Both miners are one depth-first search that differs only in its acceptance
rule. An itemset with frequency f is accepted when f divided by the
largest weight among its items reaches the threshold: every item weighs
the number of transactions for minimum support and its own frequency for
all-confidence. Both rules are anti-monotone, so only accepted itemsets
are extended.

The search is Eclat's (Zaki, "Scalable algorithms for association mining",
IEEE TKDE 2000). Accepted single items are remapped to dense column
numbers, so no allocation depends on the size of the item ids. The pair
counts are the columns after j of each row j of X.T @ X, X being the
transaction-by-column incidence matrix, from the pair-count kernel of
``transactions``. Below the pairs, each accepted itemset P carries its tid
bitset t_P, a Python int with bit t set for each transaction t that
contains it, and its class: the columns x after its last item with P+x
accepted, in ascending order. P+x+y, for y after x in that class, is
counted as the bits of t_P & bits[x] & bits[y], and only when the pair
{x, y} is accepted too.
"""

from __future__ import annotations

import numpy as np

from .mining import MinedItemset, _check_fraction
from .transactions import TransactionDatabase, _PairCounts, _bitset


def _mine_vertical(db: TransactionDatabase, weight: dict, threshold: float) -> list:
    """Every itemset whose frequency f satisfies
    ``f / max(weight[i] for i in itemset) >= threshold``, sorted by size
    then items, as ``MinedItemset(items, f, threshold, None)`` rows.
    """
    if len(db) == 0:
        raise ValueError("cannot mine an empty database")
    freq = db.item_freq
    ids = sorted(i for i, f in freq.items() if f / weight[i] >= threshold)
    out = [((i,), freq[i]) for i in ids]
    if len(ids) < 2:
        return [MinedItemset(items, f, threshold, None) for items, f in out]
    m = len(ids)
    w = np.array([weight[i] for i in ids], np.int64)
    pairs = _PairCounts(db, ids)
    tids = pairs.tids
    part = []  # part[j]: the columns after j that form an accepted pair with j
    for j in range(m - 1):
        f = pairs.count(tids[j])[j + 1:]
        ok = np.flatnonzero(f / np.maximum(w[j], w[j + 1:]) >= threshold)
        part.append((ok + (j + 1)).tolist())
        for k, c in zip(part[j], f[ok].tolist()):
            out.append(((ids[j], ids[k]), c))
    del pairs
    bits = {j: _bitset(tids[j], len(db))
            for j in {j for j, ks in enumerate(part) if ks}.union(*part)}
    del tids
    partners = list(map(set, part))
    w = w.tolist()

    def grow(items, t, top, cls):
        """Extend the accepted itemset ``items`` (item ids), with tid bitset
        ``t``, largest weight ``top`` and class ``cls``, depth first."""
        # the last member has no later one to pair with
        for i, x in enumerate(cls[:-1]):
            tx, topx, sub = t & bits[x], max(top, w[x]), []
            for y in cls[i + 1:]:
                if y in partners[x]:
                    f = (tx & bits[y]).bit_count()
                    if f / max(topx, w[y]) >= threshold:
                        sub.append(y)
                        out.append(((*items, ids[x], ids[y]), f))
            if sub:
                grow((*items, ids[x]), tx, topx, sub)

    try:
        for j, cls in enumerate(part):
            if len(cls) > 1:
                grow((ids[j],), bits[j], w[j], cls)
    finally:
        del grow  # the closure holds itself; free the search state now
    out.sort(key=lambda rec: (len(rec[0]), rec[0]))
    return [MinedItemset(items, f, threshold, None) for items, f in out]


def mine_frequent(db: TransactionDatabase, min_support: float) -> list:
    """All itemsets (size >= 1) with support >= min_support, as MinedItemset rows."""
    _check_fraction("min_support", min_support)
    return _mine_vertical(db, dict.fromkeys(db.item_freq, len(db)), min_support)


def mine_allconf(db: TransactionDatabase, min_allconf: float) -> list:
    """All itemsets (size >= 2) with all-confidence >= min_allconf, as MinedItemset rows."""
    _check_fraction("min_allconf", min_allconf)
    # each single item has all-confidence 1, so every item takes part
    return [fs for fs in _mine_vertical(db, db.item_freq, min_allconf)
            if len(fs.items) >= 2]
