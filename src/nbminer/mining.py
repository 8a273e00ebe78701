"""Itemset mining with a model-derived local frequency threshold.

Instead of one global minimum support, each itemset ``l`` gets its own
threshold: the fitted frequency model, rescaled to l's conditional
database, predicts how many candidate extensions would reach any given
co-occurrence count by chance. The smallest count whose predicted
precision (the fraction of observed candidates at or above it that the
baseline cannot explain) stays above ``pi`` becomes l's threshold.
Candidate extensions at or above it are kept, and a superset is accepted
once at least ``theta * size`` of its already-accepted subsets propose it
(at least one). The search is depth-first; a repository that counts the
proposals of every superset makes the subset counting exact, and a
superset is emitted only at the proposal that admits it, so output is not
repeated across branches. The search holds an itemset as the ascending
tuple of its ids, and an admitted itemset's record shares that tuple with
its repository key. Within one run, a threshold scan is reused whenever a
later node has the same candidate count and the same multiset of
co-occurrence counts, since those inputs fix the scan's result; only
inputs of at most ``_SCAN_CACHE_MAX`` counts are kept for reuse, because
longer ones seldom repeat, and a longer input is scanned without a cache
key.

A node is counted one of two ways, to the same counts, so the records do
not depend on which. Every root, and every node below with at least
``_KERNEL_MIN`` rows, runs one node step on the pair-count kernel, as
Eclat counts (Zaki, IEEE TKDE 2000): its rows are an ascending array of
row numbers, its counts one array over every item, and a child's rows are
the node's rows that hold the child's item. A smaller node counts its row
tuples with a ``Counter``. Either way, a child whose item is in every row
of its node takes over the node's rows and counts.

A kernel node with more candidates than the scan cache keeps is first
judged by the scan's own first step, taken on its unsorted counts: the
precision of the candidates at the top count, from the same ``_cdf`` and
``_precision``. The scan returns no threshold exactly when that step
fails, so such a node is skipped before its counts are sorted, which on
a sparse basket is most roots; a node that passes hands the cdf on to the
scan, so no cdf is computed twice.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple, Optional

import numpy as np

from .nbmodel import NBParams, nb_pmf_prefix
from .transactions import TransactionDatabase, _PairCounts, _digits, _read_lines, _real


# nb_dfs keeps the threshold scans of nodes with at most this many candidate
# counts. Such inputs repeat often in a deep search; longer ones, the first
# level's among them, seldom do, yet would hold most of the search's memory,
# so they are scanned without building a key. A kernel node above the cap is
# first checked at its top count (_top_cdf), the scan's first step, and
# skipped unsorted when that fails.
_SCAN_CACHE_MAX = 64

# nb_dfs counts a node of at least this many rows on the pair-count kernel
# and a smaller one with a Counter over its rows: the kernel's fixed cost
# per node outweighs its gain on a few rows, and on every node it made the
# deep search of artif1-deep-1500 about 40% slower. Every root runs it. The
# artif2-dense-8k search takes about the same time at any cut-off from 16
# to 64 rows; a lower one speeds large inputs so much more than small ones
# that mining time on artif-2's 5k/10k/20k samples, which criterion 12 of
# tests/test_acceptance.py fits with a line, bends away from it.
_KERNEL_MIN = 48


def _check_fraction(name: str, value: float) -> None:
    """The rule for pi and the baselines' thresholds: (0, 1], NaN rejected."""
    if not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class MinerConfig:
    """Run parameters: the fitted model plus precision and subset thresholds.

    pi is in (0, 1]: a target of 0 demands nothing, since every co-occurring
    candidate would pass at threshold 1. theta is in [0, 1]. Neither is NaN.
    """

    params: NBParams
    pi: float = 0.95
    theta: float = 0.5

    def __post_init__(self):
        _check_fraction("pi", self.pi)
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")


class MinedItemset(NamedTuple):
    """An accepted itemset and the evidence that admitted it: one row of
    the itemset file, the record every miner returns.

    For nb, ``sigma_freq`` is the local frequency threshold of the subset
    whose expansion emitted this itemset and ``predicted_precision`` the
    model's precision estimate at that threshold. A baseline row carries
    its miner's global threshold (a fraction) and no precision (None).
    """

    items: tuple
    freq: int
    sigma_freq: int
    predicted_precision: float

    def itemset(self) -> frozenset:
        return frozenset(self.items)


class Selection(NamedTuple):
    """Result of thresholding one itemset's candidate extensions: the
    selected items, the threshold and its precision, and every candidate's
    count in the itemset's conditional database."""

    items: frozenset
    sigma_freq: Optional[int]
    predicted_precision: Optional[float]
    counts: dict


def _cdf(k: float, a_l: float, r_max: int) -> list:
    """Pr[count <= r] for r = 0..r_max, the pmf prefix summed in order."""
    return list(accumulate(nb_pmf_prefix(k, a_l, r_max).tolist()))


def _precision(o: int, n_candidates: int, cum: list, rho: int) -> float:
    """(o - e) / o for o observed candidates at or above rho, e being the
    n_candidates * Pr[count >= rho] the model expects by chance; 0.0 when e
    exceeds o or nothing is observed. ``cum[r]`` is Pr[count <= r].

    The tail is ``1 - cum[rho - 1]``, so its absolute error is about 1e-14
    and a smaller tail is cancellation noise: at k = 2000, a = 1.0 and
    rho = 2600 it gives 1.8e-14 where the exact tail
    (``scipy.special.betainc(2600, 2000, 0.5)``) is 4.0e-19."""
    e = n_candidates * min(1.0, max(0.0, 1.0 - cum[rho - 1]))
    return (o - e) / o if (o > 0 and e <= o) else 0.0


def predicted_precision(o_hist, n_candidates: int, k: float, a_l: float,
                        rho: int) -> float:
    """Predicted precision of selecting candidates with count >= rho.

    ``o_hist`` maps co-occurrence counts to how many candidates showed that
    count. Precision is (o - e) / o with o the observed candidates at or
    above rho and e = n_candidates * Pr[count >= rho] the number the model
    expects by chance; 0.0 whenever e exceeds o or nothing is observed.
    The arithmetic is the threshold scan's, so at the threshold that
    ``find_threshold`` picks this is the precision the scan reports.
    """
    if rho < 1:
        raise ValueError(f"rho must be at least 1, got {rho}")
    if n_candidates <= 0:
        raise ValueError(f"n_candidates must be positive, got {n_candidates}")
    o = sum(c for r, c in o_hist.items() if r >= rho)
    if o <= 0:
        return 0.0
    return _precision(o, n_candidates, _cdf(k, a_l, rho - 1), rho)


def _threshold_scan(counts, n_candidates: int, k: float, a_l: float, pi: float,
                    cum: Optional[list] = None):
    """Scan rho downward from the highest observed count; return the last
    rho whose predicted precision is still >= pi, with that precision.

    Stops at the first failing rho (precision is not monotone in rho, and
    the useful threshold is the lowest one in the run of passes that starts
    at the top). Returns (None, None) when even the top count fails.
    ``counts`` holds every candidate's count, each at least 1, in
    ascending order. ``cum`` is ``_cdf(k, a_l, counts[-1])`` when the
    caller has it already.

    Between two adjacent observed counts the number of observed candidates
    is fixed while the model's tail can only grow as rho falls, so there the
    precision can only fall. The scan walks the distinct counts from the
    top, finding where each begins with ``bisect_left``, and bisects the
    first stretch that fails inside itself.
    """
    if not counts:
        return None, None
    if cum is None:
        cum = _cdf(k, a_l, counts[-1])
    best = (None, None)
    end = len(counts)
    while end:
        hi = counts[end - 1]
        end = bisect_left(counts, hi, 0, end)
        o = len(counts) - end
        prec = _precision(o, n_candidates, cum, hi)
        if prec < pi:
            break
        lo = counts[end - 1] + 1 if end else 1
        low = _precision(o, n_candidates, cum, lo)
        if low >= pi:
            best = (lo, low)
            continue
        while hi - lo > 1:  # hi passes, lo fails
            mid = (hi + lo) // 2
            p = _precision(o, n_candidates, cum, mid)
            if p >= pi:
                hi, prec = mid, p
            else:
                lo = mid
        return hi, prec
    return best


def _top_cdf(counts: np.ndarray, n_candidates: int, k: float, a_l: float,
             pi: float) -> Optional[list]:
    """The threshold scan's first step on unsorted counts, a numpy array in
    which 0 marks no candidate and some count is at least 1:
    ``_cdf(k, a_l, top)`` for the top count when the candidates at the top
    reach precision pi, else None, exactly when ``_threshold_scan`` on the
    candidates' sorted counts would return (None, None)."""
    top = int(counts.max())
    cum = _cdf(k, a_l, top)
    o = int(np.count_nonzero(counts == top))
    return cum if _precision(o, n_candidates, cum, top) >= pi else None


def find_threshold(o_hist, n_candidates: int, k: float, a_l: float,
                   pi: float) -> Optional[int]:
    """Local frequency threshold for precision target pi, or None if even
    the highest observed count cannot reach it. ``o_hist`` maps
    co-occurrence counts to how many candidates showed that count.
    pi is in (0, 1], as for MinerConfig; pi 0 is refused, since every count
    would pass it at threshold 1."""
    _check_fraction("pi", pi)
    if n_candidates <= 0:
        raise ValueError(f"n_candidates must be positive, got {n_candidates}")
    counts = sorted(chain.from_iterable([r] * c for r, c in o_hist.items() if r >= 1))
    sigma, _ = _threshold_scan(counts, n_candidates, k, a_l, pi)
    return sigma


def nb_select(db: TransactionDatabase, itemset, params: NBParams,
              pi: float) -> Selection:
    """Select the candidate extensions of ``itemset`` that beat the model.

    Every other item is counted over the transactions of ``db`` that hold
    ``itemset`` (its conditional database), the model's scale is rescaled
    to the total of those counts, and candidates whose count reaches the
    threshold are selected. No threshold and no items when no threshold
    exists, when no transaction holds the itemset with another item, or
    when the model has no candidates left (n_total <= |itemset|).
    pi is in (0, 1], as for MinerConfig: at 0 every candidate would pass.
    """
    _check_fraction("pi", pi)
    l = frozenset(itemset)
    counts = Counter(chain.from_iterable(t for t in db.transactions if l.issubset(t)))
    for i in l:
        del counts[i]  # a Counter ignores missing keys: l may be in no row
    n_cand = params.n_total - len(l)
    if n_cand <= 0 or not counts:
        return Selection(frozenset(), None, None, counts)
    a_l = params.a_per_incidence * sum(counts.values())
    sigma, prec = _threshold_scan(sorted(counts.values()), n_cand, params.k, a_l, pi)
    if sigma is None:
        return Selection(frozenset(), None, None, counts)
    chosen = frozenset(c for c, n in counts.items() if n >= sigma)
    return Selection(chosen, sigma, prec, counts)


def nb_gen(itemset: tuple, candidates, theta: float, repo: dict) -> list:
    """Count a proposal of each candidate extension's superset in ``repo``
    (superset -> number of proposals); return the supersets this call
    admits, as (superset, candidate) pairs.

    ``itemset`` is a tuple of item ids in ascending order, and so is every
    superset: ``repo``'s keys and the supersets returned are the ascending
    tuples of their ids. A superset of size s is admitted by its
    max(1, ceil(theta * s))-th proposal, the first at which theta * s of
    its subsets (and at least one) have proposed it, so each superset is
    emitted once per run. Candidates are processed in ascending id order.
    Any other base raises ValueError, since it would key a superset apart
    from its ascending tuple and split its votes.
    """
    if type(itemset) is not tuple or any(map(operator.ge, itemset, itemset[1:])):
        raise ValueError(f"base {itemset!r} is not a strictly ascending tuple")
    size = len(itemset)
    need = max(1, math.ceil(theta * (size + 1)))
    emitted = []
    for c in sorted(candidates):
        at = bisect_left(itemset, c)
        if at < size and itemset[at] == c:
            raise ValueError(f"candidate {c} already in base {list(itemset)}")
        lp = itemset[:at] + (c,) + itemset[at:]
        n = repo[lp] = repo.get(lp, 0) + 1
        if n == need:
            emitted.append((lp, c))
    return emitted


def nb_dfs(db: TransactionDatabase, config: MinerConfig,
           max_size: int = None) -> list:
    """Depth-first mining of all itemsets accepted under ``config``.

    Returns MinedItemset records (sizes 2 and up; single items are accepted
    by definition and not reported), sorted by size then items. Expansion
    order is ascending item id throughout, so output is deterministic.
    ``max_size`` caps the itemset size when given.
    """
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    params = config.params
    n_total = params.n_total
    # nodes of this size are not expanded: max_size caps the output, and an
    # itemset of all n_total items has no candidate left
    depth = n_total if max_size is None else min(max_size, n_total)
    k = params.k
    apc = params.a_per_incidence
    pi = config.pi
    theta = config.theta
    repo: dict = {}
    results: list = []

    items0 = sorted(db.item_freq)
    nb_gen((), items0, theta, repo)  # singles are accepted by definition
    if not items0 or depth <= 1:
        return results

    # (n_cand, sorted candidate counts) -> (sigma, precision), for keys of at
    # most _SCAN_CACHE_MAX counts; with k, pi and a_per_incidence fixed for
    # the run, the key determines the scan. A longer input is scanned
    # without building a key.
    scans: dict = {}

    # called as `scans.get(key) or scan(key)`: every cached scan is a
    # non-empty tuple, so this runs on a miss only
    def scan(key):
        scans[key] = found = _threshold_scan(key[1], key[0], k, apc * sum(key[1]), pi)
        return found

    # counter counts every item over txns, l's own items too, and counts is
    # its sorted values, whose last `size` entries are l's items at the top
    # count len(txns). A child whose item is in every row has its parent's
    # rows, so it takes both over instead of projecting and counting again.
    def expand(l, txns, size, counter=None, counts=None):
        if size >= depth:
            return
        if counter is None:
            counter = Counter(chain.from_iterable(txns))
            counts = sorted(counter.values())
        cand = counts[:-size]
        if not cand:
            return
        if len(cand) <= _SCAN_CACHE_MAX:
            key = (n_total - size, tuple(cand))
            sigma, prec = scans.get(key) or scan(key)
        else:
            sigma, prec = _threshold_scan(cand, n_total - size, k, apc * sum(cand), pi)
        if sigma is None:
            return
        selected = [c for c, n in counter.items() if n >= sigma and c not in l]
        for lp, c in nb_gen(l, selected, theta, repo):
            n = counter[c]
            results.append(MinedItemset(lp, n, sigma, prec))
            if n == len(txns):
                expand(lp, txns, size + 1, counter, counts)
            else:
                expand(lp, [t for t in txns if c in t], size + 1)

    pairs = _PairCounts(db, items0)
    pos, tids, rows = pairs.pos, pairs.tids, db.transactions
    # mark[r]: row r holds the item of the child being projected
    mark = np.zeros(len(rows), bool)

    # the node step on the pair-count kernel: t holds l's rows as an
    # ascending array, and f counts every column over t with l's own columns
    # zeroed. A child whose item is in every row takes a copy of f, since
    # its own children zero columns that its later siblings still read.
    def expand_rows(l, t, size, f=None):
        if f is None:
            f = pairs.count(t)
            for i in l:
                f[pos[i]] = 0
        n_cand = np.count_nonzero(f)
        if not n_cand:
            return
        if n_cand <= _SCAN_CACHE_MAX:
            key = (n_total - size, tuple(np.sort(f[f > 0]).tolist()))
            sigma, prec = scans.get(key) or scan(key)
            if sigma is None:
                return
        else:
            # on a sparse basket most roots fail at their top count: the
            # scan's first step rejects them from f, before any sort
            a_l = apc * int(f.sum())
            cum = _top_cdf(f, n_total - size, k, a_l, pi)
            if cum is None:
                return
            sigma, prec = _threshold_scan(np.sort(f)[-n_cand:].tolist(), n_total - size,
                                          k, a_l, pi, cum)
        selected = [items0[c] for c in np.flatnonzero(f >= sigma).tolist()]
        for lp, c in nb_gen(l, selected, theta, repo):
            col = pos[c]
            n = int(f[col])
            results.append(MinedItemset(lp, n, sigma, prec))
            if size + 1 == depth:
                continue
            if n == len(t):
                tc, fc = t, f.copy()
                fc[col] = 0
            else:
                # the rows of this node that hold c, as in Eclat
                mark[tids[col]] = True
                tc, fc = t[mark[t]], None
                mark[tids[col]] = False
            if n >= _KERNEL_MIN:
                expand_rows(lp, tc, size + 1, fc)
            else:
                expand(lp, list(map(rows.__getitem__, tc.tolist())), size + 1)

    try:
        for j, i in enumerate(items0):
            expand_rows((i,), tids[j], 1)
    finally:
        # each closure holds itself; free the search state now
        del expand, expand_rows
    results.sort(key=lambda m: (len(m.items), m.items))
    return results


def write_itemsets(path, records) -> None:
    """Write itemset records as `ids TAB freq TAB threshold TAB precision`.

    Records are (items, freq, threshold, precision) rows: the MinedItemsets
    of nb_dfs, mine_frequent or mine_allconf, or plain tuples. A None
    threshold/precision leaves the field empty. Both are written with 12
    significant digits, which leaves an integer threshold (below 10**12)
    as its digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for items, freq, sigma, prec in records:
            sig = "" if sigma is None else f"{sigma:.12g}"
            pre = "" if prec is None else f"{prec:.12g}"
            fh.write(f"{' '.join(map(str, items))}\t{freq}\t{sig}\t{pre}\n")


def read_itemsets(path) -> list:
    """Read an itemset file back into MinedItemset rows, equal to those written.

    An integer threshold (nb's local sigma) comes back as an int; any other
    (a baseline's global fraction) as a float. A malformed line raises
    ValueError naming ``path:lineno``.
    """
    def row(text):
        fields = text.split("\t")
        if len(fields) != 4:
            raise ValueError("expected 4 tab-separated fields")
        ids, freq, sigma, prec = fields
        return MinedItemset(
            tuple(map(_digits, ids.split())), _digits(freq, "frequency"),
            (_digits if sigma.isdigit() else _real)(sigma, "threshold") if sigma else None,
            _real(prec, "precision") if prec else None)

    return _read_lines(path, row)
