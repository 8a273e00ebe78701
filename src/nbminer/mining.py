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
repeated across branches. Within one run, a threshold scan is reused
whenever a later node has the same candidate count and the same multiset
of co-occurrence counts, since those inputs fix the scan's result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .nbmodel import NBParams, nb_pmf_prefix
from .transactions import TransactionDatabase, _PairCounts


@dataclass(frozen=True)
class MinerConfig:
    """Run parameters: the fitted model plus precision and subset thresholds."""

    params: NBParams
    pi: float = 0.95
    theta: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.pi <= 1.0):
            raise ValueError(f"pi must be in (0, 1], got {self.pi}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")


class MinedItemset(NamedTuple):
    """An accepted itemset and the local evidence that admitted it: one row
    of the itemset file.

    ``sigma_freq`` is the local frequency threshold of the subset whose
    expansion emitted this itemset; ``predicted_precision`` is the model's
    precision estimate at that threshold.
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


def _precision(o: int, n_candidates: int, cum: list, rho: int) -> float:
    """(o - e) / o for o observed candidates at or above rho, e being the
    n_candidates * Pr[count >= rho] the model expects by chance; 0.0 when e
    exceeds o or nothing is observed. ``cum[r]`` is Pr[count <= r]."""
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
    cum = np.cumsum(nb_pmf_prefix(k, a_l, rho - 1)).tolist()
    return _precision(o, n_candidates, cum, rho)


def _threshold_scan(counts: dict, n_candidates: int, k: float, a_l: float,
                    pi: float):
    """Scan rho downward from the highest observed count; return the last
    rho whose predicted precision is still >= pi, with that precision.

    Stops at the first failing rho (precision is not monotone in rho, and
    the useful threshold is the lowest one in the run of passes that starts
    at the top). Returns (None, None) when even the top count fails.
    ``counts`` maps a count to how many candidates have it.

    Between two adjacent observed counts the number of observed candidates
    is fixed while the model's tail can only grow as rho falls, so there the
    precision can only fall. The scan walks the observed counts from the
    top and bisects the first stretch that fails inside itself.
    """
    rs = sorted((r for r, c in counts.items() if c > 0 and r >= 1), reverse=True)
    if not rs:
        return None, None
    cum = np.cumsum(nb_pmf_prefix(k, a_l, rs[0])).tolist()
    best = (None, None)
    o = 0
    for i, hi in enumerate(rs):
        o += counts[hi]
        prec = _precision(o, n_candidates, cum, hi)
        if prec < pi:
            break
        lo = rs[i + 1] + 1 if i + 1 < len(rs) else 1
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


def find_threshold(o_hist, n_candidates: int, k: float, a_l: float,
                   pi: float) -> Optional[int]:
    """Local frequency threshold for precision target pi, or None if even
    the highest observed count cannot reach it. ``o_hist`` maps
    co-occurrence counts to how many candidates showed that count."""
    if not (0.0 <= pi <= 1.0):
        raise ValueError(f"pi must be in [0, 1], got {pi}")
    if n_candidates <= 0:
        raise ValueError(f"n_candidates must be positive, got {n_candidates}")
    sigma, _ = _threshold_scan(o_hist, n_candidates, k, a_l, pi)
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
    """
    l = frozenset(itemset)
    counts = Counter(chain.from_iterable(t for t in db.transactions if l.issubset(t)))
    for i in l:
        del counts[i]  # a Counter ignores missing keys: l may be in no row
    n_cand = params.n_total - len(l)
    if n_cand <= 0 or not counts:
        return Selection(frozenset(), None, None, counts)
    a_l = params.a_per_incidence * sum(counts.values())
    sigma, prec = _threshold_scan(Counter(counts.values()), n_cand, params.k, a_l, pi)
    if sigma is None:
        return Selection(frozenset(), None, None, counts)
    chosen = frozenset(c for c, n in counts.items() if n >= sigma)
    return Selection(chosen, sigma, prec, counts)


def nb_gen(itemset, candidates, theta: float, repo: dict) -> list:
    """Count a proposal of each candidate extension's superset in ``repo``
    (superset -> number of proposals); return the supersets this call admits.

    A superset of size s is admitted by its max(1, ceil(theta * s))-th
    proposal, the first at which theta * s of its subsets (and at least
    one) have proposed it, so each superset is emitted once per run.
    Candidates are processed in ascending id order.
    """
    l = frozenset(itemset)
    need = max(1, math.ceil(theta * (len(l) + 1)))
    emitted = []
    for c in sorted(candidates):
        if c in l:
            raise ValueError(f"candidate {c} already in base {sorted(l)}")
        lp = l | {c}
        n = repo[lp] = repo.get(lp, 0) + 1
        if n == need:
            emitted.append(lp)
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
    nb_gen(frozenset(), items0, theta, repo)  # singles are accepted by definition
    if not items0 or depth <= 1:
        return results

    # (n_cand, sorted candidate counts) -> (sigma, precision); with k, pi and
    # a_per_incidence fixed for the run, the key determines the scan
    scans: dict = {}

    # called as `scans.get(key) or scan(key)`: every cached scan is a
    # non-empty tuple, so this runs on a miss only
    def scan(key):
        found = scans[key] = _threshold_scan(Counter(key[1]), key[0], k,
                                             apc * sum(key[1]), pi)
        return found

    def expand(l, txns, size):
        if size >= depth:
            return
        counter = Counter(chain.from_iterable(txns))
        for i in l:
            counter.pop(i)
        if not counter:
            return
        key = (n_total - size, tuple(sorted(counter.values())))
        sigma, prec = scans.get(key) or scan(key)
        if sigma is None:
            return
        selected = [c for c, n in counter.items() if n >= sigma]
        for lp in nb_gen(l, selected, theta, repo):
            (c,) = lp - l
            results.append(MinedItemset(tuple(sorted(lp)), counter[c], sigma, prec))
            expand(lp, [t for t in txns if c in t], size + 1)

    pos = {i: j for j, i in enumerate(items0)}
    pairs = _PairCounts(db, pos)
    rows = db.transactions
    try:
        # the first level on the pair-count kernel: item j's candidate counts
        # are row j of X.T @ X without its diagonal, and the one gather that
        # counts them also projects j's children
        for j, i in enumerate(items0):
            tids = pairs.tids[j]
            g = pairs.gather(tids)
            f = pairs.count(g)
            f[j] = 0
            cands = np.flatnonzero(f)
            if not cands.size:
                continue
            counts = f[cands]
            key = (n_total - 1, tuple(np.sort(counts).tolist()))
            sigma, prec = scans.get(key) or scan(key)
            if sigma is None:
                continue
            l = frozenset((i,))
            selected = [items0[c] for c in cands[counts >= sigma].tolist()]
            emitted = nb_gen(l, selected, theta, repo)
            if not emitted:
                continue
            owner = pairs.owners(tids)
            for lp in emitted:
                (c,) = lp - l
                col = pos[c]
                results.append(MinedItemset(tuple(sorted(lp)), int(f[col]), sigma, prec))
                expand(lp, list(map(rows.__getitem__, owner[g == col].tolist())), 2)
    finally:
        del expand  # the closure holds itself; free the search state now
    results.sort(key=lambda m: (len(m.items), m.items))
    return results


def write_itemsets(path, records) -> None:
    """Write itemset records as `ids TAB freq TAB threshold TAB precision`.

    Records are (items, freq, threshold, precision) rows, MinedItemset
    among them. A None threshold/precision leaves the field empty (baseline
    miners have no per-itemset precision; their global threshold goes in
    the third column). Both are written with 12 significant digits, which
    leaves an integer threshold (below 10**12) as its digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for items, freq, sigma, prec in records:
            sig = "" if sigma is None else f"{sigma:.12g}"
            pre = "" if prec is None else f"{prec:.12g}"
            fh.write(f"{' '.join(map(str, items))}\t{freq}\t{sig}\t{pre}\n")


def read_itemsets(path) -> list:
    """Read an itemset file back into (items, freq, threshold, precision) tuples.

    An integer threshold (nb's local sigma) comes back as an int; any other
    (a baseline's global fraction) as a float. A malformed line raises
    ValueError naming ``path:lineno``.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.rstrip("\n")
            if not s.strip() or s.startswith("#"):
                continue
            fields = s.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            ids, freq, sigma, prec = fields
            try:
                out.append((tuple(int(tok) for tok in ids.split()), int(freq),
                            None if not sigma else int(sigma) if sigma.isdigit() else float(sigma),
                            float(prec) if prec else None))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out
