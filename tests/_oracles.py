"""Independent brute-force evaluators used as test oracles.

Everything here is deliberately written from the definitions, sharing no
code with the package: pmf in closed form via math.lgamma (or scipy's
gammaln, over an array), projection via subset filtering, candidate
acceptance level by level. The one exception is ``oracle_pmf_prefix``,
the pmf recursion on numpy arrays, kept to pin the package's recursion
to it bit for bit.
"""

import math
import sys
from collections import defaultdict
from itertools import combinations

import numpy as np
from scipy.special import gammaln


def oracle_pmf(k, a, r):
    return math.exp(-k * math.log1p(a)
                    + math.lgamma(k + r) - math.lgamma(r + 1) - math.lgamma(k)
                    + r * (math.log(a) - math.log1p(a)))


def oracle_pmf_array(k, a, r):
    """The closed-form pmf over an array of frequencies ``r``."""
    return np.exp(-k * math.log1p(a)
                  + gammaln(k + r) - gammaln(r + 1) - gammaln(k)
                  + r * (math.log(a) - math.log1p(a)))


def oracle_pmf_prefix(k, a, r_max):
    """pmf for r = 0..r_max by the forward recursion, on numpy arrays:
    elementwise factors (k+r)/(r+1) * a/(1+a) and their cumulative product
    from Pr[0] = (1+a)^(-k), or, when Pr[0] is below the smallest normal
    double, the cumulative sum of their logs."""
    log_p0 = -k * math.log1p(a)
    if r_max == 0:
        return np.array([math.exp(log_p0)])
    j = np.arange(r_max)
    factors = (k + j) / (j + 1) * (a / (1.0 + a))
    if log_p0 < math.log(sys.float_info.min):
        return np.exp(np.cumsum(np.concatenate(([log_p0], np.log(factors)))))
    return np.cumprod(np.concatenate(([math.exp(log_p0)], factors)))


def positives_closure(truth):
    """All size >= 2 subsets of the truth's patterns, listed one by one.

    ``truth`` is a GroundTruth, whose ``patterns`` are read, or a
    collection of item collections. Size-1 itemsets are never positives:
    a single item is not an association.
    """
    out = set()
    for pattern in getattr(truth, "patterns", truth):
        items = sorted(pattern)
        for size in range(2, len(items) + 1):
            out.update(map(frozenset, combinations(items, size)))
    return frozenset(out)


def oracle_precision(cand_counts, n_candidates, k, a_l, rho):
    o = sum(1 for v in cand_counts.values() if v >= rho)
    if o <= 0:
        return 0.0
    tail = 1.0 - sum(oracle_pmf(k, a_l, r) for r in range(rho))
    tail = min(1.0, max(0.0, tail))
    e = n_candidates * tail
    if e > o:
        return 0.0
    return (o - e) / o


def oracle_threshold(cand_counts, n_candidates, k, a_l, pi):
    r_max = max(cand_counts.values())
    best = None
    for rho in range(r_max, 0, -1):
        if oracle_precision(cand_counts, n_candidates, k, a_l, rho) >= pi:
            best = rho
        else:
            break
    return best


def oracle_nb_frequent(db, params, pi, theta):
    """Level-wise exhaustive application of the acceptance definition.

    Returns {itemset (frozenset): frequency} for all accepted itemsets of
    size >= 2.
    """
    txns = [set(t) for t in db.transactions]
    items = sorted({i for t in txns for i in t})
    current = [frozenset((i,)) for i in items]
    out = {}
    size = 1
    while current:
        registrations = defaultdict(int)
        freqs = {}
        for l in current:
            cond = [t for t in txns if l <= t]
            counts = defaultdict(int)
            for t in cond:
                for c in t - l:
                    counts[c] += 1
            if not counts:
                continue
            rescale = sum(counts.values())
            n_cand = params.n_total - len(l)
            if rescale <= 0 or n_cand <= 0:
                continue
            a_l = params.a_per_incidence * rescale
            sigma = oracle_threshold(counts, n_cand, params.k, a_l, pi)
            if sigma is None:
                continue
            for c, cnt in counts.items():
                if cnt >= sigma:
                    lp = l | {c}
                    registrations[lp] += 1
                    freqs[lp] = cnt
        size += 1
        nxt = [lp for lp, n in registrations.items() if not n < theta * size]
        for lp in nxt:
            out[lp] = freqs[lp]
        current = nxt
    return out


def oracle_nb_gen(itemset, candidates, theta, state):
    """One round of proposals by subset agreement, from the definition.

    ``state`` maps each proposed superset to [accepted, proposals]. In
    ascending candidate order, a superset not yet accepted gains one
    proposal and is accepted, and returned, as soon as it has been proposed
    at least theta * size times (and at least once).
    """
    l = frozenset(itemset)
    out = []
    for c in sorted(candidates):
        lp = l | {c}
        entry = state.setdefault(lp, [False, 0])
        if entry[0]:
            continue
        entry[1] += 1
        if entry[1] < theta * len(lp):
            continue
        entry[0] = True
        out.append(lp)
    return out


def oracle_support_sets(db, min_support):
    """All itemsets (size >= 1) with support >= min_support, by enumeration."""
    txns = [frozenset(t) for t in db.transactions]
    items = sorted({i for t in txns for i in t})
    out = {}
    for size in range(1, len(items) + 1):
        found = False
        for combo in combinations(items, size):
            z = frozenset(combo)
            freq = sum(1 for t in txns if z <= t)
            if freq / len(txns) >= min_support:
                out[z] = freq
                found = True
        if not found:
            break
    return out


def oracle_allconf_sets(db, min_allconf):
    """All itemsets (size >= 2) with all-confidence >= min_allconf, by enumeration."""
    txns = [frozenset(t) for t in db.transactions]
    items = sorted({i for t in txns for i in t})
    single = {i: sum(1 for t in txns if i in t) for i in items}
    out = {}
    for size in range(2, len(items) + 1):
        for combo in combinations(items, size):
            z = frozenset(combo)
            freq = sum(1 for t in txns if z <= t)
            denom = max(single[i] for i in combo)
            if denom > 0 and freq / denom >= min_allconf:
                out[z] = freq
    return out


def oracle_read_basket(path):
    """A basket file read line by line in text mode, token by token.

    Returns (rows, freq, None), rows being each kept line's ids as a sorted
    tuple of distinct ints and freq each id's row count in first-seen order,
    or (None, None, lineno) for the first line holding a token that is not
    a run of ASCII digits. Blank lines and lines whose first non-blank
    character is ``#`` are skipped.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if not all(t.isascii() and t.isdigit() for t in tokens):
                return None, None, lineno
            rows.append(tuple(sorted(set(map(int, tokens)))))
    freq = {}
    for row in rows:
        for i in row:
            freq[i] = freq.get(i, 0) + 1
    return rows, freq, None
