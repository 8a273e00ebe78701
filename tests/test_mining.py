import gc
import hashlib
import itertools
import math
import random
import re
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbminer import baselines, mining
from nbminer.baselines import mine_allconf, mine_frequent
from nbminer.mining import (
    MinedItemset,
    MinerConfig,
    Selection,
    find_threshold,
    nb_dfs,
    nb_gen,
    nb_select,
    predicted_precision,
    read_itemsets,
    write_itemsets,
)
from nbminer.nbmodel import NBParams, fit_database, nb_pmf_prefix
from nbminer.transactions import TransactionDatabase, _PairCounts

from _oracles import oracle_nb_frequent, oracle_nb_gen
from test_baselines import EDGE_DATABASES

# Candidate co-occurrence histogram of the running example: count r -> how
# many candidates reached it. 156 candidates, counts summing to 333.
EXAMPLE_HIST = {1: 81, 2: 48, 3: 13, 4: 6, 6: 1, 8: 1, 11: 2, 12: 1,
                13: 1, 14: 1, 18: 1}
EXAMPLE_N = 339
EXAMPLE_K = 0.844
EXAMPLE_A = 1.164


def example_params():
    # arranged so that a_per_incidence * 333 == EXAMPLE_A and n_total - 1 == 339
    return NBParams(k=EXAMPLE_K, a=EXAMPLE_A, n_total=340, incidence_total=333,
                    transaction_count=500, em_iterations=0, trimmed_items=0)


def test_predicted_precision_worked_example():
    # frozen from 40-digit evaluation of the same histogram
    p10 = predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 10)
    p11 = predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 11)
    p9 = predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 9)
    assert p10 == pytest.approx(0.9210407473, abs=1e-8)
    assert p11 == pytest.approx(0.9580818691, abs=1e-8)
    assert p9 == pytest.approx(0.851086063, abs=1e-8)


def test_predicted_precision_dips():
    # not monotone in rho: a zero-observation run can lower it
    p14 = predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 14)
    p15 = predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 15)
    assert p15 < p14


def test_predicted_precision_clamps_to_zero():
    # at rho=1 every candidate is observed but e exceeds o
    assert predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 1) == 0.0
    assert predicted_precision({}, 100, 1.0, 1.0, 3) == 0.0


def test_predicted_precision_validates():
    with pytest.raises(ValueError):
        predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 0)
    with pytest.raises(ValueError):
        predicted_precision(EXAMPLE_HIST, 0, EXAMPLE_K, EXAMPLE_A, 3)


def test_find_threshold_worked_example():
    def sigma(pi):
        return find_threshold(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, pi)

    assert sigma(0.95) == 11
    assert sigma(0.9) == 10
    assert sigma(0.8) == 9
    assert sigma(0.5) == 7
    assert sigma(0.99) == 17
    assert sigma(0.999) is None  # even the top count falls short
    with pytest.raises(ValueError, match="pi must be in"):
        sigma(0.0)  # every count would pass and give threshold 1


def test_find_threshold_stops_at_first_failure():
    # the dip at rho=15 does not matter because the scan already passed it;
    # sigma is decided by the first failure walking down
    s = find_threshold(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 0.95)
    assert predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, s) >= 0.95
    assert predicted_precision(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, s - 1) < 0.95


def test_find_threshold_empty_histogram():
    assert find_threshold({}, 100, 1.0, 1.0, 0.9) is None
    assert find_threshold({0: 50}, 100, 1.0, 1.0, 0.9) is None


def linear_scan(counts, n_candidates, k, a_l, pi):
    """The threshold scan one rho at a time, from the top count down to the
    first failure, with the scan's arithmetic."""
    r_max = max((r for r, c in counts.items() if c > 0), default=0)
    if r_max < 1:
        return None, None
    cum = np.cumsum(nb_pmf_prefix(k, a_l, r_max)).tolist()
    best = (None, None)
    o = 0
    for rho in range(r_max, 0, -1):
        o += counts.get(rho, 0)
        e = n_candidates * min(1.0, max(0.0, 1.0 - cum[rho - 1]))
        prec = (o - e) / o if (o > 0 and e <= o) else 0.0
        if prec < pi:
            break
        best = (rho, prec)
    return best


def ascending(counts):
    """Every candidate's count in ascending order, the scan's input, from a
    count -> candidates map."""
    return sorted(Counter(counts).elements())


@st.composite
def scan_inputs(draw):
    """(count -> candidates map, n_candidates, k, a_l, pi) for the scan."""
    if draw(st.booleans()):
        r_max = draw(st.one_of(st.integers(1, 40), st.integers(41, 2000)))
        k = draw(st.floats(0.05, 5.0))
        mean = r_max * draw(st.floats(0.005, 1.0))
    else:
        # the model's mean count is above 708 and k large, so -log Pr[0] =
        # k * log1p(a_l) passes 708 and nb_pmf_prefix sums logs
        k = draw(st.floats(1000.0, 1e5))
        mean = draw(st.floats(720.0, 1900.0))
        r_max = draw(st.integers(int(mean) + 1, 2000))
    counts = draw(st.dictionaries(st.integers(1, r_max), st.integers(1, 300), max_size=30))
    counts[r_max] = draw(st.integers(1, 5))
    n_candidates = sum(counts.values()) + draw(st.integers(0, 5000))
    pi = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return counts, n_candidates, k, mean / k, pi


# a single count; the log branch with a gap-filled map; pi 0 and 1
SCAN_EXAMPLES = [
    ({7: 3}, 40, 0.8, 1.2, 0.9),
    ({900: 2, 1100: 1, 1500: 1, 1980: 1, 5: 40}, 300, 2000.0, math.expm1(1200 / 2000.0), 0.5),
    (EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 0.0),
    (EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, 1.0),
]


@settings(deadline=None, max_examples=400)
@given(scan_inputs())
@example(SCAN_EXAMPLES[0])
@example(SCAN_EXAMPLES[1])
@example(SCAN_EXAMPLES[2])
@example(SCAN_EXAMPLES[3])
def test_threshold_scan_matches_linear_scan(inputs):
    # the scan bisects between observed counts; it must find the linear
    # scan's threshold and the very same precision
    assert mining._threshold_scan(ascending(inputs[0]), *inputs[1:]) == linear_scan(*inputs)


@settings(deadline=None, max_examples=300)
@given(scan_inputs())
@example(SCAN_EXAMPLES[1])
def test_predicted_precision_brackets_threshold(inputs):
    counts, n_candidates, k, a_l, pi = inputs
    if pi == 0:
        with pytest.raises(ValueError, match="pi must be in"):
            find_threshold(counts, n_candidates, k, a_l, pi)
        return
    sigma = find_threshold(counts, n_candidates, k, a_l, pi)
    if sigma is None:
        return
    prec = predicted_precision(counts, n_candidates, k, a_l, sigma)
    assert prec >= pi
    assert prec == mining._threshold_scan(ascending(counts), n_candidates, k, a_l, pi)[1]
    if sigma > 1:  # the scan stopped at sigma - 1 because it failed there
        assert predicted_precision(counts, n_candidates, k, a_l, sigma - 1) < pi


@st.composite
def long_rows(draw):
    """(row, n_candidates, k, a_l, pi) for the kernel step's rejection: a
    numpy row of more than _SCAN_CACHE_MAX candidate counts, in random
    order among zeros that stand for no candidate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        r_max = draw(st.one_of(st.integers(1, 40), st.integers(41, 2000)))
        k = draw(st.floats(0.05, 5.0))
        mean = r_max * draw(st.floats(0.005, 1.0))
    else:
        # nb_pmf_prefix's log branch, as in scan_inputs
        k = draw(st.floats(1000.0, 1e5))
        mean = draw(st.floats(720.0, 1900.0))
        r_max = draw(st.integers(int(mean) + 1, 2000))
    n = draw(st.integers(mining._SCAN_CACHE_MAX + 1, 4 * mining._SCAN_CACHE_MAX))
    counts = rng.integers(max(1, r_max - draw(st.integers(0, r_max))), r_max + 1, n)
    # how many candidates hold the top count: one, several, or all of them
    counts[:draw(st.one_of(st.just(1), st.integers(2, n)))] = r_max
    row = np.zeros(n + draw(st.integers(0, 300)), np.int64)
    row[rng.choice(row.size, n, replace=False)] = counts
    n_candidates = n + draw(st.integers(0, 5000))
    pi = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return row, n_candidates, k, mean / k, pi


def test_top_cdf_rejects_exactly_when_the_scan_finds_nothing():
    rejected = passed = 0

    @settings(deadline=None, max_examples=300)
    @given(long_rows())
    @example((np.full(70, 3), 200, 0.8, 1.2, 0.9))  # every count equal
    @example((np.arange(100), 150, 1.0, 0.5, 1.0))  # pi 1
    @example((np.repeat([0, 1, 40], [10, 50, 30]), 500, 0.5, 2.0, 0.95))  # many tied at the top
    @example((np.r_[np.zeros(20, np.int64), np.arange(1000, 1980, 12)],
              300, 2000.0, 0.6, 0.5))  # log branch
    def check(inputs):
        nonlocal rejected, passed
        row, n_candidates, k, a_l, pi = inputs
        counts = sorted(row[row > 0].tolist())
        found = mining._threshold_scan(counts, n_candidates, k, a_l, pi)
        cum = mining._top_cdf(row, n_candidates, k, a_l, pi)
        assert (cum is None) == (found == (None, None))
        # the first step's cdf is the scan's own, and handing it over
        # changes nothing
        scan_cum = mining._cdf(k, a_l, counts[-1])
        assert cum is None or cum == scan_cum
        assert mining._threshold_scan(counts, n_candidates, k, a_l, pi, scan_cum) == found
        rejected += cum is None
        passed += cum is not None

    check()
    # 93 to 154 of the 300 examples passed and the rest were rejected, over
    # hypothesis seeds 0-7
    assert rejected >= 30 and passed >= 30, (rejected, passed)


def test_nb_select_worked_example():
    params = example_params()
    # raw candidate counts realizing EXAMPLE_HIST (ids are arbitrary), and a
    # database holding one row {9999, c} per unit of c's count
    counts = {}
    next_id = 0
    for r, n in EXAMPLE_HIST.items():
        for _ in range(n):
            counts[next_id] = r
            next_id += 1
    db = TransactionDatabase([9999, c] for c, r in counts.items() for _ in range(r))
    sel = nb_select(db, [9999], params, 0.95)
    assert sel.counts == counts
    assert sel.sigma_freq == 11
    assert sel.predicted_precision == pytest.approx(0.9580818691, abs=1e-8)
    assert len(sel.items) == 6
    assert sel.items == frozenset(c for c, r in counts.items() if r >= 11)


def test_nb_select_no_support():
    params = example_params()
    db = TransactionDatabase([[1], [2, 3]])
    assert nb_select(db, [1], params, 0.95) == Selection(frozenset(), None, None, {})
    # an itemset absent from the database has no conditional rows
    assert nb_select(db, [1, 2], params, 0.95) == Selection(frozenset(), None, None, {})
    # pi too strict for the data -> empty
    db = TransactionDatabase([[1, 5], [1, 6]])
    sel = nb_select(db, [1], params, 1.0)
    assert sel.items == frozenset()
    assert sel.counts == {5: 1, 6: 1}


@pytest.mark.parametrize("pi", [0.0, float("nan"), -0.1, 1.5])
def test_nb_select_rejects_pi_outside_unit_interval(pi):
    # the check find_threshold makes: a NaN pi would never stop the scan
    db = TransactionDatabase([[1, 5], [1, 5], [1, 6], [2, 6]])
    with pytest.raises(ValueError, match="pi must be in"):
        nb_select(db, {1}, example_params(), pi)
    with pytest.raises(ValueError, match="pi must be in"):
        find_threshold(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, pi)


def test_nb_gen_theta_zero_emits_immediately():
    repo = {}
    out = nb_gen((1, 2), [5, 3], 0.0, repo)
    assert out == [((1, 2, 3), 3), ((1, 2, 5), 5)]  # ascending order
    assert repo == {(1, 2, 3): 1, (1, 2, 5): 1}


def test_nb_gen_theta_one_needs_all_subsets():
    repo = {}
    target = (1, 2, 3)
    # three different 2-subsets each propose the triple
    assert nb_gen((1, 2), [3], 1.0, repo) == []
    assert nb_gen((1, 3), [2], 1.0, repo) == []
    assert nb_gen((2, 3), [1], 1.0, repo) == [(target, 1)]
    assert repo[target] == 3


def test_nb_gen_theta_half_pair_first_proposal():
    repo = {}
    assert nb_gen((4,), [7], 0.5, repo) == [((4, 7), 7)]


def test_nb_gen_drops_already_frequent():
    repo = {}
    nb_gen((1,), [2], 0.0, repo)
    assert nb_gen((2,), [1], 0.0, repo) == []
    assert repo[(1, 2)] == 2  # the second proposal is counted, not emitted again


# calls of nb_gen over at most 8 items: (itemset, order, count) triples, the
# itemset a bitmask over the items, and its candidates the first `count` of
# the items outside it, taken in the order of the permutation: distinct, as
# nb_gen requires, and unsorted. Fixed strategies, so no strategy is built
# per example
PROPOSALS = st.lists(st.tuples(st.integers(0, 254), st.permutations(range(8)), st.integers(1, 8)),
                     min_size=1, max_size=40)


def test_nb_gen_matches_oracle_property():
    admitting = by_vote = 0

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 8), PROPOSALS,
           st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 2 / 3, 0.7, 1.0]),
                     st.floats(0.0, 1.0)))
    def check(n_items, proposals, theta):
        # every call emits exactly what the definition admits at that
        # proposal; nb_gen takes and returns ascending tuples, the oracle sets
        nonlocal admitting, by_vote
        repo, state = {}, {}
        admitted = []
        for mask, order, count in proposals:
            # below 2**n_items - 1, so some item stays outside the itemset
            mask %= 2**n_items - 1
            l = frozenset(i for i in range(n_items) if mask >> i & 1)
            rest = [i for i in range(n_items) if i not in l]
            candidates = [rest[p] for p in order if p < len(rest)][:count]
            got = nb_gen(tuple(sorted(l)), candidates, theta, repo)
            assert [frozenset(lp) for lp, _ in got] == oracle_nb_gen(l, candidates, theta, state)
            assert all(lp == tuple(sorted(l | {c})) for lp, c in got)
            admitted += [lp for lp, _ in got]
        admitting += bool(admitted)
        by_vote += any(math.ceil(theta * len(lp)) > 1 for lp in admitted)

    check()
    # 248 to 272 of the 300 examples admitted something, and 49 to 98 a
    # superset that needed two proposals or more, over hypothesis seeds 0-9
    assert admitting >= 150, admitting
    assert by_vote >= 40, by_vote


def test_nb_gen_rejects_candidate_in_base():
    with pytest.raises(ValueError):
        nb_gen((1, 2), [2], 0.5, {})


def test_nb_gen_rejects_a_repeated_candidate():
    # one subset's two votes would admit (1, 2), which theta 1 admits only
    # once both its subsets propose it
    with pytest.raises(ValueError, match="candidate 2 given twice"):
        nb_gen((1,), [2, 2], 1.0, {})
    with pytest.raises(ValueError, match="candidate 2 given twice"):
        nb_gen((1,), [3, 2, 0, 2], 0.5, {})


@pytest.mark.parametrize("base", [(3, 1), [1], (1, 1)])
def test_nb_gen_rejects_a_base_not_strictly_ascending(base):
    # (3, 1) would key (3, 1, 2) apart from (1, 2, 3) and split its votes
    with pytest.raises(ValueError, match="base .* strictly ascending tuple"):
        nb_gen(base, [2], 0.0, {})


def test_nb_gen_accepts_an_empty_or_single_base():
    assert nb_gen((), [2], 0.0, {}) == [((2,), 2)]
    assert nb_gen((1,), [2], 0.0, {}) == [((1, 2), 2)]


def test_miner_config_validation():
    params = example_params()
    MinerConfig(params=params, pi=0.95, theta=0.5)
    with pytest.raises(ValueError):
        MinerConfig(params=params, pi=0.0)
    with pytest.raises(ValueError):
        MinerConfig(params=params, pi=1.5)
    with pytest.raises(ValueError):
        MinerConfig(params=params, theta=-0.1)


def test_one_rule_for_pi_and_run_thresholds():
    # MinerConfig, the node step and the scan share pi's rule, the baselines
    # share it for their thresholds, and MinerConfig alone checks theta
    params = example_params()
    db = TransactionDatabase([[1, 5], [1, 5], [1, 6], [2, 6]])
    calls = {
        "pi": [lambda pi: MinerConfig(params, pi=pi),
               lambda pi: nb_select(db, {1}, params, pi),
               lambda pi: find_threshold(EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A, pi)],
        "min_support": [lambda v: mine_frequent(db, v)],
        "min_allconf": [lambda v: mine_allconf(db, v)],
    }
    for name, fns in calls.items():
        for fn in fns:
            fn(1.0)
            for bad in (0.0, float("nan"), -0.1, 1.5):
                with pytest.raises(ValueError, match=re.escape(f"{name} must be in (0, 1], got {bad}")):
                    fn(bad)
    MinerConfig(params, theta=0.0)
    MinerConfig(params, theta=1.0)
    for theta in (-0.1, float("nan"), 1.5):
        with pytest.raises(ValueError, match=re.escape(f"theta must be in [0, 1], got {theta}")):
            MinerConfig(params, theta=theta)
    # an empty database is refused only after its threshold passes
    empty = TransactionDatabase([])
    for name, miner in (("min_support", mine_frequent), ("min_allconf", mine_allconf)):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            miner(empty, 0.0)
        with pytest.raises(ValueError, match="cannot mine an empty database"):
            miner(empty, 0.5)


def random_db_and_params(seed, max_items=12, max_txns=60):
    rng = random.Random(seed)
    n_items = rng.randint(4, max_items)
    n_txns = rng.randint(10, max_txns)
    rows = []
    # a few planted blocks make real structure likely
    n_blocks = rng.randint(0, 2)
    blocks = [rng.sample(range(n_items), rng.randint(2, min(4, n_items)))
              for _ in range(n_blocks)]
    for _ in range(n_txns):
        size = rng.randint(1, max(2, n_items // 2))
        t = set(rng.sample(range(n_items), size))
        for b in blocks:
            if rng.random() < 0.35:
                t.update(b)
        rows.append(sorted(t))
    db = TransactionDatabase(rows)
    n_obs = len(db.item_freq)
    if n_obs < 2:
        return None, None
    k = rng.uniform(0.3, 3.0)
    mean_freq = db.incidence_total / n_obs
    a = max(mean_freq / k, 0.05)
    params = NBParams(k=k, a=a, n_total=n_obs + rng.randint(0, 3),
                      incidence_total=db.incidence_total,
                      transaction_count=len(db), em_iterations=0,
                      trimmed_items=0)
    return db, params


def _params_for(db, k, extra_items):
    """A model for ``db`` with shape k and n_total = observed items +
    ``extra_items`` (at least 1); valid even when db has no items. A
    negative ``extra_items`` stands for a model fitted on another basket,
    with fewer items than ``db`` holds."""
    n_obs = max(len(db.item_freq), 1)
    inc = max(db.incidence_total, 1)
    return NBParams(k=k, a=max(inc / n_obs / k, 0.05), n_total=max(n_obs + extra_items, 1),
                    incidence_total=inc, transaction_count=len(db),
                    em_iterations=0, trimmed_items=0)


# consecutive ids, and sparse or huge ones that must be remapped to dense
# columns before they are counted
ID_RANGES = [list(range(8)), [0, 3, 5, 8, 10**9, 2**63, 2**64 + 1, 7 * 10**12]]


@st.composite
def small_db_and_params(draw):
    n_items = draw(st.integers(2, 8))
    ids = draw(st.sampled_from(ID_RANGES))[:n_items]
    rows = draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=30))
    db = TransactionDatabase(rows)
    return db, _params_for(db, draw(st.floats(0.3, 3.0)), draw(st.integers(-3, 3)))


def test_nb_dfs_matches_oracle_property():
    non_empty = 0

    @settings(deadline=None, max_examples=300)
    @given(small_db_and_params(),
           st.floats(0.05, 0.99),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.one_of(st.none(), st.integers(1, 5)))
    def check(db_params, pi, theta, max_size):
        nonlocal non_empty
        db, params = db_params
        mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta), max_size=max_size)
        got = {m.itemset(): m.freq for m in mined}
        expect = {s: f for s, f in oracle_nb_frequent(db, params, pi, theta).items()
                  if max_size is None or len(s) <= max_size}
        assert got == expect
        non_empty += bool(expect)

    check()
    # 95 to 124 of the 300 examples mined something over ten hypothesis seeds
    assert non_empty >= 50, non_empty


def test_mining_metamorphic_property():
    # runs checked against each other, not against an oracle: the order of
    # the rows does not matter, an item id only names its item, and a
    # database written twice holds the same baseline itemsets at twice the
    # frequency. Ids that change their order leave the itemsets and their
    # frequencies as they are, though not which subset emits an itemset,
    # and so not its threshold and precision
    non_empty = 0

    @settings(deadline=None, max_examples=150)
    @given(small_db_and_params(), st.floats(0.05, 0.99), st.sampled_from([0.0, 0.5, 1.0]),
           st.randoms(use_true_random=False), st.floats(0.01, 1.0))
    def check(db_params, pi, theta, rng, threshold):
        nonlocal non_empty
        db, params = db_params
        config = MinerConfig(params=params, pi=pi, theta=theta)
        mined = nb_dfs(db, config)
        rows = list(db)
        rng.shuffle(rows)
        assert nb_dfs(TransactionDatabase(rows), config) == mined
        # strictly increasing, so the ids keep their order
        def big(items):
            return tuple(i * 10**20 + 7 for i in items)
        assert nb_dfs(TransactionDatabase(map(big, db)), config) == [
            m._replace(items=big(m.items)) for m in mined]
        ids = sorted(db.item_freq)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        if shuffled == ids:
            shuffled.reverse()
        rename = dict(zip(ids, shuffled)).__getitem__
        renamed = nb_dfs(TransactionDatabase([map(rename, t) for t in db]), config)
        assert {m.itemset(): m.freq for m in renamed} == {
            frozenset(map(rename, m.items)): m.freq for m in mined}
        twice = TransactionDatabase(list(db) * 2)
        for miner in (mine_frequent, mine_allconf):
            assert miner(twice, threshold) == [
                m._replace(freq=2 * m.freq) for m in miner(db, threshold)]
        non_empty += bool(mined)

    check()
    # 44 to 84 of the 150 examples mined something over hypothesis seeds 0-9
    assert non_empty >= 30, non_empty


@pytest.mark.parametrize("name", sorted(EDGE_DATABASES))
def test_nb_dfs_matches_oracle_on_edge_inputs(name):
    db = TransactionDatabase(EDGE_DATABASES[name])
    for k in (0.3, 3.0):
        for extra_items in (0, 3):
            params = _params_for(db, k, extra_items)
            for pi in (0.05, 0.5, 0.95):
                for theta in (0.0, 0.5, 1.0):
                    mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))
                    got = {m.itemset(): m.freq for m in mined}
                    assert got == oracle_nb_frequent(db, params, pi, theta), (k, extra_items, pi, theta)
                    assert_bound_to_nb_select(db, params, pi, mined)


def test_nb_dfs_record_invariants():
    produced = 0
    for seed in range(25):
        db, params = random_db_and_params(seed)
        if db is None:
            continue
        for theta, pi in itertools.product((0.0, 0.5, 1.0), (0.3, 0.6)):
            config = MinerConfig(params=params, pi=pi, theta=theta)
            mined = nb_dfs(db, config)
            produced += len(mined)
            for m in mined:
                assert len(m.items) >= 2
                assert all(a < b for a, b in zip(m.items, m.items[1:])), m.items
                assert m.freq >= m.sigma_freq >= 1
                assert config.pi <= m.predicted_precision <= 1.0
                # freq really is the itemset's transaction count
                got = sum(1 for t in db.transactions if m.itemset().issubset(t))
                assert got == m.freq
            # deterministic and sorted
            again = nb_dfs(db, config)
            assert again == mined
            keys = [(len(m.items), m.items) for m in mined]
            assert keys == sorted(keys)
    assert produced >= 500, "the fixtures should produce records"


def test_nb_dfs_pi_monotone():
    db, params = random_db_and_params(8)
    for theta in (0.0, 0.5, 1.0):
        prev = None
        for pi in (0.99, 0.9, 0.5):  # loosening pi only grows the result
            got = {m.itemset() for m in nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))}
            if prev is not None:
                assert prev <= got
            prev = got


def test_nb_dfs_theta_monotone():
    db, params = random_db_and_params(9)
    for pi in (0.9, 0.6):
        prev = None
        for theta in (1.0, 0.5, 0.0):  # loosening theta only grows the result
            got = {m.itemset() for m in nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))}
            if prev is not None:
                assert prev <= got
            prev = got


def test_nb_dfs_max_size_cap():
    db, params = random_db_and_params(4)
    config = MinerConfig(params=params, pi=0.5, theta=0.0)
    full = nb_dfs(db, config)
    capped = nb_dfs(db, config, max_size=2)
    assert all(len(m.items) <= 2 for m in capped)
    assert {m.itemset() for m in capped} == {m.itemset() for m in full if len(m.items) == 2}
    with pytest.raises(ValueError):
        nb_dfs(db, config, max_size=0)


def test_nb_dfs_empty_database():
    db = TransactionDatabase([])
    params = example_params()
    assert nb_dfs(db, MinerConfig(params=params)) == []


def test_nb_dfs_agrees_with_public_pipeline():
    # one expansion step done through the public ops matches the miner
    db, params = random_db_and_params(15)
    config = MinerConfig(params=params, pi=0.6, theta=0.5)
    mined = {m.itemset(): m for m in nb_dfs(db, config)}
    for i in sorted(db.item_freq):
        l = frozenset((i,))
        sel = nb_select(db, l, params, config.pi)
        for c in sel.items:
            m = mined.get(l | {c})
            if m is not None and m.sigma_freq == sel.sigma_freq:
                assert m.freq == sel.counts[c]


# SHA-256 of the itemset file nb_dfs writes for the artif-1 preset at 300
# transactions, seed 1, with the model from fit_database. Changes to the
# search's internals must leave this output byte-identical.
GOLDEN_DIGESTS = {
    (0.95, 0.5): "571b7fa240b7b35ae53f27c543e9dd9385116f9800828da037a40895f1ad7338",
    (0.6, 0.0): "041dc93270b0b73e85dc79fc8fd22a560c8e9867b864a6c0bb25a37fcfe7b2ea",
}


@pytest.mark.parametrize("pi, theta", sorted(GOLDEN_DIGESTS))
def test_nb_dfs_golden_digest(golden_db_and_params, pi, theta, tmp_path):
    db, params = golden_db_and_params
    path = tmp_path / "golden.itemsets"
    write_itemsets(path, nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DIGESTS[(pi, theta)]


@pytest.fixture(scope="module")
def structureless_db_and_params():
    """3,000 rows over 400 independent items with Gamma(2) rates, about 10
    items a row (seed 0), and the model from fit_database: the model's own
    no-structure assumption, where most first-level roots have more
    candidates than the scan cache keeps and find no threshold."""
    rng = np.random.default_rng(0)
    rates = rng.gamma(2.0, 1.0, 400)
    hold = rng.random((3000, 400)) < rates * (10.0 / rates.sum())
    db = TransactionDatabase(r for r in (np.flatnonzero(h).tolist() for h in hold) if r)
    params, _ = fit_database(db)
    return db, params


# SHA-256 of the itemset file nb_dfs writes for structureless_db_and_params.
# At (0.99, 1) nothing is mined: no pair is selected from both its items.
STRUCTURELESS_DIGESTS = {
    (0.95, 0.5): "0b4f52c32498b60243bd94638ec770ddb9b281989c56a90333198e858fa9508c",
    (0.5, 0.5): "a0753bed740715820f1c0f430b2bc66d55b288859df347a829baea696c9794e8",
    (0.99, 1.0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


@pytest.mark.parametrize("pi, theta", sorted(STRUCTURELESS_DIGESTS))
def test_nb_dfs_structureless_digest(structureless_db_and_params, pi, theta, tmp_path, monkeypatch):
    db, params = structureless_db_and_params
    cap = mining._SCAN_CACHE_MAX
    # most roots have more candidates than the cap: 392 of 400 here
    long_roots = sum(len(Counter(chain.from_iterable(t for t in db.transactions if i in t))) - 1 > cap
                     for i in db.item_freq)
    assert long_roots >= 300, long_roots
    found = []
    scan = mining._threshold_scan

    def recording_scan(counts, n_candidates, *rest):
        result = scan(counts, n_candidates, *rest)
        if len(counts) > cap and result[0] is not None:
            found.append(n_candidates)
        return result

    monkeypatch.setattr(mining, "_threshold_scan", recording_scan)
    mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))
    path = tmp_path / "structureless.itemsets"
    write_itemsets(path, mined)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STRUCTURELESS_DIGESTS[(pi, theta)]
    # some roots longer than the cap find a threshold (n_total - 1
    # candidates): 24, 218 and 4 at pi 0.95, 0.5 and 0.99
    assert params.n_total - 1 in found
    assert {m.itemset(): m.freq for m in mined} == oracle_nb_frequent(db, params, pi, theta)


def assert_bound_to_nb_select(db, params, pi, mined):
    """Every record's threshold, precision and admission are those that
    nb_select gives one of its (k-1)-subsets on the public path."""
    selections = {}
    for m in mined:
        items = m.itemset()
        for i in m.items:
            s = items - {i}
            if s not in selections:
                selections[s] = nb_select(db, s, params, pi)
            sel = selections[s]
            if (sel.sigma_freq == m.sigma_freq and sel.predicted_precision == m.predicted_precision
                    and i in sel.items):
                break
        else:
            raise AssertionError(f"no subset of {m.items} selects it as nb_dfs did")


@pytest.mark.parametrize("pi, theta", sorted(GOLDEN_DIGESTS))
def test_nb_dfs_records_bound_to_nb_select(golden_db_and_params, pi, theta):
    db, params = golden_db_and_params
    mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))
    assert mined
    assert all(type(m.freq) is int for m in mined)
    assert_bound_to_nb_select(db, params, pi, mined)


def test_nb_dfs_records_bound_to_nb_select_property():
    non_empty = deep = 0

    @settings(deadline=None, max_examples=150)
    @given(small_db_and_params(), st.floats(0.05, 0.99),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def check(db_params, pi, theta):
        nonlocal non_empty, deep
        db, params = db_params
        mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))
        assert_bound_to_nb_select(db, params, pi, mined)
        non_empty += bool(mined)
        deep += any(len(m.items) > 2 for m in mined)

    check()
    # 59 to 74 of the 150 examples mined something, and 23 to 54 an itemset
    # of three items or more, over eight runs
    assert non_empty >= 30, non_empty
    assert deep >= 10, deep


def counted_scans(monkeypatch) -> list:
    """The (n_candidates, counts) input of every threshold scan nb_dfs runs
    from now on, in order."""
    scans = []
    scan = mining._threshold_scan

    def counting_scan(counts, n_candidates, *rest):
        scans.append((n_candidates, tuple(counts)))
        return scan(counts, n_candidates, *rest)

    monkeypatch.setattr(mining, "_threshold_scan", counting_scan)
    return scans


def test_nb_dfs_scans_each_distinct_input_once(golden_db_and_params, monkeypatch):
    # Counter nodes with the same candidate count and the same multiset of
    # co-occurrence counts share one threshold scan, when the counts are at
    # most _SCAN_CACHE_MAX. No node below the root of this basket has
    # _KERNEL_MIN rows, so every scan below the root is a Counter node's; a
    # root's scan, one candidate fewer than the model's items, runs on the
    # kernel, which keeps no scans
    db, params = golden_db_and_params
    scans, gen_calls = counted_scans(monkeypatch), []
    gen = mining.nb_gen

    def counting_gen(*args):
        gen_calls.append(1)
        return gen(*args)

    monkeypatch.setattr(mining, "nb_gen", counting_gen)
    nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=0.5))
    short = [s for s in scans if s[0] < params.n_total - 1 and len(s[1]) <= mining._SCAN_CACHE_MAX]
    assert short and len(set(short)) == len(short)
    # one nb_gen call per node that found a threshold, plus the singles
    assert len(scans) < (len(gen_calls) - 1) / 2


def test_nb_dfs_scans_again_an_input_longer_than_the_cache_cap(monkeypatch):
    # items 0, 1 and 2 share 20 rows, each of which adds items of its own,
    # and items 100, 101 and 102 share five rows. The Counter nodes (0, 1),
    # (0, 2) and (1, 2) have one input, longer than the cap, which is
    # scanned each time; (100, 101), (100, 102) and (101, 102) have one
    # input within it, scanned once
    cap = mining._SCAN_CACHE_MAX
    own = cap // 20 + 1
    db = TransactionDatabase([[0, 1, 2] + [1000 + own * r + j for j in range(own)]
                              for r in range(20)] + [[100, 101, 102]] * 5)
    params = _params_for(db, 1.0, 0)
    scans = counted_scans(monkeypatch)
    nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=0.5))
    pairs = Counter(s for s in scans if s[0] == params.n_total - 2)
    assert pairs == {(params.n_total - 2, (1,) * (20 * own) + (20,)): 3,
                     (params.n_total - 2, (5,)): 1}


def test_nb_dfs_reuses_counts_of_a_child_with_its_parents_rows(golden_db_and_params, monkeypatch):
    # a child whose item is in every row of its parent has the parent's rows
    # and takes the parent's counts instead of projecting and counting again
    db, params = golden_db_and_params
    builds = []

    class CountingCounter(Counter):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mining, "Counter", CountingCounter)
    mined = nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=0.5))
    # 1,281 builds for 3,434 records; without the reuse, 4,115
    assert len(builds) < len(mined) / 2


# _KERNEL_MIN values at which every node below the root runs the pair-count
# kernel, and at which none does. No node below the root of the golden or
# structureless fixtures, nor of small_db_and_params, has as many rows as the
# default, so these settings are what run their kernel below the root.
KERNEL_CUTOFFS = [1, 10**9]


@pytest.mark.parametrize("kernel_min", KERNEL_CUTOFFS)
@pytest.mark.parametrize("pi, theta", sorted(GOLDEN_DIGESTS))
def test_nb_dfs_golden_digest_at_each_kernel_cutoff(golden_db_and_params, pi, theta, kernel_min,
                                                     tmp_path, monkeypatch):
    monkeypatch.setattr(mining, "_KERNEL_MIN", kernel_min)
    test_nb_dfs_golden_digest(golden_db_and_params, pi, theta, tmp_path)


@pytest.mark.parametrize("kernel_min", KERNEL_CUTOFFS)
@pytest.mark.parametrize("pi, theta", sorted(STRUCTURELESS_DIGESTS))
def test_nb_dfs_structureless_digest_at_each_kernel_cutoff(structureless_db_and_params, pi, theta,
                                                           kernel_min, tmp_path, monkeypatch):
    monkeypatch.setattr(mining, "_KERNEL_MIN", kernel_min)
    test_nb_dfs_structureless_digest(structureless_db_and_params, pi, theta, tmp_path, monkeypatch)


@pytest.mark.parametrize("kernel_min", KERNEL_CUTOFFS)
def test_nb_dfs_matches_oracle_at_each_kernel_cutoff(kernel_min, monkeypatch):
    monkeypatch.setattr(mining, "_KERNEL_MIN", kernel_min)
    test_nb_dfs_matches_oracle_property()
    for name in sorted(EDGE_DATABASES):
        test_nb_dfs_matches_oracle_on_edge_inputs(name)


def test_nb_dfs_records_do_not_depend_on_the_kernel_cutoff(monkeypatch):
    # the same records whether the nodes below the root run the kernel from
    # the default row count, from one row, or never
    default, count, counted = mining._KERNEL_MIN, _PairCounts.count, []
    below_root = non_empty = 0

    def counting(self, t):
        counted.append(1)
        return count(self, t)

    monkeypatch.setattr(_PairCounts, "count", counting)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.99), st.sampled_from([0.0, 0.5, 1.0]))
    def check(seed, pi, theta):
        nonlocal below_root, non_empty
        db, params = random_db_and_params(seed, max_txns=240)
        if db is None:
            return
        config = MinerConfig(params=params, pi=pi, theta=theta)
        counted.clear()
        mined = nb_dfs(db, config)
        # the roots count once each, so any further count is a node below
        below_root += len(counted) > len(db.item_freq)
        non_empty += bool(mined)
        for kernel_min in KERNEL_CUTOFFS:
            monkeypatch.setattr(mining, "_KERNEL_MIN", kernel_min)
            assert nb_dfs(db, config) == mined, kernel_min
        monkeypatch.setattr(mining, "_KERNEL_MIN", default)

    check()
    # over hypothesis seeds 0-49, the kernel ran below the root at the
    # default cut-off in 20 to 37 of the 300 examples (mean 30), and 58 to
    # 91 mined something
    assert below_root >= 12 and non_empty >= 40, (below_root, non_empty)


def test_nb_dfs_kernel_children_with_all_their_parents_rows(monkeypatch):
    # items 1 and 2 are in every row of item 0, so both children of root 0
    # hold all its rows. The first, (0, 1), zeroes the column of 1 in its
    # counts; the second, (0, 2), must still see 1 and propose (0, 1, 2),
    # which theta 1 needs from all its subsets
    rows = [[0, 1, 2, 3 + r % 20] for r in range(40)] + [[3 + r % 20, 23 + r % 7] for r in range(40)]
    db = TransactionDatabase(rows)
    params = _params_for(db, 1.0, 0)
    monkeypatch.setattr(mining, "_KERNEL_MIN", 1)
    mined = nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=1.0))
    assert (0, 1, 2) in {m.items for m in mined}
    assert {m.itemset(): m.freq for m in mined} == oracle_nb_frequent(db, params, 0.95, 1.0)
    monkeypatch.setattr(mining, "_KERNEL_MIN", 10**9)
    assert nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=1.0)) == mined


def _garbage_after(call) -> int:
    """Objects the cycle collector finds after ``call()``, with it disabled."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_nb_dfs_leaves_no_reference_cycle(golden_db_and_params):
    # the search state must be freed when nb_dfs returns, not whenever the
    # cycle collector next runs
    db, params = golden_db_and_params
    config = MinerConfig(params=params, pi=0.95, theta=0.5)
    assert _garbage_after(lambda: nb_dfs(db, config)) == 0


def test_nb_dfs_leaves_no_reference_cycle_on_error(golden_db_and_params, monkeypatch):
    db, params = golden_db_and_params
    gen = mining.nb_gen
    calls = []

    def failing_gen(*args):
        calls.append(1)
        if len(calls) > 50:
            raise RuntimeError("stop")
        return gen(*args)

    def mine_and_fail():
        try:
            nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=0.5))
        except RuntimeError:
            pass
        else:
            raise AssertionError("the search should have failed")

    monkeypatch.setattr(mining, "nb_gen", failing_gen)
    assert _garbage_after(mine_and_fail) == 0


BASELINE_RUNS = [(mine_frequent, 0.02), (mine_allconf, 0.6)]


@pytest.mark.parametrize("miner, threshold", BASELINE_RUNS)
def test_baselines_leave_no_reference_cycle(golden_db_and_params, miner, threshold):
    # the Eclat search's tid bitsets must be freed when the miner returns
    db, _ = golden_db_and_params
    assert _garbage_after(lambda: miner(db, threshold)) == 0


@pytest.mark.parametrize("miner, threshold", BASELINE_RUNS)
def test_baselines_leave_no_reference_cycle_on_error(golden_db_and_params, monkeypatch,
                                                     miner, threshold):
    db, _ = golden_db_and_params
    calls = []

    # the search below the pairs is the only caller of max in baselines
    def failing_max(*args):
        calls.append(1)
        if len(calls) > 10:
            raise RuntimeError("stop")
        return max(*args)

    def mine_and_fail():
        try:
            miner(db, threshold)
        except RuntimeError:
            pass
        else:
            raise AssertionError("the search should have failed")

    monkeypatch.setattr(baselines, "max", failing_max, raising=False)
    assert _garbage_after(mine_and_fail) == 0


def test_itemset_file_round_trip(tmp_path):
    records = [
        MinedItemset(items=(1, 5, 9), freq=37, sigma_freq=11,
                     predicted_precision=0.958081869135),
        ((2, 3), 15, 0.001, None),        # support baseline: global threshold
        ((4, 8), 9, None, None),
    ]
    path = tmp_path / "sets.tsv"
    write_itemsets(path, records)
    text = path.read_text()
    lines = text.strip("\n").split("\n")
    assert lines[0].startswith("1 5 9\t37\t11\t0.958081869135")
    assert lines[2] == "4 8\t9\t\t"
    back = read_itemsets(path)
    assert back[0] == ((1, 5, 9), 37, 11, 0.958081869135)
    assert back[0] == records[0]  # an nb record is its own file row
    assert isinstance(back[0][2], int)
    assert isinstance(back[1][2], float)
    assert back[1] == ((2, 3), 15, 0.001, None)
    assert back[2] == ((4, 8), 9, None, None)
    assert all(type(row) is MinedItemset for row in back)
    # the baselines' rows are itemset-file rows as they stand
    db, _ = random_db_and_params(5)
    for rows in (mine_frequent(db, 0.1), mine_allconf(db, 0.2)):
        assert any(len(row.items) > 2 for row in rows)
        write_itemsets(path, rows)
        back = read_itemsets(path)
        assert back == rows
        assert all(type(row) is MinedItemset for row in back)


def test_read_itemsets_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1 2\t3\n")
    with pytest.raises(ValueError):
        read_itemsets(path)
    # a bad number names its file and line
    for bad in ("1 2\tx\t3\t0.9\n", "1 y\t4\t3\t0.9\n", "1 2\t4\t3\tz\n"):
        path.write_text("1 2\t4\t3\t0.9\n" + bad)
        with pytest.raises(ValueError, match=":2:"):
            read_itemsets(path)
