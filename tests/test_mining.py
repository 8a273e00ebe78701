import gc
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbminer import mining
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
from nbminer.nbmodel import NBParams, nb_pmf_prefix
from nbminer.transactions import TransactionDatabase

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
    assert sigma(0.0) == 1


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
    assert mining._threshold_scan(*inputs) == linear_scan(*inputs)


@settings(deadline=None, max_examples=300)
@given(scan_inputs())
@example(SCAN_EXAMPLES[1])
def test_predicted_precision_brackets_threshold(inputs):
    counts, n_candidates, k, a_l, pi = inputs
    sigma = find_threshold(counts, n_candidates, k, a_l, pi)
    if sigma is None:
        return
    prec = predicted_precision(counts, n_candidates, k, a_l, sigma)
    assert prec >= pi
    assert prec == mining._threshold_scan(counts, n_candidates, k, a_l, pi)[1]
    if sigma > 1:  # the scan stopped at sigma - 1 because it failed there
        assert predicted_precision(counts, n_candidates, k, a_l, sigma - 1) < pi


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


def test_nb_gen_theta_zero_emits_immediately():
    repo = {}
    out = nb_gen(frozenset((1, 2)), [5, 3], 0.0, repo)
    assert out == [frozenset((1, 2, 3)), frozenset((1, 2, 5))]  # ascending order
    assert repo == {frozenset((1, 2, 3)): 1, frozenset((1, 2, 5)): 1}


def test_nb_gen_theta_one_needs_all_subsets():
    repo = {}
    target = frozenset((1, 2, 3))
    # three different 2-subsets each propose the triple
    assert nb_gen(frozenset((1, 2)), [3], 1.0, repo) == []
    assert nb_gen(frozenset((1, 3)), [2], 1.0, repo) == []
    assert nb_gen(frozenset((2, 3)), [1], 1.0, repo) == [target]
    assert repo[target] == 3


def test_nb_gen_theta_half_pair_first_proposal():
    repo = {}
    assert nb_gen(frozenset((4,)), [7], 0.5, repo) == [frozenset((4, 7))]


def test_nb_gen_drops_already_frequent():
    repo = {}
    nb_gen(frozenset((1,)), [2], 0.0, repo)
    assert nb_gen(frozenset((2,)), [1], 0.0, repo) == []
    assert repo[frozenset((1, 2))] == 2  # the second proposal is counted, not emitted again


@st.composite
def proposal_sequences(draw):
    """Calls of nb_gen over at most 8 items: (itemset, candidates) pairs,
    the candidates drawn from the items outside the itemset."""
    items = range(draw(st.integers(1, 8)))
    calls = []
    for _ in range(draw(st.integers(1, 40))):
        l = frozenset(draw(st.sets(st.sampled_from(items), max_size=len(items) - 1)))
        rest = [i for i in items if i not in l]
        calls.append((l, draw(st.lists(st.sampled_from(rest), max_size=len(rest)))))
    return calls


@settings(deadline=None, max_examples=300)
@given(proposal_sequences(),
       st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 2 / 3, 0.7, 1.0]), st.floats(0.0, 1.0)))
def test_nb_gen_matches_oracle_property(calls, theta):
    # every call emits exactly what the definition admits at that proposal
    repo, state = {}, {}
    for l, candidates in calls:
        assert nb_gen(l, candidates, theta, repo) == oracle_nb_gen(l, candidates, theta, state)


def test_nb_gen_rejects_candidate_in_base():
    with pytest.raises(ValueError):
        nb_gen(frozenset((1, 2)), [2], 0.5, {})


def test_miner_config_validation():
    params = example_params()
    MinerConfig(params=params, pi=0.95, theta=0.5)
    with pytest.raises(ValueError):
        MinerConfig(params=params, pi=0.0)
    with pytest.raises(ValueError):
        MinerConfig(params=params, pi=1.5)
    with pytest.raises(ValueError):
        MinerConfig(params=params, theta=-0.1)


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


def test_nb_dfs_matches_level_wise_oracle():
    checked = 0
    for seed in range(25):
        db, params = random_db_and_params(seed)
        if db is None:
            continue
        for theta in (0.0, 0.5, 1.0):
            for pi in (0.5, 0.9):
                config = MinerConfig(params=params, pi=pi, theta=theta)
                mined = nb_dfs(db, config)
                got = {m.itemset(): m.freq for m in mined}
                expect = oracle_nb_frequent(db, params, pi, theta)
                assert got == expect, (seed, theta, pi)
                checked += 1
    assert checked >= 100


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


@settings(deadline=None, max_examples=300)
@given(small_db_and_params(),
       st.floats(0.05, 0.99),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.one_of(st.none(), st.integers(1, 5)))
def test_nb_dfs_matches_oracle_property(db_params, pi, theta, max_size):
    db, params = db_params
    mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta), max_size=max_size)
    got = {m.itemset(): m.freq for m in mined}
    expect = {s: f for s, f in oracle_nb_frequent(db, params, pi, theta).items()
              if max_size is None or len(s) <= max_size}
    assert got == expect


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


@settings(deadline=None, max_examples=150)
@given(small_db_and_params(), st.floats(0.05, 0.99),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_nb_dfs_records_bound_to_nb_select_property(db_params, pi, theta):
    db, params = db_params
    mined = nb_dfs(db, MinerConfig(params=params, pi=pi, theta=theta))
    assert_bound_to_nb_select(db, params, pi, mined)


def test_nb_dfs_scans_each_distinct_input_once(golden_db_and_params, monkeypatch):
    # nodes with the same candidate count and the same multiset of
    # co-occurrence counts share one threshold scan
    db, params = golden_db_and_params
    scans, gen_calls = [], []
    scan, gen = mining._threshold_scan, mining.nb_gen

    def counting_scan(counts, n_candidates, *rest):
        scans.append((n_candidates, tuple(sorted(counts.elements()))))
        return scan(counts, n_candidates, *rest)

    def counting_gen(*args):
        gen_calls.append(1)
        return gen(*args)

    monkeypatch.setattr(mining, "_threshold_scan", counting_scan)
    monkeypatch.setattr(mining, "nb_gen", counting_gen)
    nb_dfs(db, MinerConfig(params=params, pi=0.95, theta=0.5))
    assert len(set(scans)) == len(scans)
    # one nb_gen call per node that found a threshold, plus the singles
    assert len(scans) < (len(gen_calls) - 1) / 2


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
