import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbminer.baselines import mine_allconf, mine_frequent
from nbminer.mining import MinedItemset, write_itemsets
from nbminer.transactions import TransactionDatabase

from _oracles import oracle_allconf_sets, oracle_support_sets


def random_db(seed, max_items=10, max_txns=40):
    rng = random.Random(seed)
    n_items = rng.randint(3, max_items)
    rows = []
    for _ in range(rng.randint(5, max_txns)):
        rows.append(rng.sample(range(n_items), rng.randint(1, n_items)))
    return TransactionDatabase(rows)


def test_mine_frequent_small_example():
    db = TransactionDatabase([[1, 2, 3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])
    got = {fs.items: fs.freq for fs in mine_frequent(db, 0.6)}
    assert got == {(1,): 4, (2,): 4, (3,): 4, (1, 2): 3, (1, 3): 3, (2, 3): 3}
    # the triple has support 2/5 < 0.6
    assert (1, 2, 3) not in got
    got2 = {fs.items for fs in mine_frequent(db, 0.4)}
    assert (1, 2, 3) in got2


def test_mine_frequent_boundary_inclusive():
    db = TransactionDatabase([[1, 2], [1, 2], [1], [3]])
    got = {fs.items: fs.freq for fs in mine_frequent(db, 0.5)}
    assert (1, 2) in got and got[(1, 2)] == 2  # exactly at the threshold


def test_mine_frequent_matches_enumeration():
    for seed in range(12):
        db = random_db(seed)
        for sigma in (0.15, 0.3, 0.5):
            got = {frozenset(fs.items): fs.freq for fs in mine_frequent(db, sigma)}
            assert got == oracle_support_sets(db, sigma), (seed, sigma)


def test_mine_frequent_validates():
    with pytest.raises(ValueError):
        mine_frequent(TransactionDatabase([]), 0.5)
    with pytest.raises(ValueError):
        mine_frequent(TransactionDatabase([[1]]), 0.0)
    with pytest.raises(ValueError):
        mine_frequent(TransactionDatabase([[1]]), 1.5)


def test_mine_allconf_matches_enumeration():
    for seed in range(12):
        db = random_db(seed)
        for gamma in (0.2, 0.4, 0.7):
            got = {frozenset(fs.items): fs.freq for fs in mine_allconf(db, gamma)}
            assert got == oracle_allconf_sets(db, gamma), (seed, gamma)


def test_mine_allconf_is_downward_closed():
    from itertools import combinations
    db = random_db(33, max_items=8)
    accepted = {frozenset(fs.items) for fs in mine_allconf(db, 0.3)}
    for z in accepted:
        for size in range(2, len(z)):
            for sub in combinations(sorted(z), size):
                assert frozenset(sub) in accepted


def test_mine_allconf_only_size_two_plus():
    db = random_db(5)
    assert all(len(fs.items) >= 2 for fs in mine_allconf(db, 0.1))


def test_results_sorted_and_typed():
    db = random_db(8)
    res = mine_frequent(db, 0.2)
    # itemset-file rows: the global threshold in the third field, no precision
    assert all(isinstance(fs, MinedItemset) and fs[2:] == (0.2, None) for fs in res)
    keys = [(len(fs.items), fs.items) for fs in res]
    assert keys == sorted(keys)


EDGE_DATABASES = {
    "huge-ids": [[10**9, 2**64, 3], [10**9, 2**64], [2**64, 3], [10**9], [3, 10**9, 2**64]],
    "no-items": [[]],
    "one-transaction": [[4, 8, 15, 16]],
    "every-item-everywhere": [[1, 2, 3, 4, 5]] * 6,
}


@pytest.mark.parametrize("name", sorted(EDGE_DATABASES))
@pytest.mark.parametrize("threshold", [0.1, 0.4, 0.6, 1.0])
def test_baselines_match_oracles_on_edge_inputs(name, threshold):
    db = TransactionDatabase(EDGE_DATABASES[name])
    got = {frozenset(fs.items): fs.freq for fs in mine_frequent(db, threshold)}
    assert got == oracle_support_sets(db, threshold)
    got = {frozenset(fs.items): fs.freq for fs in mine_allconf(db, threshold)}
    assert got == oracle_allconf_sets(db, threshold)


def test_baselines_accept_exact_ties():
    # every itemset over {1, 2, 3, 4} has support 7/100 or more and
    # all-confidence 7/100 or more, and 7 / 100 >= 0.07 although 7 < 0.07 * 100
    assert 7 / 100 >= 0.07 and 7 < 0.07 * 100
    db = TransactionDatabase([[1, 2, 3, 4]] * 7 + [[4]] * 93)
    got = {frozenset(fs.items): fs.freq for fs in mine_frequent(db, 0.07)}
    assert got == oracle_support_sets(db, 0.07) and len(got) == 15
    got = {frozenset(fs.items): fs.freq for fs in mine_allconf(db, 0.07)}
    assert got == oracle_allconf_sets(db, 0.07) and len(got) == 11


# ids include huge and widely spaced ones, so the dense remapping is exercised
ITEM_IDS = [0, 1, 2, 3, 5, 8, 10**9, 2**63, 2**64 + 1]


def _threshold(data, ties):
    """A threshold in (0, 1]: often one of the exact values an itemset
    takes, so that acceptance at equality is tested."""
    floats = st.floats(0.01, 1.0)
    return data.draw(st.one_of(st.sampled_from(sorted(ties)), floats) if ties else floats)


def test_baselines_match_oracles_property():
    # repeated and empty rows reach databases of up to 112 transactions,
    # where a tie f / n == min_support (7 / 25, say) can fail the
    # multiplied-out form f >= min_support * n
    non_empty = {"support": 0, "allconf": 0}

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def check(data):
        drawn = data.draw(st.lists(st.tuples(st.lists(st.sampled_from(ITEM_IDS), max_size=6),
                                             st.integers(1, 6)),
                                   min_size=1, max_size=12))
        rows = [row for row, times in drawn for _ in range(times)]
        db = TransactionDatabase(rows + [[]] * data.draw(st.integers(0, 40)))
        n = len(db)
        occurring = oracle_support_sets(db, 1 / n)
        min_support = _threshold(data, {f / n for f in occurring.values()})
        got = {frozenset(fs.items): fs.freq for fs in mine_frequent(db, min_support)}
        expect = oracle_support_sets(db, min_support)
        assert got == expect
        non_empty["support"] += bool(expect)
        min_allconf = _threshold(data, {f / max(db.item_freq[i] for i in z)
                                        for z, f in occurring.items() if len(z) >= 2})
        got = {frozenset(fs.items): fs.freq for fs in mine_allconf(db, min_allconf)}
        expect = oracle_allconf_sets(db, min_allconf)
        assert got == expect
        non_empty["allconf"] += bool(expect)

    check()
    # over ten hypothesis seeds, 113 to 171 of the 200 examples mined
    # something by support and 153 to 170 by all-confidence
    assert min(non_empty.values()) >= 80, non_empty


# SHA-256 of the itemset file the CLI writes for each baseline on the
# golden database (artif-1, 300 transactions, seed 1). Changes to the
# counting must leave this output byte-identical.
BASELINE_GOLDEN_DIGESTS = {
    # 2,070 itemsets up to size 8: the search below the pairs goes deep
    ("support", 0.01): "df8319aea25a8b9bb210d4decdd77ef4ca8767847d0681e8de892a486db54d3b",
    ("support", 0.02): "f49446e6613165ce30e60912a4ee6a4ea8222a815b6d4fa7f69d50e83c4ca6d2",
    ("allconf", 0.6): "bdd4134402eb1b87919c0185d9db40c5b8b22dfd364db43fbc7ebe950febcb85",
}
MINERS = {"support": mine_frequent, "allconf": mine_allconf}


@pytest.mark.parametrize("method, threshold", sorted(BASELINE_GOLDEN_DIGESTS))
def test_baseline_golden_digest(golden_db_and_params, method, threshold, tmp_path):
    db, _ = golden_db_and_params
    found = MINERS[method](db, threshold)
    path = tmp_path / "golden.itemsets"
    write_itemsets(path, [(fs.items, fs.freq, threshold, None) for fs in found])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == BASELINE_GOLDEN_DIGESTS[(method, threshold)]
