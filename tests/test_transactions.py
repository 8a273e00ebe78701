import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbminer.transactions import (
    BasketFormatError,
    TransactionDatabase,
    _PairCounts,
    load_basket,
    write_basket,
)
from nbminer.mining import nb_select
from nbminer.nbmodel import NBParams

from test_mining import ID_RANGES

# a model for reading nb_select's candidate counts; its threshold is not checked
PARAMS = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=1000,
                  transaction_count=100, em_iterations=0, trimmed_items=0)


def random_db(rng, max_items=12, max_txns=60):
    n_items = rng.randint(2, max_items)
    n_txns = rng.randint(1, max_txns)
    rows = []
    for _ in range(n_txns):
        size = rng.randint(1, n_items)
        rows.append(rng.sample(range(n_items), size))
    return TransactionDatabase(rows)


def test_construction_normalizes():
    db = TransactionDatabase([[3, 1, 2, 2], (5, 5), []])
    assert db.transactions == ((1, 2, 3), (5,), ())
    assert db.item_freq == {1: 1, 2: 1, 3: 1, 5: 1}
    assert db.incidence_total == 4
    assert len(db) == 3


def test_construction_rejects_bad_ids():
    with pytest.raises(ValueError):
        TransactionDatabase([[1, -2]])
    with pytest.raises(ValueError):
        TransactionDatabase([[1, 2.5]])
    with pytest.raises(ValueError):
        TransactionDatabase([["3"]])


def test_load_basket(tmp_path):
    p = tmp_path / "d.basket"
    p.write_text("# a comment\n3 1 2 2\n\n   \n 5 5 \n# trailing\n")
    db = load_basket(p)
    assert db.transactions == ((1, 2, 3), (5,))


def test_load_basket_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.basket"
    p.write_text("1 2\n3 x 4\n")
    with pytest.raises(BasketFormatError, match=r":2:"):
        load_basket(p)
    p.write_text("1 2\n\n7 -3\n")
    with pytest.raises(BasketFormatError, match=r":3:"):
        load_basket(p)
    p.write_text("1 1_0\n")
    with pytest.raises(BasketFormatError, match=r":1:"):
        load_basket(p)


def test_basket_round_trip(tmp_path):
    rng = random.Random(7)
    db = random_db(rng)
    p = tmp_path / "rt.basket"
    write_basket(db, p)
    assert load_basket(p) == db


def test_extension_counts_excludes_base_incidences():
    # 201 transactions containing item 7, their sizes summing to 599:
    # the candidate counts of {7} sum to 599 - 201 = 398.
    rows = [[7] + list(range(1000, 1199))]
    rows += [[7, 200 + j] for j in range(199)]
    rows += [[7]]
    rows += [[1, 2], [3]]  # noise without item 7
    db = TransactionDatabase(rows)
    cond = [t for t in db.transactions if 7 in t]
    assert len(cond) == 201
    assert sum(map(len, cond)) == 599
    counts = nb_select(db, [7], PARAMS, 0.95).counts
    assert sum(counts.values()) == 398
    assert 7 not in counts


def test_pipeline_matches_brute_force():
    rng = random.Random(99)
    for _ in range(30):
        db = random_db(rng)
        items = sorted(db.item_freq)
        if len(items) < 2:
            continue
        l = frozenset(rng.sample(items, rng.randint(1, 2)))
        got = nb_select(db, l, PARAMS, 0.95).counts
        rows = [set(t) for t in db.transactions if l <= set(t)]
        counts = {}
        for t in rows:
            for c in t - l:
                counts[c] = counts.get(c, 0) + 1
        assert got == counts
        assert sum(got.values()) == sum(len(t) - len(l) for t in rows)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_pair_counts_match_brute_force(data):
    ids = data.draw(st.sampled_from(ID_RANGES))
    rows = data.draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=20))
    db = TransactionDatabase(rows)
    # the columns cover some of the observed items, in any order
    cols = data.draw(st.permutations(sorted(db.item_freq)))
    cols = cols[:data.draw(st.integers(0, len(cols)))]
    pos = {i: j for j, i in enumerate(cols)}
    m = len(cols)
    pairs = _PairCounts(db, pos)
    x = np.array([[i in t for i in cols] for t in db.transactions], np.int64)
    xtx = x.T @ x
    assert len(pairs.tids) == m
    for j, i in enumerate(cols):
        assert pairs.tids[j].tolist() == [t for t, row in enumerate(db.transactions) if i in row]
        assert pairs.row(j).tolist() == xtx[j].tolist()
    t = np.array(data.draw(st.lists(st.integers(0, len(db) - 1), min_size=1, unique=True)))
    g = pairs.gather(t)
    assert pairs.count(g).tolist() == x[t].sum(axis=0).tolist()
    owner = pairs.owners(t)
    assert len(owner) == len(g) == sum(len(db.transactions[tid]) for tid in t)
    for tid, col in zip(owner.tolist(), g.tolist()):
        row = db.transactions[tid]
        # m stands for an item outside the columns
        assert cols[col] in row if col < m else any(i not in pos for i in row)
