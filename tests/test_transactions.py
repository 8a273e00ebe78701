import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbminer import transactions
from nbminer.transactions import (
    BasketFormatError,
    TransactionDatabase,
    _PairCounts,
    load_basket,
    write_basket,
)
from nbminer.evaluation import read_sweep
from nbminer.mining import nb_select, read_itemsets
from nbminer.nbmodel import NBParams, read_model
from nbminer.synthgen import read_truth

from _oracles import oracle_read_basket
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
    p.write_bytes(b"1 2\n3 \xff 4\n")
    with pytest.raises(BasketFormatError, match=r":2: not UTF-8"):
        load_basket(p)


# every text reader: its error type, two good lines (a sweep table's first
# is its header) and, for the formats that hold item ids, a line with ``id``
# in an item id's place
READERS = {
    "basket": (load_basket, BasketFormatError, ["1 2", "3"], "1 {}"),
    "itemsets": (read_itemsets, ValueError, ["1 2\t4\t3\t0.9", "3\t5\t\t"],
                 "{}\t5\t\t"),
    "truth": (read_truth, ValueError, ["0.5\t1 2", "0.5\t3"], "0.5\t1 {}"),
    "model": (read_model, ValueError,
              ["k = 1.0", "a = 2.0", "a_per_incidence = 0.02", "n_total = 10",
               "incidence_total = 100", "transaction_count = 10",
               "em_iterations = 0", "trimmed_items = 0"], None),
    "sweep": (read_sweep, ValueError,
              ["method\tparameter\tmined_count\tmax_size\ttp\tfp\t"
               "positives_total\tprecision\trecall",
               "support\t0.2\t3\t2\t1\t0\t4\t1\t0.25"], None),
}


@pytest.mark.parametrize("fmt", READERS)
def test_every_reader_shares_the_line_rules(tmp_path, fmt):
    read, error, good, id_line = READERS[fmt]
    path = tmp_path / fmt

    def load(lines):
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        return read(path)

    good = [line.encode() for line in good]
    # blank and comment lines are skipped wherever they stand
    skips = [b"# head", b"", b" \t", b"  # indented"]
    assert load(skips + good[:1] + skips + good[1:] + skips) == load(good)
    # a line that is not UTF-8 names its file and line
    with pytest.raises(error, match=":2: not UTF-8"):
        load([good[0], good[1] + b"\xe9"])
    # an item id is a run of ASCII digits, in every format that holds ids
    if id_line is not None:
        for bad in ("-3", "1_000", "+7", "\u0663"):
            with pytest.raises(error, match=":2: invalid item id"):
                load([good[0], id_line.format(bad).encode()])


# for each reader whose lines hold numbers other than item ids: a line with
# ``{}`` in an integer or a real field, valid with "7" there. It goes on
# line 2, after the reader's first good line.
NUMBER_LINES = {
    "itemsets": [("1 2\t{}\t3\t0.9", int), ("1 2\t4\t3\t{}", float)],
    "truth": [("{}\t1 2", float)],
    "model": [("n_total = {}", int), ("k = {}", float)],
    "sweep": [("support\t0.2\t{}\t2\t1\t0\t4\t1\t0.25", int),
              ("support\t0.2\t3\t2\t1\t0\t4\t{}\t0.25", float)],
}
# what Python's int and float accept and the text formats do not
BAD_NUMBERS = {int: ["+7", "1_000", "\u0663", "7.0", "1e3", "\u00a07", "7\u3000"],
               float: ["1_0.5", "\u0663.5", "\u00a00.5", "0.5\u2003", "0x7", "7,5"]}


@pytest.mark.parametrize("fmt", NUMBER_LINES)
def test_every_reader_takes_numbers_in_ascii_only(tmp_path, fmt):
    # a count is a run of ASCII digits and a real number Python's float
    # syntax in ASCII, in every format; a field's blanks are refused where
    # the format's separator is a tab
    read, error, good, _ = READERS[fmt]
    path = tmp_path / fmt

    def load(line):
        path.write_text("\n".join([good[0], line, *good[1:]]) + "\n", encoding="utf-8")
        return read(path)

    for line, kind in NUMBER_LINES[fmt]:
        load(line.format("7"))
        blanks = [] if fmt == "model" else [" 7", "7 "]
        for bad in BAD_NUMBERS[kind] + blanks:
            if line.startswith("{}") and bad != bad.lstrip():
                continue  # a truth line's leading blanks are the line's
            with pytest.raises(error, match=f"^{re.escape(str(path))}:2: invalid"):
                load(line.format(bad))


# separators str.split() knows: the plain ones, then every other kind
PLAIN_SPACE = [" ", "\t"]
OTHER_SPACE = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
               "\u2003", "\u2028", "\u3000"]
BAD_TOKENS = ["x", "-3", "+5", "1_0", "1.0", "0x1f", "1#", "\u00b2", "\u0663"]
LINE_ENDS = ["\n", "\r\n", "\r"]
# a file the bulk pass takes: only digits, spaces, tabs, CRs and LFs, and no
# run of more than 18 digits
NOT_PLAIN = re.compile(rb"[^0-9 \t\r\n]|[0-9]{19}")


@st.composite
def basket_files(draw):
    """The bytes of a basket file. About half the files are drawn plain,
    with ids below 10**18 and only spaces and tabs; the others mix in every
    kind of whitespace, comment lines, long ids and bad tokens."""
    plain = draw(st.booleans())
    ids = [i for i in draw(st.sampled_from(ID_RANGES)) if not plain or i < 10**18]
    spaces = st.sampled_from(PLAIN_SPACE if plain else PLAIN_SPACE + OTHER_SPACE)
    pad = st.lists(spaces, max_size=2).map("".join)
    # leading zeros, up to the longest run the bulk pass parses; one digit
    # past it in every file drawn not plain and in one plain file in four
    widths = [0, 2, 4, 18] + [19] * (not plain or draw(st.integers(0, 3)) == 0)
    token = st.builds(lambda i, width: str(i).zfill(width),
                      st.sampled_from(ids), st.sampled_from(widths))
    if not plain:
        token = st.one_of(token, st.sampled_from(BAD_TOKENS))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["ids"] * 4 + ["blank"] + ["comment"] * (not plain)))
        text = draw(pad)
        if kind == "comment":
            text += "#" + draw(st.text(st.characters(exclude_categories=["Cs"],
                                                     exclude_characters="\r\n"),
                                       max_size=4))
        elif kind == "ids":
            for k, tok in enumerate(draw(st.lists(token, min_size=1, max_size=6))):
                text += (draw(spaces) + draw(pad)) * (k > 0) + tok
            text += draw(pad)
        lines.append(text + draw(st.sampled_from(LINE_ENDS)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines).encode("utf-8")


def test_load_basket_matches_oracle_property(tmp_path):
    # both paths give the oracle's rows, frequencies in first-seen order and
    # incidence total, or fail on its line; the line loop runs exactly for
    # the files that are not plain
    p = tmp_path / "p.basket"
    paths = {"bulk": 0, "lines": 0}

    @settings(deadline=None, max_examples=400)
    @given(basket_files())
    def check(data):
        p.write_bytes(data)
        rows, freq, bad_line = oracle_read_basket(p)
        with mock.patch.object(transactions, "_parse_lines",
                               wraps=transactions._parse_lines) as loop:
            if bad_line is None:
                db = load_basket(p)
                assert db.transactions == tuple(rows)
                assert list(db.item_freq.items()) == list(freq.items())
                assert db.incidence_total == sum(map(len, rows))
            else:
                with pytest.raises(BasketFormatError, match=f":{bad_line}: "):
                    load_basket(p)
        assert loop.called == bool(NOT_PLAIN.search(data))
        paths["lines" if loop.called else "bulk"] += 1

    check()
    assert paths["bulk"] >= 100 and paths["lines"] >= 100, paths


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
    m = len(cols)
    pairs = _PairCounts(db, cols)
    assert pairs.pos == {i: j for j, i in enumerate(cols)}
    x = np.array([[i in t for i in cols] for t in db.transactions], np.int64)
    xtx = x.T @ x
    assert len(pairs.tids) == m
    for j, i in enumerate(cols):
        assert pairs.tids[j].tolist() == [t for t, row in enumerate(db.transactions) if i in row]
        assert pairs.count(pairs.tids[j]).tolist() == xtx[j].tolist()
    # any ascending set of rows, down to a single row and none
    anyrows = sorted(data.draw(st.sets(st.integers(0, len(db) - 1))))
    for t in (anyrows, [data.draw(st.integers(0, len(db) - 1))], []):
        assert pairs.count(np.array(t, np.int64)).tolist() == x[t].sum(axis=0).tolist()
