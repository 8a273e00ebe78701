"""Scoring and sweep tests against small enumerable ground truths."""

import concurrent.futures
import itertools
import math
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import positives_closure
from nbminer import evaluation
from nbminer.baselines import mine_frequent
from nbminer.evaluation import (
    ALLCONF_GRID,
    PI_GRID,
    SUPPORT_GRID,
    SweepEntry,
    _report,
    allconf_runs,
    nb_runs,
    pi_grid_for_theta,
    positives_for_mode,
    read_sweep,
    score,
    support_runs,
    sweep,
    write_sweep,
)
from nbminer.mining import MinedItemset
from nbminer.synthgen import GroundTruth
from test_mining import ID_RANGES, random_db_and_params


def fs(*items):
    return frozenset(items)


def assert_index_holds(truth, closure):
    """``truth``'s closure index counts ``closure`` and holds exactly its
    itemsets. The probes are every itemset of up to three ids drawn from
    the truth's items and one foreign id, and every positive plus one id."""
    index = positives_for_mode(truth, "closure")
    assert index.total == len(closure)
    universe = {i for pattern in getattr(truth, "patterns", truth) for i in pattern} | {-1}
    probes = set(closure) | {s | {x} for s in closure for x in universe}
    probes.update(frozenset(c) for size in range(4)
                  for c in itertools.combinations(sorted(universe), size))
    for itemset in probes:
        assert (itemset in index) == (itemset in closure), sorted(itemset)


def test_closure_of_one_triple():
    got = positives_closure([{1, 2, 3}])
    assert got == {fs(1, 2), fs(1, 3), fs(2, 3), fs(1, 2, 3)}


def test_closure_index_of_one_triple():
    assert positives_for_mode([{1, 2, 3}], "closure").total == 4
    assert_index_holds([{1, 2, 3}], {fs(1, 2), fs(1, 3), fs(2, 3), fs(1, 2, 3)})


def test_closure_drops_singletons():
    assert positives_closure([{4}, {9}]) == frozenset()
    assert positives_closure([{4}, {1, 2}]) == {fs(1, 2)}


def test_closure_index_drops_singletons():
    assert positives_for_mode([{4}, {9}], "closure").total == 0
    assert_index_holds([{4}, {9}], frozenset())
    index = positives_for_mode([{4}, {1, 2}], "closure")
    assert fs(1, 2) in index and fs(4) not in index and fs(1) not in index
    assert index.total == 1
    assert_index_holds([{4}, {1, 2}], {fs(1, 2)})


def _random_truths():
    rng = random.Random(0)
    for _ in range(20):
        yield [
            frozenset(rng.sample(range(15), rng.randint(1, 6)))
            for _ in range(rng.randint(1, 5))
        ]


def _brute_force_closure(truth):
    expect = set()
    for pattern in truth:
        for size in range(2, len(pattern) + 1):
            expect.update(map(frozenset, itertools.combinations(pattern, size)))
    return expect


def test_closure_matches_brute_force_enumeration():
    for truth in _random_truths():
        assert positives_closure(truth) == _brute_force_closure(truth)


def test_closure_index_matches_brute_force_enumeration():
    for truth in _random_truths():
        assert_index_holds(truth, _brute_force_closure(truth))


def test_closure_is_subset_closed_and_idempotent():
    closure = positives_closure([{1, 2, 3, 4}, {3, 4, 5}])
    for itemset in closure:
        for size in range(2, len(itemset)):
            for sub in itertools.combinations(itemset, size):
                assert frozenset(sub) in closure
    assert positives_closure(closure) == closure


def test_closure_index_is_subset_closed_and_idempotent():
    truth = [{1, 2, 3, 4}, {3, 4, 5}]
    index = positives_for_mode(truth, "closure")
    closure = positives_closure(truth)
    for itemset in closure:
        assert itemset in index
        for size in range(2, len(itemset)):
            for sub in itertools.combinations(itemset, size):
                assert frozenset(sub) in index
    assert positives_for_mode(closure, "closure").total == index.total == len(closure)
    assert_index_holds(truth, closure)
    assert_index_holds(closure, closure)


def test_closure_total_of_big_and_overlapping_patterns():
    # listing these subsets one by one would not finish
    assert score([], [range(40)]).positives_total == 2**40 - 41
    # more positives than len() can return
    report = score([fs(0, 69), fs(0, 70)], [range(70)])
    assert report.positives_total == 2**70 - 71
    assert report.true_positives == 1 and report.false_positives == 1
    assert report.recall == 1 / (2**70 - 71)
    # two patterns sharing 40 of their 41 items
    shared = [range(41), [*range(40), 99]]
    assert positives_for_mode(shared, "closure").total == (2**41 - 42) + (2**40 - 1)
    eights = list(itertools.combinations(range(16), 8))
    assert positives_for_mode(eights, "closure").total == 39_186
    assert 39_186 == sum(math.comb(16, size) for size in range(2, 9))


# a truth and a mined list over one of ID_RANGES, every itemset a nonempty
# set of picks (indices into a pool of ids): patterns, then repeats of them;
# mined entries, each a subset of a pattern (picks among its items) or any
# itemset, then repeats of them; each mined entry a set or a record, and the
# truth a GroundTruth or a plain list. Fixed strategies, so no strategy is
# built per example.
PICKS = st.frozensets(st.integers(0, 7), min_size=1)
TRUTH_AND_MINED = st.tuples(
    st.sampled_from(ID_RANGES),
    st.lists(PICKS, max_size=6),
    st.lists(st.integers(0, 7), max_size=2),
    st.lists(st.tuples(st.booleans(), st.integers(0, 7), PICKS, st.booleans()), max_size=12),
    st.lists(st.tuples(st.integers(0, 14), st.booleans()), max_size=3),
    st.booleans())


def _truth_and_mined(ids, pattern_picks, repeats, entries, mined_repeats, as_truth):
    """Decode a TRUTH_AND_MINED draw: truths that repeat patterns, with
    overlapping and size-1 patterns, and mined lists of the patterns'
    subsets and other itemsets, with repeats, single items and records."""
    def items(picks, pool):
        return frozenset(pool[j % len(pool)] for j in picks)

    patterns = [items(picks, ids) for picks in pattern_picks]
    patterns += [patterns[i % len(patterns)] for i in repeats] if patterns else []
    mined = []
    for inside, pick, picks, row in entries:
        pool = sorted(patterns[pick % len(patterns)]) if inside and patterns else ids
        mined.append((items(picks, pool), row))
    mined += [(mined[i % len(mined)][0], row) for i, row in mined_repeats] if mined else []
    mined = [MinedItemset(tuple(sorted(s)), 1, 1, 1.0) if row else s for s, row in mined]
    if as_truth:
        distinct = set(patterns)
        return GroundTruth({p: 1 / len(distinct) for p in distinct}), mined
    return patterns, mined


def test_score_matches_oracle_closure_property():
    runs = 0
    hits = {"closure": 0, "maximal": 0}

    @settings(deadline=None, max_examples=300)
    @given(TRUTH_AND_MINED)
    def check(case):
        nonlocal runs
        truth, mined = _truth_and_mined(*case)
        patterns = list(getattr(truth, "patterns", truth))
        oracles = {"closure": positives_closure(truth),
                   "maximal": frozenset(p for p in patterns if len(p) >= 2)}
        # the mined list as drawn, and with a pattern of two items or more
        # added, which is a true positive in both modes
        planted = [p for p in patterns if len(p) >= 2][:1]
        for mode, oracle in oracles.items():
            for entries in (mined, mined + planted):
                report = score(entries, truth, scoring_mode=mode)
                assert report == _report(entries, oracle)
                assert report.positives_total == len(oracle)
            hits[mode] += report.true_positives > 0
        runs += 1

    check()
    # a floor per example run: every example whose truth has a pattern of
    # two items or more scores a true positive in both modes, 173 to 253 of
    # the 300 over hypothesis seeds 0-59, while the mined lists as drawn
    # scored one in only 104 to 198 (closure) and 59 to 171 (maximal)
    assert hits["closure"] >= runs / 3 and hits["maximal"] >= runs / 3, (runs, hits)


def test_score_perfect_and_disjoint():
    truth = GroundTruth({fs(1, 2, 3): 0.5, fs(4, 5): 0.5})
    closure = positives_closure(truth)

    perfect = score(closure, truth)
    assert perfect.precision == 1.0 and perfect.recall == 1.0
    assert perfect.true_positives == len(closure) == perfect.positives_total

    junk = score([fs(7, 8), fs(7, 9)], truth)
    assert junk.precision == 0.0 and junk.recall == 0.0
    assert junk.false_positives == 2


def test_score_half_and_half():
    truth = [frozenset(range(6))]
    closure = sorted(positives_closure(truth), key=sorted)
    half = closure[: len(closure) // 2]
    spurious = [frozenset({100 + i, 200 + i}) for i in range(len(half))]
    report = score(half + spurious, truth)
    assert report.precision == 0.5
    assert report.recall == pytest.approx(0.5, abs=0.02)


def test_score_drops_size_one_and_accepts_mixed_entry_types():
    truth = [{1, 2, 3}]
    mined = [
        MinedItemset(items=(1, 2), freq=5, sigma_freq=2, predicted_precision=0.9),
        (1, 3),
        fs(1, 2, 3),
        fs(9),  # size-1 entries are not associations and are ignored
        [2, 3],
    ]
    report = score(mined, truth)
    assert report.true_positives == 4 and report.false_positives == 0
    assert report.by_size == {2: (3, 0), 3: (1, 0)}


def test_score_empty_mined_reports_null_precision():
    report = score([], [{1, 2}])
    assert report.precision is None
    assert report.recall == 0.0
    assert report.by_size == {}
    only_singles = score([fs(5)], [{1, 2}])
    assert only_singles.precision is None


def test_score_no_positives_reports_null_recall():
    report = score([fs(1, 2)], [{7}])
    assert report.recall is None
    assert report.precision == 0.0


def test_score_maximal_mode_counts_patterns_only():
    truth = GroundTruth({fs(1, 2, 3): 1.0})
    mined = [fs(1, 2), fs(1, 2, 3)]
    closure = score(mined, truth)
    maximal = score(mined, truth, scoring_mode="maximal")
    assert closure.true_positives == 2
    assert maximal.true_positives == 1 and maximal.false_positives == 1
    assert maximal.positives_total == 1
    with pytest.raises(ValueError):
        score(mined, truth, scoring_mode="roc")


def test_score_adding_true_positive_improves():
    truth = [frozenset(range(5))]
    mined = [fs(0, 1), fs(50, 51)]
    base = score(mined, truth)
    more = score(mined + [fs(0, 2)], truth)
    assert more.recall > base.recall
    assert more.precision > base.precision


def test_grid_restrictions():
    assert pi_grid_for_theta(1.0) == PI_GRID
    assert pi_grid_for_theta(0.5) == tuple(pi for pi in PI_GRID if pi >= 0.5)
    assert pi_grid_for_theta(0.0) == tuple(pi for pi in PI_GRID if pi >= 0.8)
    assert min(pi_grid_for_theta(0.0)) == 0.8
    assert len(SUPPORT_GRID) == 10 and len(ALLCONF_GRID) == 11


def test_sweep_single_point_and_failure_capture():
    db, params, truth = _planted()

    entries = sweep(db, truth, nb_runs(params, 0.5, [0.95]))
    assert len(entries) == 1
    assert entries[0].method == "nb-theta0.5"
    assert entries[0].parameter == 0.95
    assert entries[0].error is None
    assert entries[0].report is not None

    def boom(db):
        raise RuntimeError("no such model")

    entries = sweep(db, truth, [("bad", 1.0, boom)] + support_runs([0.4]))
    assert entries[0].report is None
    assert "no such model" in entries[0].error
    assert entries[1].report is not None  # sweep continued past the failure


def test_sweep_mined_counts_grow_as_pi_drops():
    for seed in (16, 37):
        db, params, truth = _planted(seed)
        entries = sweep(db, truth, nb_runs(params, 0.5, [0.99, 0.9, 0.5]))
        counts = [e.mined_count for e in entries]
        assert counts == sorted(counts)
        for e in entries:
            assert e.error is None
            if e.mined_count:
                assert e.max_size >= 2
                assert e.report.true_positives + e.report.false_positives == e.mined_count


def test_sweep_baseline_runs():
    db, _, truth = _planted()
    entries = sweep(db, truth, support_runs([0.5, 0.2]) + allconf_runs([0.9]))
    assert [e.method for e in entries] == ["support", "support", "allconf"]
    assert entries[0].mined_count <= entries[1].mined_count
    for e in entries:
        assert e.error is None


def test_sweep_jobs_match_sequential():
    db, params, truth = _planted()
    runs = (nb_runs(params, 0.5, [0.9, 0.5]) + nb_runs(params, 0.5, [1.5])
            + [("support", 7.0, partial(mine_frequent, min_support=7))]
            + support_runs([0.2]) + allconf_runs([0.5]))
    sequential = sweep(db, truth, runs)
    assert sweep(db, truth, runs, jobs=2) == sequential
    errors = [e.error for e in sequential if e.error is not None]
    assert len(errors) == 2 and errors[1].startswith("ValueError: min_support")
    assert sum(e.report is not None for e in sequential) == 4


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    db, params, truth = _planted()
    sizes = []

    class RecordingPool:
        """A process pool stand-in: records its size, runs in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            # the workers hand back finished entries
            entries = list(map(fn, items))
            assert all(type(e) is SweepEntry for e in entries)
            return entries

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evaluation, "_WORKER_ARGS", None)
    runs = support_runs([0.5, 0.2])
    sequential = sweep(db, truth, runs)
    assert sweep(db, truth, runs, jobs=4) == sequential
    assert sizes == [2]
    # one run, or none, needs no pool at all
    assert sweep(db, truth, runs[:1], jobs=4) == sequential[:1]
    assert sweep(db, truth, [], jobs=4) == []
    assert sizes == [2]


def test_sweep_table_round_trip(tmp_path):
    db, params, truth = _planted()

    def boom(db):
        raise RuntimeError("skipped point")

    entries = sweep(
        db,
        truth,
        nb_runs(params, 0.5, [0.9]) + [("bad", 0.1, boom)] + support_runs([0.9, 0.2]),
    )
    path = tmp_path / "sweep.tsv"
    write_sweep(path, entries)
    rows = read_sweep(path)
    assert len(rows) == 3  # the failed point is not a table row
    ok = [e for e in entries if e.report is not None]
    for row, entry in zip(rows, ok):
        assert row["method"] == entry.method
        assert row["parameter"] == entry.parameter
        assert row["mined_count"] == entry.mined_count
        assert row["max_size"] == entry.max_size
        assert row["tp"] == entry.report.true_positives
        assert row["fp"] == entry.report.false_positives
        assert row["positives_total"] == entry.report.positives_total
        prec = entry.report.precision
        assert row["precision"] == (pytest.approx(prec) if prec is not None else None)
        rec = entry.report.recall
        assert row["recall"] == (pytest.approx(rec) if rec is not None else None)
    # support at 0.9 mines nothing: null precision survives the round trip
    assert rows[1]["mined_count"] == 0 and rows[1]["precision"] is None

    bad = tmp_path / "bad.tsv"
    bad.write_text("wrong\theader\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_sweep(bad)
    # a bad number names its file and line
    header = path.read_text(encoding="ascii").split("\n")[0]
    bad.write_text(header + "\nsupport\t0.2\tx\t2\t1\t0\t4\t1\t0.25\n", encoding="ascii")
    with pytest.raises(ValueError, match=":2:"):
        read_sweep(bad)


def _planted(seed=16):
    """A small random database with NB params plus a loose ground truth.

    The truth lists the planted blocks; blocks of size 1 exercise the
    size filter. Weights are arbitrary and normalized.
    """
    db, params = random_db_and_params(seed)
    rng = random.Random(seed)
    items = sorted({i for t in db for i in t})
    k = min(len(items), 4)
    patterns = {
        frozenset(rng.sample(items, rng.randint(1, k))) for _ in range(3)
    }
    weight = 1.0 / len(patterns)
    return db, params, GroundTruth({p: weight for p in patterns})
