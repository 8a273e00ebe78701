"""Release acceptance: twelve end-to-end checks with explicit tolerances.

One test per numbered criterion, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.  Each test also prints the
measured values behind its verdict.

The desk-scale checks (7, 8, 9, 12) share one generated dataset: the
artif-2 preset scaled to 20,000 transactions at seed 1.  They are spot
checks with widened bands; the full-size comparisons (100k transactions,
complete grids) take hours and are out of scope here. The itemset file of
the desk run is also pinned by its SHA-256, so the search's output at this
scale cannot change unseen.
"""

import hashlib
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from nbminer.baselines import mine_allconf, mine_frequent
from nbminer.evaluation import nb_runs, score, support_runs, sweep
from nbminer.mining import (MinerConfig, find_threshold, nb_dfs, nb_select, predicted_precision,
                            write_itemsets)
from nbminer.nbmodel import fit_database, fit_moments, nb_pmf_prefix
from nbminer.synthgen import generate, preset_config
from nbminer.transactions import TransactionDatabase, write_basket

from _oracles import (
    oracle_allconf_sets,
    oracle_nb_frequent,
    oracle_pmf_array,
    oracle_support_sets,
)
from test_mining import EXAMPLE_A, EXAMPLE_HIST, EXAMPLE_K, EXAMPLE_N, random_db_and_params

GRID_THETAS = (0.0, 0.5, 1.0)
GRID_PIS = (0.3, 0.5, 0.9, 0.99)
N_SMALL_DBS = 100
DESK_SEED = 1


@pytest.fixture(scope="module")
def small_dbs():
    """100 seeded random databases (<= 12 items, <= 60 transactions)."""
    return [random_db_and_params(seed) for seed in range(N_SMALL_DBS)]


@pytest.fixture(scope="module")
def dfs_grid(small_dbs):
    """Miner output for every database x theta x pi grid point, timed."""
    t0 = time.perf_counter()
    results = {}
    for seed, (db, params) in enumerate(small_dbs):
        for theta in GRID_THETAS:
            for pi in GRID_PIS:
                mined = nb_dfs(db, MinerConfig(params, pi=pi, theta=theta))
                results[seed, theta, pi] = {frozenset(m.items): m.freq for m in mined}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_data():
    """The shared 20k-transaction dataset, with its fitted model, timed."""
    t0 = time.perf_counter()
    db, truth = generate(preset_config("artif-2", n_transactions=20_000, seed=DESK_SEED))
    params, _ = fit_database(db)
    return db, truth, params, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_mined(desk_data):
    """The pi=0.95, theta=0.5 run on the shared dataset, timed."""
    db, _, params, _ = desk_data
    t0 = time.perf_counter()
    mined = nb_dfs(db, MinerConfig(params, pi=0.95, theta=0.5))
    return mined, time.perf_counter() - t0


def test_criterion_01_threshold_worked_example():
    """Reference worked example: precisions within 5e-5, threshold 11, < 1 ms."""
    args = (EXAMPLE_HIST, EXAMPLE_N, EXAMPLE_K, EXAMPLE_A)
    predicted_precision(*args, 10)  # warm up allocators before timing
    t0 = time.perf_counter()
    p10 = predicted_precision(*args, 10)
    p11 = predicted_precision(*args, 11)
    sigma = find_threshold(*args, 0.95)
    elapsed = time.perf_counter() - t0

    assert abs(p10 - 0.92108) <= 5e-5
    assert abs(p11 - 0.95811) <= 5e-5
    assert sigma == 11
    assert elapsed < 1e-3
    print(f"criterion 1: precision(10)={p10:.7f} (ref 0.92108), "
          f"precision(11)={p11:.7f} (ref 0.95811), sigma={sigma}, "
          f"{elapsed * 1e6:.0f}us")


def test_criterion_02_moment_fit_recovery():
    """fit_moments(99.711, 11879.543): k within 0.844+-0.001, a within 118.14+-0.05."""
    fit_moments(99.711, 11879.543)
    t0 = time.perf_counter()
    k, a = fit_moments(99.711, 11879.543)
    elapsed = time.perf_counter() - t0

    assert abs(k - 0.844) <= 1e-3
    assert abs(a - 118.14) <= 0.05
    assert elapsed < 1e-3
    print(f"criterion 2: k={k:.6f} a={a:.4f}, {elapsed * 1e6:.0f}us")


def test_criterion_03_pmf_recursion_matches_direct():
    """200 random (k, a), r <= 10^4: recursion within 1e-9 relative of direct."""
    rng = np.random.default_rng(20260818)
    r = np.arange(10_001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = 10.0 ** rng.uniform(-2, 1)       # (0.01, 10)
        a = 10.0 ** rng.uniform(-2, 3)       # (0.01, 1000)
        direct = oracle_pmf_array(k, a, r)
        prefix = nb_pmf_prefix(k, a, 10_000)
        # below the denormal floor both routes round to numerical zero
        live = direct > 1e-250
        assert np.all(prefix[~live] <= 1e-250)
        rel = np.abs(prefix[live] - direct[live]) / direct[live]
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"criterion 3: max relative deviation {worst:.3g}, {elapsed:.2f}s")


def test_criterion_04_miner_matches_levelwise_oracle(small_dbs, dfs_grid):
    """Miner output set-equal to the exhaustive level-wise evaluator, < 60 s;
    at least 100 of the comparisons have itemsets to compare."""
    results, dfs_elapsed = dfs_grid
    t0 = time.perf_counter()
    nonempty = records = 0
    for seed, (db, params) in enumerate(small_dbs):
        for theta in GRID_THETAS:
            for pi in GRID_PIS:
                expect = oracle_nb_frequent(db, params, pi, theta)
                assert results[seed, theta, pi] == expect, (seed, theta, pi)
                nonempty += bool(expect)
                records += len(expect)
    elapsed = dfs_elapsed + time.perf_counter() - t0

    assert elapsed < 60.0
    assert nonempty >= 100
    runs = len(results)
    print(f"criterion 4: {runs} runs on {N_SMALL_DBS} databases equal the "
          f"oracle ({nonempty} non-empty, {records} itemsets), {elapsed:.1f}s")


def test_criterion_05_baselines_match_enumeration(small_dbs):
    """Support and all-confidence miners equal exhaustive enumeration, < 60 s."""
    t0 = time.perf_counter()
    checks = 0
    for db, _ in small_dbs:
        for sigma in (0.5, 0.25, 0.12):
            got = {frozenset(f.items): f.freq for f in mine_frequent(db, sigma)}
            assert got == oracle_support_sets(db, sigma)
            checks += 1
        for gamma in (0.7, 0.4, 0.2):
            got = {frozenset(f.items): f.freq for f in mine_allconf(db, gamma)}
            assert got == oracle_allconf_sets(db, gamma)
            checks += 1
    elapsed = time.perf_counter() - t0

    assert elapsed < 60.0
    print(f"criterion 5: {checks} miner/oracle comparisons agree, {elapsed:.1f}s")


def test_criterion_06_threshold_forms_admit_identically(small_dbs, dfs_grid):
    """Count-threshold and derived confidence-threshold admit the same sets.

    For every itemset emitted in criterion 4's runs and every base it can
    extend from, with sigma the threshold `nb_select` finds for that base,
    the candidates admitted by `count >= sigma` must be exactly
    those admitted by `confidence >= sigma-support / base-support`, with the
    confidence form evaluated in exact rational arithmetic.
    """
    results, _ = dfs_grid
    checked_bases = 0
    seen = set()
    for (seed, _, pi), mined in results.items():
        db, params = small_dbs[seed]
        n_txn = len(db)
        for itemset in mined:
            for dropped in itemset:
                base = itemset - {dropped}
                key = (seed, pi, base)
                if key in seen:
                    continue
                seen.add(key)
                sel = nb_select(db, base, params, pi)
                sigma = sel.sigma_freq
                if sigma is None:
                    continue
                by_count = {c for c, cnt in sel.counts.items() if cnt >= sigma}
                n_cond = sum(1 for t in db.transactions if base.issubset(t))
                support_base = Fraction(n_cond, n_txn)
                derived_conf = Fraction(sigma, n_txn) / support_base
                by_conf = {
                    c for c, cnt in sel.counts.items()
                    if Fraction(cnt, n_txn) / support_base >= derived_conf
                }
                assert by_count == by_conf, (seed, pi, sorted(base))
                checked_bases += 1

    assert checked_bases > 0
    print(f"criterion 6: admission sets coincide on {checked_bases} bases")


def test_criterion_07_actual_precision_in_band(desk_data, desk_mined):
    """artif-2 at 20k, theta=0.5, pi=0.95: scored precision in [0.88, 1], < 2 min."""
    _, truth, _, prep_elapsed = desk_data
    mined, mine_elapsed = desk_mined
    t0 = time.perf_counter()
    report = score(mined, truth)
    elapsed = prep_elapsed + mine_elapsed + time.perf_counter() - t0

    assert report.precision is not None
    assert 0.88 <= report.precision <= 1.0
    assert elapsed < 120.0
    print(f"criterion 7: {len(mined)} itemsets, precision={report.precision:.4f} "
          f"(band [0.88, 1.0]), recall={report.recall:.4f}, {elapsed:.1f}s")


def test_criterion_08_dominates_support_sweep(desk_data):
    """theta=0.5 sweep beats the best support-sweep precision at recall >= 0.2/0.3/0.4."""
    db, truth, params, _ = desk_data
    t0 = time.perf_counter()
    nb_entries = sweep(db, truth, nb_runs(params, 0.5))
    sup_entries = sweep(db, truth, support_runs())
    elapsed = time.perf_counter() - t0

    def best_at(entries, rho):
        vals = [e.report.precision for e in entries
                if e.report is not None and e.report.precision is not None
                and e.report.recall is not None and e.report.recall >= rho]
        return max(vals, default=None)

    wins = 0
    detail = []
    for rho in (0.2, 0.3, 0.4):
        nb_best, sup_best = best_at(nb_entries, rho), best_at(sup_entries, rho)
        assert nb_best is not None and sup_best is not None
        wins += nb_best >= sup_best
        detail.append(f"recall>={rho}: nb={nb_best:.6f} support={sup_best:.6f}")

    assert wins >= 3
    print(f"criterion 8: {'; '.join(detail)}; {elapsed:.1f}s")


def test_criterion_09_required_support_falls_with_size(desk_data, desk_mined):
    """Median admitted-threshold support is non-increasing in itemset size."""
    db, _, _, _ = desk_data
    mined, _ = desk_mined
    by_size = {}
    for m in mined:
        by_size.setdefault(len(m.items), []).append(m.sigma_freq / len(db))
    sizes = sorted(by_size)
    medians = [statistics.median(by_size[s]) for s in sizes]

    assert sizes[0] == 2 and len(sizes) >= 3
    for prev, nxt in zip(medians, medians[1:]):
        assert prev >= nxt
    print("criterion 9: median sigma_freq/|D| by size "
          + " ".join(f"{s}:{m:.5f}" for s, m in zip(sizes, medians)))


def test_criterion_10_threshold_monotonicity(dfs_grid):
    """Tightening pi or theta never adds itemsets (set inclusion both ways);
    at least 300 of the checks have itemsets on the looser side."""
    results, _ = dfs_grid
    comparisons = nonempty = 0
    for seed in range(N_SMALL_DBS):
        for theta in GRID_THETAS:
            for tight, loose in ((0.99, 0.9), (0.9, 0.5), (0.5, 0.3)):
                assert set(results[seed, theta, tight]) <= set(results[seed, theta, loose])
                comparisons += 1
                nonempty += bool(results[seed, theta, loose])
        for pi in GRID_PIS:
            assert set(results[seed, 1.0, pi]) <= set(results[seed, 0.5, pi])
            assert set(results[seed, 0.5, pi]) <= set(results[seed, 0.0, pi])
            comparisons += 2
            nonempty += bool(results[seed, 0.5, pi]) + bool(results[seed, 0.0, pi])
    assert nonempty >= 300
    print(f"criterion 10: {comparisons} inclusion checks hold, {nonempty} "
          f"with a non-empty looser side")


def test_criterion_11_generator_mean_and_determinism(tmp_path):
    """artif-1 at 20k: mean size within 10+-0.5, bit-identical reruns, < 30 s."""
    config = preset_config("artif-1", n_transactions=20_000, seed=DESK_SEED)
    t0 = time.perf_counter()
    db1, truth1 = generate(config)
    db2, truth2 = generate(config)
    elapsed = time.perf_counter() - t0
    mean = db1.incidence_total / len(db1)

    assert abs(mean - 10.0) <= 0.5
    assert db1 == db2
    assert truth1.patterns == truth2.patterns
    first, second = tmp_path / "a.basket", tmp_path / "b.basket"
    write_basket(db1, first)
    write_basket(db2, second)
    assert first.read_bytes() == second.read_bytes()
    assert elapsed < 30.0
    print(f"criterion 11: mean size {mean:.4f} (band 10+-0.5), reruns identical, "
          f"{elapsed:.1f}s")


def test_criterion_12_mining_time_scales_linearly(desk_data):
    """Mining time over 5k/10k/20k samples fits a line with R^2 >= 0.9.

    Each size is timed as the fastest of three runs, and the sizes take
    turns, so a spell of other load on the machine does not decide the fit."""
    db, _, _, _ = desk_data
    sizes = (5_000, 10_000, 20_000)
    runs = []
    for n in sizes:
        sample = TransactionDatabase(db.transactions[:n])
        runs.append((sample, MinerConfig(fit_database(sample)[0], pi=0.95, theta=0.5)))
    times = [float("inf")] * len(sizes)
    for _ in range(3):
        for j, (sample, config) in enumerate(runs):
            t0 = time.perf_counter()
            nb_dfs(sample, config)
            times[j] = min(times[j], time.perf_counter() - t0)

    x, y = np.asarray(sizes, dtype=float), np.asarray(times)
    residual = y - np.polyval(np.polyfit(x, y, 1), x)
    r2 = 1.0 - (residual @ residual) / ((y - y.mean()) @ (y - y.mean()))

    assert r2 >= 0.9
    print("criterion 12: times "
          + " ".join(f"{n}:{t:.2f}s" for n, t in zip(sizes, times))
          + f", R^2={r2:.4f}")


# SHA-256 of the itemset file of the desk run (artif-2, 20k transactions,
# seed 1, pi 0.95, theta 0.5, the model from fit_database): 13,483 itemsets.
DESK_ITEMSETS_SHA256 = "579972a3b8350b5398b29a262d10b5b5790600896a45b3f199c5a6886d8bd039"


def test_desk_itemsets_digest(desk_mined, tmp_path):
    """The desk run writes the itemset file it always has, byte for byte."""
    mined, _ = desk_mined
    path = tmp_path / "desk.itemsets"
    write_itemsets(path, mined)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_ITEMSETS_SHA256
