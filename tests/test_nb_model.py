import math
import random

import numpy as np
import pytest

from nbminer.nbmodel import (
    ConvergenceError,
    FreqHistogram,
    NBParams,
    UnderdispersedError,
    expected_frequent_items,
    fit_database,
    fit_em,
    fit_moments,
    gof_chi2,
    nb_pmf,
    nb_pmf_prefix,
    nb_tail,
    read_model,
    trim_top,
    write_model,
)
from nbminer.transactions import TransactionDatabase

# Frozen oracle values: closed-form pmf evaluated with mpmath at 40 digits.
PMF_ORACLE = [
    (0.844, 118.141, 0, 0.0176931155010065533),
    (2.5, 7.0, 13, 0.0393820877849405822),
    (0.064, 386.297, 2, 0.0231318936353086579),
    (0.968, 242.265, 500, 0.000502371147697830506),
    (1.0, 1.0, 3, 0.0625),
    (5.0, 0.3, 4, 0.0534678705761096564),
]


def test_pmf_matches_oracle():
    for k, a, r, expect in PMF_ORACLE:
        assert nb_pmf(k, a, r) == pytest.approx(expect, rel=1e-12)


def test_pmf_zero_term_is_closed_form():
    assert nb_pmf(0.844, 118.141, 0) == pytest.approx(119.141 ** -0.844, rel=1e-12)


def test_pmf_geometric_case():
    # k=1, a=1 reduces to a geometric halving sequence
    for r in range(10):
        assert nb_pmf(1.0, 1.0, r) == pytest.approx(0.5 ** (r + 1), rel=1e-12)


def test_pmf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nb_pmf(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        nb_pmf(1.0, -2.0, 1)
    with pytest.raises(ValueError):
        nb_pmf(1.0, 1.0, -1)


def test_prefix_is_the_recursion():
    k, a = 0.73, 5.2
    p = nb_pmf_prefix(k, a, 50)
    assert p[0] == pytest.approx(math.exp(-k * math.log1p(a)), rel=1e-15)
    for r in range(50):
        step = (k + r) / (r + 1) * (a / (1 + a))
        assert p[r + 1] == pytest.approx(p[r] * step, rel=1e-12)


def test_prefix_matches_direct_pmf():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.uniform(0.01, 10.0)
        a = rng.uniform(0.01, 1000.0)
        r_max = rng.randint(1, 2000)
        prefix = nb_pmf_prefix(k, a, r_max)
        direct = nb_pmf(k, a, np.arange(r_max + 1))
        assert np.allclose(prefix, direct, rtol=1e-9, atol=1e-250)


def test_pmf_sums_to_one():
    for k, a in [(0.5, 2.0), (0.844, 1.164), (3.0, 0.5), (1.5, 10.0)]:
        total = nb_pmf_prefix(k, a, 5000).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


def test_model_moments():
    # mean a*k, variance a*k*(1+a)
    for k, a in [(0.8, 2.0), (2.0, 0.7), (0.3, 5.0)]:
        r = np.arange(0, 4000)
        p = nb_pmf_prefix(k, a, 3999)
        mean = float((r * p).sum())
        var = float((r * r * p).sum()) - mean * mean
        assert mean == pytest.approx(a * k, rel=1e-8)
        assert var == pytest.approx(a * k * (1 + a), rel=1e-8)


def test_tail_where_pr0_underflows():
    # Pr[0] = 2^-2000 is far below the smallest double; a negative binomial
    # tail is the regularized incomplete beta I_{a/(1+a)}(rho, k)
    from scipy.special import betainc
    k, a = 2000.0, 1.0
    for rho in (1500, 2000, 2100, 2300, 2600):
        assert nb_tail(k, a, rho) == pytest.approx(betainc(rho, k, a / (1 + a)),
                                                   rel=1e-9, abs=1e-12)
    prefix = nb_pmf_prefix(k, a, 2600)
    direct = nb_pmf(k, a, np.arange(2601))
    assert np.allclose(prefix, direct, rtol=1e-9, atol=1e-250)


def test_tail():
    assert nb_tail(1.0, 1.0, 0) == 1.0
    assert nb_tail(1.0, 1.0, 2) == pytest.approx(0.25, rel=1e-12)
    assert nb_tail(0.844, 1.164, 11) == pytest.approx(0.000741913822059697288, rel=1e-9)
    tails = [nb_tail(0.7, 3.0, rho) for rho in range(40)]
    assert all(x >= y for x, y in zip(tails, tails[1:]))
    assert all(0.0 <= t <= 1.0 for t in tails)


def test_fit_moments_example():
    k, a = fit_moments(99.711, 11879.543)
    assert k == pytest.approx(0.844, abs=1e-3)
    assert a == pytest.approx(118.14, abs=5e-2)


def test_fit_moments_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.uniform(0.01, 10.0)
        a = rng.uniform(0.01, 1000.0)
        k2, a2 = fit_moments(a * k, a * k * (1 + a))
        assert k2 == pytest.approx(k, rel=1e-9)
        assert a2 == pytest.approx(a, rel=1e-9)


def test_fit_moments_errors():
    with pytest.raises(UnderdispersedError):
        fit_moments(10.0, 10.0)
    with pytest.raises(UnderdispersedError):
        fit_moments(10.0, 4.0)
    with pytest.raises(ValueError):
        fit_moments(0.0, 5.0)


def test_trim_top_quota():
    hist = FreqHistogram({1: 300, 2: 30, 5: 10, 9: 2})  # 342 items
    trimmed, removed = trim_top(hist, 0.025)
    assert removed == 9  # ceil(0.025 * 342) = ceil(8.55)
    assert trimmed.total_items() == 333
    # drained from the top: both r=9 items and seven of the r=5 items
    assert trimmed.counts == {1: 300, 2: 30, 5: 3}


def test_trim_top_partial_class():
    trimmed, removed = trim_top(FreqHistogram({1: 10}), 0.05)
    assert removed == 1
    assert trimmed.counts == {1: 9}


def test_trim_top_zero_fraction():
    hist = FreqHistogram({1: 4, 3: 2})
    trimmed, removed = trim_top(hist, 0.0)
    assert removed == 0
    assert trimmed.counts == hist.counts


def test_trim_top_float_quota_guard():
    # 0.025 * 360 is exactly 9; float noise must not push the ceil to 10
    hist = FreqHistogram({1: 350, 4: 10})
    _, removed = trim_top(hist, 0.025)
    assert removed == 9


def test_trim_top_rejects_fraction():
    with pytest.raises(ValueError):
        trim_top(FreqHistogram({1: 5}), 1.0)
    with pytest.raises(ValueError):
        trim_top(FreqHistogram({1: 5}), -0.1)


def test_fit_em_with_n_known_is_single_pass():
    hist = FreqHistogram({1: 50, 2: 25, 3: 10, 6: 5, 12: 3})
    observed = hist.total_items()
    params = fit_em(hist, n_known=observed + 20)
    assert params.em_iterations == 0
    assert params.n_total == observed + 20
    mean, var = hist.moments(extra_zeros=20)
    k, a = fit_moments(mean, var)
    assert params.k == k and params.a == a


def test_fit_em_n_known_equal_to_observed():
    hist = FreqHistogram({1: 50, 2: 25, 3: 10, 6: 5, 12: 3})
    params = fit_em(hist, n_known=hist.total_items())
    assert params.n_total == hist.total_items()
    assert params.em_iterations == 0
    mean, var = hist.moments()
    assert (params.k, params.a) == fit_moments(mean, var)


def test_fit_em_errors():
    hist = FreqHistogram({1: 50, 2: 25, 3: 10})
    with pytest.raises(ValueError):
        fit_em(hist, n_known=10)  # below observed count
    with pytest.raises(ValueError):
        fit_em(FreqHistogram({0: 3, 1: 5}))  # zero class present
    with pytest.raises(UnderdispersedError):
        fit_em(FreqHistogram({5: 100}), n_known=100)  # no spread at all


def test_fit_em_recovers_simulated_model():
    # frequencies drawn from the model itself; the zero class is withheld
    rng = np.random.default_rng(42)
    k_true, a_true, n_items = 0.9, 60.0, 4000
    lam = rng.gamma(shape=k_true, scale=a_true, size=n_items)
    freqs = rng.poisson(lam)
    observed = freqs[freqs > 0]
    hist = FreqHistogram.from_frequencies(int(f) for f in observed)
    params = fit_em(hist)
    assert params.em_iterations >= 1
    assert params.k == pytest.approx(k_true, rel=0.15)
    assert params.a == pytest.approx(a_true, rel=0.15)
    assert params.n_total == pytest.approx(n_items, rel=0.05)
    assert params.n_total >= hist.total_items()


def test_fit_em_convergence_cap():
    hist = FreqHistogram({1: 50, 2: 25, 3: 10, 6: 5, 12: 3})
    with pytest.raises(ConvergenceError):
        fit_em(hist, max_iter=1)


def test_fit_database_pipeline():
    # database realized from the model itself: gamma rates, Poisson frequencies
    rng = np.random.default_rng(3)
    n_txns = 600
    rows = [[] for _ in range(n_txns)]
    lam = rng.gamma(shape=1.0, scale=50.0, size=300)
    for item, f in enumerate(rng.poisson(lam)):
        for t in rng.choice(n_txns, size=min(int(f), n_txns), replace=False):
            rows[t].append(item)
    db = TransactionDatabase(rows)
    params, trimmed = fit_database(db, trim_fraction=0.025)
    assert params.incidence_total == db.incidence_total
    assert params.transaction_count == len(db)
    assert params.trimmed_items == math.ceil(round(0.025 * len(db.item_freq), 9))
    assert trimmed.total_items() == len(db.item_freq) - params.trimmed_items
    assert params.n_total >= trimmed.total_items()


def test_rescaling():
    params = NBParams(k=0.8, a=100.0, n_total=500, incidence_total=20000,
                      transaction_count=1000, em_iterations=2, trimmed_items=0)
    assert params.a_per_incidence == 100.0 / 20000


def test_expected_frequent_items():
    params = NBParams(k=1.0, a=1.0, n_total=100, incidence_total=1000,
                      transaction_count=50, em_iterations=0, trimmed_items=0)
    # tail at 2 of the geometric case is 0.25
    assert expected_frequent_items(params, 2) == pytest.approx(25.0, rel=1e-12)
    assert expected_frequent_items(params, 0) == 100.0


def test_gof_exact_match_gives_zero():
    params = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=10000,
                      transaction_count=500, em_iterations=0, trimmed_items=0)
    pmf = nb_pmf_prefix(1.0, 1.0, 7)
    counts = {r: 1000 * pmf[r] for r in range(7)}
    counts[7] = 1000 * pmf[7] + 1000 * max(0.0, 1.0 - pmf.sum())
    res = gof_chi2(FreqHistogram(counts), params)
    assert res.chi2 == 0.0
    assert res.p_value == 1.0
    assert res.df >= 1


def test_gof_detects_mismatch():
    params = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=10000,
                      transaction_count=500, em_iterations=0, trimmed_items=0)
    # flat histogram, nothing like the geometric expectation
    hist = FreqHistogram({r: 125 for r in range(8)})
    res = gof_chi2(hist, params)
    assert res.chi2 > 50
    assert res.p_value < 1e-6


def test_gof_requires_enough_classes():
    params = NBParams(k=1.0, a=1.0, n_total=10, incidence_total=100,
                      transaction_count=50, em_iterations=0, trimmed_items=0)
    with pytest.raises(ValueError):
        gof_chi2(FreqHistogram({0: 5, 1: 5}), params)


def test_gof_merges_small_classes():
    # heavily skewed model: singletons merge until expectation reaches 5
    params = NBParams(k=0.1, a=500.0, n_total=50, incidence_total=100000,
                      transaction_count=5000, em_iterations=0, trimmed_items=0)
    hist = FreqHistogram({r: 1 for r in range(0, 200, 4)})
    res = gof_chi2(hist, params)
    assert res.df >= 1


def test_model_file_round_trip(tmp_path):
    params = NBParams(k=0.8441234567890123, a=118.14098765432101, n_total=339,
                      incidence_total=33802, transaction_count=2000,
                      em_iterations=3, trimmed_items=9)
    path = tmp_path / "m.model"
    write_model(params, path)
    again = read_model(path)
    assert again == params
    text = path.read_text()
    assert "k = " in text and "a_per_incidence = " in text
    # at least 12 significant digits survive
    assert "0.84412345678901" in text


def test_model_file_errors(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("k = 1.0\nnot a line\n")
    with pytest.raises(ValueError):
        read_model(path)
    path.write_text("k = 1.0\na = 2.0\n")
    with pytest.raises(ValueError, match="missing"):
        read_model(path)
    path.write_text(
        "k = 1.0\na = 2.0\na_per_incidence = 0.0002\nn_total = 10.5\n"
        "incidence_total = 10000\ntransaction_count = 100\n"
        "em_iterations = 0\ntrimmed_items = 0\n")
    with pytest.raises(ValueError, match="integer"):
        read_model(path)
    # a / incidence_total underflows: every conditional scale would be 0
    path.write_text(
        "k = 1.0\na = 1e-320\na_per_incidence = 0.0\nn_total = 10\n"
        "incidence_total = 1000000\ntransaction_count = 10\n"
        "em_iterations = 0\ntrimmed_items = 0\n")
    with pytest.raises(ValueError, match="a_per_incidence must be positive"):
        read_model(path)


def test_nbparams_validation():
    with pytest.raises(ValueError):
        NBParams(k=-1.0, a=1.0, n_total=10, incidence_total=100,
                 transaction_count=10, em_iterations=0, trimmed_items=0)
    with pytest.raises(ValueError):
        NBParams(k=1.0, a=1.0, n_total=0, incidence_total=100,
                 transaction_count=10, em_iterations=0, trimmed_items=0)
    with pytest.raises(ValueError):
        NBParams(k=1.0, a=1.0, n_total=10, incidence_total=100,
                 transaction_count=10, em_iterations=0, trimmed_items=0,
                 a_per_incidence=0.5)  # inconsistent with a / incidence_total
    with pytest.raises(ValueError, match="a_per_incidence must be positive"):
        NBParams(k=1.0, a=1e-320, n_total=10, incidence_total=10**6,
                 transaction_count=10, em_iterations=0, trimmed_items=0)
