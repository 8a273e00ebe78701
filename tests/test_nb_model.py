import math
import random
from collections import Counter

import numpy as np
import pytest

from nbminer import nbmodel
from nbminer.mining import _cdf
from nbminer.nbmodel import (
    _LOG_MIN_NORMAL,
    ConvergenceError,
    NBParams,
    UnderdispersedError,
    _fit_em,
    _moments,
    _trim_top,
    fit_database,
    fit_moments,
    gof_chi2,
    nb_pmf_prefix,
    read_model,
    write_model,
)
from nbminer.transactions import TransactionDatabase

from _oracles import oracle_pmf_array, oracle_pmf_prefix

# Frozen oracle values: closed-form pmf evaluated with mpmath at 40 digits.
PMF_ORACLE = [
    (0.844, 118.141, 0, 0.0176931155010065533),
    (2.5, 7.0, 13, 0.0393820877849405822),
    (0.064, 386.297, 2, 0.0231318936353086579),
    (0.968, 242.265, 500, 0.000502371147697830506),
    (1.0, 1.0, 3, 0.0625),
    (5.0, 0.3, 4, 0.0534678705761096564),
]


def pmf(k, a, r):
    """Pr[frequency = r], the last term of the recursion's prefix."""
    return nb_pmf_prefix(k, a, r)[r]


def scan_tail(k, a, rho):
    """Pr[frequency >= rho] as the threshold scan computes it, for rho >= 1."""
    return min(1.0, max(0.0, 1.0 - _cdf(k, a, rho - 1)[-1]))


def test_pmf_matches_oracle():
    for k, a, r, expect in PMF_ORACLE:
        assert pmf(k, a, r) == pytest.approx(expect, rel=1e-12)


def test_pmf_zero_term_is_closed_form():
    assert pmf(0.844, 118.141, 0) == pytest.approx(119.141 ** -0.844, rel=1e-12)


def test_pmf_geometric_case():
    # k=1, a=1 reduces to a geometric halving sequence
    for r in range(10):
        assert pmf(1.0, 1.0, r) == pytest.approx(0.5 ** (r + 1), rel=1e-12)


def test_pmf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pmf(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        pmf(1.0, -2.0, 1)
    with pytest.raises(ValueError):
        pmf(1.0, 1.0, -1)


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
        direct = oracle_pmf_array(k, a, np.arange(r_max + 1))
        assert np.allclose(prefix, direct, rtol=1e-9, atol=1e-250)


def test_prefix_equals_numpy_recursion_exactly():
    # the recursion runs on Python floats; each step must round as numpy's
    # elementwise factors and cumprod do, so every term is bit for bit equal
    rng = random.Random(11)
    branches = {False: 0, True: 0}
    for _ in range(1000):
        if rng.random() < 0.5:
            k, a = 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-3, 3)
        else:
            # Pr[0] = (1+a)^(-k) mostly below the smallest normal double
            k, a = 10 ** rng.uniform(3, 5), 10 ** rng.uniform(-0.5, 2)
        r_max = rng.choice([0, rng.randint(1, 40), rng.randint(41, 10_000)])
        branches[-k * math.log1p(a) < _LOG_MIN_NORMAL] += 1
        got = nb_pmf_prefix(k, a, r_max)
        expect = oracle_pmf_prefix(k, a, r_max)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert (got == expect).all(), (k, a, r_max)
    assert min(branches.values()) >= 300, branches


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
        assert scan_tail(k, a, rho) == pytest.approx(betainc(rho, k, a / (1 + a)),
                                                     rel=1e-9, abs=1e-12)
    prefix = nb_pmf_prefix(k, a, 2600)
    direct = oracle_pmf_array(k, a, np.arange(2601))
    assert np.allclose(prefix, direct, rtol=1e-9, atol=1e-250)


def test_tail():
    assert scan_tail(1.0, 1.0, 1) == pytest.approx(0.5, rel=1e-12)
    assert scan_tail(1.0, 1.0, 2) == pytest.approx(0.25, rel=1e-12)
    assert scan_tail(0.844, 1.164, 11) == pytest.approx(0.000741913822059697288, rel=1e-9)
    tails = [scan_tail(0.7, 3.0, rho) for rho in range(1, 40)]
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
    hist = {1: 300, 2: 30, 5: 10, 9: 2}  # 342 items
    trimmed, removed = _trim_top(hist, 0.025)
    assert removed == 9  # ceil(0.025 * 342) = ceil(8.55)
    assert sum(trimmed.values()) == 333
    # drained from the top: both r=9 items and seven of the r=5 items
    assert trimmed == {1: 300, 2: 30, 5: 3}


def test_trim_top_partial_class():
    trimmed, removed = _trim_top({1: 10}, 0.05)
    assert removed == 1
    assert trimmed == {1: 9}


def test_trim_top_zero_fraction():
    hist = {1: 4, 3: 2}
    trimmed, removed = _trim_top(hist, 0.0)
    assert removed == 0
    assert trimmed == hist


def test_trim_top_float_quota_guard():
    # 0.025 * 360 is exactly 9; float noise must not push the ceil to 10
    hist = {1: 350, 4: 10}
    _, removed = _trim_top(hist, 0.025)
    assert removed == 9


def test_trim_top_rejects_fraction():
    with pytest.raises(ValueError):
        _trim_top({1: 5}, 1.0)
    with pytest.raises(ValueError):
        _trim_top({1: 5}, -0.1)


def test_fit_em_with_n_known_is_single_pass():
    hist = {1: 50, 2: 25, 3: 10, 6: 5, 12: 3}
    observed = sum(hist.values())
    k, a, n_total, iterations = _fit_em(hist, n_known=observed + 20)
    assert iterations == 0
    assert n_total == observed + 20
    mean, var = _moments(hist, extra_zeros=20)
    assert (k, a) == fit_moments(mean, var)


def test_fit_em_n_known_equal_to_observed():
    hist = {1: 50, 2: 25, 3: 10, 6: 5, 12: 3}
    k, a, n_total, iterations = _fit_em(hist, n_known=sum(hist.values()))
    assert n_total == sum(hist.values())
    assert iterations == 0
    mean, var = _moments(hist)
    assert (k, a) == fit_moments(mean, var)


def test_fit_em_errors():
    hist = {1: 50, 2: 25, 3: 10}
    with pytest.raises(ValueError):
        _fit_em(hist, n_known=10)  # below observed count
    with pytest.raises(UnderdispersedError):
        _fit_em({5: 100}, n_known=100)  # no spread at all


def test_fit_em_recovers_simulated_model():
    # frequencies drawn from the model itself; the zero class is withheld
    rng = np.random.default_rng(42)
    k_true, a_true, n_items = 0.9, 60.0, 4000
    lam = rng.gamma(shape=k_true, scale=a_true, size=n_items)
    freqs = rng.poisson(lam)
    observed = freqs[freqs > 0]
    hist = dict(Counter(int(f) for f in observed))
    k, a, n_total, iterations = _fit_em(hist)
    assert iterations >= 1
    assert k == pytest.approx(k_true, rel=0.15)
    assert a == pytest.approx(a_true, rel=0.15)
    assert n_total == pytest.approx(n_items, rel=0.05)
    assert n_total >= sum(hist.values())


def test_fit_em_convergence_cap(monkeypatch):
    monkeypatch.setattr(nbmodel, "_EM_MAX_ITER", 1)
    hist = {1: 50, 2: 25, 3: 10, 6: 5, 12: 3}
    with pytest.raises(ConvergenceError):
        _fit_em(hist)


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
    assert sum(trimmed.values()) == len(db.item_freq) - params.trimmed_items
    assert params.n_total >= sum(trimmed.values())


# write_model text of fit_database on the golden database (862 items), frozen
# from the fit as first written: every real to 17 digits, at the default trim,
# with no trim, and with a known item count of 862 + 50
GOLDEN_FITS = [
    ({}, """k = 6.6924078386657078
a = 0.44834505396966851
a_per_incidence = 0.00015030005161571186
n_total = 917
incidence_total = 2983
transaction_count = 300
em_iterations = 8
trimmed_items = 22
"""),
    ({"trim_fraction": 0.0}, """k = 3.5431530983756203
a = 0.87098416020643443
a_per_incidence = 0.00029198262159116139
n_total = 967
incidence_total = 2983
transaction_count = 300
em_iterations = 9
trimmed_items = 0
"""),
    ({"n_known": 912}, """k = 6.9559283847181153
a = 0.43349366330705513
a_per_incidence = 0.00014532137556388036
n_total = 912
incidence_total = 2983
transaction_count = 300
em_iterations = 0
trimmed_items = 22
"""),
]


@pytest.mark.parametrize("kwargs, text", GOLDEN_FITS)
def test_fit_database_golden_model(golden_db_and_params, kwargs, text, tmp_path):
    db, _ = golden_db_and_params
    assert len(db.item_freq) == 862
    params, _ = fit_database(db, **kwargs)
    write_model(params, tmp_path / "m.model")
    assert (tmp_path / "m.model").read_text(encoding="utf-8") == text


def test_gof_chi2_golden(golden_db_and_params):
    db, _ = golden_db_and_params
    params, hist = fit_database(db)
    assert tuple(gof_chi2(hist, params)) == (21.021105580697153, 8, 0.007091575424293559)


def test_rescaling():
    params = NBParams(k=0.8, a=100.0, n_total=500, incidence_total=20000,
                      transaction_count=1000, em_iterations=2, trimmed_items=0)
    assert params.a_per_incidence == 100.0 / 20000


def test_gof_exact_match_gives_zero():
    params = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=10000,
                      transaction_count=500, em_iterations=0, trimmed_items=0)
    pmf = nb_pmf_prefix(1.0, 1.0, 7)
    counts = {r: 1000 * pmf[r] for r in range(7)}
    counts[7] = 1000 * pmf[7] + 1000 * max(0.0, 1.0 - pmf.sum())
    res = gof_chi2(counts, params)
    assert res.chi2 == 0.0
    assert res.p_value == 1.0
    assert res.df >= 1


def test_gof_detects_mismatch():
    params = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=10000,
                      transaction_count=500, em_iterations=0, trimmed_items=0)
    # flat histogram, nothing like the geometric expectation
    hist = {r: 125 for r in range(8)}
    res = gof_chi2(hist, params)
    assert res.chi2 > 50
    assert res.p_value < 1e-6


def test_gof_counts_unseen_items_in_class_zero():
    # the model holds 1000 items, the observed histogram 640 of them
    params = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=10000,
                      transaction_count=500, em_iterations=0, trimmed_items=0)
    observed = {r: 125 - 10 * r for r in range(1, 9)}
    with_zero = {0: 360, **observed}
    assert round(sum(with_zero.values())) == params.n_total
    assert gof_chi2(observed, params) == gof_chi2(with_zero, params)


def test_gof_requires_enough_classes():
    params = NBParams(k=1.0, a=1.0, n_total=10, incidence_total=100,
                      transaction_count=50, em_iterations=0, trimmed_items=0)
    with pytest.raises(ValueError):
        gof_chi2({0: 5, 1: 5}, params)


def test_gof_rejects_bad_histograms():
    params = NBParams(k=1.0, a=1.0, n_total=1000, incidence_total=10000,
                      transaction_count=500, em_iterations=0, trimmed_items=0)
    good = {r: 125 for r in range(8)}
    for bad in ({-1: 5}, {8.5: 5}, {"3": 5}, {3: -1}, {3: float("nan")}):
        with pytest.raises(ValueError, match="non-negative int class"):
            gof_chi2({**good, **bad}, params)


def test_gof_merges_small_classes():
    # heavily skewed model: singletons merge until expectation reaches 5
    params = NBParams(k=0.1, a=500.0, n_total=50, incidence_total=100000,
                      transaction_count=5000, em_iterations=0, trimmed_items=0)
    hist = {r: 1 for r in range(0, 200, 4)}
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
    # a_per_incidence must be a / incidence_total
    path.write_text(
        "k = 1.0\na = 1.0\na_per_incidence = 0.5\nn_total = 10\n"
        "incidence_total = 100\ntransaction_count = 10\n"
        "em_iterations = 0\ntrimmed_items = 0\n")
    with pytest.raises(ValueError, match=r"bad\.model: inconsistent a_per_incidence"):
        read_model(path)


def test_read_model_names_its_file_when_nbparams_refuses(tmp_path):
    # NBParams checks the values after every line is read; its error still
    # names the file
    path = tmp_path / "tiny.model"
    model = ("k = 1.0\na = {}\na_per_incidence = 0.0\nn_total = {}\n"
             "incidence_total = 1000000\ntransaction_count = 10\n"
             "em_iterations = 0\ntrimmed_items = 0\n")
    path.write_text(model.format("1e-320", 10))
    with pytest.raises(ValueError, match=r"tiny\.model: a_per_incidence must be positive"):
        read_model(path)
    path.write_text(model.format("0.0", 10))
    with pytest.raises(ValueError, match=r"tiny\.model: scale a must be positive"):
        read_model(path)
    path.write_text(model.format("1e-320", 0))
    with pytest.raises(ValueError, match=r"tiny\.model: n_total must be at least 1"):
        read_model(path)


def test_nbparams_validation():
    with pytest.raises(ValueError):
        NBParams(k=-1.0, a=1.0, n_total=10, incidence_total=100,
                 transaction_count=10, em_iterations=0, trimmed_items=0)
    with pytest.raises(ValueError):
        NBParams(k=1.0, a=1.0, n_total=0, incidence_total=100,
                 transaction_count=10, em_iterations=0, trimmed_items=0)
    with pytest.raises(TypeError):  # derived from a / incidence_total, not given
        NBParams(k=1.0, a=1.0, n_total=10, incidence_total=100,
                 transaction_count=10, em_iterations=0, trimmed_items=0,
                 a_per_incidence=0.01)
    with pytest.raises(ValueError, match="a_per_incidence must be positive"):
        NBParams(k=1.0, a=1e-320, n_total=10, incidence_total=10**6,
                 transaction_count=10, em_iterations=0, trimmed_items=0)
