"""Gamma-Poisson baseline model for item frequencies.

Items are modeled as independent Poisson processes whose rates follow a
Gamma distribution; the frequency of a random item in a fixed stretch of
transactions is then negative-binomial with shape ``k`` and scale ``a``
(mean ``a*k``, variance ``a*k*(1+a)``). Fitting uses the method of moments,
with an EM-style loop that estimates how many items were never observed
(the zero frequency class). ``a`` rescales linearly with the number of
incidences looked at, which is what lets one global fit supply a local
baseline for any conditional database.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .transactions import TransactionDatabase

# below this log, exp() leaves the normal doubles and loses its digits
_LOG_MIN_NORMAL = math.log(sys.float_info.min)


class UnderdispersedError(ValueError):
    """Observed variance did not exceed the mean; no valid fit exists."""


class ConvergenceError(RuntimeError):
    """The zero-class iteration did not converge within max_iter."""


@dataclass(frozen=True)
class FreqHistogram:
    """Frequency histogram: maps frequency r to the number of items seen r times.

    Values may be fractional (the estimated zero class is real-valued while
    the fit iterates).
    """

    counts: dict

    def __post_init__(self):
        for r, c in self.counts.items():
            if not isinstance(r, int) or r < 0:
                raise ValueError(f"frequency classes must be non-negative ints, got {r!r}")
            if c < 0:
                raise ValueError(f"negative count {c!r} for frequency {r}")

    @classmethod
    def from_database(cls, db: TransactionDatabase) -> "FreqHistogram":
        return cls(dict(Counter(db.item_freq.values())))

    @classmethod
    def from_frequencies(cls, freqs) -> "FreqHistogram":
        return cls(dict(Counter(freqs)))

    def total_items(self):
        return sum(self.counts.values())

    def total_incidence(self):
        return sum(r * c for r, c in self.counts.items())

    def max_frequency(self) -> int:
        return max((r for r, c in self.counts.items() if c > 0), default=0)

    def moments(self, extra_zeros=0.0):
        """Sample mean and variance (ddof=1), optionally with extra zero entries."""
        n = self.total_items() + extra_zeros
        if n <= 1:
            raise ValueError("need more than one item to compute moments")
        s1 = sum(r * c for r, c in self.counts.items())
        s2 = sum(r * r * c for r, c in self.counts.items())
        mean = s1 / n
        var = (s2 - n * mean * mean) / (n - 1)
        return mean, var


@dataclass(frozen=True)
class NBParams:
    """A fitted baseline model plus the bookkeeping needed to reuse it.

    ``a`` is the scale at the full size of the fitted database;
    ``a_per_incidence = a / incidence_total`` is the size-free form that
    gets rescaled to conditional databases, so it must not underflow to 0.
    ``n_total`` as ``fit_em`` sets it counts the fitted items plus the zero
    class; items removed by trimming are not added back, so a trimmed fit
    has fewer items than its basket.
    """

    k: float
    a: float
    n_total: int
    incidence_total: int
    transaction_count: int
    em_iterations: int
    trimmed_items: int
    a_per_incidence: float = None

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"shape k must be positive, got {self.k}")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"scale a must be positive, got {self.a}")
        if self.n_total < 1:
            raise ValueError(f"n_total must be at least 1, got {self.n_total}")
        if self.incidence_total <= 0:
            raise ValueError(f"incidence_total must be positive, got {self.incidence_total}")
        if self.transaction_count < 1:
            raise ValueError(f"transaction_count must be positive, got {self.transaction_count}")
        if self.em_iterations < 0 or self.trimmed_items < 0:
            raise ValueError("em_iterations and trimmed_items must be non-negative")
        derived = self.a / self.incidence_total
        if self.a_per_incidence is None:
            object.__setattr__(self, "a_per_incidence", derived)
        elif not math.isclose(self.a_per_incidence, derived, rel_tol=1e-9):
            raise ValueError(
                f"inconsistent a_per_incidence {self.a_per_incidence!r} "
                f"(a/incidence_total = {derived!r})")
        if not self.a_per_incidence > 0:
            # every conditional scale a_l is a_per_incidence times a count
            raise ValueError(f"a_per_incidence must be positive, got "
                             f"{self.a_per_incidence!r} (a/incidence_total underflows)")


class GofResult(NamedTuple):
    chi2: float
    df: int
    p_value: float


def nb_pmf(k: float, a: float, r):
    """Pr[frequency = r] under the model, for an int r or an array of ints."""
    if not (k > 0 and a > 0):
        raise ValueError(f"model parameters must be positive, got k={k}, a={a}")
    # scipy is imported where it is used: most commands never need it, and
    # its import takes longer than the rest of the package's
    from scipy.special import gammaln

    r_arr = np.asarray(r)
    if np.any(r_arr < 0):
        raise ValueError("frequencies must be non-negative")
    logp = (-k * math.log1p(a)
            + gammaln(k + r_arr) - gammaln(r_arr + 1) - gammaln(k)
            + r_arr * (math.log(a) - math.log1p(a)))
    p = np.exp(logp)
    return float(p) if np.isscalar(r) else p


def nb_pmf_prefix(k: float, a: float, r_max: int) -> np.ndarray:
    """pmf values for r = 0..r_max, built by the forward recursion.

    Each term multiplies the previous by (k+r)/(r+1) * a/(1+a), seeded at
    Pr[0] = (1+a)^(-k); cheaper and just as accurate as the closed form.
    When Pr[0] is below the smallest normal double, the terms are summed
    as logs instead, so the later, representable terms keep their digits.
    """
    if not (k > 0 and a > 0):
        raise ValueError(f"model parameters must be positive, got k={k}, a={a}")
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    log_p0 = -k * math.log1p(a)
    if r_max == 0:
        return np.array([math.exp(log_p0)])
    j = np.arange(r_max)
    factors = (k + j) / (j + 1) * (a / (1.0 + a))
    if log_p0 < _LOG_MIN_NORMAL:
        return np.exp(np.cumsum(np.concatenate(([log_p0], np.log(factors)))))
    return np.cumprod(np.concatenate(([math.exp(log_p0)], factors)))


def nb_tail(k: float, a: float, rho: int) -> float:
    """Pr[frequency >= rho], clamped to [0, 1].

    Computed as ``1 - sum(nb_pmf_prefix(k, a, rho - 1))``, so its absolute
    error is about 1e-14 and a smaller tail is cancellation noise:
    ``nb_tail(2000, 1.0, 2600)`` gives 1.8e-14 where the exact tail
    (``scipy.special.betainc(2600, 2000, 0.5)``) is 4.0e-19.
    """
    if rho <= 0:
        return 1.0
    tail = 1.0 - nb_pmf_prefix(k, a, rho - 1).sum()
    return min(1.0, max(0.0, float(tail)))


def fit_moments(mean: float, variance: float):
    """Method-of-moments estimates (k, a) from a sample mean and variance."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if variance <= mean:
        raise UnderdispersedError(
            f"variance {variance} does not exceed mean {mean}; "
            "the frequency data is not overdispersed")
    k = mean * mean / (variance - mean)
    return k, mean / k


def trim_top(hist: FreqHistogram, fraction: float):
    """Remove the ceil(fraction * items) highest-frequency items.

    Returns (trimmed histogram, number of items removed). Classes are
    drained from the highest frequency downward; a class is reduced
    partially when the quota lands inside it.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"trim fraction must be in [0, 1), got {fraction}")
    observed = hist.total_items()
    # round() guards the float product before ceil: 0.025*360 must give 9, not 10
    quota = math.ceil(round(fraction * observed, 9))
    counts = dict(hist.counts)
    removed = 0
    for r in sorted(counts, reverse=True):
        if removed >= quota:
            break
        take = min(counts[r], quota - removed)
        counts[r] -= take
        if counts[r] == 0:
            del counts[r]
        removed += take
    return FreqHistogram(counts), removed


def fit_em(hist: FreqHistogram, n_known: int = None, *, max_iter: int = 1000,
           incidence_total: int = None, transaction_count: int = None,
           trimmed_items: int = 0) -> NBParams:
    """Fit (k, a) to an observed frequency histogram, estimating the zero class.

    ``hist`` holds observed items only (no frequency-0 class). When
    ``n_known`` is given the zero class is ``n_known - observed`` and a
    single moments pass is done; otherwise the zero class z is iterated,
    z <- (observed + z) * (1+a)^(-k), refitting each pass, until z moves
    by less than 0.5.

    ``incidence_total`` and ``transaction_count`` default to what the
    histogram itself can tell (its own incidence sum, and the largest
    observed frequency as the minimum consistent transaction count); pass
    the real database totals when you have them.
    """
    if 0 in hist.counts:
        raise ValueError("observed histogram must not contain a zero frequency class")
    observed = hist.total_items()
    if observed < 2:
        raise ValueError("need at least 2 observed items to fit")
    inc = hist.total_incidence() if incidence_total is None else incidence_total
    txc = hist.max_frequency() if transaction_count is None else transaction_count

    if n_known is not None:
        zero = n_known - observed
        if zero < 0:
            raise ValueError(
                f"n_known={n_known} is below the observed item count {observed}")
        mean, var = hist.moments(extra_zeros=zero)
        k, a = fit_moments(mean, var)
        return NBParams(k=k, a=a, n_total=n_known, incidence_total=inc,
                        transaction_count=txc, em_iterations=0,
                        trimmed_items=trimmed_items)

    z_prev = 0.0
    iterations = 0
    while True:
        mean, var = hist.moments(extra_zeros=z_prev)
        k, a = fit_moments(mean, var)
        iterations += 1
        z = (observed + z_prev) * (1.0 + a) ** (-k)
        if abs(z - z_prev) < 0.5:
            break
        if iterations >= max_iter:
            raise ConvergenceError(
                f"zero-class estimate did not settle in {max_iter} iterations")
        z_prev = z
    n_total = observed + int(math.floor(z + 0.5))
    return NBParams(k=k, a=a, n_total=n_total, incidence_total=inc,
                    transaction_count=txc, em_iterations=iterations,
                    trimmed_items=trimmed_items)


def fit_database(db: TransactionDatabase, trim_fraction: float = 0.025,
                 n_known: int = None, max_iter: int = 1000):
    """Histogram, trim, fit: the full pipeline from a database to NBParams.

    Returns (params, trimmed observed histogram). The default trim drops the
    top 2.5% of items as outliers, which suits real data; pass 0.0 for
    synthetic data. ``n_known``, when given, is the total number of items
    assumed to exist (the zero class becomes n_known minus the post-trim
    observed count). Without it, ``n_total`` is the post-trim observed
    count plus the estimated zero class, which leaves out the trimmed items:
    below the basket's item count whenever anything was trimmed.
    """
    hist = FreqHistogram.from_database(db)
    trimmed, removed = trim_top(hist, trim_fraction)
    params = fit_em(trimmed, n_known, max_iter=max_iter,
                    incidence_total=db.incidence_total,
                    transaction_count=db.transaction_count,
                    trimmed_items=removed)
    return params, trimmed


def expected_frequent_items(params: NBParams, min_freq: int) -> float:
    """Expected number of items reaching frequency >= min_freq by chance."""
    return params.n_total * nb_tail(params.k, params.a, min_freq)


def gof_chi2(hist: FreqHistogram, params: NBParams) -> GofResult:
    """Chi-square goodness of fit of the model against a frequency histogram.

    ``hist`` should include the zero class if the model estimated one.
    Adjacent frequency classes are merged upward from r=0 until each merged
    class has expected count >= 5; the final class is open-ended (all
    remaining probability mass) and is folded into its neighbor when its
    expectation falls short. df = merged classes - 1 - 2 fitted parameters.
    """
    counts = hist.counts
    r_hi = hist.max_frequency()
    pmf = nb_pmf_prefix(params.k, params.a, r_hi)
    n = params.n_total
    classes = []
    obs_acc = 0.0
    exp_acc = 0.0
    for r in range(r_hi + 1):
        obs_acc += counts.get(r, 0)
        exp_acc += n * pmf[r]
        if exp_acc >= 5.0:
            classes.append((obs_acc, exp_acc))
            obs_acc = 0.0
            exp_acc = 0.0
    exp_acc += n * max(0.0, 1.0 - pmf.sum())
    if classes and exp_acc < 5.0:
        o_last, e_last = classes.pop()
        classes.append((o_last + obs_acc, e_last + exp_acc))
    else:
        classes.append((obs_acc, exp_acc))
    df = len(classes) - 3
    if df <= 0:
        raise ValueError(
            f"only {len(classes)} merged classes; need at least 4 for the test")
    from scipy.special import chdtrc

    chi2 = float(sum((o - e) ** 2 / e for o, e in classes))
    return GofResult(chi2=chi2, df=df, p_value=float(chdtrc(df, chi2)))


_MODEL_REAL_KEYS = ("k", "a", "a_per_incidence")
_MODEL_INT_KEYS = ("n_total", "incidence_total", "transaction_count",
                   "em_iterations", "trimmed_items")


def write_model(params: NBParams, path) -> None:
    """Write a model as `key = value` lines (reals carry 17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in _MODEL_REAL_KEYS:
            fh.write(f"{key} = {getattr(params, key):.17g}\n")
        for key in _MODEL_INT_KEYS:
            fh.write(f"{key} = {getattr(params, key)}\n")


def read_model(path) -> NBParams:
    """Read a model file written by write_model."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            key, sep, raw = s.partition("=")
            key = key.strip()
            if not sep or key not in _MODEL_REAL_KEYS + _MODEL_INT_KEYS:
                raise ValueError(f"{path}:{lineno}: unrecognized model line {s!r}")
            try:
                values[key] = float(raw.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key}") from None
    missing = set(_MODEL_REAL_KEYS + _MODEL_INT_KEYS) - set(values)
    if missing:
        raise ValueError(f"{path}: missing model keys {sorted(missing)}")
    for key in _MODEL_INT_KEYS:
        v = values[key]
        if not float(v).is_integer():
            raise ValueError(f"{path}: {key} must be an integer, got {v}")
        values[key] = int(v)
    return NBParams(**values)
