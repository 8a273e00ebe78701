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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .transactions import TransactionDatabase, _digits, _read_lines, _real

# below this log, exp() leaves the normal doubles and loses its digits
_LOG_MIN_NORMAL = math.log(sys.float_info.min)


class UnderdispersedError(ValueError):
    """Observed variance did not exceed the mean; no valid fit exists."""


class ConvergenceError(RuntimeError):
    """The zero-class iteration did not settle within _EM_MAX_ITER passes."""


# cap on the zero-class passes of _fit_em; the presets' fits settle in under ten
_EM_MAX_ITER = 1000


@dataclass(frozen=True)
class NBParams:
    """A fitted baseline model plus the bookkeeping needed to reuse it.

    ``a`` is the scale at the full size of the fitted database;
    ``a_per_incidence = a / incidence_total``, derived here, is the
    size-free form that gets rescaled to conditional databases, so it must
    not underflow to 0. ``n_total`` as ``fit_database`` sets it counts the
    fitted items plus the zero class; items removed by trimming are not
    added back, so a trimmed fit has fewer items than its basket.
    """

    k: float
    a: float
    n_total: int
    incidence_total: int
    transaction_count: int
    em_iterations: int
    trimmed_items: int
    a_per_incidence: float = field(init=False)

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
        a_per_incidence = self.a / self.incidence_total
        if not a_per_incidence > 0:
            # every conditional scale a_l is a_per_incidence times a count
            raise ValueError(f"a_per_incidence must be positive, got "
                             f"{a_per_incidence!r} (a/incidence_total underflows)")
        object.__setattr__(self, "a_per_incidence", a_per_incidence)


class GofResult(NamedTuple):
    chi2: float
    df: int
    p_value: float


def nb_pmf_prefix(k: float, a: float, r_max: int) -> np.ndarray:
    """pmf values for r = 0..r_max, built by the forward recursion.

    Each term multiplies the previous by (k+r)/(r+1) * a/(1+a), seeded at
    Pr[0] = (1+a)^(-k); cheaper and just as accurate as the closed form.
    The recursion runs on Python floats, faster than numpy arrays for the
    few dozen terms a threshold scan asks for, and every step rounds as
    numpy's elementwise factors and ``cumprod`` would. When Pr[0] is below
    the smallest normal double, the terms are summed as logs instead, so
    the later, representable terms keep their digits.
    """
    if not (k > 0 and a > 0):
        raise ValueError(f"model parameters must be positive, got k={k}, a={a}")
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    log_p0 = -k * math.log1p(a)
    if log_p0 < _LOG_MIN_NORMAL and r_max > 0:
        j = np.arange(r_max)
        factors = (k + j) / (j + 1) * (a / (1.0 + a))
        return np.exp(np.cumsum(np.concatenate(([log_p0], np.log(factors)))))
    q = a / (1.0 + a)
    p = math.exp(log_p0)
    terms = [p]
    for j in range(r_max):
        p *= (k + j) / (j + 1) * q
        terms.append(p)
    return np.array(terms)


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


def _moments(hist: dict, extra_zeros=0.0):
    """Sample mean and variance (ddof=1) of a ``{frequency: items}``
    histogram, optionally with extra zero entries."""
    n = sum(hist.values()) + extra_zeros
    if n <= 1:
        raise ValueError("need more than one item to compute moments")
    s1 = sum(r * c for r, c in hist.items())
    s2 = sum(r * r * c for r, c in hist.items())
    mean = s1 / n
    var = (s2 - n * mean * mean) / (n - 1)
    return mean, var


def _trim_top(hist: dict, fraction: float):
    """Remove the ceil(fraction * items) highest-frequency items.

    Returns (trimmed copy of ``hist``, number of items removed). Classes
    are drained from the highest frequency downward; a class is reduced
    partially when the quota lands inside it.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"trim fraction must be in [0, 1), got {fraction}")
    # round() guards the float product before ceil: 0.025*360 must give 9, not 10
    quota = math.ceil(round(fraction * sum(hist.values()), 9))
    counts = dict(hist)
    removed = 0
    for r in sorted(counts, reverse=True):
        if removed >= quota:
            break
        take = min(counts[r], quota - removed)
        counts[r] -= take
        if counts[r] == 0:
            del counts[r]
        removed += take
    return counts, removed


def _fit_em(hist: dict, n_known: int = None):
    """Fit (k, a) to an observed frequency histogram, estimating the zero class.

    Returns (k, a, n_total, em_iterations). ``hist`` holds observed items
    only (no frequency-0 class). When ``n_known`` is given the zero class
    is ``n_known - observed`` and a single moments pass is done (0
    iterations); otherwise the zero class z is iterated,
    z <- (observed + z) * (1+a)^(-k), refitting each pass, until z moves
    by less than 0.5.
    """
    observed = sum(hist.values())
    if observed < 2:
        raise ValueError("need at least 2 observed items to fit")

    if n_known is not None:
        zero = n_known - observed
        if zero < 0:
            raise ValueError(
                f"n_known={n_known} is below the observed item count {observed}")
        k, a = fit_moments(*_moments(hist, extra_zeros=zero))
        return k, a, n_known, 0

    z_prev = 0.0
    iterations = 0
    while True:
        mean, var = _moments(hist, extra_zeros=z_prev)
        k, a = fit_moments(mean, var)
        iterations += 1
        z = (observed + z_prev) * (1.0 + a) ** (-k)
        if abs(z - z_prev) < 0.5:
            break
        if iterations >= _EM_MAX_ITER:
            raise ConvergenceError(
                f"zero-class estimate did not settle in {_EM_MAX_ITER} iterations")
        z_prev = z
    return k, a, observed + int(math.floor(z + 0.5)), iterations


def fit_database(db: TransactionDatabase, trim_fraction: float = 0.025,
                 n_known: int = None):
    """Histogram, trim, fit: the full pipeline from a database to NBParams.

    Returns (params, trimmed observed histogram as a ``{frequency: items}``
    dict). The default trim drops the top 2.5% of items as outliers, which
    suits real data; pass 0.0 for synthetic data. ``n_known``, when given,
    is the total number of items assumed to exist (the zero class becomes
    n_known minus the post-trim observed count). Without it, ``n_total`` is
    the post-trim observed count plus the estimated zero class, which
    leaves out the trimmed items: below the basket's item count whenever
    anything was trimmed.
    """
    trimmed, removed = _trim_top(Counter(db.item_freq.values()), trim_fraction)
    k, a, n_total, iterations = _fit_em(trimmed, n_known)
    params = NBParams(k=k, a=a, n_total=n_total, incidence_total=db.incidence_total,
                      transaction_count=len(db), em_iterations=iterations,
                      trimmed_items=removed)
    return params, trimmed


def gof_chi2(hist: dict, params: NBParams) -> GofResult:
    """Chi-square goodness of fit of the model against a frequency histogram.

    ``hist`` maps each frequency r (a non-negative int) to the number of
    items seen r times; counts may be fractional. The model's items that
    ``hist`` does not hold (``n_total`` less its rounded total) join class
    0 as never seen. Adjacent frequency classes are merged upward from r=0
    until each merged class has expected count >= 5; the final class is
    open-ended (all remaining probability mass) and is folded into its
    neighbor when its expectation falls short.
    df = merged classes - 1 - 2 fitted parameters.
    """
    for r, c in hist.items():
        if not (isinstance(r, int) and r >= 0 and c >= 0):
            raise ValueError(f"need a non-negative int class and count, got {r!r}: {c!r}")
    unseen = params.n_total - round(sum(hist.values()))
    counts = {**hist, 0: hist.get(0, 0) + unseen} if unseen > 0 else hist
    r_hi = max((r for r, c in hist.items() if c > 0), default=0)
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
    # scipy is imported where it is used: most commands never need it, and
    # its import takes longer than the rest of the package's
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
    """Read a model file written by write_model.

    An integer value is a run of ASCII digits and a real one Python's float
    syntax in ASCII (see ``transactions._real``); blanks and tabs around the
    ``=`` belong to the separator.
    """
    def row(text):
        key, sep, raw = text.partition("=")
        key = key.strip()
        if not sep or key not in _MODEL_REAL_KEYS + _MODEL_INT_KEYS:
            raise ValueError(f"unrecognized model line {text.strip()!r}")
        value = raw.strip(" \t")
        if key in _MODEL_REAL_KEYS:
            return key, _real(value, key)
        return key, _digits(value, f"integer {key}")

    values = dict(_read_lines(path, row))
    missing = set(_MODEL_REAL_KEYS + _MODEL_INT_KEYS) - set(values)
    if missing:
        raise ValueError(f"{path}: missing model keys {sorted(missing)}")
    stated = values.pop("a_per_incidence")
    try:
        params = NBParams(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not math.isclose(stated, params.a_per_incidence, rel_tol=1e-9):
        raise ValueError(
            f"{path}: inconsistent a_per_incidence {stated!r} "
            f"(a/incidence_total = {params.a_per_incidence!r})")
    return params
