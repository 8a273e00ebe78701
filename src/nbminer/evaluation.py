"""Precision/recall scoring against generator ground truth, plus sweeps.

A mined itemset is a true positive when it was "used to generate the
data": by default that means it is a subset (size >= 2) of some ground
truth pattern, because the generator plants every subset of a pattern
whenever the pattern fires.  ``scoring_mode="maximal"`` restricts
positives to the patterns themselves for comparison.

``sweep`` runs a list of mining configurations over one database,
sequentially or across worker processes, each grid point mined and scored
in one call where it runs, recording mined count and maximal itemset size
alongside the report so the output table is directly plottable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .baselines import mine_allconf, mine_frequent
from .mining import MinerConfig, nb_dfs
from .nbmodel import NBParams
from .synthgen import GroundTruth
from .transactions import TransactionDatabase, _bitset, _digits, _read_lines, _real

__all__ = [
    "ALLCONF_GRID",
    "PI_GRID",
    "SCORING_MODES",
    "SUPPORT_GRID",
    "ClosurePositives",
    "EvalReport",
    "SweepEntry",
    "allconf_runs",
    "nb_runs",
    "pi_grid_for_theta",
    "positives_for_mode",
    "read_sweep",
    "score",
    "support_runs",
    "sweep",
    "write_sweep",
]

# Grid defaults used by the benchmark command.
PI_GRID = (0.999, 0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
SUPPORT_GRID = (0.01, 0.005, 0.004, 0.003, 0.002, 0.0015, 0.0013, 0.001, 0.0007, 0.0005)
ALLCONF_GRID = (0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01)

SCORING_MODES = ("closure", "maximal")


@dataclass(frozen=True)
class EvalReport:
    """Precision/recall of a mined itemset collection.

    ``precision`` is None when nothing was mined, ``recall`` is None
    when the ground truth contributes no positives.  ``by_size`` maps
    itemset size to its (tp, fp) share of the mined collection.
    """

    true_positives: int
    false_positives: int
    positives_total: int
    precision: float | None
    recall: float | None
    by_size: Mapping[int, tuple[int, int]]


class ClosurePositives:
    """Closure mode's positives, every size >= 2 subset of a truth pattern,
    held as one bitset of patterns per item rather than as itemsets.

    ``itemset in positives`` holds when the itemset has at least two
    items and the AND of their bitsets is non-zero, that is when some
    pattern holds them all. ``total`` counts the positives; it can pass
    what ``len()`` may return, so there is no ``__len__``.
    """

    __slots__ = ("masks", "total")

    def __init__(self, patterns: Iterable[frozenset[int]]):
        # a size-1 pattern holds no association, a repeated one no new subset;
        # a pattern inside a larger one is skipped at once when it comes later
        patterns = sorted(dict.fromkeys(p for p in patterns if len(p) >= 2), key=len, reverse=True)
        held: dict[int, list[int]] = {}
        for j, pattern in enumerate(patterns):
            for item in pattern:
                held.setdefault(item, []).append(j)
        self.masks = masks = {item: _bitset(js, len(patterns)) for item, js in held.items()}
        self.total = sum(_first_held_subsets(pattern, masks, (1 << j) - 1)
                         for j, pattern in enumerate(patterns))

    def __contains__(self, itemset) -> bool:
        if len(itemset) < 2:
            return False
        get = self.masks.get
        held = -1
        for item in itemset:
            held &= get(item, 0)
            if not held:
                return False
        return True


def _first_held_subsets(pattern: frozenset[int], masks: Mapping[int, int], earlier: int) -> int:
    """How many size >= 2 subsets of ``pattern`` no pattern in the bitset
    ``earlier`` holds, so that each positive is counted at its first pattern.

    The walk is depth-first over the subsets, carrying the AND of their
    items' bitsets masked to ``earlier``. Once it is zero, no earlier
    pattern holds the subset or any subset that adds later items, so the
    whole branch, 2**rest sets, is counted at once. A branch whose largest
    subset some earlier pattern holds is skipped. The walk thus visits
    only subsets an earlier pattern holds, and their children.
    """
    # items few earlier patterns hold first, so the AND reaches zero early
    bits = sorted((masks[item] & earlier for item in pattern), key=int.bit_count)
    n = len(bits)
    # held[i]: the earlier patterns that hold every item of bits[i:]
    held = [earlier] * (n + 1)
    for i in range(n - 1, -1, -1):
        held[i] = held[i + 1] & bits[i]
    if held[0]:
        return 0
    count = 0
    # (next item, AND of the subset so far, 1 for the empty subset)
    stack = [(0, earlier, 1)]
    while stack:
        start, mask, empty = stack.pop()
        for i in range(start, n):
            m = mask & bits[i]
            if not m:
                # less the one size-1 set of a branch that starts at the top
                count += (1 << (n - 1 - i)) - empty
            elif not m & held[i + 1]:
                stack.append((i + 1, m, 0))
    return count


def positives_for_mode(
    truth: GroundTruth | Iterable[Iterable[int]], scoring_mode: str
) -> ClosurePositives | frozenset[frozenset[int]]:
    """The positives for a scoring mode: the subset closure's index, or
    the patterns of size >= 2 themselves."""
    if scoring_mode not in SCORING_MODES:
        raise ValueError(f"scoring_mode must be one of {SCORING_MODES}, got {scoring_mode!r}")
    if isinstance(truth, GroundTruth):
        patterns = list(truth.patterns)
    else:
        patterns = [frozenset(p) for p in truth]
    if scoring_mode == "closure":
        return ClosurePositives(patterns)
    return frozenset(p for p in patterns if len(p) >= 2)


def score(
    mined: Iterable,
    truth: GroundTruth | Iterable[Iterable[int]],
    *,
    scoring_mode: str = "closure",
) -> EvalReport:
    """Score mined itemsets against the ground truth.

    ``mined`` entries may be MinedItemset records or plain item
    collections; size-1 entries are dropped before scoring.
    """
    return _report(mined, positives_for_mode(truth, scoring_mode))


def _report(mined: Iterable, positives) -> EvalReport:
    """``score``'s report of ``mined`` against positives already built: the
    ``positives_for_mode`` index, or a set of itemsets."""
    itemsets = {s for s in (frozenset(getattr(m, "items", m)) for m in mined) if len(s) >= 2}

    by_size: dict[int, list[int]] = {}
    tp = 0
    for itemset in itemsets:
        hit = itemset in positives
        tp += hit
        cell = by_size.setdefault(len(itemset), [0, 0])
        cell[0 if hit else 1] += 1
    fp = len(itemsets) - tp
    total = positives.total if isinstance(positives, ClosurePositives) else len(positives)

    return EvalReport(
        true_positives=tp,
        false_positives=fp,
        positives_total=total,
        precision=tp / (tp + fp) if itemsets else None,
        recall=tp / total if total else None,
        by_size={size: (t, f) for size, (t, f) in sorted(by_size.items())},
    )


@dataclass(frozen=True)
class SweepEntry:
    """One scored grid point: method label, parameter value, outcome.

    ``mined_count`` counts the size >= 2 itemsets that were scored and
    ``max_size`` is the largest mined itemset (0 when none).  When the
    run raised, ``report`` is None and ``error`` holds the message.
    """

    method: str
    parameter: float
    mined_count: int
    max_size: int
    report: EvalReport | None
    error: str | None = None


Runner = Callable[[TransactionDatabase], Iterable]
RunSpec = tuple[str, float, Runner]


def _entry(run: RunSpec, db: TransactionDatabase, positives) -> SweepEntry:
    """Mine and score one grid point; a run that raises gives the entry
    that holds its "Type: message"."""
    method, parameter, runner = run
    try:
        mined = runner(db)
    except Exception as exc:
        return SweepEntry(method, parameter, 0, 0, None, f"{type(exc).__name__}: {exc}")
    report = _report(mined, positives)
    return SweepEntry(method, parameter, report.true_positives + report.false_positives,
                      max(report.by_size, default=0), report)


# (db, positives), given to each worker process once
_WORKER_ARGS: tuple | None = None


def _init_worker(db: TransactionDatabase, positives) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = db, positives


def _entry_in_worker(run: RunSpec) -> SweepEntry:
    return _entry(run, *_WORKER_ARGS)


def sweep(
    db: TransactionDatabase,
    truth: GroundTruth | Iterable[Iterable[int]],
    runs: Sequence[RunSpec],
    *,
    scoring_mode: str = "closure",
    jobs: int = 1,
) -> list[SweepEntry]:
    """Mine and score each (method, parameter, runner) against ``db``.

    The positives are built first, so an invalid ``scoring_mode`` fails
    before any run; each grid point is then one call that returns its
    SweepEntry. With ``jobs > 1`` and more than one run, those calls run in
    ``min(jobs, len(runs))`` worker processes, each given ``db`` and the
    positives once; runners must then be picklable (the ``*_runs``
    helpers' are). Entries keep the order of ``runs`` either way. A failing
    run is recorded with its error message and the sweep goes on.
    """
    positives = positives_for_mode(truth, scoring_mode)
    # a process pool starts all of its workers at the first submit
    workers = min(jobs, len(runs))
    if workers <= 1:
        return [_entry(run, db, positives) for run in runs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(db, positives)) as pool:
        return list(pool.map(_entry_in_worker, runs))


def pi_grid_for_theta(theta: float) -> tuple[float, ...]:
    """Trim the precision grid to the region that stays tractable.

    Low theta values prune almost nothing, so candidate growth explodes
    as pi drops; the benchmark only runs pi >= 0.5 at theta = 0.5 and
    pi >= 0.8 at theta = 0.
    """
    if theta == 0:
        return tuple(pi for pi in PI_GRID if pi >= 0.8)
    if theta == 0.5:
        return tuple(pi for pi in PI_GRID if pi >= 0.5)
    return PI_GRID


def _nb_run(db: TransactionDatabase, params: NBParams, pi: float, theta: float) -> list:
    # the config is built here, so an invalid pi fails its own grid point
    return nb_dfs(db, MinerConfig(params, pi=pi, theta=theta))


def nb_runs(
    params: NBParams,
    theta: float,
    pi_grid: Sequence[float] | None = None,
) -> list[RunSpec]:
    """Model-based runs at one theta across a pi grid."""
    grid = pi_grid_for_theta(theta) if pi_grid is None else tuple(pi_grid)
    method = f"nb-theta{theta:g}"
    return [(method, pi, partial(_nb_run, params=params, pi=pi, theta=theta))
            for pi in grid]


def support_runs(sigma_grid: Sequence[float] | None = None) -> list[RunSpec]:
    """Minimum-support baseline runs across a support grid."""
    grid = SUPPORT_GRID if sigma_grid is None else tuple(sigma_grid)
    return [("support", sigma, partial(mine_frequent, min_support=sigma)) for sigma in grid]


def allconf_runs(gamma_grid: Sequence[float] | None = None) -> list[RunSpec]:
    """All-confidence baseline runs across a threshold grid."""
    grid = ALLCONF_GRID if gamma_grid is None else tuple(gamma_grid)
    return [("allconf", gamma, partial(mine_allconf, min_allconf=gamma)) for gamma in grid]


_SWEEP_HEADER = (
    "method",
    "parameter",
    "mined_count",
    "max_size",
    "tp",
    "fp",
    "positives_total",
    "precision",
    "recall",
)


def write_sweep(path, entries: Iterable[SweepEntry]) -> None:
    """Write scored sweep entries as a plottable tab-separated table.

    Failed entries are skipped; the table holds results only.
    """
    lines = ["\t".join(_SWEEP_HEADER)]
    for e in entries:
        if e.report is None:
            continue
        r = e.report
        lines.append(
            "\t".join(
                (
                    e.method,
                    f"{e.parameter:.12g}",
                    str(e.mined_count),
                    str(e.max_size),
                    str(r.true_positives),
                    str(r.false_positives),
                    str(r.positives_total),
                    "" if r.precision is None else f"{r.precision:.12g}",
                    "" if r.recall is None else f"{r.recall:.12g}",
                )
            )
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sweep(path) -> list[dict]:
    """Read a table written by write_sweep as one dict per row.

    Values are typed (counts int, parameter/precision/recall float,
    blank precision/recall None); per-size detail is not stored in the
    table, so rows are plain mappings rather than SweepEntry objects. A
    malformed row raises ValueError naming ``path:lineno``.
    """
    header = []

    def row(text):
        fields = text.split("\t")
        if not header:
            if tuple(fields) != _SWEEP_HEADER:
                raise ValueError(f"unexpected sweep header: {fields}")
            header.append(fields)
            return None
        if len(fields) != len(_SWEEP_HEADER):
            raise ValueError(f"expected {len(_SWEEP_HEADER)} fields")
        method, parameter, *counts, prec, rec = fields
        return dict(zip(_SWEEP_HEADER, (
            method, _real(parameter, "parameter"),
            *map(_digits, counts, _SWEEP_HEADER[2:-2]),
            _real(prec, "precision") if prec else None,
            _real(rec, "recall") if rec else None)))

    rows = _read_lines(path, row)
    if not header:
        raise ValueError(f"{path}: no sweep header")
    return rows[1:]
