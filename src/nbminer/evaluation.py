"""Precision/recall scoring against generator ground truth, plus sweeps.

A mined itemset is a true positive when it was "used to generate the
data": by default that means it is a subset (size >= 2) of some ground
truth pattern, because the generator plants every subset of a pattern
whenever the pattern fires.  ``scoring_mode="maximal"`` restricts
positives to the patterns themselves for comparison.

``sweep`` runs a list of mining configurations over one database,
sequentially or across worker processes, and scores each, recording
mined count and maximal itemset size alongside the report so the output
table is directly plottable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .baselines import mine_allconf, mine_frequent
from .mining import MinerConfig, nb_dfs
from .nbmodel import NBParams
from .synthgen import GroundTruth
from .transactions import TransactionDatabase

__all__ = [
    "ALLCONF_GRID",
    "PI_GRID",
    "SUPPORT_GRID",
    "EvalReport",
    "SweepEntry",
    "allconf_runs",
    "nb_runs",
    "pi_grid_for_theta",
    "positives_closure",
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

_SCORING_MODES = ("closure", "maximal")


def _check_scoring_mode(scoring_mode: str) -> None:
    if scoring_mode not in _SCORING_MODES:
        raise ValueError(f"scoring_mode must be one of {_SCORING_MODES}, got {scoring_mode!r}")


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


def _truth_patterns(truth: GroundTruth | Iterable[Iterable[int]]) -> list[frozenset[int]]:
    if isinstance(truth, GroundTruth):
        return list(truth.patterns)
    return [frozenset(p) for p in truth]


def positives_closure(truth: GroundTruth | Iterable[Iterable[int]]) -> frozenset[frozenset[int]]:
    """All size >= 2 subsets of the ground truth patterns.

    Size-1 itemsets are never counted as positives: a single item is
    not an association.
    """
    out: set[frozenset[int]] = set()
    for pattern in _truth_patterns(truth):
        items = sorted(pattern)
        for size in range(2, len(items) + 1):
            out.update(map(frozenset, itertools.combinations(items, size)))
    return frozenset(out)


def positives_for_mode(
    truth: GroundTruth | Iterable[Iterable[int]], scoring_mode: str
) -> frozenset[frozenset[int]]:
    """The positives set for a scoring mode: subset closure or the patterns."""
    _check_scoring_mode(scoring_mode)
    if scoring_mode == "closure":
        return positives_closure(truth)
    return frozenset(p for p in _truth_patterns(truth) if len(p) >= 2)


def _normalize_mined(mined: Iterable) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for entry in mined:
        items = getattr(entry, "items", entry)
        itemset = frozenset(items)
        if len(itemset) >= 2:
            out.add(itemset)
    return out


def score(
    mined: Iterable,
    truth: GroundTruth | Iterable[Iterable[int]],
    *,
    scoring_mode: str = "closure",
    positives: frozenset[frozenset[int]] | None = None,
) -> EvalReport:
    """Score mined itemsets against the ground truth.

    ``mined`` entries may be MinedItemset records or plain item
    collections; size-1 entries are dropped before scoring.  Pass a
    precomputed ``positives`` set to skip the closure enumeration when
    scoring many runs against one truth.
    """
    if positives is None:
        positives = positives_for_mode(truth, scoring_mode)
    else:
        _check_scoring_mode(scoring_mode)
    itemsets = _normalize_mined(mined)

    by_size: dict[int, list[int]] = {}
    tp = 0
    for itemset in itemsets:
        hit = itemset in positives
        tp += hit
        cell = by_size.setdefault(len(itemset), [0, 0])
        cell[0 if hit else 1] += 1
    fp = len(itemsets) - tp

    return EvalReport(
        true_positives=tp,
        false_positives=fp,
        positives_total=len(positives),
        precision=tp / (tp + fp) if itemsets else None,
        recall=tp / len(positives) if positives else None,
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


def _run(runner: Runner, db: TransactionDatabase) -> tuple[str, object]:
    """("ok", item collections) or ("error", "Type: message") for one run."""
    try:
        return "ok", [getattr(entry, "items", entry) for entry in runner(db)]
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"


_WORKER_DB: TransactionDatabase | None = None


def _init_worker(db: TransactionDatabase) -> None:
    global _WORKER_DB
    _WORKER_DB = db


def _run_in_worker(runner: Runner) -> tuple[str, object]:
    return _run(runner, _WORKER_DB)


def sweep(
    db: TransactionDatabase,
    truth: GroundTruth | Iterable[Iterable[int]],
    runs: Sequence[RunSpec],
    *,
    scoring_mode: str = "closure",
    jobs: int = 1,
) -> list[SweepEntry]:
    """Run and score each (method, parameter, runner) against ``db``.

    With ``jobs > 1`` and more than one run, the runs go to
    ``min(jobs, len(runs))`` worker processes, each given ``db`` once;
    runners must then be picklable (the ``*_runs`` helpers' are).
    Entries keep the order of ``runs`` either way. A failing run is
    recorded with its error message and the sweep continues with the
    remaining grid points.
    """
    _check_scoring_mode(scoring_mode)
    runners = [runner for _, _, runner in runs]
    # a process pool starts all of its workers at the first submit
    workers = min(jobs, len(runners))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(db,)) as pool:
            outcomes = list(pool.map(_run_in_worker, runners))
    else:
        outcomes = [_run(runner, db) for runner in runners]
    # built only now, so the positives are not alive (and traced by the
    # garbage collector) while the miners run
    positives = positives_for_mode(truth, scoring_mode)
    entries = []
    for (method, parameter, _), (status, payload) in zip(runs, outcomes):
        if status == "error":
            entries.append(SweepEntry(method, parameter, 0, 0, None, payload))
            continue
        report = score(payload, truth, scoring_mode=scoring_mode, positives=positives)
        entries.append(SweepEntry(method, parameter,
                                  report.true_positives + report.false_positives,
                                  max(report.by_size, default=0), report))
    return entries


def pi_grid_for_theta(theta: float, grid: Sequence[float] = PI_GRID) -> tuple[float, ...]:
    """Trim the precision grid to the region that stays tractable.

    Low theta values prune almost nothing, so candidate growth explodes
    as pi drops; the benchmark only runs pi >= 0.5 at theta = 0.5 and
    pi >= 0.8 at theta = 0.
    """
    if theta == 0:
        return tuple(pi for pi in grid if pi >= 0.8)
    if theta == 0.5:
        return tuple(pi for pi in grid if pi >= 0.5)
    return tuple(grid)


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
    rows = []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != _SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header: {header}")
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(_SWEEP_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(_SWEEP_HEADER)} fields")
            method, parameter, mined, max_size, tp, fp, total, prec, rec = fields
            try:
                rows.append({
                    "method": method,
                    "parameter": float(parameter),
                    "mined_count": int(mined),
                    "max_size": int(max_size),
                    "tp": int(tp),
                    "fp": int(fp),
                    "positives_total": int(total),
                    "precision": float(prec) if prec else None,
                    "recall": float(rec) if rec else None,
                })
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows
