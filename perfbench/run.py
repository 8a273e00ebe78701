"""nbminer benchmark: end-to-end and per-layer metrics, with output checks.

Run from the root of a checkout (nbminer is imported from its ``src``):

    python3 perfbench/run.py --workload artif2-dense-8k --seed 1 --seconds 25 --trace 0

A run makes the workload's inputs from ``--seed`` in a child process,
three times, and reports the median as ``setup_s``. It then repeats
rounds for ``--seconds`` (at least two rounds); a round is what a user
of the CLI waits for: the ``mine --fit-inline`` path, the ``mine-support``
and ``mine-allconf`` paths (basket file to itemset file, in this process)
and, twice, ``nbminer benchmark --jobs 2`` over the same three operating
points as a subprocess. Timings are medians over rounds.

The end-to-end times of the in-process paths and of set-up are in
reference-speed seconds (see ``speed.py``): wall time scaled by the
machine speed a fixed loop sees just before and after each operation.
Their unit in BENCHMARK.json is ``ref_s``; ``setup_s`` is scaled the
same way but listed in ``s``. ``sweep_s`` and every per-layer time are
wall seconds; the wall medians of the scaled metrics are printed in the
details line.

With ``--trace 1`` each round first runs the mine path untraced and
traced in back-to-back pairs, then the whole round, with one sweep, with
nbminer's public functions rebound to the span-recording wrappers of
``spans.py``; the per-layer metrics come from those spans. The tracing
overhead is the median, over pairs, of the traced minus the untraced
``nb_dfs`` wall time. Spans are written to
``.bench_work/trace-<workload>-s<seed>.tsv``.

After the timed rounds every output file is checked by ``check.py``,
which never calls nbminer, and against the SHA-256 digests recorded in
``perfbench/digests.json`` for the workload and seed, where recorded.
An operation whose output fails a check counts as failed. The last line
of standard output is the JSON result; metric names and units are those
of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import check
from spans import Tracer
from speed import Scaler
from workloads import BASKET, PI, THETA, TRUTH, WORKLOADS, sha256, spec_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

SETUP_REPS = 3
MIN_ROUNDS = 2
# A traced round starts with untraced/traced pairs of nb_dfs calls whose
# times add up to MIN_PAIRS_S (at least one pair); the tracing overhead is
# the median over every pair of at least MIN_TRACED_ROUNDS rounds.
MIN_PAIRS_S = 3.0
MIN_TRACED_ROUNDS = 3
# An in-process path is called again within a round until its calls add up
# to this long, so that short operations are timed over enough work.
MIN_OP_S = 0.5
SWEEP_JOBS = 2
# The sweep's time varies most from run to run, so each untraced round
# samples it twice. It is not scaled by speed.py: its work runs in three
# processes at once, whose speed one reference loop does not follow
# (scaled, its spread over seeds 1-10 was 0.07-0.17 of the median,
# against 0.09-0.12 unscaled).
SWEEPS_PER_ROUND = 2


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, workload, seed: int, trace: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = {}      # metric name -> per-round values
        self.outputs = []      # (kind, path, round) of every file to check
        self.digests = {}      # kind -> digest every round must reproduce
        self.rounds = 0
        self.scaler = None     # speed.Scaler, while rounds run

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def timed(self, name, seconds, factor):
        """Sample a time scaled by the speed factor; keep the unscaled one too."""
        self.sample(name, seconds * factor)
        self.sample("unscaled." + name, seconds)

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_setup(run: Run) -> None:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--spec", spec_json(run.w),
           "--seed", str(run.seed), "--reps", str(SETUP_REPS), "--out", str(run.work)]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    reps = json.loads(proc.stdout.splitlines()[-1])
    recorded = _recorded(run)
    for rep in reps:
        run.attempted += 1
        for kind in ("basket", "truth"):
            want = recorded.get(kind, reps[0][kind])
            if rep[kind] != want:
                run.fail(f"setup: {kind} digest {rep[kind][:16]} != {want[:16]}")
        for step in ("total_s", "generate_s", "write_basket_s", "write_truth_s"):
            run.timed("setup." + step, rep[step], rep["factor"])
    run.digests.update(basket=reps[0]["basket"], truth=reps[0]["truth"])


def _recorded(run: Run) -> dict:
    if not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text())
    return table.get(run.w.name, {}).get(str(run.seed), {})


# ----------------------------------------------------------------- operations
# Each path goes from the basket file to an itemset file through nbminer's
# modules, looked up at call time so that the tracer's wrappers are used.

def mine_path(out, nbm, basket):
    t0 = time.perf_counter()
    db = nbm.transactions.load_basket(basket)
    params, _ = nbm.nbmodel.fit_database(db)
    t1 = time.perf_counter()
    mined = nbm.mining.nb_dfs(db, nbm.mining.MinerConfig(params, pi=PI, theta=THETA))
    t2 = time.perf_counter()
    nbm.mining.write_itemsets(out, mined)
    t3 = time.perf_counter()
    return t3 - t0, t2 - t1, ((len(db), db.incidence_total), mined)


def baseline_path(out, nbm, basket, kind, threshold):
    t0 = time.perf_counter()
    db = nbm.transactions.load_basket(basket)
    miner = nbm.baselines.mine_frequent if kind == "support" else nbm.baselines.mine_allconf
    found = miner(db, threshold)
    nbm.mining.write_itemsets(out, [(f.items, f.freq, threshold, None) for f in found])
    return time.perf_counter() - t0, found


def sweep_grid(w):
    """The sweep's grid points, (method as the table names it, parameter), in
    table order: one per method, the same points the in-process paths run."""
    return [(f"nb-theta{THETA:g}", PI), ("support", w.min_support),
            ("allconf", w.min_allconf)]


def sweep_path(w, work: Path, out: Path):
    """``nbminer benchmark`` as a subprocess: (wall s, cpu s, peak RSS MB, exit code).

    CPU time and peak RSS come from wait4, so they cover the pool
    workers the CLI waited for.
    """
    cmd = [sys.executable, "-m", "nbminer", "benchmark",
           "--basket", str(work / BASKET), "--truth", str(work / TRUTH),
           "--out", str(out), "--methods", "nb,support,allconf",
           "--theta", f"{THETA:g}", "--pi-grid", f"{PI:g}",
           "--support-grid", f"{w.min_support:g}", "--allconf-grid", f"{w.min_allconf:g}",
           "--jobs", str(SWEEP_JOBS)]
    with open(out.with_suffix(".stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), cwd=work, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def _attempt(run: Run, label: str, fn, *args):
    """fn's result, or None if it raised, which counts as a failed operation."""
    run.attempted += 1
    gc.collect()
    try:
        return fn(*args)
    except Exception:
        run.fail(f"{label}: {traceback.format_exc()}")
        return None


def _repeat(run: Run, k: int, name: str, kind: str, path, *args):
    """Call an in-process path until it has taken MIN_OP_S (once when tracing).

    ``path(out, *args)`` returns its timings followed by a payload. Every
    call is one operation whose output file is checked. Returns (per-call
    mean of each timing, the last payload, the speed factor of the whole
    batch), or None if a call raised.
    """
    timings, payload = [], None
    while not timings or (not run.trace and sum(t[0] for t in timings) < MIN_OP_S):
        out = run.work / f"{name}-{k}-{len(timings)}.itemsets"
        res = _attempt(run, f"round {k} {name}", path, out, *args)
        if res is None:
            break
        run.outputs.append((kind, out, k))
        timings.append(res[:-1])
        payload = res[-1]
        del res
    factor = run.scaler.factor()
    if len(timings) == 0 or payload is None:
        return None
    return [statistics.mean(col) for col in zip(*timings)], payload, factor


def do_round(run: Run, nbm, k: int, tracer=None) -> None:
    """One round; with a tracer, overhead pairs first, then the whole
    round traced."""
    if tracer is None:
        _round(run, nbm, k, None)
        return
    if not _overhead_pairs(run, nbm, k, tracer):
        return
    start, counts = len(tracer.spans), tracer.counts.copy()
    tracer.install(nbm)
    try:
        _round(run, nbm, k, tracer)
    finally:
        tracer.uninstall()
    run.sample("trace.totals", tracer.totals(start))
    run.sample("trace.counts", dict(tracer.counts - counts))
    run.sample("trace.spans", len(tracer.spans) - start)


def _overhead_pairs(run: Run, nbm, k: int, tracer) -> bool:
    """Run the mine path untraced and then traced, back to back, so both
    nb_dfs wall times are taken at nearly the same machine speed; repeat
    until the pairs add up to MIN_PAIRS_S. Sample each pair's overhead;
    return False if a call failed."""
    spent, p = 0.0, 0
    while spent < MIN_PAIRS_S:
        times = []
        for traced in (False, True):
            if traced:
                tracer.install(nbm)
            try:
                got = _repeat(run, k, f"nb-pair{p}-{'traced' if traced else 'untraced'}",
                              "nb", mine_path, nbm, run.work / BASKET)
            finally:
                tracer.uninstall()
            if got is None:
                return False
            times.append(got[0][1])
        untraced, traced = times
        run.sample("trace.nb_dfs_untraced_s", untraced)
        run.sample("trace.overhead_s", traced - untraced)
        run.sample("trace.overhead_ratio", traced / untraced - 1)
        spent += untraced + traced
        p += 1
    return True


def _round(run: Run, nbm, k: int, tracer) -> None:
    w, work = run.w, run.work
    basket = work / BASKET
    mined = None
    got = _repeat(run, k, "nb", "nb", mine_path, nbm, basket)
    if got is not None:
        (total, _), (shape, mined), factor = got
        run.timed("mine_s", total, factor)
        run.sample("db.shape", shape)
    found = {}
    for kind, threshold in (("support", w.min_support), ("allconf", w.min_allconf)):
        got = _repeat(run, k, kind, kind, baseline_path, nbm, basket, kind, threshold)
        if got is not None:
            (total,), found[kind], factor = got
            run.timed(f"{kind}_s", total, factor)
    del got
    if tracer is not None and mined is not None and "support" in found:
        scored = _attempt(run, f"round {k} score", score_path, nbm, work / TRUTH,
                          mined, found["support"])
        if scored is not None:
            run.sample("score", scored)
    del mined, found
    for j in range(1 if tracer is not None else SWEEPS_PER_ROUND):
        out = work / f"sweep-{k}-{j}.tsv"

        def sweep():
            with tracer.span("cli.benchmark") if tracer is not None else nullcontext():
                return sweep_path(w, work, out)

        got = _attempt(run, f"round {k} sweep {j}", sweep)
        run.scaler.factor()  # the reference loop before the next operation
        if got is None:
            continue
        wall, cpu, rss, code = got
        if code != 0:
            run.fail(f"round {k} sweep {j}: exit code {code}, see {out.with_suffix('.stderr')}")
            continue
        run.outputs.append(("sweep", out, k))
        run.sample("sweep_s", wall)
        run.sample("cli.cpu_s", cpu)
        run.sample("cli.parallel_efficiency", cpu / (SWEEP_JOBS * wall))
        run.sample("cli.children_peak_rss_mb", rss)


def score_path(nbm, truth_path, mined, support_found):
    """The program's own scores (tp, fp, positives) for the nb and support outputs."""
    truth = nbm.synthgen.read_truth(truth_path)
    counts = lambda r: (r.true_positives, r.false_positives, r.positives_total)
    return (counts(nbm.evaluation.score(mined, truth)),
            counts(nbm.evaluation.score(support_found, truth)))


# ------------------------------------------------------------- verification

def verify(run: Run) -> dict:
    """Check every output; return the exact counts derived from them."""
    w = run.w
    basket = check.Basket(run.work / BASKET)
    pairs = basket.pair_counts()
    positives = check.positives_closure(check.read_truth_patterns(run.work / TRUTH))
    recorded = _recorded(run)
    results = {}                      # (kind, digest) -> (errors, records)
    by_round = {}                     # (kind, round) -> records
    for kind, path, k in run.outputs:
        digest = sha256(path)
        if kind == "sweep":
            recs = [by_round.get((m, k)) for m in ("nb", "support", "allconf")]
            if None in recs:
                run.fail(f"round {k} sweep: an operation it is checked against failed")
                continue
            rows = [check.sweep_row(method, parameter, r, positives)
                    for (method, parameter), r in zip(sweep_grid(w), recs)]
            key = (kind, digest, tuple(rows))
            if key not in results:
                results[key] = (check.check_sweep(path, rows), None)
        else:
            key = (kind, digest)
            if key not in results:
                if kind == "nb":
                    results[key] = check.check_nb(path, basket, PI, THETA)
                elif kind == "support":
                    results[key] = check.check_support(path, basket, w.min_support, pairs)
                else:
                    results[key] = check.check_allconf(path, basket, w.min_allconf, pairs)
        errors, recs = results[key]
        by_round[kind, k] = recs
        errors = list(errors)
        want = recorded.get(kind, run.digests.setdefault(kind, digest))
        if digest != want:
            errors.append(f"{path.name}: digest {digest[:16]} differs from "
                          f"{'the recorded' if kind in recorded else 'round 0'} {want[:16]}")
        if errors:
            run.fail(f"round {k} {kind}: " + "; ".join(errors[:5]))

    for shape in run.samples.get("db.shape", []):
        if tuple(shape) != (basket.n, basket.incidences):
            run.fail(f"load_basket saw {shape} (rows, incidences), the file holds "
                     f"{(basket.n, basket.incidences)}")
    first = {}
    for (kind, _), recs in by_round.items():
        first.setdefault(kind, recs)
    exact = {"transactions.rows": basket.n, "transactions.incidences": basket.incidences,
             "evaluation.positives_total": len(positives)}
    if "nb" in first:
        nb = first["nb"]
        exact["mining.itemsets"] = len(nb)
        exact["mining.nodes_expanded"] = len(basket.items) + len(nb)
        exact["mining.rows_counted"] = int(basket.freq.sum()) + sum(r[1] for r in nb)
        exact["evaluation.nb_true_positives"], exact["evaluation.nb_false_discoveries"] = \
            check.false_discoveries(nb, positives)
    for kind in ("support", "allconf"):
        if kind in first:
            exact[f"baselines.{kind}_itemsets"] = len(first[kind])
            exact[f"baselines.{kind}_max_level"] = max((len(r[0]) for r in first[kind]),
                                                       default=0)
    if "support" in first:
        exact["evaluation.support_true_positives"], \
            exact["evaluation.support_false_discoveries"] = \
            check.false_discoveries(first["support"], positives)
    sweeps = [path for kind, path, _ in run.outputs if kind == "sweep"]
    if sweeps:
        rows = len(sweeps[0].read_text(encoding="ascii").splitlines()) - 1
        exact["cli.grid_points"] = rows
        exact["cli.grid_points_failed"] = len(sweep_grid(w)) - rows
    for scored in run.samples.get("score", []):
        mine = tuple((exact.get(f"evaluation.{m}_true_positives"),
                      exact.get(f"evaluation.{m}_false_discoveries"), len(positives))
                     for m in ("nb", "support"))
        if tuple(map(tuple, scored)) != mine:
            run.fail(f"evaluation.score gave {scored}, the recount gives {mine}")
    return exact


# ------------------------------------------------------------------ metrics

def _median(values):
    return statistics.median(values) if values else None


def end_to_end(run: Run, self_peak_mb: float) -> dict:
    m = {name: _median(run.samples.get(name, []))
         for name in ("mine_s", "support_s", "allconf_s", "sweep_s")}
    m["setup_s"] = _median(run.samples.get("setup.total_s", []))
    children = run.samples.get("cli.children_peak_rss_mb", [])
    m["peak_rss_mb"] = self_peak_mb + max(children, default=0.0)
    return m


# Spans of functions that every round calls more than once (once per path
# or per scored output); their *_s metric is the time per call. Every other
# *_s metric is the time per round: one call, or for nb_gen and
# nb_pmf_prefix, the sum over the nodes of one search. A layer's self_s
# is its self time per round.
PER_CALL = ("transactions.load_basket", "mining.write_itemsets", "evaluation.score")


def per_layer(run: Run, exact: dict) -> dict:
    """Per-layer metrics, every time in wall seconds (median over rounds)."""
    s = run.samples
    m = dict(exact)
    m["synthgen.generate_s"] = _median(s.get("unscaled.setup.generate_s", []))
    m["synthgen.write_truth_s"] = _median(s.get("unscaled.setup.write_truth_s", []))
    m["transactions.write_basket_s"] = _median(s.get("unscaled.setup.write_basket_s", []))
    for name in ("cli.cpu_s", "cli.parallel_efficiency"):
        m[name] = _median(s.get(name, []))
    for name in ("trace.nb_dfs_untraced_s", "trace.overhead_s", "trace.overhead_ratio"):
        m[name] = _median(s.get(name, []))
    m["cli.children_peak_rss_mb"] = max(s.get("cli.children_peak_rss_mb", []), default=None)

    totals = s.get("trace.totals", [])

    def total(span, field=1):
        per = lambda t: t[span][field] / (t[span][0] if span in PER_CALL else 1)
        return _median([per(t) for t in totals if span in t])

    for span in PER_CALL + ("nbmodel.fit_database", "nbmodel.nb_pmf_prefix", "mining.nb_dfs",
                            "mining.nb_gen", "baselines.mine_frequent",
                            "baselines.mine_allconf"):
        m[span + "_s"] = total(span)
    m["mining.dfs_self_s"] = total("mining.nb_dfs", 2)
    for layer in ("transactions", "nbmodel", "mining", "baselines", "evaluation"):
        m[layer + ".self_s"] = _median([
            sum(v[2] for name, v in t.items() if name.startswith(layer + "."))
            for t in totals])

    counts = s.get("trace.counts", [])
    for name in ("nbmodel.nb_pmf_prefix_calls", "nbmodel.pmf_terms", "mining.nb_gen_calls",
                 "mining.candidates_proposed", "mining.itemsets_emitted"):
        values = {c.get(name, 0) for c in counts}
        if len(values) > 1:
            run.fail(f"trace count {name} differs between rounds: {sorted(values)}")
        m[name] = min(values, default=None)
    m["trace.spans"] = _median(s.get("trace.spans", []))

    def ratio(a, b):
        return a / b if a is not None and b else None

    m["mining.emit_ratio"] = ratio(m["mining.itemsets_emitted"], m["mining.candidates_proposed"])
    found = m["mining.nb_gen_calls"]
    m["mining.threshold_found_ratio"] = ratio(None if found is None else found - 1,
                                              m["nbmodel.nb_pmf_prefix_calls"])
    m["mining.rows_per_s"] = ratio(m.get("mining.rows_counted"),
                                   m["trace.nb_dfs_untraced_s"])
    m["mining.rows_per_node"] = ratio(m.get("mining.rows_counted"),
                                      m.get("mining.nodes_expanded"))
    return m


# --------------------------------------------------------------------- main

def load_nbminer():
    """Import nbminer from this checkout's src, or return None if it has none."""
    if not (SRC / "nbminer" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import nbminer

    if Path(nbminer.__file__).resolve().parent != SRC / "nbminer":
        raise RuntimeError(f"imported nbminer from {nbminer.__file__}, not {SRC}")
    return nbminer


def execute(nbminer, w, seed: int, seconds: float, trace: bool):
    """Set up, run rounds for ``seconds`` (at least MIN_ROUNDS), check the
    outputs; return (Run, metrics by name, exact counts)."""
    work = WORK / f"{w.name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(w, seed, trace, work)
    tracer = Tracer() if trace else None
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    run_setup(run)
    with Scaler() as run.scaler:
        started = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - started < seconds:
            do_round(run, nbminer, rounds, tracer)
            rounds += 1
    run.rounds = rounds
    self_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    exact = verify(run)
    metrics = per_layer(run, exact) if trace else end_to_end(run, self_peak_mb)
    if tracer is not None:
        tracer.write(WORK / f"trace-{w.name}-s{seed}.tsv")
    if not run.errors:
        shutil.rmtree(work)
    return run, metrics, exact


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nbminer = load_nbminer()
    if nbminer is None:
        print(f"error: {SRC / 'nbminer'} not found; run from a checkout of the "
              "repository that holds src/nbminer", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run, metrics, exact = execute(nbminer, w, args.seed, args.seconds, bool(args.trace))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in listed if d["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    for d in listed:
        value = metrics[d["name"]]
        shown = "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else value
        print(f"{d['name']:<36} {shown:>14} {d['unit']}")
    for message in run.errors[:20]:
        print(f"error: {message}", file=sys.stderr)
    details = {"workload": w.name, "seed": args.seed, "trace": args.trace,
               "rounds": run.rounds, "digests": run.digests, "exact": exact,
               "unscaled_medians": {name[len("unscaled."):]: statistics.median(v)
                                    for name, v in run.samples.items()
                                    if name.startswith("unscaled.")}}
    print("# details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
