"""Run the benchmark over several seeds; report spreads, record digests and baselines.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] [--write-digests] [--baseline]

For every workload and seed it runs ``run.py --trace 0`` once and prints,
per end-to-end metric, the median and the spread (third minus first
quartile, from ``statistics.quantiles(values, n=4)``, over the median)
with its bound from BENCHMARK.json; for the metrics in reference-speed
seconds, also the median and spread of their wall times. ``--write-digests`` stores the output
digests of every correct run in ``perfbench/digests.json``, so later runs
of that workload and seed must reproduce them byte for byte.
``--baseline`` also runs seed 1 traced and writes ``perfbench/baseline.json``
with the seed-1 end-to-end and per-layer numbers, the spreads and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    details = next((json.loads(line[len("# details "):]) for line in lines
                    if line.startswith("# details ")), {})
    return json.loads(lines[-1]), details, proc.stderr


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--write-digests", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    digests_path = HERE / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    summary, ok = {}, True
    for name in names:
        values = {m: [] for m in bounds}
        unscaled = {}
        for seed in args.seeds:
            result, details, stderr = bench(name, seed, 0)
            line = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            if not result["correct"]:
                ok = False
                print(stderr, file=sys.stderr)
                continue
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            for m, v in details.get("unscaled_medians", {}).items():
                unscaled.setdefault(m, []).append(v)
            if args.write_digests:
                digests.setdefault(name, {})[str(seed)] = details["digests"]
        summary[name] = {}
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            summary[name][m] = {"median": statistics.median(vals), "spread": s,
                                "bound": bounds[m], "runs": len(vals)}
            flag = "" if m == "setup_s" or s < bounds[m] / 3 else "  <-- above bound/3"
            raw = unscaled.get("setup.total_s" if m == "setup_s" else m, [])
            if len(raw) > 1:
                summary[name][m].update(wall_median=statistics.median(raw),
                                        wall_spread=spread(raw))
                raw = f"  (wall: median {statistics.median(raw):.4f} spread {spread(raw):.4f})"
            else:
                raw = ""
            print(f"  {name:<18} {m:<12} median {statistics.median(vals):10.4f}  "
                  f"spread {s:.4f}  bound {bounds[m]}{flag}{raw}", flush=True)
    if args.write_digests:
        digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    if args.baseline:
        base = {"nproc": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version(), "run_seconds": spec["run_seconds"],
                "seeds": [args.seeds[0], args.seeds[-1]],
                "workloads": {}}
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        for name in names:
            e2e, _, _ = bench(name, 1, 0)
            layer, _, _ = bench(name, 1, 1)
            ok = ok and e2e["correct"] and layer["correct"]
            base["workloads"][name] = {
                "why": why[name],
                "seed1_end_to_end": {m: v["value"] for m, v in e2e["metrics"].items()},
                "seed1_per_layer": {m: v["value"] for m, v in layer["metrics"].items()},
                "over_seeds": summary[name]}
        (HERE / "baseline.json").write_text(json.dumps(base, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
