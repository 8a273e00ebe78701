"""Self-test of the benchmark's gate, on toy-sized copies of every workload.

    python3 perfbench/selftest.py

For each workload it checks that:

- a toy run passes every output check with no failed operation;
- the exact counts derived from outputs and inputs repeat across two runs;
- a traced run writes the same itemsets as the untraced one, and its
  trace counts agree with the outputs (every item and every mined
  itemset is emitted by nb_gen exactly once);
- the same run with one frequency corrupted in each itemset file the
  program writes counts each of those operations as failed.

Exits 1 if any of these fails.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Toy copies keep every absolute support count at 6 or more, since the
# baselines' output grows combinatorially as it approaches one transaction.
TOYS = {
    "artif2-dense-8k": dict(n_transactions=1500),
    "artif1-deep-1500": dict(n_transactions=600, n_items=300, n_patterns=300,
                             min_support=0.01, min_allconf=0.2),
    "null-12k": dict(n_transactions=3000),
}
SEED = 3


def corrupt_writer(write_itemsets):
    """write_itemsets, then add one to the frequency on the file's first line."""
    def corrupted(path, records):
        write_itemsets(path, records)
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        fields = lines[0].split("\t")
        fields[1] = str(int(fields[1]) + 1)
        lines[0] = "\t".join(fields)
        Path(path).write_text("\n".join(lines), encoding="utf-8")
    return corrupted


def main() -> int:
    nbminer = bench.load_nbminer()
    if nbminer is None:
        print("error: no src/nbminer next to perfbench/", file=sys.stderr)
        return 2
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for name, toy in TOYS.items():
        w = replace(WORKLOADS[name], name=f"toy-{name}", **toy)
        first, _, exact1 = bench.execute(nbminer, w, SEED, 0, False)
        expect(first.failed == 0 and first.attempted > 0,
               f"{name}: toy run passes ({first.failed}/{first.attempted} failed"
               f"{'; ' + first.errors[0][:200] if first.errors else ''})")
        expect(exact1.get("mining.itemsets", 0) > 0, f"{name}: toy run mines itemsets")
        second, _, exact2 = bench.execute(nbminer, w, SEED, 0, False)
        expect(exact1 == exact2 and second.failed == 0,
               f"{name}: exact counts repeat across two runs")

        traced, layer, _ = bench.execute(nbminer, w, SEED, 0, True)
        expect(traced.failed == 0 and traced.digests.get("nb") == first.digests.get("nb"),
               f"{name}: traced run writes the untraced run's itemsets")
        # nodes_expanded counts the items plus the mined itemsets, from the outputs
        expect(layer["mining.itemsets_emitted"] == layer["mining.nodes_expanded"],
               f"{name}: nb_gen emits every item and mined itemset once")

        original = nbminer.mining.write_itemsets
        nbminer.mining.write_itemsets = corrupt_writer(original)
        try:
            broken, _, _ = bench.execute(nbminer, w, SEED, 0, False)
        finally:
            nbminer.mining.write_itemsets = original
        itemset_ops = sum(kind != "sweep" for kind, _, _ in broken.outputs)
        expect(broken.failed == itemset_ops,
               f"{name}: corrupted frequency fails each of {itemset_ops} itemset "
               f"operations (counted {broken.failed} of {broken.attempted})")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
