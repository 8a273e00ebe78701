"""Spans and counts recorded around calls into nbminer, from outside it.

``Tracer.install`` rebinds public functions on nbminer's modules to
wrappers that record a span (name, start, end, parent) per call and,
for some, count the work the call was given or returned. Rebinding the
name on the module whose code calls it is what makes calls made inside
the library visible: ``nb_dfs`` looks up ``nb_gen`` and
``nb_pmf_prefix`` in ``nbminer.mining``'s globals, so wrapping them
there traces every node of the search. Spans stay in memory until
``write`` is called.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


def _count_nb_gen(counts, args, result):
    counts["mining.nb_gen_calls"] += 1
    counts["mining.candidates_proposed"] += len(args[1])
    counts["mining.itemsets_emitted"] += len(result)


def _count_pmf(counts, args, result):
    counts["nbmodel.nb_pmf_prefix_calls"] += 1
    counts["nbmodel.pmf_terms"] += len(result)


# (module rebound, attribute, span name, counter) for every traced call.
# A span is named "<layer>.<function>", the layer being the nbminer module
# that defines the function; nb_pmf_prefix is nbmodel's, called by mining.
TRACED = (
    ("synthgen", "read_truth", "synthgen.read_truth", None),
    ("transactions", "load_basket", "transactions.load_basket", None),
    ("nbmodel", "fit_database", "nbmodel.fit_database", None),
    ("mining", "nb_dfs", "mining.nb_dfs", None),
    ("mining", "nb_gen", "mining.nb_gen", _count_nb_gen),
    ("mining", "nb_pmf_prefix", "nbmodel.nb_pmf_prefix", _count_pmf),
    ("mining", "write_itemsets", "mining.write_itemsets", None),
    ("baselines", "mine_frequent", "baselines.mine_frequent", None),
    ("baselines", "mine_allconf", "baselines.mine_allconf", None),
    ("evaluation", "score", "evaluation.score", None),
)


class Tracer:
    """Span recorder. Each span is [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx][1:3] = (start, end)

    def _wrap(self, name, fn, count):
        # span() inlined: a generator-based context manager would double
        # the cost of the ~30k nb_gen and nb_pmf_prefix calls per search.
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every TRACED function on ``package``'s modules."""
        for module_name, attr, name, count in TRACED:
            module = getattr(package, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self, start: int = 0, end: int = None) -> dict:
        """Per span name over spans[start:end]: (calls, total s, self s).

        Self time is a span's duration minus that of its direct children,
        which nest inside it.
        """
        spans = self.spans[start:end]
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= start:
                child[s[3] - start] += s[2] - s[1]
        out = {}
        for s, c in zip(spans, child):
            calls, total, self_ns = out.get(s[0], (0, 0, 0))
            out[s[0]] = (calls + 1, total + s[2] - s[1], self_ns + s[2] - s[1] - c)
        return {name: (calls, total / 1e9, self_ns / 1e9)
                for name, (calls, total, self_ns) in out.items()}

    def write(self, path) -> None:
        """Spans as TSV: index, parent index, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")
