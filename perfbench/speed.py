"""Rescaling of wall times to a reference machine speed.

On a shared machine the speed one process gets drifts within seconds, as
other tenants come and go; on the 2-core machine this benchmark was
written on, the loop below took from 0.06 to 0.11 s over 30
back-to-back runs. A median over a few rounds does not remove drifts
that last seconds to minutes, so every operation timed by ``run.py``
(and every set-up repetition) is bracketed by runs of a fixed
pure-Python reference loop, and its time is reported as

    wall seconds * NOMINAL_S / (mean of the loop's time just before and just after)

that is, in reference-speed seconds (unit ``ref_s``): the time the
operation would take at the speed where the loop takes NOMINAL_S. On
that 2-core machine a reference-speed second was 0.6-1.0 wall seconds
for single operations, and 0.8-0.95 in the medians of a run. Over two
passes of ten seeds, the largest spread (IQR over median) of a scaled
metric was 0.21, and that of its wall time 0.32.

The loop runs in a helper process of its own, started by ``Scaler``, so
nothing the measured program leaves behind in the measuring process (a
thread holding the GIL, a large heap) can slow the loop and pass for a
speed-up. Each time, the helper first moves to the CPU the measuring
process last ran on: the CPUs of a shared machine need not run at the
same speed, and a helper left free to run on either tracked the
measured operations no better than no scaling at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

NOMINAL_S = 0.1
_LOOP = 1_000_000


def reference_s() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i
    return time.perf_counter() - t0


class Scaler:
    """Speed factors for consecutive timed operations.

    Use it as a context manager, entered just before the first operation;
    call ``factor`` right after each one. The loop run after one operation
    also serves as the "before" loop of the next.
    """

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self._last = self._reference()
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()

    def _reference(self) -> float:
        self._proc.stdin.write(f"{_current_cpu()}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def factor(self) -> float:
        before, self._last = self._last, self._reference()
        return 2 * NOMINAL_S / (before + self._last)


def _current_cpu() -> int:
    """The CPU this process last ran on (Linux), or -1 if unknown."""
    try:
        stat = Path("/proc/self/stat").read_text()
    except OSError:
        return -1
    return int(stat.rsplit(")", 1)[1].split()[36])


if __name__ == "__main__":
    # The helper: per line read, a CPU to move to (-1: stay), then one loop time.
    for line in sys.stdin:
        if int(line) >= 0:
            os.sched_setaffinity(0, {int(line)})
        print(reference_s(), flush=True)
