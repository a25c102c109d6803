"""Host-speed normalization of wall time.

The reference host is a shared 2-core VM whose speed drifts by up to
±25% over tens of seconds as other tenants load it: a fixed pure-Python
loop timed back to back averages between 1.1x and 1.7x its quiet time
over 10-s windows.  Raw wall time of a 20-s run therefore varies more
than any regression worth catching.

So every unit of timed work (a design point, a save, a chunk of wire
requests) is bracketed by :func:`probe`, a fixed interpreter-bound
kernel timed in the same thread.  ``PROBE_REFERENCE_S / probe()`` is the
host's speed at that moment relative to the quiet reference host, and
the unit's wall time multiplied by the mean speed before and after it
is the time the reference host would have taken.  A change to the
program moves raw and normalized time alike; a busy host moves only the
raw time.  On the reference host, normalizing cut the run-to-run
coefficient of variation of a static_screen repetition from 0.14 to
0.05.

A probe taken right after the thread has slept or blocked can read
slower than one taken while it is busy, so every reading follows
warm-up probes (:func:`settled_speed`).  A unit of work that ends in a
wait (a save's file I/O, a barrier while the server answers) is then
not mistaken for a slow host: time the program adds by waiting longer
counts in full, at the host speed read around it (README.md, "Measuring
on a noisy host").
"""

from __future__ import annotations

import time
from statistics import median

#: Best-of-three time of :func:`_kernel` on the quiet reference host
#: (2-core Xeon, CPython 3.11), back to back.
PROBE_REFERENCE_S = 2.2e-4


def _kernel() -> int:
    """Interpreter-bound work like the program's: arithmetic, indexing
    and dict updates in a loop."""
    table = {}
    acc = 0
    for i in range(2000):
        acc = (acc + i * i) % 1000003
        table[i & 127] = acc
    return acc


def probe() -> float:
    """Best of three timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed() -> float:
    """Host speed relative to the reference host, probed now."""
    return PROBE_REFERENCE_S / probe()


def settled_speed(warmup: int = 10, n: int = 10) -> float:
    """Host speed relative to the reference host, measured after the
    calling thread may have idled or blocked: the median of ``n`` probes
    that follow ``warmup`` warm-up probes."""
    for _ in range(warmup):
        probe()
    return median([speed() for _ in range(n)])
