"""Machine-speed reference for the end-to-end times.

The benchmark's host is shared, and its speed drifts by up to 2x over
minutes, in CPU time as in wall time.  `kernel_s()` times a fixed
pure-Python loop with evflow's kind of work (tuples, f-strings, set and
dict lookups) that shares no code with evflow.  The benchmark runs it
between passes over the deck and scales each pass's times by
`REFERENCE_S / kernel time`: the time the pass would have taken on a
host where the kernel takes `REFERENCE_S`.  A change to evflow does not
move the kernel, so it moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time

# the kernel's time on an idle 2-core 2.1 GHz virtual machine, Python 3.11.7
REFERENCE_S = 0.015


def _kernel() -> int:
    seen: set = set()
    counts: dict = {}
    for i in range(30000):
        key = (i % 13, f"n{i % 17}", i % 11)
        if key not in seen:
            seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def kernel_s() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(kernel_times: list[float]) -> float:
    """Factor from raw seconds to reference seconds, from the kernel
    times measured around a stretch of work."""
    return REFERENCE_S / (sum(kernel_times) / len(kernel_times))
