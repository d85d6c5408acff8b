"""A fixed kernel that says how fast the host is right now.

A shared sandbox runs the same instructions at a speed that drifts by
tens of percent within minutes: the host takes the guest's vCPUs away
(``steal`` in ``/proc/stat``), and the same bit-identical child took
between 2.0 s and 3.7 s.  The probe is timed right before and right
after every job, and ``wall_ref_s = wall_s * REF_S / probe`` puts the job
on a clock that drifts less with the host.

The three parts cover what the program does — interpreter dispatch,
NumPy scatter/unique on small arrays, and object churn through a heap —
and are summed because over 80 interleaved runs the sum tracked the
job's slowdown better than any one part (quartile spread of wall/probe
5.8 % against 10.8 % raw on ``pmf-isp-sim``, 13.2 % against 32.7 % on
``pmf-bsp-local``).  It keeps a few MB alive at most, so it cannot raise
the child's peak RSS above what the job itself reaches; it shares no
code with the program and runs with the garbage collector off, so
neither the program's code nor the heap it leaves behind can move it.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

__all__ = ["REF_S", "probe", "to_ref"]

#: what the probe took on the reference host when nothing else ran (60
#: readings: least 0.198 s, median 0.203 s; 2-core Xeon @ 2.10 GHz,
#: Python 3.11.7, NumPy 2.4.6).  It only scales the normalised numbers so that they read as
#: seconds on that host: another interpreter or NumPy times the kernel
#: differently, which rescales every normalised number by one factor and
#: leaves comparisons between commits measured on one host unchanged.
REF_S = 0.200


def to_ref(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, on the
    reference host's clock."""
    return seconds * REF_S / probe_s


def _count(n):
    for i in range(n):
        yield i


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    rng = np.random.default_rng(0)
    index = rng.integers(0, 4000, size=6000)
    values = rng.normal(size=(6000, 16))
    dense = np.zeros((4000, 16))
    # the probe's own allocations must not set off a collection that
    # walks whatever heap the job left behind (platform-diurnal-sim's
    # made the reading after the job 50 % longer than the one before)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        total = 0
        for i in _count(260_000):
            table[i & 2047] = i
            total += table.get((i * 7) & 2047, 0)
        for _ in range(52):
            np.add.at(dense, index, values)
            total += int(dense[np.unique(index)].sum())
        for _ in range(13):
            heap = []
            for i in range(6_000):
                heapq.heappush(heap, (i * 7919 % 10007, i, [i]))
            drained = [heapq.heappop(heap) for _ in range(len(heap))]
            records = [{"a": i, "b": (i, i)} for i in range(6_000)]
            total += len(drained) + len(records)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
