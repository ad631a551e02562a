"""CPU choice and machine-speed reference for every timed operation.

On a shared machine the speed of a virtual CPU drifts by up to 2x over tens
of seconds as neighbours load the caches and the sibling thread, and one
virtual CPU can be slow while the other is not.  Wall times taken minutes
apart then differ by more than any bound worth setting.  So, outside the
timing, the harness runs a small fixed reference kernel (about 3 ms) on
every CPU it may use, pins itself to the fastest, and runs the kernel again
after the operation.  The operation's wall time is then rescaled to a
machine on which the kernel takes its nominal time:
``scaled = wall * nominal / sqrt(before * after)``.  The kernels never touch
relbelief, so a change to the program moves the scaled time by the same
share as the wall time.  Each workload uses the kernel whose slowdowns
follow its own most closely (see perfbench/README.md): small numpy calls in
an interpreter loop (``numpy-loop``), or a random gather over 1 MB plus an
integer loop (``gather``).  Child processes inherit the pin.  This acts
only on the benchmark's own processes.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

perf = time.perf_counter

_rng = np.random.default_rng(0)
_VALUES = _rng.random(50)
_BINS = _rng.integers(0, 50, 400)
_WEIGHTS = _rng.random(400)
_DATA = _rng.random(1 << 17)
_ORDER = _rng.permutation(_DATA.size).astype(np.int32)


def _numpy_loop() -> None:
    total = 0.0
    for i in range(200):
        order = np.argsort(-_VALUES, kind="stable")
        cum = np.cumsum(_VALUES[order])
        counts = np.bincount(_BINS, weights=_WEIGHTS, minlength=50)
        total += float(cum[i % 50]) + float(counts[i % 50]) + float(np.searchsorted(cum, cum[-1] / 2))


def _gather() -> None:
    total = float(_DATA[_ORDER].sum())
    for i in range(30000):
        total += i & 7


# name: (kernel, its nominal seconds)
KERNELS = {"numpy-loop": (_numpy_loop, 0.0025), "gather": (_gather, 0.003)}


def reference(kernel: str) -> float:
    """Seconds taken by a fixed reference kernel on the current CPU."""
    start = perf()
    KERNELS[kernel][0]()
    return perf() - start


def allowed_cpus() -> list[int]:
    """The CPUs this process may be pinned to; empty where pinning is unavailable."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        return []
    return sorted(cpus)


def pin_fastest(cpus: list[int], kernel: str) -> float:
    """Pin this process to the fastest of ``cpus``; returns its reference seconds."""
    best = None
    for cpu in cpus if len(cpus) > 1 else [None]:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        reference(kernel)  # let a migration settle
        took = reference(kernel)
        if best is None or took < best[0]:
            best = (took, cpu)
    if best[1] is not None:
        os.sched_setaffinity(0, {best[1]})
    return best[0]


def unpin(cpus: list[int]) -> None:
    if cpus:
        os.sched_setaffinity(0, set(cpus))


def scale(kernel: str, before: float, after: float) -> float:
    """Factor that rescales a wall time to the kernel's nominal speed."""
    return KERNELS[kernel][1] / math.sqrt(before * after)
