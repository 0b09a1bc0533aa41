"""Calibration kernel used to speed-normalise every timing.

The host's speed drifts by tens of percent within seconds, so a raw wall
time says as much about the host as about the program.  Each measured
interval is bracketed by runs of this fixed pure-Python kernel; the
interval's wall time divided by the kernel's time, times REF_KERNEL_S,
reads as the time the work would take on a machine on which the kernel
takes exactly REF_KERNEL_S.

The module imports nothing outside the standard library, so it can run
before the program is imported.
"""

import math
import time

#: median kernel time between jobs on the reference machine (2 vCPU, Python 3.11.7)
REF_KERNEL_S = 2.9e-3


def kernel(n: int = 3000) -> float:
    """Float math, stores into a 4096-slot dict, 3000 tuple appends, a sort
    and a tuple of floats built from them (the allocation pattern of the
    program's point containers), so that the kernel slows with the host's
    caches and allocator as well as with its clock."""
    acc = 0.0
    table = {}
    items = []
    for i in range(n):
        x = (i * 2654435761) % 1000003
        acc += math.sqrt(x) * 1e-3
        table[x & 4095] = acc
        items.append((x, acc))
    items.sort()
    values = tuple(float(v) for v, _ in items)
    return acc + len(table) + sum(values)


def time_kernel() -> float:
    """Wall time of one kernel run, in seconds.

    The cyclic garbage collector stays on, so the kernel's young-generation
    collections slow with the host's memory system as the program's do.
    With the collector off the normaliser tracked the allocation-heavy
    diagnose workload less well; the program's live heap barely moves the
    kernel (README.md, "Speed normalisation")."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalise(wall_s: float, kernel_s: float) -> float:
    """Wall time expressed on the reference machine, given the kernel's time
    measured next to it."""
    return wall_s / kernel_s * REF_KERNEL_S
