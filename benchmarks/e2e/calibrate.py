"""Host-speed calibration for the end-to-end timings.

The sandbox this benchmark runs in shares its cores.  A fixed piece of
pure-Python work takes anywhere from 1.0x to 1.6x its quiet time there, in
plateaus that last from seconds to a whole run, and every timed operation
— sim, columnar, mp, the CLI child — slows down with it.  On ten
``pagerank_web`` runs made in a noisy hour the raw medians spread 15–27 %
(interquartile range over median), which is all of the largest bound the
driver allows; in a quiet hour they spread 3–7 %.

So each end-to-end sample is taken between two shots of a calibration
kernel and reported in *host-normalised seconds*:

    normalised = raw seconds x KERNEL_NOMINAL_S / mean of the two shots

The common factor cancels — the same ten noisy runs spread 6–17 %, the
quiet ones 2–8 % — and what remains is the program's own time on a host
where the kernel takes its nominal time.  The kernel touches nothing of the
program under test, so no change to the program can move it.  Raw medians
are reported beside the normalised ones; the per-layer pass reports raw
seconds only.
"""

from __future__ import annotations

import time

#: the kernel's time on this class of host when it is quiet.  It only fixes
#: the scale of normalised seconds — on a quiet host they equal raw seconds.
KERNEL_NOMINAL_S = 0.028


def kernel_seconds() -> float:
    """Time one shot of the calibration kernel: the interpreter's usual mix
    of dict and float allocation, iteration, a keyed sort and integer
    arithmetic, over a working set of a few MB.  It allocates no container
    the garbage collector tracks, so its time does not depend on how large
    a heap the calling process holds."""
    t0 = time.perf_counter()
    table = {}
    for i in range(80_000):
        table[i] = i * 0.5
    total = 0.0
    for value in table.values():
        total += value
    sorted(table, key=table.get, reverse=True)
    acc = 0
    for i in range(400_000):
        acc += i * i
    return time.perf_counter() - t0


def normalised(raw_seconds: float, kernel_s: float) -> float:
    return raw_seconds * KERNEL_NOMINAL_S / kernel_s
