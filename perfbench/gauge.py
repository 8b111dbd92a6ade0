"""A fixed pure-Python loop that gauges how fast the machine runs now.

The benchmark's times are scaled by it (see README.md): on a core shared
with other tenants, speed changes by up to a factor of two for tens of
seconds at a time.  The loop does not call speclab, so a change to speclab
moves a scaled time as it moves the measured one.
"""

from __future__ import annotations

import time
from array import array

# reference_loop()'s fastest time on the machine the benchmark was made on:
# 2 cores of an Intel Xeon shared with other tenants, CPython 3.11.
REF_S = 0.0075

_CHAIN_SLOTS = 1 << 19  # 4 MB of 8-byte slots, twice the core's L2 cache
_chain = array("q")


def _build_chain() -> None:
    # i -> (a*i + c) mod 2**k with a = 1 (mod 4) and c odd is one cycle
    # through every slot (Hull-Dobell), in jumps no prefetcher follows.
    mask = _CHAIN_SLOTS - 1
    _chain.extend(((0x5DEECE66D * i + 0xB) & mask) for i in range(_CHAIN_SLOTS))


def reference_loop() -> float:
    """Seconds of fixed work: half dict, tuple, int and float work as in
    speclab's kernels, half a chain of dependent loads through 4 MB, which
    waits on the cache as speclab's large tables and memos do.  A neighbour
    that shares the core slows the first half; one that fills the shared
    cache slows the second."""
    if not _chain:
        _build_chain()
    chain = _chain
    t = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(18_000):
        k = (i * 7919) % 509
        table[k] = table.get(k, 0) + 1
        acc += (k * 0.5 + 1.0) / (i + 1.0)
        pair = (k, i)
        if pair[0] > 254:
            acc -= 1e-9
    j = 0
    for _ in range(40_000):
        j = chain[j]
    return time.perf_counter() - t
