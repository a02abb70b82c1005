"""Host-speed probe: scales measured wall times to a fixed host speed.

The benchmark's reference host is two vCPUs shared with other tenants.
Its speed drifts by up to 1.8x in phases of one to tens of seconds with
no steal time, so raw wall times of identical runs differ by more than
any useful bound. The probe is fixed interpreter work owned by the
benchmark, never by the program: object allocation, a heap, and dict
updates over a working set of a few thousand objects, which is the
kind of work the simulator does. Timed next to each cell, it reads the
host's current speed; on the reference host, 12-second segments of
probe and cell time correlate at 0.99, and the ratio of cell time to
probe time spreads 0.04 (IQR / median) where raw cell time spreads 0.26.

A wall time ``w`` measured while the probe took ``p`` seconds is
reported as ``w * REFERENCE_PROBE_S / p``: the seconds the same work
takes on a host where the probe takes :data:`REFERENCE_PROBE_S`.
A change to the program moves the scaled time exactly as it moves the
raw time; only the host's drift is divided out. The cyclic garbage
collector is paused while the probe runs, so the program's heap does
not change what the probe measures.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: probe seconds near the fast end of its range (0.016-0.036 s) on the
#: reference host (2 vCPUs of an Intel Xeon, Python 3.11)
REFERENCE_PROBE_S = 0.020

_ITERATIONS = 12_000
_HEAP_SIZE = 512
_KEYS = [random.Random(7).randrange(1 << 20) for _ in range(4096)]


class _Event:
    __slots__ = ("time", "key", "value", "next")

    def __init__(self, time_, key, value, next_):
        self.time = time_
        self.key = key
        self.value = value
        self.next = next_


def _work() -> float:
    keys = _KEYS
    heap: list = []
    table: dict = {}
    total = 0.0
    previous = None
    for i in range(_ITERATIONS):
        event = _Event(keys[i & 4095] * 1e-6, keys[(i * 31) & 4095],
                       float(i), previous)
        previous = event if i & 7 else None
        heapq.heappush(heap, (event.time, i, event))
        if len(heap) > _HEAP_SIZE:
            _, _, done = heapq.heappop(heap)
            table[done.key] = table.get(done.key, 0.0) + done.value
            total += len(table) & 3
    return total


def probe() -> float:
    """Wall seconds of one run of the fixed probe work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(wall: float, probe_s: float) -> float:
    """``wall`` seconds, measured while the probe took ``probe_s``,
    in seconds of the reference host."""
    return wall * REFERENCE_PROBE_S / probe_s
