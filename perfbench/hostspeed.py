"""Host-speed probe: a small fixed piece of work timed around every call.

The benchmark's host is shared, and its speed drifts: with identical
inputs one 8-minute stretch slowed a short-lectures round from 4.3 s to
11.7 s, and the process's CPU time drifted with its wall time, so the
slowdown is in the host, not in scheduling. Every timed CLI call is
bracketed by two probes; the call's *host-adjusted* time is its wall
time divided by the mean of the two probes over ``REFERENCE_S``.

The probe does the kinds of work the program does (a pure-Python loop
over tuples, small numpy reductions, a dense matrix product, a JSON
round trip of a float matrix) and lives in the benchmark's directory,
so a change to the program never changes it.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: The probe's typical time on the host described in README.md; it only
#: scales adjusted times back to seconds on that host.
REFERENCE_S = 0.016

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((60, 12))
_SQUARE = _RNG.random((300, 300))
_ROWS = _SQUARE[:10].tolist()
_PAIRS = [(i % 97, i % 89) for i in range(10000)]


def probe() -> float:
    """Host slowness now: the probe's time over ``REFERENCE_S``."""
    start = time.perf_counter()
    sum(1 for p in _PAIRS if tuple(sorted(p)) == (3, 5))
    for _ in range(225):
        top = _SMALL.max(axis=1, keepdims=True)
        np.log(np.exp(_SMALL - top).sum(axis=1))
    for _ in range(3):
        _SQUARE @ _SQUARE
    json.loads(json.dumps(_ROWS))
    return (time.perf_counter() - start) / REFERENCE_S
