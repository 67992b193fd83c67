"""Host-speed reference for the timed loops.

The benchmark runs on a few vCPUs of a shared host whose speed changes by up
to 1.8x, in stretches of seconds to minutes, as other tenants come and go.
Raw op wall times then depend more on when a run happened than on floorref:
the median op time of the same code spread by a third of its value between
runs, and the op times of one run are bimodal. So every timed op is bracketed
by a fixed reference kernel, and its wall time is scaled by how much slower
than nominal the reference ran around it. The kernel does what floorref's ops
do most, small-array numpy calls and Python glue, so it slows with them when
the host does (correlation 0.9 over 2-second windows on all three workloads);
it calls no floorref code, so a change to floorref cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on an uncontended vCPU of the 2.1 GHz Xeon host the
# benchmark was written on. Scaled times read as ms on such a vCPU.
NOMINAL_S = 0.0015

_RNG = np.random.default_rng(20260317)
_M = _RNG.normal(size=(32, 3, 3))
_P = _RNG.normal(size=(32, 3))


def _kernel() -> float:
    acc = np.zeros(3)
    n = len(_M)
    for k in range(n):
        m = _M[k] @ _M[(k + 1) % n]
        _, _, vt = np.linalg.svd(m)
        acc += np.linalg.norm(_P[k] - m @ _P[k]) * np.cross(_P[k], vt[0])
    return float(acc.sum())


def seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def settled_seconds() -> float:
    """Median wall time of 5 back-to-back runs of the reference kernel."""
    return statistics.median(seconds() for _ in range(5))


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two reference runs into
    time on the nominal host."""
    return NOMINAL_S / (0.5 * (before + after))
