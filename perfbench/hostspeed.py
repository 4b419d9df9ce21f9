"""Host-speed probe: a fixed piece of interpreted work that shares no code
with nulldist.

A shared host slows every process on it by up to about 1.8x, for seconds to
minutes at a time, as co-tenants come and go.  The worker runs this probe
around every timed operation; dividing an operation's time by the probe's
time taken around it removes the host's speed of the moment and leaves the
program's own cost.  The probe does what the program's hot loops do:
Dijkstra with ``heapq`` over CSR arrays read one numpy scalar at a time.
Code that leaves the interpreter (compiled kernels, say) slows with the host
less in step with the probe; the raw times stay in the result record for
that comparison.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

SIDE = 70  # the probe graph is a SIDE x SIDE grid with diagonals

# Fixed reference: about the probe's time on the reference host (2-vCPU
# Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6) when little else slows
# it; over 1,831 probes of one ten-seed set its tenth percentile was 20 ms
# and its lower quartile 23 ms.  Adjusted times are the times that host
# would show with the probe at this speed.
REF_S = 0.022


def _graph():
    """CSR arrays of the probe graph, integer weights 1-5; fixed, so every
    probe does equal work."""
    n = SIDE * SIDE
    idx = np.arange(n).reshape(SIDE, SIDE)
    pairs = [(idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :]),
             (idx[:-1, :-1], idx[1:, 1:]), (idx[:-1, 1:], idx[1:, :-1])]
    a = np.concatenate([p.ravel() for p, _ in pairs])
    b = np.concatenate([q.ravel() for _, q in pairs])
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    weight = 1 + (src * 7 + dst * 13) % 5
    indptr = np.searchsorted(src, np.arange(n + 1))
    return indptr, dst, weight


_INDPTR, _INDICES, _WEIGHT = _graph()
_NODE_BITS = 16  # a heap key is dist << _NODE_BITS | node
_DIST = np.empty(_INDPTR.size - 1, dtype=np.int64)


def _dijkstra() -> int:
    """Distance to the far corner.  The heap holds plain integer keys and
    ``_DIST`` is reused, so a probe run inside an operation allocates no
    object the garbage collector tracks and starts no collection the
    operation would not have had."""
    dist = _DIST
    dist.fill(np.iinfo(np.int64).max)
    dist[0] = 0
    mask = (1 << _NODE_BITS) - 1
    heap = [0]
    while heap:
        key = heapq.heappop(heap)
        d, u = key >> _NODE_BITS, key & mask
        if d > dist[u]:
            continue
        for e in range(_INDPTR[u], _INDPTR[u + 1]):
            v = _INDICES[e]
            nd = d + _WEIGHT[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd << _NODE_BITS) | v)
    return int(dist[-1])


def probe() -> float:
    """Seconds one fixed Dijkstra takes now."""
    t0 = time.perf_counter()
    _dijkstra()
    return time.perf_counter() - t0


def adjust(seconds: float, probes) -> float:
    """``seconds`` measured while the probe took ``probes`` (their mean),
    rescaled to the reference speed."""
    return seconds * REF_S * len(probes) / sum(probes)


class Sampler:
    """Runs the probe every ``every_s`` seconds of wall time while an
    operation runs, from a timer signal, so that an operation of several
    seconds is adjusted by the host's speed during it and not only at its
    ends.  ``samples`` holds the probe times; the caller subtracts their sum
    from the operation's wall time."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples = []
        self._old = None

    def _tick(self, signum, frame):
        self.samples.append(probe())
        signal.setitimer(signal.ITIMER_REAL, self.every_s)  # one shot: no overlap

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
