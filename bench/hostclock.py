"""Query times on a nominal host, for a shared host whose speed drifts.

On a shared host the CPU a query runs on slows down and speeds up by up
to 2x within seconds, as other tenants come and go, and a query's time
swings with it.  On a 2-vCPU Intel Xeon cloud VM the same bigraded-su3
query took 1.4 s and 3.0 s a minute apart, and its two vCPUs differed
in speed by a third at the same moment.  No time measured inside the
machine leaves that out, so the benchmark measures the host's speed
while each query runs instead.

`HostClock` is a thread of the benchmark process.  The process is pinned
to one CPU, and its query children inherit the pinning, so the thread
shares that CPU with the query in flight.  Every INTERVAL_S it times, in
its own CPU time, a fixed piece of exact Gaussian-rational elimination
written here, independent of the library.  A query's CPU time times
NOMINAL_PIECE_S over the mean piece time around the query is its time
on a *nominal host*, one on which the piece takes NOMINAL_PIECE_S.  A
faster or slower library moves that figure as it moves the raw time; a
faster or slower host does not.  The thread takes about a tenth of the
CPU; the query's own CPU time does not include that share.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import threading
from fractions import Fraction
from time import perf_counter, thread_time

NOMINAL_PIECE_S = 0.025  # CPU time of one reference piece on the nominal host
INTERVAL_S = 0.25  # pause between pieces
NEAREST = 5  # a query shorter than this many pieces uses the nearest ones

_N = 14
_rng = random.Random("liecoh-bench:reference")
_MATRIX = [
    [(Fraction(_rng.randint(-2, 2)), Fraction(_rng.choice((0, 0, 1, -1))))
     if _rng.random() < 0.4 else (Fraction(0), Fraction(0))
     for _ in range(_N)]
    for _ in range(_N)
]


def reference_elimination() -> int:
    """Gauss-Jordan elimination over Q(i) of a fixed sparse 14x14 matrix,
    in (re, im) Fraction pairs; returns its rank.  The same kind of work as
    the library's exact elimination, but none of its code."""
    m = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(_N):
        p = next((i for i in range(rank, _N) if m[i][c] != (0, 0)), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        a, b = m[rank][c]
        n = a * a + b * b
        ia, ib = a / n, -b / n
        m[rank] = [(x * ia - y * ib, x * ib + y * ia) for x, y in m[rank]]
        for i in range(_N):
            if i != rank and m[i][c] != (0, 0):
                fa, fb = m[i][c]
                m[i] = [(x - (fa * u - fb * v), y - (fa * v + fb * u))
                        for (x, y), (u, v) in zip(m[i], m[rank])]
        rank += 1
    return rank


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to its lowest
    allowed CPU; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Reference pieces timed in a thread, while the program runs:

        with HostClock() as clock:
            ... run queries, keeping (cpu seconds, start, end) of each ...
        nominal = [clock.nominal(cpu, start, end) for cpu, start, end in runs]
    """

    def __init__(self):
        self.pieces = []  # (start, end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-clock", daemon=True)

    def __enter__(self):
        reference_elimination()  # warm-up, untimed
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.pieces:
            self._piece()

    def _piece(self):
        gc.disable()  # the benchmark's own heap should not weigh on a piece
        try:
            start, cpu = perf_counter(), thread_time()
            reference_elimination()
            self.pieces.append((start, perf_counter(), thread_time() - cpu))
        finally:
            gc.enable()

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self._piece()

    def piece_s(self, start: float, end: float) -> float:
        """Mean CPU time of the pieces that overlap [start, end], or of
        the NEAREST pieces to it when fewer overlap.  The mean, not the
        median: the host switches between a fast and a slow state, and a
        query's time is the mean of the two weighted by time in each."""

        def distance(piece):
            return max(0.0, start - piece[1], piece[0] - end)

        ranked = sorted(self.pieces, key=distance)
        inside = sum(1 for p in ranked if distance(p) == 0)
        return statistics.fmean(p[2] for p in ranked[:max(NEAREST, inside)])

    def nominal(self, cpu_s: float, start: float, end: float) -> float:
        """`cpu_s` seconds spent from start to end, in nominal-host seconds."""
        return cpu_s * NOMINAL_PIECE_S / self.piece_s(start, end)
