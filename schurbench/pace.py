"""A fixed reference task that measures how fast the box runs Python just now.

The shared box this benchmark runs on changes speed by 20-40 % over tens of
seconds, for all work alike, and a run cannot outlast that.  So a session
runs short chunks of a reference task, which never touches affineschur,
alongside its ops: between ops, enough chunks that the reference time keeps
up with SHARE of the op time; and within an op that runs longer than
DELAY_S, one chunk every INTERVAL_S, from an interval timer, its time taken
out of the op.  Short queries are thus never interrupted, and a verify sweep
of seconds holds a hundred chunks of its own.  Each op's latency is then
rescaled by the median chunk time around it:

    latency at reference speed = latency * NOMINAL_S / median chunk time

NOMINAL_S is a constant, about the median chunk time on the box in
README.md, so the rescaled figures stay in seconds.  Both sides of a
comparison run the same chunk, so the constant cancels out of any ratio
between them; what remains is the op time in units of the reference task.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# Reference time per second of op time, between ops.
SHARE = 0.25
# Within an op: the first chunk after DELAY_S, then one per INTERVAL_S (a
# chunk takes about a quarter of it).
DELAY_S = 0.2
INTERVAL_S = 0.05
# Chunks that started within this many seconds of an op rescale it.
WINDOW_S = 1.0
# About the median chunk time on the box in README.md.
NOMINAL_S = 0.013


def reference_chunk(n: int = 6) -> int:
    """Integer arithmetic, then a breadth-first search of the symmetric group
    S_n by adjacent transpositions (tuples, dicts, lists), which is the kind
    of work the package does."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    start = tuple(range(n))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            d = dist[w] + 1
            for i in range(n - 1):
                if w[i] < w[i + 1]:
                    v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
        frontier = nxt
    return acc + sum(dist.values())


class Pacer:
    """Runs reference chunks between ops, and on SIGALRM within long ones."""

    def __init__(self) -> None:
        self.chunks: list[tuple[float, float]] = []  # (start, duration)
        self.paused = 0.0  # total chunk time so far
        self.owed = 0.0  # reference time still due between ops
        self._busy = False

    def _chunk(self) -> float:
        start = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - start
        self.chunks.append((start, took))
        self.paused += took
        return took

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a chunk is dropped
            return
        self._busy = True
        self._chunk()
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def armed(self):
        """Around an op: a chunk at DELAY_S into it, then one per INTERVAL_S."""
        signal.setitimer(signal.ITIMER_REAL, DELAY_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def keep_up(self, op_s: float) -> None:
        """Between ops: run chunks until the reference time has caught up
        with SHARE of the op time so far."""
        self.owed += SHARE * op_s
        while self.owed > 0:
            self.owed -= self._chunk()

    def clock(self) -> float:
        """perf_counter() less the chunk time so far."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def rescale(self, latency: float, start: float, end: float) -> float:
        near = [took for at, took in self.chunks
                if start - WINDOW_S <= at <= end + WINDOW_S]
        return latency * NOMINAL_S / statistics.median(near or [t for _, t in self.chunks])
