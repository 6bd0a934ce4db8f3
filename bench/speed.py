"""Timing at a fixed reference speed on a machine whose speed changes.

On a shared container the speed of this process changes with the load of
its neighbours: on a 2-CPU container pure-Python code ran about 1.4 times
slower in some phases than in others, phases lasting from seconds to
minutes, and process CPU time slowed with wall time.  A run of tens of
seconds can fall wholly in one phase, so neither minima nor medians of wall
times agree from run to run.

:class:`Speedometer` times a fixed chunk of pure-Python work (:func:`chunk`)
right before and right after each timed call, and every ``INTERVAL``
seconds during it, from a ``SIGALRM`` handler that runs between the
program's bytecodes on the main thread.  The call's wall time, less the
chunks run inside it, is scaled by ``REFERENCE_CHUNK_S`` over the mean
chunk time: the result is the time the call would take at the speed at
which a chunk takes ``REFERENCE_CHUNK_S``.  Since the chunks are spread
evenly over the call, their mean weighs each phase by the share of the call
it covered.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

#: seconds between chunks inside a timed call
INTERVAL = 0.1
#: a chunk's time at the reference speed (the median chunk of a 28 s run
#: took 1.3 to 2.0 ms on a 2-CPU cloud container running CPython 3)
REFERENCE_CHUNK_S = 0.0015


def chunk() -> float:
    """Seconds taken by a fixed mix of loops, integer arithmetic, tuples and dict updates."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    acc += len(frozenset(table))
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Speedometer:
    """Times calls and scales them to the reference speed; use as a context manager."""

    def __init__(self) -> None:
        self.chunks: list[float] = []  # every chunk timed, in order
        self._inside = 0.0  # chunk seconds spent inside timed calls
        self._saved = None

    def __enter__(self) -> Speedometer:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _tick(self, signum, frame) -> None:
        elapsed = chunk()
        self.chunks.append(elapsed)
        self._inside += elapsed

    def time(self, fn):
        """Call ``fn()``; return its result, its wall seconds and its seconds at the reference speed."""
        first = len(self.chunks)
        self.chunks.append(chunk())
        inside = self._inside
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start - (self._inside - inside)
            self.chunks.append(chunk())
        return result, wall, wall * REFERENCE_CHUNK_S / statistics.fmean(self.chunks[first:])
