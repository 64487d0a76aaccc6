"""Host-speed samples taken while the program runs, to scale its times to a fixed speed.

The machines this benchmark runs on are shared, and their speed drifts by a
third within minutes, for fjgraphs and for any fixed piece of Python alike.
A ``Sampler`` runs a fixed reference piece of work from a SIGALRM handler
every ``INTERVAL_S`` seconds of timed work, so its samples track the host's
speed at the moments the program runs.  The handler's time is subtracted
from the operation it interrupted.  Each stretch of ``INTERVAL_S`` in which
the reference took ``r`` counts as ``INTERVAL_S * REFERENCE_S / r``: the
seconds the same work would take on a host that runs the reference in
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import itertools
import signal
import statistics
import time
from collections import deque

INTERVAL_S = 0.1
# One reference sample on a 2.1 GHz Xeon at a quiet moment; scaled times are
# seconds at that speed.  A constant of the benchmark: changing it rescales
# every reported time.
REFERENCE_S = 0.003

_VERTICES = list(itertools.permutations(range(6)))
_ROWS = [[(3 * i + 7 * j) % 11 / 11 for j in range(40)] for i in range(40)]


def reference() -> float:
    """
    Seconds taken by one fixed piece of work like the program's own: adjacent
    transpositions built as tuples, a BFS over them with a dict and a deque
    (the permutahedron of S_6), and float loops over lists.
    """
    start = time.perf_counter()
    adjacency = {v: [v[:i] + (v[i + 1], v[i]) + v[i + 2 :] for i in range(5)] for v in _VERTICES}
    dist = {_VERTICES[0]: 0}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    acc = 0.0
    for row in _ROWS:
        for x in row:
            acc = acc * 0.5 + x * x
    if len(dist) != len(_VERTICES) or not acc > 0:
        raise AssertionError("reference work went wrong")
    return time.perf_counter() - start


class Sampler:
    """
    Reference samples taken every ``INTERVAL_S`` seconds while armed.

    ``pause`` keeps what is left of the interval, so only armed time counts
    toward the next sample, however short the armed windows are.  Each sample
    is kept as (start, handler seconds, reference seconds).
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.on_sample = None  # called with the handler's seconds, e.g. by a tracer
        self._left = INTERVAL_S

    def _handler(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        start = time.perf_counter()
        try:
            ref = reference()
        finally:
            if collecting:
                gc.enable()
        spent = time.perf_counter() - start
        self.samples.append((start, spent, ref))
        if self.on_sample is not None:
            self.on_sample(spent)

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)

    def uninstall(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._left, INTERVAL_S)

    def pause(self) -> None:
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._left = left if left > 0 else INTERVAL_S

    def spent_between(self, start: float, end: float) -> float:
        """Handler seconds of the samples that started in [start, end]."""
        return sum(spent for t, spent, _ in self.samples if start <= t <= end)

    def reference_between(self, start: float, end: float) -> list[float]:
        return [ref for t, _, ref in self.samples if start <= t <= end]

    def scale_between(self, start: float, end: float) -> float:
        """
        Mean of REFERENCE_S / r over the samples taken in [start, end]; a
        window too short to hold one takes the latest sample before it.
        """
        refs = self.reference_between(start, end)
        if not refs:
            earlier = [ref for t, _, ref in self.samples if t < start]
            refs = earlier[-1:] or [reference()]
        return statistics.fmean(REFERENCE_S / ref for ref in refs)
