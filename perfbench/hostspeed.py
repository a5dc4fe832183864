"""Host-speed sampling, so that timings can be scaled to a reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within a minute.  Every 20 ms a ``SIGALRM`` handler times one
fixed chunk of interpreter work; the mean chunk time over an interval
says how fast the host ran during it.  A duration measured over that
interval, minus the chunks that ran inside it, is scaled by
``REFERENCE_CHUNK_S / mean chunk time``: the time the same work would
have taken with the host at the reference speed.  Phases are scaled by
their own mean; single operations by the samples around them.

The program never sees any of this: the handler touches only its own
objects, and the chunk time is subtracted from every duration.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

#: Mean chunk time on the reference host (2-core shared VM, CPython
#: 3.11) in a quiet period.  Only the ratio matters for comparisons.
REFERENCE_CHUNK_S = 180e-6
INTERVAL_S = 0.02
#: Shortest window whose samples scale one operation (about 10 samples).
LOCAL_WINDOW_S = 0.2


def chunk() -> int:
    """Fixed interpreter-bound work: dict and integer operations, the
    kind the simulator spends its time on."""
    table: dict = {}
    total = 0
    for i in range(1000):
        table[i & 63] = table.get(i & 63, 0) + i
        total += i * i
    return total


class HostSpeed:
    """Collects ``(start, duration)`` of every chunk while running."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        chunk()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _inside(self, a: float, b: float) -> List[float]:
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return self.durations[lo:hi]

    def factor(self, a: float, b: float) -> float:
        """Reference speed over host speed during ``[a, b]`` (1.0 with
        no samples there)."""
        inside = self._inside(a, b)
        if not inside:
            return 1.0
        return REFERENCE_CHUNK_S / (sum(inside) / len(inside))

    def busy(self, a: float, b: float) -> float:
        """Seconds the chunks themselves took inside ``[a, b]``."""
        return sum(self._inside(a, b))

    def scaled(self, a: float, b: float, factor: float) -> float:
        """Duration of ``[a, b]`` without the chunks, at reference speed."""
        return (b - a - self.busy(a, b)) * factor

    def scaled_spans(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Each span at reference speed, scaled by the host speed around
        it: over the span itself, widened to at least ``LOCAL_WINDOW_S``
        so that short operations still see enough samples."""
        out = []
        for a, b in spans:
            pad = max(0.0, (LOCAL_WINDOW_S - (b - a)) / 2)
            out.append(self.scaled(a, b, self.factor(a - pad, b + pad)))
        return out
