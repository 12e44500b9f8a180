"""Operation timing normalised by a fixed reference computation.

On a shared host the wall time of the same work drifts by 20% and more
between processes, and CPU time drifts with it: the host slows down, the
scheduler does not take the time away. A fixed pure-Python computation timed
next to the operations slows down with it, so each operation's wall time is
rescaled by the reference time measured around it:

    normalised_ms = raw_ms * REFERENCE_NOMINAL_MS / local_reference_ms

which reads as "milliseconds on a host where the reference takes exactly
REFERENCE_NOMINAL_MS". Raw wall-clock figures are kept beside every
normalised one.
"""
from __future__ import annotations

import gc
import itertools
import statistics
import time
from fractions import Fraction

REFERENCE_NOMINAL_MS = 6.0

# a reference run follows every SEGMENT_NS of operation time. One 6 ms
# reference run jitters by 10-20% on its own, so an operation's normaliser
# is the median of the WINDOW reference runs around its segment, which
# still follows the host's drift over seconds
SEGMENT_NS = 80_000_000
WINDOW = 6


def reference_work() -> int:
    """Fixed pure-Python work in the program's mix: fractions, floats, dicts.

    The alternating power sum over sign patterns mirrors the exact section
    sums. Recorded side by side with the operations, adding such a sum to
    the small-number part cut the spread of operation-to-reference ratios
    over 4-second blocks from 9.5% to 7.2-7.6% on d=9 sections and kept it
    within a point on the other workloads (5-9%); a numpy part made every
    workload worse.
    """
    n = 6
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        pivot = m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / pivot
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    s = 0.0
    for i in range(20_000):
        s += (i % 7) * 0.5 - (i % 3)
    table = {}
    for i in range(3_000):
        table[(i, i % 13)] = i
    parts = [Fraction(p, q) for p, q in ((1, 3), (2, 5), (3, 7), (5, 11), (7, 12), (4, 9), (11, 10))]
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=len(parts)):
        x = sum(p if g > 0 else -p for p, g in zip(parts, signs))
        if x > 0:
            total += x ** 6
    return len(table) + int(s) + m[-1][-1].denominator + total.numerator % 7


def time_reference() -> float:
    """Wall seconds of one reference run, garbage collected beforehand."""
    gc.collect()
    start = time.perf_counter_ns()
    reference_work()
    return (time.perf_counter_ns() - start) / 1e9


class OpClock:
    """Times operations one by one and keeps their reference neighbours.

    Garbage is collected before each operation, outside the timed region.
    """

    def __init__(self) -> None:
        self.raw_ns: list[int] = []
        self.segment_of: list[int] = []
        self.references: list[float] = [time_reference()]
        self._open_ns = 0
        self._closed_s = 0.0

    def run(self, op):
        """Run op(); return (result, exception). The exception is not raised."""
        gc.collect()
        result = error = None
        start = time.perf_counter_ns()
        try:
            result = op()
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            error = exc
        elapsed = time.perf_counter_ns() - start
        self.raw_ns.append(elapsed)
        self.segment_of.append(len(self.references) - 1)
        self._open_ns += elapsed
        if self._open_ns >= SEGMENT_NS:
            self._close_segment()
        return result, error

    def _close_segment(self) -> None:
        before = self.references[-1]
        self.references.append(time_reference())
        local = (before + self.references[-1]) / 2
        self._closed_s += self._open_ns / 1e9 * (REFERENCE_NOMINAL_MS / 1e3) / local
        self._open_ns = 0

    def elapsed_s(self) -> float:
        """Normalised operation time so far; the open segment uses the last reference."""
        open_s = self._open_ns / 1e9 * (REFERENCE_NOMINAL_MS / 1e3) / self.references[-1]
        return self._closed_s + open_s

    def finish(self) -> None:
        if self._open_ns or len(self.references) == 1:
            self._close_segment()

    def normalised_ms(self) -> list[float]:
        """Every operation's time in reference-normalised milliseconds."""
        refs = self.references
        local = [statistics.median(refs[max(0, seg + 1 - WINDOW // 2): seg + 1 + WINDOW // 2])
                 for seg in range(len(refs) - 1)]
        return [raw / 1e6 * (REFERENCE_NOMINAL_MS / 1e3) / local[seg]
                for raw, seg in zip(self.raw_ns, self.segment_of)]

    def raw_ms(self) -> list[float]:
        return [raw / 1e6 for raw in self.raw_ns]

    def reference_ms(self) -> float:
        return statistics.median(self.references) * 1e3
