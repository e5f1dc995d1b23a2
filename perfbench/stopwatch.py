"""A wall clock that measures in calibrated seconds.

On a shared host the speed a process gets changes from second to
second: a fixed pure-Python loop here ran anywhere between 7 and 12
million iterations per second over consecutive 2-second windows, and
drifted by more than half over a minute.  A timed phase therefore
interleaves short calibration slices — a fixed amount of work, see
:class:`Calibrator` — with the workload, at most every
``INTERVAL_S``.  The slices are paused out of the workload's clock
(:meth:`Stopwatch.now` never counts them).

The workload time between two slices is one *segment*.  Its slowdown
is the mean of the two slices around it over the reference duration
``REFERENCE_S``, and its wall time divided by that slowdown is its
*calibrated* time.  The mean, not the median, because a slice that the
host preempted samples a stall the workload suffers at the same rate:
in a 40-second test the mean of the bracketing slices took the spread
of 2-second throughput windows from 0.17 to 0.08, a median of the
last three slices only to 0.15.

Rates are ops per calibrated second, and each latency sample is
divided by the slowdown of the segment it ended in.  A slice runs only
benchmark code and starts from a cache state of its own (see
:class:`Calibrator`), so the program's own memory traffic does not
change the divisor: a change in the program's cost shows in full.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array

#: how often the timed phase pauses for one calibration slice
INTERVAL_S = 0.1
#: interpreter work of one slice, on a cache-resident working set
CPU_LOOPS = 2_000
#: lookups of one slice scattered over a table larger than the L2 cache
MEMORY_LOOKUPS = 1_500
TABLE_SIZE = 1 << 17
#: most blocks a latency percentile is taken over (see Samples.percentile)
BLOCKS = 9
#: fewest independent units beyond the percentile in one block
BLOCK_TAIL = 10
#: duration of one slice on the reference host: the unit of a
#: calibrated second, in which the nominal rates of workloads.py are
#: measured (warmed slices on the host the bounds were set on ran
#: about 0.7 of it)
REFERENCE_S = 0.0025

_clock = time.perf_counter


class Calibrator:
    """The fixed calibration work.  One slice is half interpreter work
    on a few small objects and half dictionary lookups scattered over a
    ~10 MB table: the programs under test are sensitive to both the
    CPU share the host gives them and to cache contention, and in a
    60-second test the two halves together tracked kv-quorum's
    throughput better than either alone (spread of 2-second windows
    0.26 raw, 0.09 with the interpreter half, 0.14 with the lookup
    half, 0.06 with both).

    Before the timed work, an untimed pass over the whole table brings
    it back into the caches, so the lookups do not depend on how much
    of it the program evicted since the last slice.  In two 40-second
    kv-quorum tests the warmed slices tracked throughput as well as
    cold ones (spread of 2-second windows 0.036 and 0.040 warmed, 0.061
    and 0.038 cold, 0.121 and 0.077 with the interpreter half
    alone)."""

    def __init__(self):
        self._table = {i: i * 2_654_435_761 for i in range(TABLE_SIZE)}
        self._start = 0

    def slice(self) -> float:
        """Run one slice; returns the wall duration of its timed part."""
        for _ in self._table.values():
            pass
        started = _clock()
        scratch: dict[int, str] = {}
        total = 0
        for i in range(CPU_LOOPS):
            key = i & 255
            scratch[key] = "%d:%d" % (i, key)
            entry = scratch.get(i & 127)
            total += len(entry) if entry is not None else 0
        table, j = self._table, self._start
        for _ in range(MEMORY_LOOKUPS):
            j = (j + 40_503) & (TABLE_SIZE - 1)
            total += table[j] & 1
        self._start = (self._start + 1) & (TABLE_SIZE - 1)
        if total < 0:
            raise AssertionError("unreachable: keeps the loops' result live")
        return _clock() - started


class Stopwatch:
    """Workload clock with interleaved calibration slices."""

    def __init__(self, calibrator: Calibrator):
        self._calibrator = calibrator
        #: slice durations; segment k lies between slices k and k + 1
        self.slices: list[float] = []
        self._paused = 0.0
        self._next = 0.0
        self._closed = 0.0
        self._segment_start = _clock()
        self._slice()
        self._origin = self.now()
        #: raw workload seconds of the whole phase, set by :meth:`stop`
        self.wall = 0.0

    def now(self) -> float:
        """Wall seconds, excluding every calibration slice so far."""
        return _clock() - self._paused

    def slowdown(self, k: int) -> float:
        """Slowdown of segment ``k`` (closed segments only)."""
        return (self.slices[k] + self.slices[k + 1]) / 2 / REFERENCE_S

    def _slice(self) -> None:
        started = _clock()
        segment = started - self._paused - self._segment_start
        self.slices.append(self._calibrator.slice())
        if len(self.slices) > 1:
            self._closed += segment / self.slowdown(len(self.slices) - 2)
        ended = _clock()
        self._paused += ended - started
        self._segment_start = ended - self._paused
        self._next = ended + INTERVAL_S

    def checkpoint(self) -> None:
        """Called by the workload between ops or ticks: runs a slice
        once ``INTERVAL_S`` has passed since the last one."""
        if _clock() >= self._next:
            self._slice()

    def stop(self) -> float:
        """Close the running segment; returns the calibrated seconds."""
        self.wall = self.now() - self._origin
        self._slice()
        return self._closed


class Samples:
    """Latency samples, kept raw with the segment each ended in and
    calibrated once the stopwatch has closed every segment."""

    def __init__(self, watch: Stopwatch, per_unit: int = 1):
        self.watch = watch
        #: samples that share one fate: the inputs of one tick become
        #: visible together, so the tail's independent samples are ticks
        self.per_unit = per_unit
        self.raw = array("d")
        self.segment = array("i")

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.segment.append(len(self.watch.slices) - 1)

    def calibrated(self) -> list[float]:
        slowdown = [self.watch.slowdown(k)
                    for k in range(len(self.watch.slices) - 1)]
        return [raw / slowdown[k] for raw, k in zip(self.raw, self.segment)]

    def percentile(self, p: float) -> float:
        """Median over up to ``BLOCKS`` consecutive blocks of the run of
        each block's nearest-rank ``p``-th percentile (calibrated).

        A burst of host stalls inflates the tail of the block it falls
        in, not the median block; each block keeps at least
        ``BLOCK_TAIL`` independent units beyond the percentile."""
        values = self.calibrated()
        beyond = (1.0 - p / 100.0) * len(values) / self.per_unit
        count = max(1, min(BLOCKS, int(beyond / BLOCK_TAIL)))
        segments = len(self.watch.slices) - 1
        blocks: list[list[float]] = [[] for _ in range(count)]
        for value, k in zip(values, self.segment):
            blocks[min(count - 1, k * count // segments)].append(value)
        return statistics.median(nearest_rank(block, p)
                                 for block in blocks if block)


def nearest_rank(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * p / 100.0) - 1)]
