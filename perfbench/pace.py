"""The machine's speed, sampled while the untraced passes run.

The machine this benchmark was built on (a shared 2-vCPU VM) runs a fixed
pure-Python loop anywhere from 0.7x to 1.35x of its usual speed, in spells
of seconds to minutes, with nothing else running in the VM.  Whole runs of
the benchmark inherit that: a run that falls in a slow spell reads up to
1.6 times slower, and no amount of repetition within the run removes it.

A :class:`Pacer` measures that speed alongside the program.  An interval
timer raises ``SIGALRM`` every ``PERIOD_S`` seconds of wall time; the handler
runs a fixed reference chunk of pure-Python work and records how long it
took.  The handler runs between bytecodes of whatever the process is doing
at the time, including the middle of an arevlex call, so the samples fall
uniformly over the pass.  Their time is counted in ``stolen`` and taken out
of every interval the harness measures.

The *speed* of a sample is ``REFERENCE_CHUNK_S`` divided by its chunk time.
Over an interval of wall time ``T`` in which the process completed work
``W``, ``W`` is proportional to ``T`` times the mean speed, so an interval
*at the reference speed* is ``T * mean speed``: the time it would have
taken on a machine that runs the reference chunk in ``REFERENCE_CHUNK_S``.
A sample delayed by a preemption reads as a speed near 0, which the mean
absorbs without blowing up, as the preemption slows the program alike.

The interruptions cost the program itself about 2 % beyond the handler's
own time (median over 60 alternations of a dict-heavy loop with and
without the timer), the same on every run, so it scales the figures
without adding to their spread.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

PERIOD_S = 0.02

# Median time of one reference chunk, run on its own, on the machine the
# figures in README.md come from (Intel Xeon at 2.1 GHz, Python 3.11).
REFERENCE_CHUNK_S = 1.9e-4


def reference_chunk() -> int:
    """Fixed pure-Python work: tuple keys, dict updates and integer arithmetic,
    the shape of arevlex's inner loops.  Its data fit in a few cache lines, so
    its time does not depend on what the interrupted code left in the caches;
    a chunk over a 4096-entry table ran 2.3 times slower inside the handler
    than on its own and tracked the program's speed worse than no chunk."""
    d = {}
    acc = 0
    for i in range(450):
        k = (i & 7, i & 3)
        d[k] = d.get(k, 0) + i
        acc += (i * 7) % 5
    return acc


class Pacer:
    """Samples the machine's speed every ``PERIOD_S`` seconds while started."""

    def __init__(self):
        self.stamps = array("d")  # perf_counter at each sample's start
        self.speeds = array("d")
        self.stolen = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_chunk()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.speeds.append(REFERENCE_CHUNK_S / (t1 - t0))
        self.stolen += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def speed(self, t0: float, t1: float, margin: float = 0.0) -> float:
        """Mean speed of the samples taken in [t0 - margin, t1 + margin].

        Widens the window until it holds at least one sample; 1.0 when there
        is none at all.
        """
        stamps = self.stamps
        while True:
            lo = bisect.bisect_left(stamps, t0 - margin)
            hi = bisect.bisect_right(stamps, t1 + margin)
            if hi > lo:
                return sum(self.speeds[lo:hi]) / (hi - lo)
            if not stamps:
                return 1.0
            margin = 2 * margin + PERIOD_S
