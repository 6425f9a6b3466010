"""How fast the host runs the interpreter right now, from a fixed loop.

The benchmark's host is a small VM whose cores are shared with other
tenants: for stretches of seconds to tens of seconds every pure-Python
step runs up to 1.7 times slower, and a whole run can fall inside such a
stretch.  Timing a fixed loop while a call runs, and scaling the call's
time by how long the loop took against REFERENCE_LOOP_S, cancels most of
that factor.  A scaled time is what the call would have taken on a host
that runs the loop in REFERENCE_LOOP_S.
"""

from __future__ import annotations

import signal
import time

# Time of one ``_loop`` on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest
# under CPython 3.11 while no other tenant slowed its cores, so scaled and
# raw times agree on that host at its fastest.
REFERENCE_LOOP_S = 0.00030

# While a call runs, the loop is timed once every this many seconds.
SAMPLE_EVERY_S = 0.025


def _loop() -> int:
    # dict counting, tuple keys, modular arithmetic and comprehensions:
    # the interpreter work regfrac's own loops are made of
    counts: dict = {}
    for i in range(1000):
        key = (i * 7 % 13, i % 5)
        counts[key] = counts.get(key, 0) + 1
    rows = [tuple((a * b + c) % 7 for c in range(4)) for a in range(7) for b in range(7) for _ in range(3)]
    return len(counts) + sum(map(sum, rows))


def loop_seconds(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the fixed loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, loop_s: float) -> float:
    """``seconds`` as read on a host that runs the loop in REFERENCE_LOOP_S."""
    return seconds * REFERENCE_LOOP_S / loop_s


class Sampler:
    """Times the loop right before, every SAMPLE_EVERY_S during, and right after a call.

    Use one instance per process; ``with sampler:`` around the timed call.
    The samples taken during the call come from a SIGALRM handler, so
    they interrupt the call; ``overhead`` is the time they took, to be
    taken off the call's measured time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.overhead += end - start

    def __enter__(self) -> "Sampler":
        self.samples = [loop_seconds()]
        self.overhead = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        self.samples.append(loop_seconds())

    @property
    def loop_s(self) -> float:
        """Mean loop time over the call: how slowly the host ran it."""
        return sum(self.samples) / len(self.samples)
