"""Host-speed scaling for times measured on a shared machine.

On a small shared host the interpreter's speed swings by up to 1.6x, in
phases of seconds to minutes, as other tenants load the machine, and each CPU
swings on its own. Raw medians of two sets of runs of the same code drifted
apart by a third. So while a run measures, one thread per CPU runs a fixed
pure-Python loop that shares no code with the package every PERIOD_S, and
records how long it took. A timed interval is scaled by the mean speed
(REFERENCE_S over loop time) the loop saw on the interval's CPUs, and reads as
seconds on the host at its uncontended speed. A child process is scaled by
speed_now() taken just before and just after it instead, since a sampler
sharing its CPU would be time-sliced with it. Raw times stay in the result
file beside the scaled ones.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager

# Loop time on an uncontended host (2 vCPUs, Python 3.11), the scale's anchor.
REFERENCE_S = 0.0021
PERIOD_S = 0.1
# Samples next to an interval that also count, on either side, so that a short
# interval, or one with sampling paused, still sees several.
NEIGHBOURS = 8


def _loop(iterations: int = 15000) -> int:
    total = 0
    table = {}
    for i in range(iterations):
        total += i * i
        table[i & 1023] = (total, i)
    return total


def speed_now() -> float:
    """The calling thread's CPU speed now, from two longer runs of the loop;
    used around child processes, where no sampler runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _loop(5 * 15000)
        best = min(best, time.perf_counter() - start)
    return 5 * REFERENCE_S / best


def pin(cpus: set[int]) -> None:
    """Keep the calling thread (and processes it starts) on the given CPUs."""
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


class Speedometer:
    """Context manager sampling each CPU's speed from background threads."""

    def __init__(self, cpus: set[int]):
        self.cpus = sorted(cpus) or [-1]
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in self.cpus}
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._paused = False
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                         for cpu in self.cpus]

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()
        return False

    def _sample(self, cpu: int) -> None:
        if cpu >= 0:
            pin({cpu})
        out = self.samples[cpu]
        while not self._stop.wait(PERIOD_S):
            with self._lock:
                if self._paused:
                    continue
                start = time.perf_counter()
                _loop()
                out.append((start, time.perf_counter()))

    @contextmanager
    def paused(self):
        """No sampling while other processes run: the loop would be
        time-sliced with them and read its slice as the CPU's speed."""
        with self._lock:
            self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def scaled(self, start: float, end: float, parallel: bool = False) -> float:
        """Reference-speed seconds of work done in [start, end].

        In-process work on the first CPU shared the interpreter with the
        samplers, whose loop time is taken out. Parallel work spread over
        every CPU waits for the slowest.
        """
        speeds, busy = [], 0.0
        for cpu in self.cpus:
            samples = self.samples[cpu]
            lo = max(0, bisect_left(samples, (start,)) - NEIGHBOURS)
            near = samples[lo : bisect_left(samples, (end,)) + NEIGHBOURS]
            speeds.append(trimmed_mean([REFERENCE_S / (b - a) for a, b in near]) if near else 1.0)
            busy += sum(max(0.0, min(b, end) - max(a, start)) for a, b in near)
        if parallel:
            return (end - start) * min(speeds)
        return (end - start - busy) * speeds[0]


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%, so one preempted sample does not count."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut : len(values) - cut]
    return sum(kept) / len(kept)
