"""Host-speed reference: a fixed loop timed beside the measured work.

The benchmark runs on a shared host whose speed drifts by up to 2x over
minutes (neighbouring tenants, frequency changes).  The drift slows every
instruction stream alike, so each workload times this fixed loop at quiet
points between its units (*marks*) and reports a unit's time scaled to the
speed of a nominal host::

    normalised_s = wall_s * NOMINAL_S / reference_s

where ``reference_s`` is the mean of the loop's times at the marks just
before and just after the unit.  The loop is pure Python and calls nothing in
``src/``, so a change to the program never moves it: a program that gets
twice as fast reports half the normalised time on any host.  ``NOMINAL_S``
is only a scale (the loop's time on a quiet 2-core x86-64 host under
CPython 3), so that normalised figures read as seconds.

A workload whose work runs on several cores at once (a process pool, a
server beside its clients) is slowed by what happens on all of them, so its
marks run the loop on that many cores at once: in this process and in
helper processes (``Reference(processes=N)``), and ``reference_s`` is the
mean of their times.

Run as a script, this module is such a helper: for every line on standard
input it times the loop and prints the time; it exits at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: What one pass of the loop takes on the nominal host.
NOMINAL_S = 0.004
#: Passes per mark; the mark is their median.
PASSES = 3
_ITERATIONS = 50_000


def _loop() -> int:
    total = 0
    for index in range(_ITERATIONS):
        total += index * index % 7
    return total


def measure() -> float:
    """Median time of ``PASSES`` passes of the loop in this process, now."""
    times = []
    for _ in range(PASSES):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Reference:
    """Marks on ``processes`` cores at once: this process and helpers."""

    def __init__(self, processes: int = 1) -> None:
        self.helpers = []
        try:
            for _ in range(processes - 1):
                self.helpers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True, bufsize=1,
                ))
            # One mark each, so that the helpers are running Python code.
            self.measure()
        except BaseException:
            self.close()
            raise

    def measure(self) -> float:
        for helper in self.helpers:
            helper.stdin.write("\n")
        times = [measure()]
        for helper in self.helpers:
            times.append(float(helper.stdout.readline()))
        return statistics.mean(times)

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self.helpers = []


def _serve() -> None:
    for _ in sys.stdin:
        print(measure(), flush=True)


if __name__ == "__main__":
    _serve()
