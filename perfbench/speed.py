"""Speed of the benchmark's vCPU, measured while the program runs on it.

On a shared host the speed of one vCPU changes by up to 1.8-fold, in
phases of a second to minutes, as other tenants load the physical core
(see README.md, "Noise and the reference speed"). ``run.py`` therefore
pins itself and every process it starts to one vCPU, and runs this
calibration loop there at a low priority (nice 10, about a tenth of the vCPU while a repeat runs).
The loop does a fixed unit of small numpy and Python work, like hirnet's
training step, and records how much CPU time its units cost. Its samples
are spread over every interval the program runs, so they see the same
speed phases.

``interval`` gives, for one interval of a repeat, the calibration loop's
CPU time in it, which the repeat did not get, and the speed factor: the
reference cost of a unit over the cost measured in the interval. A time
times that factor is the time at the reference speed, that of this loop
on an uncontended vCPU of the reference machine.

    python3 perfbench/speed.py OUT_PATH MAX_SECONDS

runs the loop until SIGTERM or MAX_SECONDS, then writes its samples.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from array import array

import numpy as np

NICE = 10
UNITS_PER_SAMPLE = 64
# Median cost of one unit alone on an uncontended vCPU of the reference
# machine (see README.md). It sets the scale of the normalised times; a
# comparison on one machine does not depend on it.
REFERENCE_UNIT_S = 7.2e-6


def _loop(out_path: str, max_seconds: float) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    os.nice(NICE)
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(16, 2)), rng.normal(size=(2, 8))
    items: list = []
    samples = array("d")
    units = 0
    end = time.monotonic() + max_seconds
    while not stop:
        for _ in range(UNITS_PER_SAMPLE):
            z = x @ w
            z = z - z.max(axis=1, keepdims=True)
            total = float(np.exp(z).sum())
            items.clear()
            items.extend((i, total) for i in range(8))
        units += UNITS_PER_SAMPLE
        now = time.monotonic()
        samples.extend((now, time.process_time(), units))
        if units == UNITS_PER_SAMPLE:
            print("sampling", flush=True)
        if now > end:
            break
    with open(out_path, "wb") as fh:
        samples.tofile(fh)


class Speedometer:
    """The calibration loop as a child process, on the caller's vCPU; it is
    sampling when the constructor returns."""

    def __init__(self, out_path: str, max_seconds: float):
        self.out_path = out_path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), out_path, repr(max_seconds)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "sampling\n":
            self.kill()
            raise RuntimeError("the calibration loop did not start")

    def stop(self) -> "Samples":
        """Ends the loop, waits for it and returns its samples."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return Samples.read(self.out_path)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Samples:
    """Cumulative (monotonic time, CPU time, units) of the loop."""

    def __init__(self, flat):
        self.times = list(flat[0::3])
        self.cpu = list(flat[1::3])
        self.units = list(flat[2::3])

    @classmethod
    def read(cls, path: str) -> "Samples":
        flat = array("d")
        with open(path, "rb") as fh:
            flat.frombytes(fh.read())
        return cls(flat)

    def _at(self, t: float) -> tuple[float, float]:
        i = bisect.bisect_left(self.times, t)
        if i == 0 or i == len(self.times):
            raise ValueError(f"time {t:.3f} is outside the calibration samples")
        t0, t1 = self.times[i - 1], self.times[i]
        share = (t - t0) / (t1 - t0)
        return (self.cpu[i - 1] + share * (self.cpu[i] - self.cpu[i - 1]),
                self.units[i - 1] + share * (self.units[i] - self.units[i - 1]))

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """The loop's CPU time in [start, end] and the speed factor there."""
        cpu0, units0 = self._at(start)
        cpu1, units1 = self._at(end)
        if units1 - units0 < UNITS_PER_SAMPLE:
            raise ValueError("too few calibration units in the interval")
        return cpu1 - cpu0, REFERENCE_UNIT_S * (units1 - units0) / (cpu1 - cpu0)


if __name__ == "__main__":
    _loop(sys.argv[1], float(sys.argv[2]))
