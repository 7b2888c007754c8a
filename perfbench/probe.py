"""Host-speed probe: a driver thread that times fixed work while workers run.

The host's CPU speed drifts by up to 1.8x within minutes, so raw job times
follow the host as much as the program.  While one worker runs on one CPU,
the driver waits for it in a system call; a thread of the driver then times
``probe_work()`` every PROBE_EVERY_S on the other CPU.  The probe work uses
no kulocal code, so a change to kulocal does not move it.

``speed(t0, t1)`` is PROBE_S over the median probe time in [t0 - PAD_S,
t1 + PAD_S].  Multiplying a job's time by it gives seconds on a host where the
probe takes PROBE_S (README.md, "Host speed").
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# Median probe_work() time in the driver on the 2-vCPU Xeon VM of README.md.
PROBE_S = 0.0022
PROBE_EVERY_S = 0.03  # pause between probes: about 6 % of one CPU
PAD_S = 0.5  # a short job is judged by the probes of the second around it


def probe_work() -> None:
    """Fixed pure-Python work: int arithmetic and a dict of tuple keys."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    counts: dict = {}
    for t in range(3000):
        key = (t % 97, t % 13)
        counts[key] = counts.get(key, 0) + t


class SpeedProbe:
    """Times probe_work() from a thread until stopped; use as a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # monotonic start of each probe, ascending
        self.times: list[float] = []  # its duration in seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe")

    def _loop(self) -> None:
        while not self._stop.is_set():
            start = time.monotonic()
            t0 = time.perf_counter()
            probe_work()
            self.times.append(time.perf_counter() - t0)
            self.starts.append(start)
            self._stop.wait(PROBE_EVERY_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """PROBE_S over the median probe time in [t0 - PAD_S, t1 + PAD_S]; 1 with no probe there."""
        n = len(self.starts)  # the thread appends times before starts
        lo = bisect.bisect_left(self.starts, t0 - PAD_S, 0, n)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S, 0, n)
        return PROBE_S / statistics.median(self.times[lo:hi]) if hi > lo else 1.0

    def median_s(self) -> float:
        return statistics.median(self.times) if self.times else 0.0
