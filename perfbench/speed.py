"""Machine-speed probe that corrects measured times for host drift.

On a shared host the speed of this process drifts by 20-40% over tens
of seconds, mostly through contention for the memory system (measured
on a 2-vCPU Xeon guest: 10-second windows of a fixed loop ranged from
7.9 to 12.7 ms per slice). Longer runs do not average that away.

The probe is a fixed batch of random reads from memory that is never in
cache: it walks a 128 MiB ring (larger than the 105 MiB last-level
cache) one 8 MiB chunk at a time, so each chunk was evicted by the
other fifteen since its last visit. Its time therefore depends on the
host, not on how much of the cache the workload left to it, and a
change to the program cannot move it. The correction is partial: the
workloads slow down 1.5 to 2.5 times as much as the probe does (in
logarithm), so it removes about half of the drift. In ten-seed sets the
run-to-run spread of corrected pass times was 4-12%, where raw pass
times of a single run spread 12-35%.

``corrected(seconds, probe_times)`` scales a measured time to the speed
at which one probe takes ``NOMINAL_S``, so the result is in seconds of
a steady reference machine.
"""

from __future__ import annotations

import os
import random
import signal
import time
from contextlib import contextmanager
from pathlib import Path

CHUNK_BYTES = 8 << 20
CHUNKS = 16
READS = 20_000
# Probe duration that defines the reference speed (a typical value on
# the machine the benchmark was written on); only a unit, never a bound.
NOMINAL_S = 0.004
# Probe period during a timed pass; each probe takes a few ms.
PERIOD_S = 0.1


def resident_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


class SpeedProbe:
    """Holds the probe ring for the life of the process.

    ``resident`` is the ring's share of resident memory, so that peak
    memory can be reported without it: the ring is allocated first and
    stays resident, so it adds exactly this much to every later RSS.
    """

    def __init__(self):
        before = resident_bytes()
        self.ring = bytearray(range(256)) * (CHUNK_BYTES * CHUNKS // 256)
        rng = random.Random(0)
        self.reads = [rng.randrange(CHUNK_BYTES) for _ in range(READS)]
        self.resident = resident_bytes() - before
        self.chunk = 0
        self.inside: list[tuple[float, float]] = []

    def once(self) -> float:
        ring, base = self.ring, self.chunk * CHUNK_BYTES
        self.chunk = (self.chunk + 1) % CHUNKS
        start = time.perf_counter()
        sum(ring[base + i] for i in self.reads)
        return time.perf_counter() - start

    def median(self, count: int) -> float:
        return sorted(self.once() for _ in range(count))[count // 2]

    @contextmanager
    def sampling(self):
        """Probe every PERIOD_S while the body runs; (start, duration)
        of each probe lands in ``self.inside``."""
        self.inside = []

        def on_alarm(signum, frame):
            self.inside.append((time.perf_counter(), self.once()))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def corrected(seconds: float, probe_times: list[float]) -> float:
    """``seconds`` at the speed where one probe takes NOMINAL_S."""
    return seconds * NOMINAL_S / (sum(probe_times) / len(probe_times))
