"""Host-speed normalisation of the benchmark's times.

On a shared host the speed of a core drifts by tens of per cent within
seconds and from minute to minute, as other tenants load the machine: the
median of a run cannot remove drift that outlasts the run, and a core
slowed by a neighbour also inflates CPU time.  So every timed child is
pinned to one CPU, and while it runs a thread of the benchmark process,
pinned to the same CPU, times a fixed pure-Python loop (``REF_ITERS``
iterations, about 4 ms of CPU) with a pause of ``REF_GAP_S`` after each
run.  Both are measured
in CPU time, which leaves out the slices each takes from the other, and
the child's CPU time is scaled by the loop's:

    normalised = cpu_s * REF_NOMINAL_S / (mean loop CPU time around the interval)

"Around" is the interval itself, widened on both sides to at least
``REF_WINDOW_S`` when it is shorter.  A normalised second is a CPU second
on a host that runs the loop in ``REF_NOMINAL_S``.  The loop does not
touch the program's code, so a change to the program moves normalised
times as it moves CPU times.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional, Sequence, Tuple

from tracing import clock

REF_ITERS = 50_000
#: The loop's CPU time on a quiet host, which makes normalised times read
#: close to CPU seconds there.
REF_NOMINAL_S = 0.004
#: The pause after each run of the loop, which keeps the loop to about a
#: tenth of the CPU.
REF_GAP_S = 0.036
#: The shortest stretch of time whose loops give the CPU's speed.
REF_WINDOW_S = 0.5

#: One loop timing: (start on ``clock``, CPU seconds).
Sample = Tuple[float, float]


def pin_to(cpu: Optional[int]) -> None:
    """Pin the calling thread (and what it later starts) to ``cpu``."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def timing_cpu() -> Optional[int]:
    """The CPU timed children run on: the last this process may use.

    None where affinity cannot be set; children then run unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    return max(os.sched_getaffinity(0))


def reference_loop() -> float:
    """CPU seconds one run of the reference loop takes."""
    t0 = time.thread_time()
    x = 0
    for i in range(REF_ITERS):
        x += i * i % 7
    return time.thread_time() - t0


class HostSpeedSampler:
    """Appends reference-loop timings to ``samples`` while the ``with``
    body runs, from a thread pinned to ``cpu``.

    The waiting main thread holds no GIL (``Popen.wait``), so the loop
    competes only with the child and the host for the CPU.
    """

    def __init__(self, samples: List[Sample], cpu: Optional[int]) -> None:
        self.samples = samples
        self.cpu = cpu
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pin_to(self.cpu)
        while not self._stop.is_set():
            start = clock()
            self.samples.append((start, reference_loop()))
            self._stop.wait(REF_GAP_S)

    def __enter__(self) -> "HostSpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def normalise(cpu_s: float, samples: Sequence[Sample], lo: float,
              hi: float) -> float:
    """``cpu_s`` scaled by the reference loop's mean time around ``[lo, hi]``.

    Loops that started in the interval, widened to ``REF_WINDOW_S``, count;
    when none did, every sample counts.  Without samples ``cpu_s`` is
    returned unchanged.
    """
    pad = max(0.0, REF_WINDOW_S - (hi - lo)) / 2
    inside = [secs for start, secs in samples
              if lo - pad <= start <= hi + pad]
    chosen = inside or [secs for _start, secs in samples]
    if not chosen:
        return cpu_s
    return cpu_s * REF_NOMINAL_S * len(chosen) / sum(chosen)
