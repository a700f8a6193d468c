"""A reference loop that shares one CPU with every timed process.

Other tenants of a shared host slow its CPUs in phases that last from under
a second to minutes; on a shared 2-core VM a fixed piece of pure-Python work
took anywhere from 1x to 2.3x its fastest time, and the process's own CPU
time grew with it.  No statistic over a run of tens of seconds removes that.

So while a timed process runs, a forked reference loop runs on the same CPU
at the same priority, and the scheduler interleaves the two every few
milliseconds.  The reference counts the fixed chunks of work it completes and
the CPU time they took, so over the timed process's lifetime it measures how
fast this CPU was running at that very moment.  A time divided by that speed
is a *normalised* time: seconds on a CPU that runs ``REFERENCE_RATE`` chunks
per second.  The reference never touches ``ayrep``, so a change to the
program moves normalised times exactly as it moves real ones.

The timed process gets about half of the CPU while the reference runs, so its
wall clock roughly doubles; the reference's CPU time is subtracted from it.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time
from fractions import Fraction
from typing import NamedTuple

# Chunks per CPU second that define one normalised second.  One chunk takes
# about 0.8 ms on a shared 2-core Xeon VM at 2.0 GHz.
REFERENCE_RATE = 1000.0

_SLOT = struct.Struct("dd")  # chunks completed, CPU seconds they took


def chunk() -> None:
    """Fixed work of the kind ayrep does: Fraction arithmetic and tuple keys."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = tuple((i * k) % 13 for k in range(8))
        seen[key] = seen.get(key, 0) + 1


class Window(NamedTuple):
    """What the reference did between two snapshots."""

    chunks: float
    cpu_s: float

    @property
    def speed(self) -> float:
        """CPU speed relative to ``REFERENCE_RATE`` (1.0 = nominal)."""
        return self.chunks / self.cpu_s / REFERENCE_RATE


class Reference:
    """Context manager: pins this process to one CPU and runs the loop there.

    Processes started inside the block inherit the pinning, so they share
    the CPU with the reference.  On exit the loop is killed and reaped.
    """

    def __enter__(self) -> "Reference":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self._shared = mmap.mmap(-1, _SLOT.size)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:  # the reference loop; never returns
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                chunks = 0
                while os.getppid() == parent:  # stop if the runner is gone
                    chunk()
                    chunks += 1
                    self._shared[:] = _SLOT.pack(chunks, time.process_time())
            finally:
                os._exit(0)
        while self.snapshot()[0] < 1:
            time.sleep(0.001)
        return self

    def snapshot(self) -> tuple:
        """(chunks, CPU seconds) so far, read until two reads agree."""
        while True:
            first = self._shared[:]
            if self._shared[:] == first:
                return _SLOT.unpack(first)

    def since(self, start: tuple) -> Window:
        end = self.snapshot()
        return Window(end[0] - start[0], end[1] - start[1])

    def __exit__(self, *exc) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        finally:
            os.waitpid(self.pid, 0)
            self._shared.close()
            os.sched_setaffinity(0, self._affinity)
