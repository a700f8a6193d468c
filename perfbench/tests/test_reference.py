"""The reference loop measures the CPU's speed and leaves no process behind."""

import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reference import Reference, Window  # noqa: E402


def test_reference_measures_and_stops():
    affinity = os.sched_getaffinity(0)
    with Reference() as ref:
        assert os.sched_getaffinity(0) == {max(affinity)}
        mark = ref.snapshot()
        time.sleep(0.3)
        window = ref.since(mark)
        pid = ref.pid
    assert window.chunks > 0 and window.cpu_s > 0
    assert 0.05 < window.speed < 20
    assert os.sched_getaffinity(0) == affinity
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_speed_is_relative_to_the_nominal_rate():
    assert Window(chunks=500, cpu_s=0.25).speed == pytest.approx(2.0)
