"""The "tier1" pins of pins.py, each run in a fresh process, and `check` itself."""

import pytest

from pins import PINS, Pin, check


@pytest.mark.parametrize("pin", [p for p in PINS if p.tier == "tier1"], ids=lambda p: p.name)
def test_output_matches_pinned_bytes(pin):
    assert check(pin) is None


@pytest.mark.parametrize("code, expect, limit, reason", [
    ("print('y')", "x", None, "no line 'x'"),
    ("print('x'); raise SystemExit(3)", "x", None, "exit status 3, not 0"),
    ("import sys; print('x'); sys.stderr.write('stray')", "x", None, "wrote to stderr\nstray"),
    # PYTHONWARNINGS=default shows what Python hides by default
    ("import warnings; print('x'); warnings.warn('w', PendingDeprecationWarning)", "x", None,
     "wrote to stderr"),
    ("import time; time.sleep(5)", "x", 0.2, "ran over its limit of 0.2 s"),
], ids=["missing line", "exit status", "stderr", "warning", "overrun"])
def test_check_reports_each_way_a_pin_fails(code, expect, limit, reason):
    got = check(Pin("self-test", ("-c", code), expect, limit=limit))
    assert got is not None and got.startswith(reason), got


def test_check_compares_every_byte_and_sets_the_environment(tmp_path):
    pinned = tmp_path / "out.json"
    pinned.write_bytes(b"ayrep 1\n")
    code = "import os; print('ayrep', os.environ['X'])"
    assert check(Pin("self-test", ("-c", code), pinned, env={"X": "1"})) is None
    reason = check(Pin("self-test", ("-c", code), pinned, env={"X": "2"}))
    assert reason == f"stdout is not {pinned}"
