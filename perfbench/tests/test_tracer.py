"""Self-checks of the benchmark's tracer.

A refactor that moves or renames a traced function must break these tests
rather than let the per-layer metrics read zero without notice.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SMALL = ["verify", "--n", "3", "--suite", "cells,coxeter,specht", "--json"]

# Runs in a fresh interpreter, because installing the wrappers patches the
# ayrep modules of the process for good.
RESOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
missing = tracer.install(tracer.Tracer("check"))
modules = tracer.ayrep_modules()
unwrapped = []
for module, fns in tracer.REPORTED.items():
    for fn in fns:
        if fn == "matmul":
            holders = {"ayrep.linalg.SquareMatrix": modules["ayrep.linalg"].SquareMatrix.__mul__}
        else:
            holders = {name: getattr(mod, fn) for name, mod in modules.items() if hasattr(mod, fn)}
        for holder, obj in holders.items():
            if getattr(obj, "traced_name", None) != f"{module}.{fn}":
                unwrapped.append(f"{holder}.{fn}")
suites = modules["ayrep.verify"].SUITES
unwrapped += [f"SUITES[{k!r}]" for k, v in suites.items() if not hasattr(v, "traced_name")]
print(json.dumps({"missing": missing, "unwrapped": unwrapped}))
"""


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


def _run(argv):
    return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, check=False)


def test_every_reported_name_resolves_to_its_wrapper():
    proc = _run([sys.executable, "-c", RESOLVE, str(HERE)])
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout)
    assert report == {"missing": [], "unwrapped": []}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    spans = tmp_path_factory.mktemp("trace") / "spans.json"
    plain = _run([sys.executable, "-m", "ayrep.cli", *SMALL])
    traced = _run([sys.executable, str(HERE / "tracer.py"), str(spans), "check", "--", *SMALL])
    return plain, traced, json.loads(spans.read_text())


def test_traced_stdout_is_byte_identical(small_runs):
    plain, traced, _ = small_runs
    assert plain.returncode == traced.returncode == 0, traced.stderr.decode()
    assert plain.stdout == traced.stdout


def test_traced_run_counts_calls_in_each_layer(small_runs):
    _, _, trace = small_runs
    totals = tracer.aggregate(trace)
    for name in ("cells.descent_cell", "linalg.word_trace", "linalg.matmul", "cli.main"):
        assert totals[name]["calls"] > 0, name
    assert trace["run_id"] == "check"
    assert totals["linalg.word_trace"]["work"] > 0
    assert "groups.partitions" in trace["caches"]


def test_self_time_subtracts_child_spans():
    trace = {
        "names": ["outer", "inner"],
        "spans": [[0, 0.0, 10.0, -1, None], [1, 1.0, 4.0, 0, 3], [1, 5.0, 6.0, 0, 2]],
    }
    totals = tracer.aggregate(trace)
    assert totals["outer"] == {"calls": 1, "inclusive_s": 10.0, "self_s": 6.0, "work": 0}
    assert totals["inner"] == {"calls": 2, "inclusive_s": 4.0, "self_s": 4.0, "work": 5}
