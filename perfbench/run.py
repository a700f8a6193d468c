"""Benchmark of the ayrep acceptance verdict, driven through the CLI.

    python3 perfbench/run.py --workload flat --seed 0 --seconds 30 --trace 0

Each pass of a workload runs its fixed ``python -m ayrep.cli ... --json``
invocations one after another, each in a fresh interpreter (a closed loop
with one client), and compares every stdout byte with a golden copy taken
at the seed commit.  Passes repeat until ``--seconds`` would be exceeded by
one more.  Every timed process shares its CPU with a reference loop
(reference.py), and times are normalised by the speed that loop saw; a time is
the sum over the invocations of each one's median over the passes.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics named in
BENCHMARK.json.  The last stdout line is the JSON result; the line before it
is the environment stamp.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True

import tracer  # noqa: E402  (after the bytecode switch: nothing is written)
from reference import Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

# Invocations per workload: (label, CLI argv, {criterion: suite it covers}).
# "{seed}" is replaced by --seed; the seed only drives the sampled minimal
# suite, and the golden bytes do not depend on it while all checks pass.
WORKLOADS = {
    "flat": [
        ("flat", ["verify", "--suite", "flat", "--json"], {4: "flat"}),
    ],
    "cells": [
        ("cells", ["verify", "--n", "6", "--suite", "cells,axiomB,convexity", "--json"],
         {2: "cells", 10: "convexity"}),
    ],
    "oracles": [
        ("oracles-n5", ["verify", "--n", "5", "--suite", "coxeter,regular,specht,induction,tops",
                        "--json"],
         {1: "coxeter", 3: "regular", 5: "specht", 7: "induction", 9: "tops"}),
        ("oracles-n4", ["verify", "--n", "4", "--suite", "minimal,bn", "--seed", "{seed}", "--json"],
         {6: "minimal", 8: "bn"}),
        ("oracles-bn", ["bn", "--lam", "2,1", "--mu", "1,1", "--json"], {}),
    ],
}

SETUP_SPAWNS = 3  # before every pass and after the last
INVOCATION_TIMEOUT_S = 150


class Invocation(NamedTuple):
    """Outcome of one CLI process; times are normalised when a reference ran."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    rss_mb: float
    ok: bool
    stdout: bytes


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no run reads what an earlier one wrote
    env["PYTHONHASHSEED"] = str(seed)
    return env


def spawn(argv: list, env: dict, tmp: Path, ref: Reference = None) -> tuple:
    """Run one process to completion; (wall_s, status, rusage, stdout, stderr, window).

    With a reference running, ``window`` is what it did meanwhile, else None.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        mark = ref.snapshot() if ref else None
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(INVOCATION_TIMEOUT_S)
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if status is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        window = ref.since(mark) if ref else None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, out_path.read_bytes(), err_path.read_bytes(), window


def normalised(wall: float, cpu: float, window) -> tuple:
    """(wall, cpu) at the reference's nominal speed, without its share of the CPU."""
    if window is None:
        return wall, cpu
    return (wall - window.cpu_s) * window.speed, cpu * window.speed


def invoke(label: str, argv: list, env: dict, tmp: Path, ref: Reference = None) -> Invocation:
    wall, status, usage, stdout, stderr, window = spawn(argv, env, tmp, ref)
    golden = (GOLDEN / f"{label}.json").read_bytes()
    ok = status == 0 and stdout == golden
    if not ok:
        why = f"exit {status}" if status else "stdout differs from golden"
        print(f"FAIL {label}: {why}\n{stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
    norm_wall, norm_cpu = normalised(wall, usage.ru_utime + usage.ru_stime, window)
    return Invocation(norm_wall, norm_cpu, wall, usage.ru_maxrss / 1024, ok, stdout)


def run_pass(workload: str, seed: int, env: dict, tmp: Path, traced_run: str = None,
             ref: Reference = None) -> list:
    results = []
    for k, (label, args, _) in enumerate(WORKLOADS[workload]):
        argv = [a.replace("{seed}", str(seed)) for a in args]
        if traced_run is None:
            cmd = [sys.executable, "-m", "ayrep.cli", *argv]
        else:
            spans = tmp / f"spans-{k}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), traced_run, "--", *argv]
        results.append(invoke(label, cmd, env, tmp, ref))
    return results


def criteria_report(invocations: list, workload: str) -> dict:
    """PASS/FAIL per acceptance criterion, read from the verify JSON output."""
    verdict = {}
    for inv, (_, _, covers) in zip(invocations, WORKLOADS[workload]):
        try:
            suites = {s["name"]: s["ok"] for s in json.loads(inv.stdout)["suites"]}
        except (ValueError, KeyError, TypeError):
            suites = {}
        for criterion, suite in covers.items():
            verdict[criterion] = inv.ok and suites.get(suite) is True
    return verdict


def setup_times(env: dict, tmp: Path, ref: Reference) -> list:
    """Normalised times to spawn an interpreter and import ayrep.cli, doing no work."""
    times = []
    for _ in range(SETUP_SPAWNS):
        wall, status, usage, _, stderr, window = spawn(
            [sys.executable, "-c", "import ayrep.cli"], env, tmp, ref)
        if status != 0:
            raise RuntimeError(f"import ayrep.cli failed: {stderr.decode(errors='replace')}")
        times.append(normalised(wall, 0.0, window)[0])
    return times


def env_stamp() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ayrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def timed(workload: str, seed: int, seconds: float, env: dict, tmp: Path) -> tuple:
    setup, passes = [], []
    started = time.perf_counter()
    with Reference() as ref:
        while True:
            setup += setup_times(env, tmp, ref)
            passes.append(run_pass(workload, seed, env, tmp, ref=ref))
            elapsed = time.perf_counter() - started
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        setup += setup_times(env, tmp, ref)
    invocations = [i for p in passes for i in p]
    by_invocation = list(zip(*passes))
    metrics = {
        "wall_s": sum(statistics.median(i.wall_s for i in runs) for runs in by_invocation),
        "cpu_s": sum(statistics.median(i.cpu_s for i in runs) for runs in by_invocation),
        "peak_rss_mb": max(i.rss_mb for i in invocations),
        "setup_s": statistics.median(setup),
        "pass_frac": sum(i.ok for i in invocations) / len(invocations),
    }
    print(f"{workload}: {len(passes)} passes of {len(by_invocation)} invocations, "
          f"{len(setup)} setup spawns, fail_frac {1 - metrics['pass_frac']:.3f}, "
          f"real wall per pass {[round(sum(i.raw_wall_s for i in p), 3) for p in passes]} s "
          f"(shared with the reference)")
    return passes[-1], invocations, metrics


def per_layer(workload: str, seed: int, env: dict, tmp: Path) -> tuple:
    untraced = run_pass(workload, seed, env, tmp)
    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    traced = run_pass(workload, seed, env, tmp, traced_run=run_id)
    totals, caches, suites = {}, {}, {}
    for k in range(len(traced)):
        path = tmp / f"spans-{k}.json"
        if not path.exists():
            continue
        trace = json.loads(path.read_text())
        suites.update(trace["suites"])
        for name, row in tracer.aggregate(trace).items():
            acc = totals.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for name, info in trace["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["currsize"] = max(acc["currsize"], info["currsize"])
    metrics = layer_metrics(totals, caches, suites)
    metrics["trace.overhead_frac"] = (sum(i.wall_s for i in traced)
                                      / sum(i.wall_s for i in untraced) - 1)
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:45s} calls {row['calls']:9d}  self {row['self_s']:9.3f} s  "
              f"incl {row['inclusive_s']:9.3f} s  work {row['work']}")
    return traced, untraced + traced, metrics


def layer_metrics(totals: dict, caches: dict, suites: dict) -> dict:
    metrics = {}
    for module in tracer.MODULES:
        metrics[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in totals.items() if name.split(".")[0] == module)
    for module, fns in tracer.REPORTED.items():
        for fn in fns:
            row = totals.get(f"{module}.{fn}", {})
            metrics[f"{module}.{fn}.calls"] = row.get("calls", 0)
            metrics[f"{module}.{fn}.self_s"] = row.get("self_s", 0.0)
    for name, (quantity, _) in tracer.WORK.items():
        metrics[f"{name}.{quantity}"] = totals.get(name, {}).get("work", 0)
    for suite, span_name in suites.items():
        metrics[f"verify.{suite}.s"] = totals.get(span_name, {}).get("inclusive_s", 0.0)
    for name, info in caches.items():
        lookups = info["hits"] + info["misses"]
        metrics[f"cache.{name}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        metrics[f"cache.{name}.currsize"] = info["currsize"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "ayrep" / "cli.py"]
    needed += [GOLDEN / f"{label}.json" for label, _, _ in WORKLOADS[args.workload]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from an ayrep checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    # A terminated run unwinds, so the reference loop and the temporary
    # directory are cleaned up on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    stamp = env_stamp()
    env = child_env(args.seed)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            last, invocations, metrics = per_layer(args.workload, args.seed, env, tmp)
        else:
            last, invocations, metrics = timed(args.workload, args.seed, args.seconds, env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    verdict = criteria_report(last, args.workload)
    for criterion, ok in sorted(verdict.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}")
    failed = sum(not i.ok for i in invocations)
    for m in declared:
        if m["name"] not in metrics:
            print(f"warning: metric {m['name']} not measured; reported as 0", file=sys.stderr)
    stamp["loadavg_end"] = os.getloadavg()
    print(json.dumps({"env": stamp}))
    print(json.dumps({
        "correct": failed == 0 and all(verdict.values()),
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
