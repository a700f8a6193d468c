"""Every pinned output of ayrep, and the one check that runs them.

A pin is a command and what it must print: a file's exact bytes or a line of
stdout.  `check` runs it in a fresh interpreter from the repository root with
PYTHONPATH=<root>/src and PYTHONWARNINGS=default, and fails a wrong exit status,
any stderr, wrong bytes, a missing line or a run over its limit.  Tier-1 checks
the "tier1" pins, `python tests/pins.py` checks them all (as the golden CI job
does), and the perfbench goldens come from perfbench/run.py's `WORKLOADS`.
"""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "pinned"
CLI = ("-m", "ayrep.cli")
CAP = "error: type A enumeration capped at n={} (requested {}); raise AYREP_MAX_N to override"
# f = (0,-1,-1) fails the corner rule at 2,1,3; built anyway, (s1 s2)^3 = -1
CORNER = "error: functional not generic for the cell: at 2,1,3: f1 - f2 = 1 != f3 - f1 = -1"
SEED1 = {"PYTHONHASHSEED": "1"}


class Pin(NamedTuple):
    name: str
    argv: tuple  # after `python`
    expect: object  # a Path: stdout is its bytes; a str: a line of stdout
    tier: str = "golden"  # or "tier1"
    status: int = 0
    env: dict = {}
    limit: float | None = None  # seconds


def cli(args: str) -> tuple:
    return (*CLI, *args.split())


def workloads() -> dict:
    """perfbench/run.py's WORKLOADS, read without running that file."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WORKLOADS")


TIER1 = {  # stdout of `ayrep <args>` is tests/pinned/<name>.json
    "rep_seminormal": "rep --n 5 --f 0,1,2,-1,0 --json",
    "rep_orthogonal_float": "rep --n 5 --f 0,1,2,-1,0 --form orthogonal-float --json",
    "rep_orthogonal_float_text": "rep --n 5 --f 0,1,2,-1,0 --form orthogonal-float",
    "induce_seminormal": "induce --n 4 --j 1,3 --shapes 2;1,1 --json",
    "induce_orthogonal_float":
        "induce --n 5 --j 1,2,4 --shapes 2,1;2 --form orthogonal-float --json",
    "bn_orthogonal_float": "bn --lam 2 --mu 1 --form orthogonal-float --json",
    "bn_seminormal": "bn --lam 2 --mu 1,1 --json",
    "bn_seminormal_first_block_only": "bn --lam 3 --json",  # k = n
    "bn_seminormal_second_block_only": "bn --mu 2,1 --json",  # k = 0
    "cell_json": "cell --n 5 --f 0,1,2,-1,0 --json",
    "cell_base_json": "cell --n 5 --f 0,1,2,-1,0 --w 2,1,3,5,4 --json",
    "cell_dot": "cell --n 5 --f 0,1,2,-1,0 --format dot",
    "tops_json": "tops --n 5 --json",
    "tops_text": "tops --n 5",
    # the shape family's suites out of `SUITES` order, to pin the order of results
    "verify_family_n5": "verify --n 5 --suite specht,cells,coxeter,axiomB --json",
}
# Times on a shared 2-core VM (Python 3.11): the goldens take 0.3-1 s each.  A
# limit fails a slower path: unguarded diagonal traces (flat, oracles), enumerated
# fillings (cells), relation checks that push far too much, minimal's 30 s scan.
PINS = [
    *(Pin(name, cli(args), PINNED / f"{name}.json", "tier1") for name, args in TIER1.items()),
    *(Pin(f"{label} (hash seed {seed})", (*CLI, *(a.replace("{seed}", str(seed)) for a in args)),
          ROOT / "perfbench" / "golden" / f"{label}.json",
          env={"PYTHONHASHSEED": str(seed)}, limit=None if label == "oracles-bn" else 20)
      for seed in (0, 1) for rows in workloads().values() for label, args, _ in rows),
    # the relations of all 400 skew shapes up to n = 6 (5 s), the shape family (7 s)
    Pin("verify_coxeter_n6", cli("verify --n 6 --suite coxeter --json"),
        PINNED / "verify_coxeter_n6.json", env=SEED1, limit=60),
    Pin("verify_family_n6", cli("verify --n 6 --suite specht,cells,coxeter,axiomB --json"),
        PINNED / "verify_family_n6.json", env=SEED1, limit=60),
    # the minimal-cell recognizer at the suite's limit, n = 5 (about 2.5 s)
    Pin("verify_minimal_n5", cli("verify --n 5 --suite minimal --json"),
        PINNED / "verify_minimal_n5.json", env=SEED1, limit=20),
    # every value of the sweeps at n = 6 (signed n = 5) and flat; 1 on a mismatch (7 s)
    Pin("value_digests 6 flat", ("tests/value_digests.py", "6", "flat"),
        "ok flat: flat representations", env=SEED1),
    # every (cell, f) pair the genericity rule accepts at n = 5 (about 8 s)
    Pin("genericity_sweep 5", ("tests/genericity_sweep.py", "--check", "5"),
        "n=5: 3744 accepted (cell, f) pairs built and checked", env=SEED1, limit=60),
    # caps are checked before any suite runs; coxeter's n = 6 sample and default sizes too
    Pin("over cap: verify --n 8", cli("verify --n 8 --suite specht,coxeter"), CAP.format(7, 8),
        status=1, limit=20),
    Pin("over cap: coxeter sample", cli("verify --n 5 --suite coxeter"), CAP.format(5, 6),
        status=1, env={"AYREP_MAX_N": "5"}, limit=5),
    Pin("over cap: default size", cli("verify --suite minimal"), CAP.format(3, 4),
        status=1, env={"AYREP_MAX_N": "3"}, limit=5),
    *(Pin(f"corner rule: {cmd}", cli(f"{cmd} --n 3 --f 0,-1,-1 --w 2,1,3"), CORNER, status=1,
          limit=5) for cmd in ("rep", "cell --format dot")),
]


def check(pin: Pin) -> str | None:
    """None if `pin` holds, else the reason it does not."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "default", **pin.env}
    try:
        run = subprocess.run([sys.executable, *pin.argv], cwd=ROOT, env=env,
                             capture_output=True, timeout=pin.limit)
    except subprocess.TimeoutExpired:
        return f"ran over its limit of {pin.limit} s"
    err = run.stderr.decode(errors="replace")
    if run.returncode != pin.status:
        return f"exit status {run.returncode}, not {pin.status}\n{err}"
    if err:
        return f"wrote to stderr\n{err}"
    if isinstance(pin.expect, Path):
        return None if run.stdout == pin.expect.read_bytes() else f"stdout is not {pin.expect}"
    return None if pin.expect.encode() in run.stdout.splitlines() else f"no line {pin.expect!r}"


def main() -> int:
    failed = 0
    for pin in PINS:
        start = time.perf_counter()
        reason = check(pin)
        failed += reason is not None
        print("FAIL" if reason else "ok", pin.name, f"({time.perf_counter() - start:.1f} s)",
              *([reason] if reason else []), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main() if len(sys.argv) == 1 else "usage: python tests/pins.py (no arguments)")
