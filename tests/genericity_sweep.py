"""Every cell of every descent partition, for the functionals with f_1 = 0
and the other coordinates in [-3, 3].

Each (cell, f) pair that `genericity_violation` accepts is built, and the
matrices must satisfy the Coxeter relations.  Its character must be the
skew character that the paper's classification names: with sigma the cell's
shortest member and g = (f_sigma(1), ..., f_sigma(n)), sigma^-1 C is the
identity cell of the content vector g, so the character is `mn_character`
of the shape of `tableau_from_content(g)`.  That check reads no step graph
and no corner, so it does not restate the rule it checks.

The verdict of `genericity_violation` on each (cell, f) pair is pinned in
pinned/genericity_verdicts.json, one line per pair: the coordinates of f,
the cell's shortest member and the violated condition ("ok" when f is
generic for the cell).  tests/test_genericity_sweep.py runs both checks at
n <= 4.  This script needs only the standard library.  It re-pins the table
(a change that means to move a verdict lists the pairs that move in
CHANGES.md), or builds and checks every accepted pair at one n and prints
their count, 3744 at n = 5:

    PYTHONPATH=src python tests/genericity_sweep.py --write
    PYTHONPATH=src python tests/genericity_sweep.py --check 5
"""

import json
import sys
from itertools import product
from pathlib import Path

from ayrep.cells import Functional, boundary_reflections, descent_partition, genericity_violation
from ayrep.reps import build_from_functional, character, mn_character, verify_coxeter
from ayrep.tableaux import tableau_from_content

PINNED = Path(__file__).resolve().parent / "pinned" / "genericity_verdicts.json"
SIZES = (1, 2, 3, 4)


def sweep(n: int):
    """Every (f, cell) of the set, f in lexicographic order, cells in partition order."""
    for rest in product(range(-3, 4), repeat=n - 1):
        f = Functional((0, *rest))
        for cell in descent_partition(n, boundary_reflections(f)):
            yield f, cell


def verdict_lines(n: int) -> list:
    lines = []
    for f, cell in sweep(n):
        bad = genericity_violation(f, cell)
        verdict = "ok" if bad is None else bad[0]
        lines.append(f"f={','.join(map(str, f.coords))} at {cell.members[0].one_line()}: {verdict}")
    return lines


def check_accepted(n: int) -> int:
    """Build every accepted pair and check it; the number of pairs checked."""
    count = 0
    for f, cell in sweep(n):
        if genericity_violation(f, cell) is not None:
            continue
        sigma = cell.members[0]
        rep = build_from_functional(f, sigma)
        if rep.basis != cell.members or not verify_coxeter(rep).ok:
            raise AssertionError(f"f={f.coords} at {sigma.one_line()}: relations fail")
        g = tuple(f.coords[x - 1] for x in sigma.images)
        shape = tableau_from_content(g).shape
        for cls, value in character(rep).values.items():
            if value != mn_character(shape, cls.cycle_type()):
                raise AssertionError(f"f={f.coords} at {sigma.one_line()}: character at {cls}")
        count += 1
    return count


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        PINNED.write_text(json.dumps({str(n): verdict_lines(n) for n in SIZES}, indent=1) + "\n")
    elif len(args) == 2 and args[0] == "--check" and args[1].isdigit():
        n = int(args[1])
        print(f"n={n}: {check_accepted(n)} accepted (cell, f) pairs built and checked")
    else:
        sys.exit("usage: genericity_sweep.py --write | --check N")
