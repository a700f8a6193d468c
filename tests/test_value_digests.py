"""Every matrix entry and character value of the sweeps at n <= 5 (signed
n <= 4), and the `flat` suite's character tables and generator matrices,
against pinned digests.

See value_digests.py for what is dumped and how to re-pin; pins.py checks
level 6 by running that module as a script.
"""

import math
from fractions import Fraction

import pytest

from ayrep.cells import Functional
from ayrep.groups import identity
from ayrep.reps import build_from_functional
from value_digests import digests, pinned, rep_lines, value_text


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, "flat"])
def test_values_match_the_pinned_digests(level):
    assert digests(level) == pinned()[str(level)]


def test_the_dump_tells_apart_values_that_compare_equal():
    assert value_text(0) != value_text(Fraction(0))
    assert value_text(1.0) != value_text(Fraction(1))
    assert value_text(0.5) != value_text(math.nextafter(0.5, 1.0))


def test_the_dump_ignores_the_stored_order_of_entries():
    rep = build_from_functional(Functional((0, 1, -1, 0)), identity(4))
    before = rep_lines(rep)
    for m in rep.matrices.values():
        m.cols = {j: dict(reversed(col.items())) for j, col in reversed(m.cols.items())}
    assert rep_lines(rep) == before
