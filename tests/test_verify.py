"""Suite-level checks on `ayrep.verify` that the acceptance criteria do not make."""

import dataclasses
import re
from fractions import Fraction

from ayrep import reps, verify
from ayrep.linalg import SquareMatrix


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


def _traced_pairs(result) -> int:
    """(cell, functional) pairs, read from the 'k cells x m functionals' details."""
    pairs = 0
    for line in result.details:
        match = re.search(r"(\d+) cells x (\d+) functionals", line)
        if match:
            pairs += int(match[1]) * int(match[2])
    return pairs


def test_flat_suite_traces_each_cell_and_functional_once(monkeypatch):
    traced = _count_calls(monkeypatch, "character")
    built = _count_calls(monkeypatch, "build_from_functional")
    result = verify.flat_suite()
    assert result.ok
    assert len(traced) == _traced_pairs(result) == 78
    assert len(built) == 1440  # every base element of every cell is still built


def test_flat_suite_traces_a_rep_that_differs(monkeypatch):
    altered = []

    def build(f, v, normalization):
        rep = reps.build_from_functional(f, v, normalization)
        if not altered and rep.dim >= 2 and v == rep.basis[-1]:
            # s1 -> 2 * identity changes the trace at the class of s1
            doubled = SquareMatrix(rep.dim, {j: {j: Fraction(2)} for j in range(rep.dim)})
            altered.append((f, v))
            return dataclasses.replace(rep, matrices={**rep.matrices, 1: doubled})
        return rep

    monkeypatch.setattr(verify, "build_from_functional", build)
    traced = _count_calls(monkeypatch, "character")
    result = verify.flat_suite()
    (f, v), = altered
    assert not result.ok
    assert any(
        f"character differs for f={f!r}, v={v.one_line()}" in bad
        for bad in result.counterexamples
    )
    assert len(traced) == 79  # the altered rep is traced on top of the 78 pairs

