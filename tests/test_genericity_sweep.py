"""The genericity sweep of genericity_sweep.py at n <= 4: the pinned verdict
table, and every accepted (cell, f) pair built and checked."""

import json

import pytest

from genericity_sweep import PINNED, SIZES, check_accepted, verdict_lines


@pytest.mark.parametrize("n", SIZES)
def test_verdicts_match_the_pinned_table(n):
    assert verdict_lines(n) == json.loads(PINNED.read_text())[str(n)]


@pytest.mark.parametrize("n, accepted", [(1, 1), (2, 8), (3, 64), (4, 504)])
def test_every_accepted_pair_is_the_representation_of_its_translated_content(n, accepted):
    assert check_accepted(n) == accepted
