"""The brute-force oracles against their direct forms in tableau_oracles.py.

`relabel_cell` tests pairs of entries on one-line words instead of relabelling
a tableau, the minimal family skips the orbits it already holds, and
`is_top_brute` rules intervals out by size and looks translates up in a dict.
Each must give exactly the answer of the direct form.
"""

import pytest

from ayrep import verify
from ayrep.errors import PreconditionError
from ayrep.groups import sym_group
from ayrep.tableaux import (
    SkewShape,
    Tableau,
    enumerate_standard,
    relabel_cell,
    row_tableau,
    skew_shape_family,
)
from ayrep.tops import is_top_brute
from tableau_oracles import (
    is_top_by_comparison,
    scan_relabel_cell,
    straight_candidates,
    translated_cell_family,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relabel_cell_matches_the_scan_on_every_filling(n):
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            assert relabel_cell(q) == scan_relabel_cell(q), q


def test_relabel_cell_matches_the_scan_on_every_row_filling_at_5():
    for shape in skew_shape_family(5):
        q = row_tableau(shape)
        assert relabel_cell(q) == scan_relabel_cell(q), q


@pytest.mark.parametrize("rows", [
    ((1, 1), (2,)),   # a repeated entry
    ((0, 1), (2,)),   # 0, which the one-line lookup would read as the last letter
    ((1, 2), (4,)),   # past n
    ((3, 1), (2,)),   # 1..n, not standard itself
])
def test_relabel_cell_keeps_the_scan_off_standard_input(rows):
    q = Tableau(SkewShape((2, 1)), rows)
    if sorted(v for row in rows for v in row) == [1, 2, 3]:
        assert relabel_cell(q) == scan_relabel_cell(q)
    else:  # refused, not scanned: q must hold each of 1..n once
        with pytest.raises(PreconditionError):
            relabel_cell(q)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimal_family_matches_every_translate(n):
    assert verify._brute_minimal_family(n) == translated_cell_family(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_top_brute_matches_the_comparison_with_every_candidate(n):
    candidates = straight_candidates(n)
    for pi in sym_group(n):
        assert is_top_brute(pi) == is_top_by_comparison(pi, candidates), pi
