"""Byte-for-byte CLI outputs of the matrix builders.

Each file under tests/pinned/ is the stdout of one `ayrep` invocation.  They
fix every generator matrix entry of the cell, parabolic, induced and signed
builders, exact and float, which the character and relation checks elsewhere
do not, the member order, reflection sets and edge list of a descent
cell, every row of the top-element classification at n = 5, and the
detail lines of the shape-family suites at n = 5.
"""

from pathlib import Path

import pytest

from ayrep.cli import main

PINNED = Path(__file__).parent / "pinned"

# pinned/verify_coxeter_n6.json (`verify --n 6 --suite coxeter --json`),
# pinned/verify_minimal_n5.json (`verify --n 5 --suite minimal --json`) and
# pinned/verify_family_n6.json (`verify --n 6 --suite specht,cells,coxeter,axiomB
# --json`) are not cases here: they are checked in CI only, by the golden job,
# because they take about 9 s, 2.5 s and 7 s.

CASES = {
    "rep_seminormal": ["rep", "--n", "5", "--f", "0,1,2,-1,0", "--json"],
    "rep_orthogonal_float": ["rep", "--n", "5", "--f", "0,1,2,-1,0",
                             "--form", "orthogonal-float", "--json"],
    "induce_seminormal": ["induce", "--n", "4", "--j", "1,3", "--shapes", "2;1,1", "--json"],
    "induce_orthogonal_float": ["induce", "--n", "5", "--j", "1,2,4", "--shapes", "2,1;2",
                                "--form", "orthogonal-float", "--json"],
    "bn_orthogonal_float": ["bn", "--lam", "2", "--mu", "1", "--form", "orthogonal-float",
                            "--json"],
    "bn_seminormal": ["bn", "--lam", "2", "--mu", "1,1", "--json"],
    "bn_seminormal_first_block_only": ["bn", "--lam", "3", "--json"],  # k = n
    "bn_seminormal_second_block_only": ["bn", "--mu", "2,1", "--json"],  # k = 0
    "cell_json": ["cell", "--n", "5", "--f", "0,1,2,-1,0", "--json"],
    "cell_base_json": ["cell", "--n", "5", "--f", "0,1,2,-1,0", "--w", "2,1,3,5,4", "--json"],
    "cell_dot": ["cell", "--n", "5", "--f", "0,1,2,-1,0", "--format", "dot"],
    "tops_json": ["tops", "--n", "5", "--json"],
    "tops_text": ["tops", "--n", "5"],
    # the four suites of the shape family, out of `SUITES` order, so that the
    # order of the results is pinned too
    "verify_family_n5": ["verify", "--n", "5", "--suite", "specht,cells,coxeter,axiomB", "--json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_pinned_bytes(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (PINNED / f"{name}.json").read_bytes()
