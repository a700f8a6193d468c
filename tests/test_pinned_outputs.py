"""Byte-for-byte CLI outputs of the matrix builders.

Each file under tests/pinned/ is the stdout of one `ayrep` invocation.  They
fix every generator matrix entry of the cell, parabolic, induced and signed
builders, exact and float, which the character and relation checks elsewhere
do not.
"""

from pathlib import Path

import pytest

from ayrep.cli import main

PINNED = Path(__file__).parent / "pinned"

CASES = {
    "rep_seminormal": ["rep", "--n", "5", "--f", "0,1,2,-1,0", "--json"],
    "rep_orthogonal_float": ["rep", "--n", "5", "--f", "0,1,2,-1,0",
                             "--form", "orthogonal-float", "--json"],
    "induce_seminormal": ["induce", "--n", "4", "--j", "1,3", "--shapes", "2;1,1", "--json"],
    "induce_orthogonal_float": ["induce", "--n", "5", "--j", "1,2,4", "--shapes", "2,1;2",
                                "--form", "orthogonal-float", "--json"],
    "bn_orthogonal_float": ["bn", "--lam", "2", "--mu", "1", "--form", "orthogonal-float",
                            "--json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_pinned_bytes(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (PINNED / f"{name}.json").read_bytes()
