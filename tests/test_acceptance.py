"""Acceptance criteria, one test per criterion.

Each suite is called as `ayrep verify` calls it, with only its size bound
(and seed).  Its other parameters are constants, pinned here by the detail
lines that carry them.  Run with `pytest tests/test_acceptance.py -v -s` to
see one line per criterion.
"""

from ayrep.verify import (
    bn_suite,
    cells_suite,
    convexity_suite,
    coxeter_suite,
    flat_suite,
    induction_suite,
    minimal_suite,
    regular_suite,
    specht_suite,
    tops_suite,
)


def _report(num, description, result):
    print(f"[{'PASS' if result.ok else 'FAIL'}] criterion {num}: {description}")
    for line in result.details:
        print(f"    {line}")
    for ce in result.counterexamples[:10]:
        print(f"    counterexample: {ce}")
    assert result.ok, f"criterion {num} failed: {result.counterexamples[:3]}"


def test_criterion_01_coxeter_relations():
    result = coxeter_suite(n_max=5)
    _report(
        1,
        "involutions and braid relations, exact for seminormal and within 1e-9 "
        "for orthogonal-float, all skew shapes n<=5 plus a sampled set at n=6",
        result,
    )
    # 128 skew shapes with n <= 5 and the 22 sampled at n = 6
    assert "150 shapes checked (exact and tol 1e-09)" in result.details


def test_criterion_02_cell_tableau_bijection():
    _report(
        2,
        "cell sizes equal standard-filling counts with verified relabel "
        "bijection, all skew shapes n<=6",
        cells_suite(n_max=6),
    )


def test_criterion_03_regular_representation():
    _report(
        3,
        "fully generic integer functionals (f_i = 3^i) give the exact regular "
        "character for n<=5",
        regular_suite(n_max=5),
    )


def test_criterion_04_flat_invariance():
    result = flat_suite()
    _report(
        4,
        ">=10 flats, >=3 generic integer functionals each, every base element: "
        "identical exact character tables",
        result,
    )
    assert result.details[0] == "13 flats checked"
    assert all(line.endswith(": 2 cells x 3 functionals agree") for line in result.details[1:])


def test_criterion_05_specht_identification():
    result = specht_suite(n_max=5)
    _report(
        5,
        "built characters equal the border-strip oracle on all classes for all "
        "skew shapes n<=5; all irreducibles realized; dimension identity n<=6",
        result,
    )
    assert "dimension identity checked up to n=6" in result.details


def test_criterion_06_minimal_cell_characterization():
    result = minimal_suite(n_max=4, seed=0)
    _report(
        6,
        "minimal-cell recognizer agrees with brute-force translated cells, n<=4",
        result,
    )
    # the 181 family cells, the 24 weak intervals and 150 random subsets
    assert "n=4: 355 subsets agree (family size 181)" in result.details


def test_criterion_07_induction():
    _report(
        7,
        "induced matrices match classically induced characters for all parabolic "
        "subsets and straight shapes n<=5; shuffle sizes match the product formula",
        induction_suite(n_max=5),
    )


def test_criterion_08_signed_group():
    _report(
        8,
        "signed-group forms pass all relations including the order-4 braid, match "
        "the classical pair form entrywise, satisfy the dimension identity, and "
        "are irreducible by exact norm, n<=4",
        bn_suite(n_max=4),
    )


def test_criterion_09_top_elements():
    _report(
        9,
        "oracle top set equals the column-reading candidates for n<=5 with the "
        "reading-convention report; every interval carries an irreducible",
        tops_suite(n_max=5),
    )


def test_criterion_10_convexity_and_genericity():
    result = convexity_suite(n_max=5)
    _report(
        10,
        "descent cells from coordinates in [-3,3] are convex for n<=5; the two "
        "genericity tests agree exhaustively for n<=4 in [-2,2]",
        result,
    )
    # 5^2 + 5^3 + 5^4 = 775 functionals with coordinates in [-2, 2]
    assert result.details == (
        "n=2: 2 +-1 patterns, 3 distinct cells convex",
        "n=3: 7 +-1 patterns, 19 distinct cells convex",
        "n=4: 41 +-1 patterns, 219 distinct cells convex",
        "n=5: 376 +-1 patterns, 3991 distinct cells convex",
        "775 functionals agree on the two genericity tests",
    )
