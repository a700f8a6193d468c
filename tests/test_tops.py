import pytest

from ayrep.cells import Functional
from ayrep.errors import PreconditionError
from ayrep.groups import Permutation, identity, partitions, weak_interval
from ayrep.reps import build_from_functional
from ayrep.tableaux import (
    SkewShape,
    content_vector,
    enumerate_standard,
    relabel,
    relabel_cell,
    row_tableau,
    skew_shape_family,
)
from ayrep.tops import is_top_brute, top_elements
from tableau_oracles import column_tableau


def maximal_members(members: frozenset, n: int) -> frozenset:
    """Oracle: members with no generator step up that stays inside the set."""
    return frozenset(
        pi
        for pi in members
        if all(
            pi.times_simple(i) not in members or pi.times_simple(i).length() < pi.length()
            for i in range(1, n)
        )
    )


def maximal_elements_of_cell(q):
    """Length-maximal members of a filling's cell."""
    return maximal_members(relabel_cell(q), q.size)


def maximum_by_steps(members: frozenset, n: int) -> tuple:
    """(maximum, is_interval) by the step rule: the sort-key-largest maximal
    member, and whether it is the only one and the set is [id, maximum]."""
    maximal = maximal_members(members, n)
    maximum = max(maximal, key=lambda w: w.sort_key())
    return maximum, len(maximal) == 1 and members == frozenset(weak_interval(maximum))


def test_is_top_brute_examples():
    assert is_top_brute(identity(4))
    assert is_top_brute(Permutation((1, 3, 2)))
    assert not is_top_brute(Permutation((2, 1, 3)))
    assert not is_top_brute(Permutation((2, 3, 1)))


@pytest.mark.parametrize("n", [True, 1.5, "3"])
def test_top_elements_refuses_a_non_integer_n(n):
    # before, True gave a report with n=True
    with pytest.raises(PreconditionError, match=f"top elements need n >= 1, got n={n}"):
        top_elements(n)


def test_top_elements_reads_an_integral_float_as_an_int():
    assert top_elements(3.0).n == 3 and top_elements(3.0).rows == top_elements(3).rows


def test_top_elements_small():
    r2 = top_elements(2)
    assert r2.oracle == frozenset({identity(2)})
    assert r2.p_n == 2
    assert r2.distinct_candidates == 1
    assert r2.oracle_matches_down

    r3 = top_elements(3)
    assert r3.oracle == frozenset({identity(3), Permutation((1, 3, 2))})
    assert r3.oracle_matches_down
    assert not r3.oracle_matches_up  # bottom-to-top reading disagrees


def test_candidate_for_three_two():
    report = top_elements(5)
    row = next(r for r in report.rows if r.lam == (3, 2))
    assert row.maximum == Permutation((1, 4, 2, 5, 3))
    assert row.interval_size == 5
    assert row.column_word_down == row.maximum
    assert row.column_word_up != row.maximum
    assert row.is_interval
    assert row.irreducible


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_interval_sizes_match_the_relabel_cells(n):
    # top_elements reads each row filling's cell off its representation's basis
    for row in top_elements(n).rows:
        assert row.interval_size == len(relabel_cell(row_tableau(SkewShape(row.lam))))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_last_member_of_every_walked_cell_is_the_step_rule_maximum(n):
    # top_elements reads the maximum off the end of the basis, which is in
    # sort_key order, and calls the cell an interval when it is [id, maximum]
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            basis = build_from_functional(Functional(content_vector(q)), identity(n)).basis
            members = frozenset(basis)
            new = (basis[-1], members == frozenset(weak_interval(basis[-1])))
            assert new == maximum_by_steps(members, n), q


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_top_rows_match_the_step_rule_on_the_relabel_cells(n):
    for row in top_elements(n).rows:
        members = relabel_cell(row_tableau(SkewShape(row.lam)))
        assert (row.maximum, row.is_interval) == maximum_by_steps(members, n), row.lam


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_cells_are_intervals_with_column_maximum(n):
    # relabeling the row filling by the maximum of its cell gives the column filling
    for lam in partitions(n):
        shape = SkewShape(lam)
        r = row_tableau(shape)
        (m,) = maximal_elements_of_cell(r)
        assert relabel(r, m) == column_tableau(shape)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_other_fillings_have_two_maximal_elements(n):
    for lam in partitions(n):
        shape = SkewShape(lam)
        for q in enumerate_standard(shape):
            if q in (row_tableau(shape), column_tableau(shape)):
                assert len(maximal_elements_of_cell(q)) == 1
            else:
                assert len(maximal_elements_of_cell(q)) >= 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_equals_candidates(n):
    report = top_elements(n)
    assert report.oracle_matches_down
    assert report.distinct_candidates == (report.p_n if n == 1 else report.p_n - 1)
