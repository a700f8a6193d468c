from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from ayrep.errors import (
    ContentVectorError,
    EmptyShapeError,
    NotStandardError,
    PreconditionError,
)
from ayrep.groups import Permutation, identity, partitions, sym_group
from ayrep.tableaux import (
    SkewShape,
    Tableau,
    column_tableau,
    connected_skew_shapes,
    content_vector,
    content_violation,
    count_standard,
    derived,
    enumerate_standard,
    hook_distance,
    hook_length_count,
    inversions,
    is_column_tableau,
    is_content_vector,
    is_row_tableau,
    reading_words,
    relabel,
    row_tableau,
    shape_from_boxes,
    skew_shape_family,
    tableau_from_content,
)


def T(lam, mu, rows):
    return Tableau(SkewShape(lam, mu), rows)


# shapes ------------------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((1, 2))
    with pytest.raises(ValueError):
        SkewShape((2, 2), (0, 1))
    with pytest.raises(ValueError):
        SkewShape((2,), (3,))
    s = SkewShape((3, 2), (1,))
    assert s.size == 4
    assert not s.is_straight
    assert SkewShape((2, 1)).is_straight


def test_boxes_row_major():
    s = SkewShape((3, 2), (1,))
    assert s.boxes() == ((1, 2), (1, 3), (2, 1), (2, 2))


def test_shape_from_boxes_round_trip():
    s = SkewShape((3, 3, 1), (3, 1))
    assert shape_from_boxes(s.boxes()) == s


# enumeration ---------------------------------------------------------------------


def test_enumerate_standard_examples():
    assert len(enumerate_standard(SkewShape((2, 1)))) == 2
    assert len(enumerate_standard(SkewShape((1,)))) == 1
    # the box (2,2) dominates both others, so exactly two fillings exist
    # (the determinant formula gives 2 as well)
    assert len(enumerate_standard(SkewShape((2, 2), (1,)))) == 2
    assert len(enumerate_standard(SkewShape((3, 1), (1,)))) == 3


def test_enumerate_standard_empty_shape():
    with pytest.raises(EmptyShapeError):
        enumerate_standard(SkewShape((1,), (1,)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hook_formula_matches_enumeration(n):
    for lam in partitions(n):
        assert hook_length_count(lam) == len(enumerate_standard(SkewShape(lam)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_squared_counts_sum_to_factorial(n):
    assert sum(hook_length_count(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_enumeration_order_deterministic():
    tabs = enumerate_standard(SkewShape((2, 1)))
    assert [t.rows for t in tabs] == [((1, 2), (3,)), ((1, 3), (2,))]


# content vectors ------------------------------------------------------------------


def test_content_vector_examples():
    assert content_vector(T((3, 2), (), ((1, 2, 3), (4, 5)))) == (0, 1, 2, -1, 0)
    assert content_vector(T((2,), (), ((1, 2),))) == (0, 1)
    assert content_vector(T((1, 1), (), ((1,), (2,)))) == (0, -1)
    with pytest.raises(NotStandardError):
        content_vector(T((2,), (), ((2, 1),)))


def test_derived_examples():
    assert derived((0, 1, 2, -1, 0)) == (1, 1, -3, 1)
    assert derived((5, 5, 5)) == (0, 0)
    assert derived((0, 2, -1)) == (2, -3)
    with pytest.raises(PreconditionError):
        derived((1,))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8), st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_derived_shift_invariance(values, c):
    assert derived(values) == derived([v + c for v in values])


def test_is_content_vector_examples():
    assert is_content_vector((0, 1, -1, 0))
    assert not is_content_vector((0, 0))
    assert not is_content_vector((0, 1, 0))
    assert content_violation((0, 0)) == (1, 2)


def test_tableau_from_content_examples():
    q = tableau_from_content((0, 1, -1, 0))
    assert q.shape == SkewShape((2, 2))
    assert q.rows == ((1, 2), (3, 4))
    q2 = tableau_from_content((0, -2, 1))
    assert q2.shape == SkewShape((3, 3, 1), (3, 1))
    assert content_vector(q2) == (0, -2, 1)
    q3 = tableau_from_content((0,))
    assert q3.size == 1
    with pytest.raises(ContentVectorError) as err:
        tableau_from_content((0, 1, 0))
    assert err.value.pair == (1, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_content_round_trip_over_family(n):
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            c = content_vector(q)
            assert is_content_vector(c)
            rebuilt = tableau_from_content(c)
            assert content_vector(rebuilt) == c


# relabeling -----------------------------------------------------------------------


def test_relabel_examples():
    q = T((2, 1), (), ((1, 2), (3,)))
    assert relabel(q, identity(3)) == q
    r = relabel(q, Permutation((1, 3, 2)))
    assert r.rows == ((1, 3), (2,))
    assert r.is_standard()
    r2 = relabel(q, Permutation((2, 1, 3)))
    assert r2.rows == ((2, 1), (3,))
    assert not r2.is_standard()
    with pytest.raises(PreconditionError):
        relabel(q, Permutation((1, 2)))


@given(st.permutations([1, 2, 3, 4]), st.permutations([1, 2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_relabel_is_group_action(a, b):
    q = T((3, 1), (), ((1, 2, 3), (4,)))
    pi, sigma = Permutation(a), Permutation(b)
    assert relabel(relabel(q, pi), sigma) == relabel(q, pi * sigma)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relabel_bijection_onto_standard_fillings(n):
    for lam in partitions(n):
        shape = SkewShape(lam)
        q = row_tableau(shape)
        images = {}
        for pi in sym_group(n):
            r = relabel(q, pi)
            if r.is_standard():
                assert r not in images.values()
                images[pi] = r
        assert set(images.values()) == set(enumerate_standard(shape))


# reading words --------------------------------------------------------------------


def test_reading_words_example():
    q = T((3, 2), (), ((1, 2, 3), (4, 5)))
    words = reading_words(q)
    assert words.row_word == Permutation((3, 2, 1, 5, 4))
    assert words.column_word_up == Permutation((4, 1, 5, 2, 3))
    assert words.column_word_down == Permutation((1, 4, 2, 5, 3))
    with pytest.raises(PreconditionError):
        reading_words(T((2, 2), (1,), ((2,), (1, 3))))


def test_row_column_predicates():
    q = T((3, 2), (), ((1, 2, 3), (4, 5)))
    assert is_row_tableau(q)
    j = T((2, 1), (), ((1, 3), (2,)))
    assert not is_row_tableau(j)
    assert is_column_tableau(j)
    box = T((1,), (), ((1,),))
    assert is_row_tableau(box) and is_column_tableau(box)


def test_row_and_column_constructors():
    shape = SkewShape((2, 2), (1,))
    assert row_tableau(shape).is_standard()
    assert column_tableau(shape).is_standard()
    assert row_tableau(SkewShape((2, 1))).rows == ((1, 2), (3,))
    assert column_tableau(SkewShape((2, 1))).rows == ((1, 3), (2,))


# hook distances and inversions ------------------------------------------------------


def test_hook_distance_examples():
    q = T((2, 1), (), ((1, 2), (3,)))
    assert hook_distance(q, 1) == (1, "row")
    assert hook_distance(q, 2) == (-2, "apart")
    col = T((1, 1), (), ((1,), (2,)))
    assert hook_distance(col, 1) == (-1, "column")
    with pytest.raises(PreconditionError):
        hook_distance(q, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hook_distance_never_zero_and_tagged(n):
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            for k in range(1, n):
                h = hook_distance(q, k)
                assert h.value != 0
                if h.case == "row":
                    assert h.value == 1
                elif h.case == "column":
                    assert h.value == -1
                else:
                    assert abs(h.value) >= 2


def test_inversions_examples():
    assert inversions(T((2, 1), (), ((1, 3), (2,)))) == 1
    assert inversions(T((2, 1), (), ((1, 2), (3,)))) == 0
    for n in range(1, 6):
        for lam in partitions(n):
            assert inversions(row_tableau(SkewShape(lam))) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_swapping_southern_neighbor_drops_inversions_by_one(n):
    from ayrep.reps import _swap_adjacent

    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            pos = q.positions()
            for i in range(1, n):
                if pos[i][0] > pos[i + 1][0]:  # i strictly south of i+1
                    swapped = _swap_adjacent(q, i)
                    assert swapped.is_standard()
                    assert inversions(swapped) == inversions(q) - 1


# formats ---------------------------------------------------------------------------


def test_text_rendering():
    q = T((3, 3, 1), (3, 1), ((), (1, 3), (2,)))
    assert q.to_text() == ". . .\n. 1 3\n2"


def test_json_dict():
    q = T((2, 1), (), ((1, 2), (3,)))
    d = q.to_json_dict()
    assert d == {
        "lambda": [2, 1],
        "mu": [0, 0],
        "entries": [[1, 1, 1], [1, 2, 2], [2, 1, 3]],
    }


# shape families ---------------------------------------------------------------------


def test_connected_shape_counts():
    assert len(connected_skew_shapes(1)) == 1
    assert len(connected_skew_shapes(2)) == 2
    assert len(connected_skew_shapes(3)) == 4
    assert len(connected_skew_shapes(4)) == 9


def test_family_contains_straight_and_disconnected():
    fam = set(skew_shape_family(3))
    assert SkewShape((3,)) in fam
    assert SkewShape((2, 1)) in fam
    for shape in fam:
        assert shape.size == 3
    assert len(fam) == 9


def test_count_standard_matches_enumeration_on_skew():
    for shape in skew_shape_family(4):
        assert count_standard(shape) == len(enumerate_standard(shape))
