from itertools import product
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
    connected_skew_shapes,
    content_vector,
    content_violation,
    count_standard,
    enumerate_standard,
    hook_length_count,
    reading_words,
    relabel,
    row_tableau,
    skew_shape_family,
    straight_shapes,
    tableau_from_content,
)
from tableau_oracles import (
    box_tableau_from_content,
    column_tableau,
    recursive_connected_skew_shapes,
    recursive_skew_shape_family,
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
    assert str(SkewShape((3.0, 2.0), (1.0,))) == "(3,2)/(1)"


@pytest.mark.parametrize("lam, mu", [(("a",), ()), ((True,), ()), ((2, 1), (1.5,))])
def test_shape_refuses_non_integer_parts(lam, mu):
    with pytest.raises(ValueError, match="integer parts"):
        SkewShape(lam, mu)


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


@pytest.mark.parametrize(
    "shape", [SkewShape(()), SkewShape((1,), (1,)), SkewShape((2, 1), (2, 1))], ids=str)
def test_count_standard_of_an_empty_shape_is_an_error(shape):
    # an empty shape has one filling, the empty one, which would count 1
    with pytest.raises(EmptyShapeError):
        count_standard(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hook_formula_matches_enumeration(n):
    for lam in partitions(n):
        assert hook_length_count(lam) == len(enumerate_standard(SkewShape(lam)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_squared_counts_sum_to_factorial(n):
    assert sum(hook_length_count(lam) ** 2 for lam in partitions(n)) == factorial(n)


def _brute_standard(shape):
    """Relabel the row filling by every element of the group; keep the standard ones."""
    q = row_tableau(shape)
    fillings = [relabel(q, pi) for pi in sym_group(shape.size)]
    return sorted((t for t in fillings if t.is_standard()), key=lambda t: t.rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_standard_matches_relabel_oracle(n):
    shapes = straight_shapes(n) if n == 6 else skew_shape_family(n)
    for shape in shapes:
        assert enumerate_standard(shape) == _brute_standard(shape)


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


def test_is_content_vector_examples():
    assert content_violation((0, 1, -1, 0)) is None
    assert content_violation((0, 0)) == (1, 2)
    assert content_violation((0, 1, 0)) == (1, 3)


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
            assert content_violation(c) is None
            assert tableau_from_content(c) == q


def test_tableau_from_content_on_every_small_vector():
    # every vector of length <= 5 with entries in [-3, 3]: 3,829 are valid
    valid = 0
    for n in range(1, 6):
        for c in product(range(-3, 4), repeat=n):
            bad = content_violation(c)
            if bad is None:
                q = tableau_from_content(c)
                assert q.is_standard() and content_vector(q) == c
                valid += 1
            else:
                with pytest.raises(ContentVectorError) as err:
                    tableau_from_content(c)
                assert err.value.pair == bad
    assert valid == 3829


def test_tableau_from_content_matches_the_box_layout():
    # every valid vector of length <= 5 in [-3, 3], and boxes far off the
    # diagonal, where (3,) needs no leading empty row and the others do
    vectors = [c for n in range(1, 6) for c in product(range(-3, 4), repeat=n)
               if content_violation(c) is None]
    vectors += [(0, -5), (0, -5, -10), (-4,), (3,)]
    for c in vectors:
        q, old = tableau_from_content(c), box_tableau_from_content(c)
        assert (q.shape, q.rows) == (old.shape, old.rows), c
    # letter 2 (content -5) would sit in row 2 and column -3: 4 empty rows go on top
    assert tableau_from_content((0, -5)).shape == SkewShape((5, 5, 5, 5, 5, 1), (5, 5, 5, 5, 4))


def test_tableau_from_content_of_nothing_is_empty():
    with pytest.raises(EmptyShapeError):
        tableau_from_content(())


@pytest.mark.parametrize("values", [(0, None), (0, 1.5), (0, True)])
def test_tableau_from_content_refuses_non_integer_contents(values):
    with pytest.raises(PreconditionError, match="integers"):
        tableau_from_content(values)


def test_tableau_from_content_reads_integral_floats_as_ints():
    # before, it refused them, though Functional((0, 1.0)) reads them as (0, 1)
    assert tableau_from_content((0, 1.0)) == tableau_from_content((0, 1))


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


@pytest.mark.parametrize("rows", [((0, 1), (2,)), ((-1, 1), (2,)), ((1, 2), (4,))])
def test_relabel_rejects_entries_outside_1_to_n(rows):
    with pytest.raises(PreconditionError, match=r"entries in 1\.\.3"):
        relabel(T((2, 1), (), rows), identity(3))


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
    assert words.column_word_up == Permutation((4, 1, 5, 2, 3))
    assert words.column_word_down == Permutation((1, 4, 2, 5, 3))
    with pytest.raises(PreconditionError):
        reading_words(T((2, 2), (1,), ((2,), (1, 3))))


def test_row_and_column_constructors():
    shape = SkewShape((2, 2), (1,))
    assert row_tableau(shape).is_standard()
    assert column_tableau(shape).is_standard()
    assert row_tableau(SkewShape((2, 1))).rows == ((1, 2), (3,))
    assert column_tableau(SkewShape((2, 1))).rows == ((1, 3), (2,))


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


@pytest.mark.parametrize("m", range(1, 10))
def test_connected_shapes_match_the_recursive_search(m):
    assert connected_skew_shapes(m) == tuple(recursive_connected_skew_shapes(m))


@pytest.mark.parametrize("n", range(1, 9))
def test_family_matches_the_recursive_search_in_order(n):
    # the order matters: the coxeter sweep samples every 7th shape at n = 6
    family = skew_shape_family(n)
    assert family == tuple(recursive_skew_shape_family(n))
    assert len(set(family)) == len(family)


def test_family_contains_straight_and_disconnected():
    fam = set(skew_shape_family(3))
    assert SkewShape((3,)) in fam
    assert SkewShape((2, 1)) in fam
    for shape in fam:
        assert shape.size == 3
    assert len(fam) == 9


@pytest.mark.parametrize("n", range(1, 8))
def test_family_contains_every_straight_shape(n):
    assert set(straight_shapes(n)) <= set(skew_shape_family(n))


def test_count_standard_matches_enumeration_on_skew():
    for n in range(1, 7):
        for shape in skew_shape_family(n):
            assert count_standard(shape) == len(enumerate_standard(shape)), shape


@pytest.mark.parametrize("n", range(1, 8))
def test_count_standard_matches_the_hook_formula(n):
    for shape in straight_shapes(n):
        assert count_standard(shape) == hook_length_count(shape.lam), shape
