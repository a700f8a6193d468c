from itertools import product

import pytest

from ayrep.cells import (
    BasicFlat,
    Functional,
    boundary_reflections,
    cell_tableau_bijection,
    descent_cell,
    flat_determined_reflections,
    flat_integer_points,
    flat_partition,
    is_generic,
    is_generic_integer,
    is_minimal_ay_cell,
)
from ayrep.errors import PreconditionError
from ayrep.groups import Permutation, identity, is_convex, reflection, sym_group
from ayrep.tableaux import SkewShape, Tableau, content_vector, enumerate_standard, relabel


def P(*images):
    return Permutation(images)


def test_boundary_reflections_examples():
    assert boundary_reflections(Functional((0, 2, -1))) == {reflection(1, 3)}
    assert boundary_reflections(Functional((0, 5, 9))) == frozenset()
    assert boundary_reflections(Functional((0, 1, -1))) == {
        reflection(1, 2),
        reflection(1, 3),
    }


def test_descent_cell_examples():
    cell = descent_cell(Functional((0, 2, -1)), identity(3))
    assert set(cell.members) == {identity(3), P(2, 1, 3), P(1, 3, 2)}
    assert cell.interior == {reflection(1, 2), reflection(2, 3)}
    assert cell.boundary == {reflection(1, 3)}

    generic = descent_cell(Functional((0, 3, 9, 27)), P(2, 4, 1, 3))
    assert len(generic.members) == 24

    cell2 = descent_cell(Functional((0, 1, -1, 0)), identity(4))
    assert set(cell2.members) == {identity(4), P(1, 3, 2, 4)}


def test_descent_cell_translate_free():
    f = Functional((0, 2, -1))
    for v in descent_cell(f, identity(3)).members:
        assert descent_cell(f, v).members == descent_cell(f, identity(3)).members


def test_is_generic_examples():
    f1 = Functional((0, -1, -2))
    assert is_generic(f1, descent_cell(f1, identity(3)))
    f3 = Functional((0, 2, -1))
    assert is_generic(f3, descent_cell(f3, identity(3)))
    # boundary values +1 and -3: the singleton cell rejects it
    f2 = Functional((0, 1, -2))
    cell = descent_cell(Functional((0, -1, -2)), identity(3))
    assert cell.size == 1
    assert not is_generic(f2, cell)


def test_is_generic_preconditions():
    f = Functional((0, 2, -1))
    from ayrep.cells import make_cell

    no_id = make_cell({P(2, 1, 3)})
    with pytest.raises(PreconditionError):
        is_generic(f, no_id)
    non_convex = make_cell({identity(3), P(2, 3, 1)})
    with pytest.raises(PreconditionError):
        is_generic(f, non_convex)


def test_is_generic_integer_examples():
    assert is_generic_integer(Functional((0, 1, -1, 0)))
    assert not is_generic_integer(Functional((0, 0, 5)))
    assert not is_generic_integer(Functional((0, 1, 0)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generic_integer_equivalent_to_cell_genericity(n):
    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        assert is_generic_integer(f) == is_generic(f, descent_cell(f, identity(n)))


def test_cell_tableau_bijection_example():
    q = Tableau(SkewShape((2, 1)), ((1, 2), (3,)))
    mapping = cell_tableau_bijection(Functional((0, 1, -1)), q)
    assert mapping == {
        identity(3): q,
        P(1, 3, 2): Tableau(SkewShape((2, 1)), ((1, 3), (2,))),
    }
    with pytest.raises(PreconditionError):
        cell_tableau_bijection(Functional((0, 5, 9)), q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cell_sizes_match_filling_counts(n):
    from ayrep.tableaux import row_tableau, skew_shape_family

    for shape in skew_shape_family(n):
        q = row_tableau(shape)
        f = Functional(content_vector(q))
        cell = descent_cell(f, identity(n))
        assert cell.size == len(enumerate_standard(shape))


def test_is_minimal_ay_cell_examples():
    flag, witness = is_minimal_ay_cell({identity(3), P(1, 3, 2)})
    assert flag
    sigma, q = witness
    translated = {sigma.inverse() * w for w in {identity(3), P(1, 3, 2)}}
    regenerated = {
        pi for pi in sym_group(3) if relabel(q, pi).is_standard()
    }
    assert translated == regenerated

    flag2, _ = is_minimal_ay_cell({identity(3), P(2, 3, 1)})
    assert not flag2

    for w in sym_group(3):
        flag3, witness3 = is_minimal_ay_cell({w})
        assert flag3
        assert witness3[0] == w
        assert witness3[1].size == 3

    with pytest.raises(PreconditionError):
        is_minimal_ay_cell(set())


def test_flat_partition_examples():
    L = BasicFlat(3, frozenset({(reflection(1, 3), -1)}))
    cells = flat_partition(L, 3)
    assert sorted(c.size for c in cells) == [3, 3]

    whole = BasicFlat(3, frozenset())
    assert [c.size for c in flat_partition(whole, 3)] == [6]

    point = BasicFlat(2, frozenset({(reflection(1, 2), 1)}))
    assert sorted(c.size for c in flat_partition(point, 2)) == [1, 1]

    for c in cells:
        assert is_convex(c.members)


def test_flat_determined_closure():
    L = BasicFlat(
        3, frozenset({(reflection(1, 2), 1), (reflection(2, 3), 1)})
    )
    # the (1,3) pairing is forced to 2, so only the two constraints remain
    assert flat_determined_reflections(L) == {reflection(1, 2), reflection(2, 3)}
    chain = BasicFlat(
        4, frozenset({(reflection(1, 2), 1), (reflection(2, 3), -1)})
    )
    # f_3 - f_1 is forced to 0: determined but not a +-1 constraint
    assert flat_determined_reflections(chain) == {reflection(1, 2), reflection(2, 3)}


def test_flat_inconsistent():
    L = BasicFlat(
        3,
        frozenset(
            {
                (reflection(1, 2), 1),
                (reflection(2, 3), 1),
                (reflection(1, 3), -1),
            }
        ),
    )
    with pytest.raises(PreconditionError):
        flat_partition(L, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monotone_positions_on_generic_cells(n):
    """Reflections paired to 0 or +-1 order the positions identically across
    the whole identity cell."""
    from ayrep.groups import reflections

    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        if not is_generic_integer(f):
            continue
        cell = descent_cell(f, identity(n))
        for t in reflections(n):
            if f.pair(t) not in (-1, 0, 1):
                continue
            signs = {
                (w.inverse())(t.j) > (w.inverse())(t.i) for w in cell.members
            }
            assert signs == {True}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generic_cells_have_disjoint_reflection_sets(n):
    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        cell = descent_cell(f, identity(n))
        if is_generic(f, cell):
            assert not (cell.interior & cell.boundary)


def test_flat_integer_points_lie_on_flat():
    L = BasicFlat(4, frozenset({(reflection(1, 2), 1)}))
    points = list(flat_integer_points(L, 2))
    assert len(points) == 25  # two free components scanning -2..2
    for f in points:
        assert f.pair(reflection(1, 2)) == 1
    assert len({f.coords for f in points}) == len(points)
