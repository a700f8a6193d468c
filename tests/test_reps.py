from fractions import Fraction

import pytest

from ayrep.cells import Functional, descent_cell
from ayrep.errors import GenericityError, PreconditionError
from ayrep.groups import Permutation, sym_group, identity, reduced_word
from ayrep.linalg import SquareMatrix
from ayrep.reps import (
    ORTHOGONAL,
    SEMINORMAL,
    Representation,
    build_from_functional,
    build_orthogonal_skew,
    char_inner,
    character,
    character_value,
    is_irreducible,
    mn_character,
    verify_axiom_B,
    verify_coxeter,
)
from ayrep.tableaux import (
    SkewShape,
    content_vector,
    enumerate_standard,
    relabel,
    row_tableau,
    skew_shape_family,
)

HALF = Fraction(1, 2)


def _values_by_type(chi):
    return {r.cycle_type(): v for r, v in chi.values.items()}


# construction ------------------------------------------------------------------


def test_build_hand_checked_matrices():
    rep = build_from_functional(Functional((0, 1, -1)), identity(3))
    assert rep.dim == 2
    assert [b.one_line() for b in rep.basis] == ["1,2,3", "1,3,2"]
    assert rep.matrices[1].to_dense() == [[1, 0], [0, -1]]
    assert rep.matrices[2].to_dense() == [
        [-HALF, Fraction(3, 4)],
        [1, HALF],
    ]


def test_build_rejects_non_generic():
    with pytest.raises(GenericityError) as err:
        build_from_functional(Functional((0, 1, 0)), identity(3))
    assert err.value.condition in ("interior", "boundary", "corner")


def test_three_dimensional_cell_character():
    rep = build_from_functional(Functional((0, 2, -1)), identity(3))
    assert rep.dim == 3
    chi = _values_by_type(character(rep))
    assert chi == {(1, 1, 1): 3, (2, 1): -1, (3,): 0}


def test_fully_generic_gives_regular_character():
    rep = build_from_functional(Functional((0, 2, 5)), identity(3))
    chi = _values_by_type(character(rep))
    assert chi == {(1, 1, 1): 6, (2, 1): 0, (3,): 0}


def test_orthogonal_skew_examples():
    import math

    rep = build_orthogonal_skew(SkewShape((2, 1)))
    col = rep.matrices[2].column(0)
    assert col[0] == pytest.approx(-0.5)
    assert col[1] == pytest.approx(math.sqrt(3) / 2)

    column_shape = build_orthogonal_skew(SkewShape((1, 1, 1)))
    assert column_shape.dim == 1
    assert column_shape.matrices[1].entry(0, 0) == pytest.approx(-1.0)

    row_shape = build_orthogonal_skew(SkewShape((3,)))
    assert row_shape.dim == 1
    assert row_shape.matrices[2].entry(0, 0) == pytest.approx(1.0)


# verification -------------------------------------------------------------------


def test_verify_coxeter_detects_perturbation():
    rep = build_from_functional(Functional((0, 1, -1)), identity(3))
    assert verify_coxeter(rep).ok
    broken = {g: SquareMatrix(m.dim, {j: dict(c) for j, c in m.cols.items()})
              for g, m in rep.matrices.items()}
    broken[1].set_entry(0, 0, broken[1].entry(0, 0) + 1)
    bad = Representation("A", 3, (1, 2), rep.basis, broken, SEMINORMAL)
    report = verify_coxeter(bad)
    assert not report.ok
    assert any("s1^2" in f for f in report.failures)


def test_axiom_b_on_regular_representation():
    group = list(sym_group(3))
    index = {w: k for k, w in enumerate(group)}
    mats = {}
    for g in (1, 2):
        m = SquareMatrix(6)
        for j, w in enumerate(group):
            m.set_entry(index[w.times_simple(g)], j, Fraction(1))
        mats[g] = m
    reg = Representation("A", 3, (1, 2), tuple(group), mats, SEMINORMAL)
    assert verify_axiom_B(reg).ok

    # mix three basis vectors: the support condition breaks
    scrambled = {g: SquareMatrix(6, {j: dict(c) for j, c in m.cols.items()})
                 for g, m in mats.items()}
    scrambled[1].set_entry(5, 0, Fraction(1, 3))
    bad = Representation("A", 3, (1, 2), tuple(group), scrambled, SEMINORMAL)
    assert not verify_axiom_B(bad).ok


def test_axiom_b_on_sign_singleton():
    rep = build_from_functional(Functional((0, -1, -2)), identity(3))
    assert rep.dim == 1
    assert rep.matrices[1].entry(0, 0) == -1
    assert rep.matrices[2].entry(0, 0) == -1
    assert verify_axiom_B(rep).ok


# characters ---------------------------------------------------------------------


def test_char_inner_examples():
    regular = character(build_from_functional(Functional((0, 2, 5)), identity(3)))
    assert char_inner(regular, regular) == 6
    two_dim = character(build_from_functional(Functional((0, 1, -1)), identity(3)))
    assert char_inner(two_dim, two_dim) == 1
    trivial = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    assert trivial.dimension == 1
    assert char_inner(trivial, trivial) == 1


def test_is_irreducible_examples():
    assert is_irreducible(build_from_functional(Functional((0, 1, -1)), identity(3)))
    assert not is_irreducible(build_from_functional(Functional((0, 2, 5)), identity(3)))
    assert is_irreducible(build_from_functional(Functional((0, 1, 2)), identity(3)))


def test_character_constant_on_classes():
    rep = build_from_functional(Functional((0, 2, -1)), identity(3))
    chi = character(rep)
    for w in sym_group(3):
        by_class = chi.values[
            next(r for r in chi.values if r.cycle_type() == w.cycle_type())
        ]
        assert character_value(rep, w) == by_class


# the border-strip oracle -----------------------------------------------------------

S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}

S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}

S5_TABLE = {
    (5,): {(1, 1, 1, 1, 1): 1, (2, 1, 1, 1): 1, (2, 2, 1): 1, (3, 1, 1): 1,
           (3, 2): 1, (4, 1): 1, (5,): 1},
    (4, 1): {(1, 1, 1, 1, 1): 4, (2, 1, 1, 1): 2, (2, 2, 1): 0, (3, 1, 1): 1,
             (3, 2): -1, (4, 1): 0, (5,): -1},
    (3, 2): {(1, 1, 1, 1, 1): 5, (2, 1, 1, 1): 1, (2, 2, 1): 1, (3, 1, 1): -1,
             (3, 2): 1, (4, 1): -1, (5,): 0},
    (3, 1, 1): {(1, 1, 1, 1, 1): 6, (2, 1, 1, 1): 0, (2, 2, 1): -2, (3, 1, 1): 0,
                (3, 2): 0, (4, 1): 0, (5,): 1},
    (2, 2, 1): {(1, 1, 1, 1, 1): 5, (2, 1, 1, 1): -1, (2, 2, 1): 1, (3, 1, 1): -1,
                (3, 2): -1, (4, 1): 1, (5,): 0},
    (2, 1, 1, 1): {(1, 1, 1, 1, 1): 4, (2, 1, 1, 1): -2, (2, 2, 1): 0, (3, 1, 1): 1,
                   (3, 2): 1, (4, 1): 0, (5,): -1},
    (1, 1, 1, 1, 1): {(1, 1, 1, 1, 1): 1, (2, 1, 1, 1): -1, (2, 2, 1): 1,
                      (3, 1, 1): 1, (3, 2): -1, (4, 1): -1, (5,): 1},
}


@pytest.mark.parametrize("table", [S3_TABLE, S4_TABLE, S5_TABLE])
def test_mn_matches_frozen_tables(table):
    for lam, row in table.items():
        for cycle_type, value in row.items():
            assert mn_character(SkewShape(lam), cycle_type) == value


def test_mn_examples():
    assert mn_character(SkewShape((2, 1)), (1, 1, 1)) == 2
    assert mn_character(SkewShape((4,)), (2, 2)) == 1
    assert mn_character(SkewShape((2, 1)), (3,)) == -1
    with pytest.raises(PreconditionError):
        mn_character(SkewShape((2, 1)), (2, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mn_dimension_is_filling_count(n):
    for shape in skew_shape_family(n):
        assert mn_character(shape, (1,) * n) == len(enumerate_standard(shape))


def test_mn_disconnected_two_boxes():
    shape = SkewShape((2, 1), (1,))
    assert mn_character(shape, (2,)) == 0
    assert mn_character(shape, (1, 1)) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mn_depends_only_on_contents(n):
    """Different diagram realizations of one content vector carry the same
    character (the module class is pinned by the contents)."""
    from ayrep.tableaux import tableau_from_content
    from ayrep.groups import partitions

    for shape in skew_shape_family(n):
        rebuilt = tableau_from_content(content_vector(row_tableau(shape))).shape
        if rebuilt == shape:
            continue
        for parts in partitions(n):
            assert mn_character(shape, parts) == mn_character(rebuilt, parts)


# cross-normalization and coefficient laws --------------------------------------------


@pytest.mark.parametrize("shape", [SkewShape((3, 2)), SkewShape((2, 2), (1,)),
                                   SkewShape((2, 1, 1)), SkewShape((3, 3, 1), (3, 1))])
def test_traces_agree_between_normalizations(shape):
    n = shape.size
    f = Functional(content_vector(row_tableau(shape)))
    exact = build_from_functional(f, identity(n), SEMINORMAL)
    floaty = build_from_functional(f, identity(n), ORTHOGONAL)
    for w in sym_group(n):
        assert abs(
            float(character_value(exact, w)) - character_value(floaty, w)
        ) <= 1e-9


@pytest.mark.parametrize("coords", [(0, 1, -1), (0, 2, -1), (0, 1, 2, -1), (0, 1, -1, 0)])
def test_reading_reciprocal_pairings_off_matrices(coords):
    f = Functional(coords)
    n = f.size
    rep = build_from_functional(f, identity(n))
    cell = descent_cell(f, identity(n))
    member_index = {w: k for k, w in enumerate(rep.basis)}
    from ayrep.groups import conjugated_reflection

    for w in rep.basis:
        for g in range(1, n):
            ws = w.times_simple(g)
            if ws.length() < w.length():
                continue  # the up coefficient is read from the lower end
            t = conjugated_reflection(w, g)
            a = rep.matrices[g].entry(member_index[w], member_index[w])
            assert a == Fraction(1, f.pair(t))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_matches_relabeled_hook_distance(n):
    for shape in skew_shape_family(n):
        q = row_tableau(shape)
        f = Functional(content_vector(q))
        rep = build_from_functional(f, identity(n))
        for j, pi in enumerate(rep.basis):
            relabeled = relabel(q, pi)
            pos = relabeled.positions()
            for g in range(1, n):
                (r1, c1), (r2, c2) = pos[g], pos[g + 1]
                h = (c2 - r2) - (c1 - r1)
                assert rep.matrices[g].entry(j, j) == Fraction(1, h)


def test_character_word_independent_of_reduced_word():
    rep = build_from_functional(Functional((0, 2, -1)), identity(3))
    w = Permutation((3, 2, 1))
    from ayrep.linalg import word_trace

    direct = word_trace([rep.matrices[i] for i in reduced_word(w)], rep.dim)
    other = word_trace([rep.matrices[i] for i in (2, 1, 2)], rep.dim)
    assert direct == other
