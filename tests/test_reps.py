import math
from fractions import Fraction
from itertools import product

import pytest

from ayrep.cells import Functional, descent_cell
from ayrep.errors import GenericityError, PreconditionError
from ayrep.groups import Permutation, partitions, sym_group, identity, reduced_word
from ayrep.induction import j_intervals, parabolic_functional
from ayrep.linalg import SquareMatrix
from ayrep.reps import (
    ORTHOGONAL,
    SEMINORMAL,
    Representation,
    _step_coefficients,
    _two_term_matrices,
    build_from_functional,
    build_parabolic,
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
    Tableau,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_axiom_b_step_direction_is_the_descent_test(n):
    """verify_axiom_B reads "w s_g is longer than w" off the one-line word."""
    for w in sym_group(n):
        for g in range(1, n):
            assert (w.images[g - 1] < w.images[g]) == (w.length() < w.times_simple(g).length())


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


def test_char_inner_rejects_float_characters():
    rep = build_from_functional(Functional((0, 1, 2)), identity(3), ORTHOGONAL)
    chi = character(rep)
    exact = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    for pair in ((chi, chi), (chi, exact), (exact, chi)):
        with pytest.raises(PreconditionError):
            char_inner(*pair)
    assert char_inner(exact, exact) == 1


def test_character_equality_rejects_float_characters():
    rep = build_from_functional(Functional((0, 1, 2)), identity(3), ORTHOGONAL)
    chi = character(rep)
    exact = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    for a, b in ((chi, chi), (chi, exact), (exact, chi)):
        with pytest.raises(PreconditionError):
            a == b
    assert exact == character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    assert exact != "not a character"


def test_character_word_independent_of_reduced_word():
    rep = build_from_functional(Functional((0, 2, -1)), identity(3))
    w = Permutation((3, 2, 1))
    from ayrep.linalg import word_trace

    direct = word_trace([rep.matrices[i] for i in reduced_word(w)], rep.dim)
    other = word_trace([rep.matrices[i] for i in (2, 1, 2)], rep.dim)
    assert direct == other


# the builder against a plain per-entry reference ----------------------------------


def _reference_matrices(basis, gens, pairing, neighbor, up, normalization):
    """Generator matrices by the rule in the `reps` docstring, one entry at a time.

    C_v goes to a C_v + b C_v' with a = 1/h for the pairing h of the step;
    b = 1 going up and 1 - a^2 coming down (seminormal), sqrt(1 - a^2) both
    ways (orthogonal); the b term drops when v' is not in the basis.  Every
    coefficient is a fresh object.
    """
    index = {v: k for k, v in enumerate(basis)}
    mats = {}
    for g in gens:
        m = SquareMatrix(len(basis))
        for j, v in enumerate(basis):
            h = pairing(v, g)
            if normalization == SEMINORMAL:
                a = Fraction(1, h)
                b = Fraction(1) if up(v, g) else 1 - a * a
            else:
                a = 1.0 / h
                b = math.sqrt(1.0 - a * a)
            m.set_entry(j, j, a)
            if neighbor(v, g) in index:
                m.set_entry(index[neighbor(v, g)], j, b)
        mats[g] = m
    return mats


def _reference_on_permutations(rep, coords):
    return _reference_matrices(
        rep.basis, rep.gens,
        lambda w, g: coords[w(g + 1) - 1] - coords[w(g) - 1],
        lambda w, g: w.times_simple(g),
        lambda w, g: w.times_simple(g).length() > w.length(),
        rep.normalization,
    )


def _assert_same_entries(rep, reference):
    """Same stored keys in the same order, equal values of the same type, no zeros."""
    assert rep.matrices.keys() == reference.keys()
    for g, m in reference.items():
        got = rep.matrices[g].cols
        assert list(got) == list(m.cols), g
        for j, col in m.cols.items():
            assert list(got[j]) == list(col), (g, j)
            for i, value in col.items():
                assert got[j][i] == value and type(got[j][i]) is type(value), (g, i, j)
        assert all(v != 0 for col in got.values() for v in col.values())


@pytest.mark.parametrize("normalization", [SEMINORMAL, ORTHOGONAL])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_builder_matches_reference_on_skew_shapes(n, normalization):
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        rep = build_from_functional(f, identity(n), normalization)
        _assert_same_entries(rep, _reference_on_permutations(rep, f.coords))


@pytest.mark.parametrize("normalization", [SEMINORMAL, ORTHOGONAL])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_builder_matches_reference_from_every_base_element(n, normalization):
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        for v in descent_cell(f, identity(n)).members:
            rep = build_from_functional(f, v, normalization)
            _assert_same_entries(rep, _reference_on_permutations(rep, f.coords))


@pytest.mark.parametrize("normalization", [SEMINORMAL, ORTHOGONAL])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_parabolic_builder_matches_reference(n, normalization):
    gens = range(1, n)
    for mask in range(1 << (n - 1)):
        J = tuple(g for g in gens if mask >> (g - 1) & 1)
        for shapes in product(*(partitions(b - a + 1) for a, b in j_intervals(J))):
            f = parabolic_functional(J, n, shapes)
            rep = build_parabolic(f, J, n, normalization)
            _assert_same_entries(rep, _reference_on_permutations(rep, f.coords))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonal_skew_builder_matches_reference(n):
    def content(q, k):
        r, c = q.positions()[k]
        return c - r

    def swapped(q, g):
        swap = {g: g + 1, g + 1: g}
        return Tableau(q.shape, [tuple(swap.get(v, v) for v in row) for row in q.rows])

    for shape in skew_shape_family(n):
        rep = build_orthogonal_skew(shape)
        reference = _reference_matrices(
            rep.basis, rep.gens,
            lambda q, g: content(q, g + 1) - content(q, g),
            swapped,
            None,  # the orthogonal form does not depend on the direction
            ORTHOGONAL,
        )
        _assert_same_entries(rep, reference)


def test_two_term_builder_stores_no_zeros():
    steps = {("u", 1): (0, "v", Fraction(1)), ("v", 1): (Fraction(1, 2), "u", 0),
             ("u", 2): (0, "w", Fraction(1)), ("v", 2): (0.0, "u", 0.0)}
    mats = _two_term_matrices(("u", "v"), (1, 2), lambda v, g: steps[v, g])
    assert mats[1].cols == {0: {1: Fraction(1)}, 1: {1: Fraction(1, 2)}}
    assert mats[2].cols == {}


def test_shared_coefficients_but_not_columns():
    f = Functional(content_vector(row_tableau(SkewShape((3, 2)))))
    first = build_from_functional(f, identity(5))
    second = build_from_functional(f, identity(5))
    for g, m in first.matrices.items():
        for j, col in m.cols.items():
            other = second.matrices[g].cols[j]
            assert col is not other
            assert all(col[i] is other[i] for i in col)
    before = {g: m.to_dense() for g, m in second.matrices.items()}
    first.matrices[1].set_entry(0, 0, Fraction(7))
    first.matrices[2].set_entry(1, 0, 0)
    assert {g: m.to_dense() for g, m in second.matrices.items()} == before
    assert first.matrices[1].entry(0, 0) == 7


@pytest.mark.parametrize("up", [True, False])
@pytest.mark.parametrize("h", [s * k for k in range(2, 13) for s in (1, -1)])
def test_step_coefficients_equal_fresh_values(h, up):
    a, b = _step_coefficients(h, up, SEMINORMAL)
    fresh_a = Fraction(1, h)
    fresh_b = Fraction(1) if up else 1 - fresh_a * fresh_a
    assert (a, b) == (fresh_a, fresh_b)
    assert type(a) is Fraction and type(b) is Fraction
    assert _step_coefficients(h, up, SEMINORMAL) == (a, b)

    a, b = _step_coefficients(h, up, ORTHOGONAL)
    assert (a, b) == (1.0 / h, math.sqrt(1.0 - (1.0 / h) ** 2))
    assert type(a) is float and type(b) is float
