import copy
import gc
import math
import re
from fractions import Fraction
from itertools import product

import pytest

import ayrep.cells
import ayrep.reps
from ayrep import verify
from ayrep.cells import Functional, _walk_cell, descent_cell
from ayrep.errors import GenericityError, PreconditionError
from ayrep.groups import Permutation, partitions, reflection, sym_group, identity, reduced_word
from ayrep.induction import (
    build_parabolic_from_shapes,
    extend_to_bn,
    induce,
    j_intervals,
    parabolic_functional,
    row_filling_pair,
)
from ayrep.linalg import SquareMatrix, word_trace
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
from value_digests import induction_cases

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


@pytest.mark.parametrize("walk", [descent_cell, build_from_functional])
def test_the_walk_refuses_a_functional_of_another_size(walk):
    # one rule, in the walk that both run
    with pytest.raises(PreconditionError, match="functional and permutation sizes differ"):
        walk(Functional((0, 1)), identity(3))


def test_build_reads_an_integral_float_start_as_a_permutation():
    rep = build_from_functional(Functional((0, 1, 2)), Permutation((1.0, 2.0, 3.0)))
    assert rep.basis == build_from_functional(Functional((0, 1, 2)), identity(3)).basis


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
    col = rep.matrices[2].cols[0]
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
    cols = {j: dict(c) for j, c in rep.matrices[1].cols.items()}
    cols[0][0] += 1
    broken = {**rep.matrices, 1: SquareMatrix(rep.dim, cols)}
    bad = Representation(3, rep.basis, broken, SEMINORMAL)
    report = verify_coxeter(bad)
    assert not report.ok
    assert any("s1^2" in f for f in report.failures)


def test_a_report_is_false_exactly_when_a_check_failed():
    rep = build_from_functional(Functional((0, 1, -1)), identity(3))
    cols = {j: dict(c) for j, c in rep.matrices[1].cols.items()}
    cols[0][0] += 1
    bad = rep._replace(matrices={**rep.matrices, 1: SquareMatrix(rep.dim, cols)})
    assert bool(verify_coxeter(rep)) is True and bool(verify_axiom_B(rep)) is True
    report = verify_coxeter(bad)
    assert report.failures and bool(report) is False


def test_forms_with_equal_fields_are_unequal_and_hash_by_identity():
    rep = build_from_functional(Functional((0, 1, -1)), identity(3))
    for twin in (Representation(rep.n, rep.basis, rep.matrices, rep.normalization),
                 copy.copy(rep), rep._replace()):
        assert tuple(twin) == tuple(rep) and twin is not rep
        assert twin != rep and not twin == rep and rep == rep and not rep != rep
        assert len({rep, twin}) == 2
    assert hash(rep) == object.__hash__(rep)


def test_a_replaced_form_is_checked_as_a_built_one():
    rep = build_from_functional(Functional((0, 1, -1)), identity(3))
    # gens is read off the matrices again, never taken as given
    assert rep._replace(matrices={2: rep.matrices[2]}).gens == (2,)
    assert rep._replace(gens=(0,)).gens == (1, 2)
    one = SquareMatrix(1, {0: {0: Fraction(1)}})
    for changes in ({"n": 2}, {"n": 0}, {"matrices": {**rep.matrices, 1: one}},
                    {"basis": rep.basis[:1]}):
        with pytest.raises(PreconditionError, match="all within 1..n-1 or all of 0..n-1"):
            rep._replace(**changes)
        with pytest.raises(PreconditionError, match="all within 1..n-1 or all of 0..n-1"):
            Representation(**{**dict(zip(rep._fields[:4], rep)), **changes})
    with pytest.raises(ValueError, match="unknown normalization"):
        rep._replace(normalization="float")


def test_axiom_b_on_regular_representation():
    group = list(sym_group(3))
    index = {w: k for k, w in enumerate(group)}
    mats = {}
    for g in (1, 2):
        mats[g] = SquareMatrix(6, {j: {index[w.times_simple(g)]: Fraction(1)}
                                   for j, w in enumerate(group)})
    reg = Representation(3, tuple(group), mats, SEMINORMAL)
    assert verify_axiom_B(reg).ok

    # mix three basis vectors: the support condition breaks
    cols = {j: dict(c) for j, c in mats[1].cols.items()}
    cols[0][5] = Fraction(1, 3)
    scrambled = {**mats, 1: SquareMatrix(6, cols)}
    bad = Representation(3, tuple(group), scrambled, SEMINORMAL)
    assert not verify_axiom_B(bad).ok


def test_axiom_b_reads_one_coefficient_pair_per_reflection_and_direction():
    # the regular form of S_3 with s1 sending 123 to 2 * 213: the support holds,
    # but (1,2) going up has coefficient 2 there and 1 where s2 steps from 312
    group = list(sym_group(3))
    index = {w: k for k, w in enumerate(group)}
    mats = {g: SquareMatrix(6, {j: {index[w.times_simple(g)]: Fraction(1)}
                                for j, w in enumerate(group)}) for g in (1, 2)}
    mats[1].cols[index[identity(3)]][index[Permutation((2, 1, 3))]] = Fraction(2)
    rep = Representation(3, tuple(group), mats, SEMINORMAL)
    assert verify_axiom_B(rep).failures == ("s2 at 3,1,2: coefficients differ for (1,2) going up",)


@pytest.mark.parametrize("n", [4, 255, 256, 300])
def test_axiom_b_finds_neighbours_on_words_of_any_size(n):
    # the regular form of <s_1, s_(n-1)>, four words whose letters run past a
    # byte from n = 256 on; no group of n letters is enumerated
    gens = (1, n - 1)
    basis = [identity(n), identity(n).times_simple(1)]
    basis += [w.times_simple(n - 1) for w in basis]
    index = {w: k for k, w in enumerate(basis)}
    mats = {g: SquareMatrix(4, {j: {index[w.times_simple(g)]: Fraction(1)}
                                for j, w in enumerate(basis)}) for g in gens}
    assert verify_axiom_B(Representation(n, tuple(basis), mats, SEMINORMAL)).ok
    mats[1].cols[index[basis[2]]][index[basis[3]]] = Fraction(2)
    assert verify_axiom_B(Representation(n, tuple(basis), mats, SEMINORMAL)).failures == (
        f"s1 at {basis[2].one_line()}: coefficients differ for (1,2) going up",)


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


def _out_of_domain_form(kind: str) -> Representation:
    if kind == "tableau basis":
        return build_orthogonal_skew(SkewShape((2, 1)))
    return extend_to_bn(*row_filling_pair((1,), (1,)))


@pytest.mark.parametrize("kind", ["tableau basis", "type B"])
def test_axiom_b_and_induce_refuse_forms_outside_their_domain(kind):
    rep = _out_of_domain_form(kind)
    with pytest.raises(PreconditionError, match="two-term local action"):
        verify_axiom_B(rep)
    with pytest.raises(PreconditionError, match="two-term local action"):
        induce(rep)


@pytest.mark.parametrize("matrices", [{0: SquareMatrix(1, {0: {0: Fraction(1)}})},
                                      {1: SquareMatrix(2)}], ids=["missing", "wrong size"])
def test_a_form_needs_one_matrix_of_its_dimension_per_generator(matrices):
    # before, a signed form without s1 made character raise KeyError, and
    # verify_axiom_B, character, induce and verify_coxeter answered on the wrong size
    with pytest.raises(PreconditionError, match="needs one dim 1 matrix per generator"):
        Representation(2, (identity(2),), matrices, SEMINORMAL)


@pytest.mark.parametrize("n, gens", [
    pytest.param(2, (1, 2), id="generator past n-1"), (3, (0, 2)), (2, (0, 1, 2)), (1, (1,)),
    (2, (-1,)), (2, (1.5,)), (2, ("1",)), (2, (True,)), (0, ()), (1.5, ()), ("2", (1,)),
    (True, ()), (None, ()),
])
def test_a_form_has_the_generators_of_one_coxeter_group_on_n_letters(n, gens):
    # before, each was accepted given a type and generators that matched its keys
    one = SquareMatrix(1, {0: {0: Fraction(1)}})
    with pytest.raises(PreconditionError, match=r"all within 1..n-1 or all of 0..n-1"):
        Representation(n, (identity(2),), dict.fromkeys(gens, one), SEMINORMAL)


def test_a_form_reads_its_generators_and_group_off_its_matrices():
    one = SquareMatrix(1, {0: {0: Fraction(1)}})
    signed = Representation(2.0, (identity(2),), {1: one, 0: one}, SEMINORMAL)
    assert (signed.n, type(signed.n), signed.gens, signed.group_type) == (2, int, (0, 1), "B")
    parabolic = Representation(3, (identity(3),), {2: one}, SEMINORMAL)
    assert (parabolic.gens, parabolic.group_type) == ((2,), "A")
    assert Representation(2, (identity(2),), {}, SEMINORMAL).gens == ()
    with pytest.raises(AttributeError):
        signed.gens = (0,)
    with pytest.raises(AttributeError):
        signed.group_type = "A"


def test_character_of_a_tableau_basis_form_is_the_pushed_trace():
    shape = SkewShape((3, 2))
    exact = build_from_functional(Functional(content_vector(row_tableau(shape))), identity(5))
    fillings = tuple(enumerate_standard(shape))
    assert len(fillings) == exact.dim
    relabelled = Representation(5, fillings, exact.matrices, SEMINORMAL)
    for rep in (_out_of_domain_form("tableau basis"), relabelled):
        for cls_rep, value in character(rep).values.items():
            pushed = word_trace([rep.matrices[g] for g in reduced_word(cls_rep)], rep.dim)
            assert value == pushed and type(value) is type(pushed)


# characters ---------------------------------------------------------------------


def test_char_inner_examples():
    regular = character(build_from_functional(Functional((0, 2, 5)), identity(3)))
    assert char_inner(regular, regular) == 6
    two_dim = character(build_from_functional(Functional((0, 1, -1)), identity(3)))
    assert char_inner(two_dim, two_dim) == 1
    trivial = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    assert trivial.values[identity(3)] == 1
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
        assert word_trace([rep.matrices[g] for g in reduced_word(w)], rep.dim) == by_class


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
    for cycle_type in ((2, 0), (3, -1)):
        with pytest.raises(PreconditionError, match="positive parts"):
            mn_character(SkewShape((2,)), cycle_type)
    assert mn_character(SkewShape((2,)), (2.0,)) == 1  # an integral float is an integer part


@pytest.mark.parametrize("cycle_type", [(1.5, 1.5), ("1", "1"), (True, True)])
def test_mn_refuses_non_integer_parts(cycle_type):
    # none of them is read as (1, 1)
    with pytest.raises(PreconditionError, match="positive parts"):
        mn_character(SkewShape((2,)), cycle_type)


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
        word = reduced_word(w)
        exact_trace = word_trace([exact.matrices[g] for g in word], exact.dim)
        float_trace = word_trace([floaty.matrices[g] for g in word], floaty.dim)
        assert abs(float(exact_trace) - float_trace) <= 1e-9


@pytest.mark.parametrize("coords", [(0, 1, -1), (0, 2, -1), (0, 1, 2, -1), (0, 1, -1, 0)])
def test_reading_reciprocal_pairings_off_matrices(coords):
    f = Functional(coords)
    n = f.size
    rep = build_from_functional(f, identity(n))
    cell = descent_cell(f, identity(n))
    member_index = {w: k for k, w in enumerate(rep.basis)}
    for w in rep.basis:
        for g in range(1, n):
            ws = w.times_simple(g)
            if ws.length() < w.length():
                continue  # the up coefficient is read from the lower end
            t = reflection(w(g), w(g + 1))
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


def test_char_inner_rejects_characters_of_different_groups():
    s3 = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    s2 = character(build_from_functional(Functional((0, 1)), identity(2)))
    with pytest.raises(PreconditionError, match="characters live on different groups"):
        char_inner(s3, s2)


def test_irreducibility_is_refused_on_a_float_form():
    rep = build_from_functional(Functional((0, 1, 2)), identity(3), ORTHOGONAL)
    with pytest.raises(PreconditionError, match="irreducibility is decided in exact arithmetic"):
        is_irreducible(rep)


def test_character_equality_rejects_float_characters():
    rep = build_from_functional(Functional((0, 1, 2)), identity(3), ORTHOGONAL)
    chi = character(rep)
    exact = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    for a, b in ((chi, chi), (chi, exact), (exact, chi)):
        with pytest.raises(PreconditionError):
            a == b
    assert exact == character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    assert exact != "not a character"


def test_character_inequality_negates_equality_and_is_exact_only():
    exact = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    same = character(build_from_functional(Functional((0, 1, 2)), identity(3)))
    doubled = exact._replace(values={k: 2 * v for k, v in exact.values.items()})
    for other in (same, doubled, "not a character"):
        assert (exact != other) is (not exact == other)
    assert not exact != same and exact != doubled
    chi = character(build_from_functional(Functional((0, 1, 2)), identity(3), ORTHOGONAL))
    for a, b in ((chi, chi), (chi, exact), (exact, chi)):
        with pytest.raises(PreconditionError):
            a != b


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
        cols = {}
        for j, v in enumerate(basis):
            h = pairing(v, g)
            if normalization == SEMINORMAL:
                a = Fraction(1, h)
                b = Fraction(1) if up(v, g) else 1 - a * a
            else:
                a = 1.0 / h
                b = math.sqrt(1.0 - a * a)
            cols[j] = {j: a}
            if neighbor(v, g) in index and b != 0:
                cols[j][index[neighbor(v, g)]] = b
        mats[g] = SquareMatrix(len(basis), cols)
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
            rep = build_parabolic(f, J, normalization)
            _assert_same_entries(rep, _reference_on_permutations(rep, f.coords))


# the builder that reads the walk's step graph against the one that indexed the basis


def _index_cell_rep(f, w, gens, normalization):
    """(basis, matrices) of the descent cell of w inside <s_g : g in gens>, built
    as the cell builder did before the walk kept its step graph: the walk gives
    the members only, and each neighbour w s_g is the one-line word with
    positions g, g+1 swapped, looked up in a basis index."""
    basis = _walk_cell(f, w, gens).members
    index = {v.images: k for k, v in enumerate(basis)}
    mats = {}
    for g in gens:
        cols = {}
        for j, v in enumerate(basis):
            img = v.images
            x, y = img[g - 1], img[g]
            a, b = _step_coefficients(f.coords[y - 1] - f.coords[x - 1], x < y, normalization)
            col = {j: a} if a else {}
            k = index.get(img[:g - 1] + (y, x) + img[g + 1:])
            if k is not None and b:
                col[k] = b
            if col:
                cols[j] = col
        mats[g] = SquareMatrix(len(basis), cols)
    return basis, mats


def _assert_same_build(rep, f, w):
    """The same basis, the same stored order of columns and entries, and
    entries that are the same objects (the float `_push` reads them in order)."""
    basis, mats = _index_cell_rep(f, w, rep.gens, rep.normalization)
    assert rep.basis == basis
    assert list(rep.matrices) == list(mats)
    for g, m in mats.items():
        got = rep.matrices[g]
        assert got.dim == m.dim
        assert [(j, list(col)) for j, col in got.cols.items()] == \
            [(j, list(col)) for j, col in m.cols.items()], g
        assert all(got.cols[j][i] is v for j, col in m.cols.items() for i, v in col.items()), g


@pytest.mark.parametrize("normalization", [SEMINORMAL, ORTHOGONAL])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_builder_matches_index_builder_on_skew_shapes(n, normalization):
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        _assert_same_build(build_from_functional(f, identity(n), normalization), f, identity(n))


@pytest.mark.parametrize("normalization", [SEMINORMAL, ORTHOGONAL])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_builder_matches_index_builder_on_the_induction_sweep(n, normalization):
    for J, shapes in induction_cases(n):
        rep = build_parabolic_from_shapes(J, n, shapes, normalization)
        _assert_same_build(rep, parabolic_functional(J, n, shapes), identity(n))


def test_builder_matches_index_builder_on_every_flat_build(monkeypatch):
    built = []

    def recording_build(f, v, normalization=SEMINORMAL):
        built.append((build_from_functional(f, v, normalization), f, v))
        return built[-1][0]

    monkeypatch.setattr(verify, "build_from_functional", recording_build)
    assert verify.flat_suite().ok
    assert len(built) == 1440
    for rep, f, v in built:
        _assert_same_build(rep, f, v)


# a name that is none, and two values that cannot be hashed (before, TypeError)
UNKNOWN_NORMALIZATIONS = ["bogus", [], {}]


def refused(build, normalization) -> None:
    """build(normalization) raises ValueError naming it, and caches no coefficient first."""
    cached = _step_coefficients.cache_info().currsize
    with pytest.raises(ValueError, match=re.escape(f"unknown normalization {normalization!r}")):
        build(normalization)
    assert _step_coefficients.cache_info().currsize == cached


def test_a_form_needs_a_known_normalization():
    # before, only the cell and parabolic builders checked it
    exact = build_from_functional(Functional((0, 1)), identity(2))
    for normalization in UNKNOWN_NORMALIZATIONS:
        refused(lambda form: Representation(2, exact.basis, exact.matrices, form), normalization)


def test_parabolic_builder_rejects_an_unknown_normalization():
    for normalization in UNKNOWN_NORMALIZATIONS:
        refused(lambda form: build_parabolic(Functional((0, 1, 0)), [1], form), normalization)


@pytest.mark.parametrize("normalization", UNKNOWN_NORMALIZATIONS, ids=["str", "list", "dict"])
@pytest.mark.parametrize("build", [
    lambda form: build_from_functional(Functional((0, 2, 5)), identity(3), form),
    lambda form: build_parabolic_from_shapes([1, 2], 3, [(2, 1)], form),
], ids=["cell", "parabolic_from_shapes"])
def test_a_refused_normalization_caches_no_coefficient(build, normalization):
    # before, "bogus" left 6 float coefficients of f = (0, 2, 5) in the cache
    refused(build, normalization)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cell_and_tableau_orthogonal_forms_agree_float_for_float(n):
    # the two routes share no coefficient code, so the tableau form is an
    # independent oracle for the cell orthogonal form: w -> relabel(q, w)
    for shape in skew_shape_family(n):
        q = row_tableau(shape)
        cell = build_from_functional(Functional(content_vector(q)), identity(n), ORTHOGONAL)
        tableau = build_orthogonal_skew(shape)
        position = {t.rows: j for j, t in enumerate(tableau.basis)}
        index_map = [position[relabel(q, w).rows] for w in cell.basis]
        assert sorted(index_map) == list(range(tableau.dim))
        for g in tableau.gens:
            assert cell.matrices[g].reindexed(index_map).cols == tableau.matrices[g].cols


def test_two_term_builder_stores_no_zeros():
    # basis u, v (indices 0, 1); the step of u along s2 leaves the basis; a zero
    # coefficient comes as None, as the builders hand it
    columns = [(1, [((None, Fraction(1)), 1), ((Fraction(1, 2), None), 0)]),
               (2, iter([((None, Fraction(1)), None), ((None, None), 0)]))]
    mats = _two_term_matrices(2, columns)
    assert mats[1].cols == {0: {1: Fraction(1)}, 1: {1: Fraction(1, 2)}}
    assert mats[2].cols == {}
    assert mats[1].dim == mats[2].dim == 2
    for normalization in (SEMINORMAL, ORTHOGONAL):
        for h, up in product((1, -1), (True, False)):
            a, b = _step_coefficients(h, up, normalization)
            assert a == 1 / h and (b is None) == (normalization == ORTHOGONAL or not up)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_builders_store_no_zero_entry(n):
    reps = []
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        reps += [build_from_functional(f, identity(n), form) for form in (SEMINORMAL, ORTHOGONAL)]
        reps.append(build_orthogonal_skew(shape))
    for J, shapes in induction_cases(n):
        for form in (SEMINORMAL, ORTHOGONAL):
            psi = build_parabolic_from_shapes(J, n, shapes, form)
            reps += [psi, induce(psi)]
    assert all(v for rep in reps for m in rep.matrices.values()
               for col in m.cols.values() for v in col.values())


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
    first.matrices[1].cols[0][0] = Fraction(7)
    first.matrices[2].cols[0].pop(1, None)
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


# the one form `_cell_rep` holds: the last (walked cell, f, normalization) built twice in a row

F, W = Functional((0, 1, 5, 9)), identity(4)  # only (1, 2) pairs to +-1: a cell of 12 members


@pytest.fixture
def writes(monkeypatch):
    """The dimension of each form `_cell_rep` writes, beginning with no build recorded."""
    written, write = [], ayrep.reps._two_term_matrices

    def counting(dim, columns):
        written.append(dim)
        return write(dim, columns)

    monkeypatch.setattr(ayrep.reps, "_last", [(None,), None])
    monkeypatch.setattr(ayrep.reps, "_two_term_matrices", counting)
    return written


def test_a_repeated_build_returns_the_held_form(writes):
    first, second = build_from_functional(F, W), build_from_functional(Functional(F.coords), W)
    members = descent_cell(F, W).members
    assert first is not second and len(members) == 12
    assert all(build_from_functional(F, v) is second for v in members)
    assert writes == [12, 12]


ANOTHER_KEY = {
    "functional": lambda: build_from_functional(Functional((0, 1, 6, 9)), W),
    "normalization": lambda: build_from_functional(F, W, ORTHOGONAL),
    "cell": lambda: ayrep.cells._held.clear() or build_from_functional(F, W),
}


@pytest.mark.parametrize("key", ANOTHER_KEY)
def test_another_functional_normalization_or_cell_builds_anew(writes, key):
    cell, held = descent_cell(F, W), build_from_functional(F, W)
    assert build_from_functional(F, W) is not held
    held = build_from_functional(F, W)
    form = ANOTHER_KEY[key]()
    assert form is not held and writes == [12, 12, 12]
    # the walls are F's, so only the key named differs: a walk after the clear is another Cell
    assert (ayrep.reps._last[0][0] is cell) == (key != "cell") and form.basis == cell.members
    assert build_from_functional(F, W) is not held


def test_a_refused_build_is_not_held(writes):
    build_from_functional(F, W)
    held = build_from_functional(F, W)
    for _ in range(2):
        with pytest.raises(GenericityError):
            build_from_functional(Functional((0, 1, 0, 9)), W)
        with pytest.raises(ValueError, match="unknown normalization 'bogus'"):
            build_from_functional(F, W, "bogus")
    assert ayrep.reps._last[1] is held and writes == [12, 12]


def test_a_form_built_once_is_left_to_its_caller(writes):
    once = build_from_functional(F, W)
    assert gc.get_referrers(once) == []  # nothing keeps it once the caller drops it
    twice = build_from_functional(F, W)
    assert gc.get_referrers(twice) == [ayrep.reps._last]
