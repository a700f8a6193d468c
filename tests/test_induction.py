from fractions import Fraction
from math import comb

import pytest

from ayrep.errors import PreconditionError
from ayrep.groups import partitions
from ayrep.induction import (
    bn_classical,
    build_parabolic_from_shapes,
    classical_induced_character,
    extend_to_bn,
    induce,
    j_intervals,
    match_signed_forms,
    shuffle_cell,
)
from ayrep.linalg import SquareMatrix, power_is_identity
from ayrep.reps import (
    ORTHOGONAL,
    Representation,
    SEMINORMAL,
    char_inner,
    character,
    is_irreducible,
    verify_axiom_B,
    verify_coxeter,
)
from ayrep.tableaux import SkewShape, hook_length_count, map_entries, row_tableau


def _by_type(chi_values):
    return {r.cycle_type(): v for r, v in chi_values.items()}


def _letters_shifted(lam, k):
    q0 = row_tableau(SkewShape(lam))
    return map_entries(q0, {e: e + k for e in q0.positions()})


def test_j_intervals():
    assert j_intervals([1, 2, 4]) == [(1, 3), (4, 5)]
    assert j_intervals([]) == []


def test_induce_trivial_from_two_letters():
    psi = build_parabolic_from_shapes([1], 3, [(2,)])
    induced = induce(psi, 3)
    assert induced.dim == 3
    assert _by_type(character(induced).values) == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}
    assert verify_coxeter(induced).ok
    assert verify_axiom_B(induced).ok


def test_induce_from_full_group_is_identity():
    psi = build_parabolic_from_shapes([1, 2], 3, [(1, 1, 1)])  # sign representation
    induced = induce(psi, 3)
    assert induced.dim == psi.dim
    assert _by_type(character(induced).values) == _by_type(character(psi).values)


def test_induce_tensor_product():
    # trivial of the first two letters times trivial of the third
    psi = build_parabolic_from_shapes([1], 3, [(2,)])
    induced = induce(psi, 3)
    chi = _by_type(character(induced).values)
    assert chi == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}  # trivial + standard


def test_induce_matches_classical_oracle():
    for J, shapes in [([1], [(2,)]), ([1], [(1, 1)]), ([2], [(2,)]), ([], [])]:
        psi = build_parabolic_from_shapes(J, 3, shapes)
        induced = induce(psi, 3)
        oracle = classical_induced_character(psi, 3)
        assert character(induced).values == oracle


def test_induce_rejects_broken_input():
    psi = build_parabolic_from_shapes([1, 2], 4, [(2, 1)])
    assert psi.dim == 2
    mats = {
        g: SquareMatrix(m.dim, {j: dict(c) for j, c in m.cols.items()})
        for g, m in psi.matrices.items()
    }
    # the first generator leaves the cell at the first basis vector; giving
    # that column a neighbor entry breaks the two-term support condition
    mats[1].set_entry(1, 0, Fraction(1, 3))
    bad = Representation("A", 4, psi.gens, psi.basis, mats, SEMINORMAL)
    with pytest.raises(PreconditionError):
        induce(bad, 4)


def test_shuffle_cell_examples():
    p = row_tableau(SkewShape((1,)))
    q = _letters_shifted((1,), 1)
    assert {w.one_line() for w in shuffle_cell(p, q)} == {"1,2", "2,1"}

    p2 = row_tableau(SkewShape((2,)))
    q2 = _letters_shifted((1,), 2)
    assert len(shuffle_cell(p2, q2)) == 3

    with pytest.raises(PreconditionError):
        shuffle_cell(p2, _letters_shifted((1,), 5))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shuffle_cell_sizes(n):
    for k in range(1, n):
        for lam in partitions(k):
            for mu in partitions(n - k):
                cell = shuffle_cell(row_tableau(SkewShape(lam)), _letters_shifted(mu, k))
                assert len(cell) == comb(n, k) * hook_length_count(lam) * hook_length_count(mu)


def test_extend_to_bn_two_letters():
    p = row_tableau(SkewShape((1,)))
    q = _letters_shifted((1,), 1)
    rep = extend_to_bn(p, q)
    assert rep.matrices[0].to_dense() == [[1, 0], [0, -1]]
    assert rep.matrices[1].to_dense() == [[0, 1], [1, 0]]
    assert verify_coxeter(rep).ok
    assert is_irreducible(rep)


def test_extend_to_bn_full_first_block():
    # q empty: the extra generator acts as the identity
    p = row_tableau(SkewShape((2, 1)))
    rep = extend_to_bn(p, None)
    assert power_is_identity(rep.matrices[0], 1)
    assert verify_coxeter(rep).ok


def test_extend_to_bn_sign_block():
    rep = extend_to_bn(None, _letters_shifted((1, 1), 0))
    assert rep.matrices[0].to_dense() == [[-1]]
    assert verify_coxeter(rep).ok


def test_bn_classical_trivial():
    rep = bn_classical((3,), ())
    assert rep.dim == 1
    for g in rep.gens:
        assert power_is_identity(rep.matrices[g], 1)


def test_bn_forms_match_entrywise():
    for lam, mu in [((1,), (1,)), ((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,))]:
        k = sum(lam)
        p = row_tableau(SkewShape(lam))
        q = _letters_shifted(mu, k)
        ext, classical, index_map = match_signed_forms(p, q, SEMINORMAL)
        assert sorted(index_map) == list(range(ext.dim))
        for g in ext.gens:
            assert ext.matrices[g].reindexed(index_map).equals(classical.matrices[g])
        ext_f, classical_f, imap_f = match_signed_forms(p, q, ORTHOGONAL)
        for g in ext_f.gens:
            assert ext_f.matrices[g].reindexed(imap_f).equals(classical_f.matrices[g], 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bn_dimension_identity(n):
    from math import factorial

    total = 0
    for k in range(n + 1):
        for lam in partitions(k):
            for mu in partitions(n - k):
                dim = comb(n, k) * hook_length_count(lam) * hook_length_count(mu)
                total += dim * dim
    assert total == 2**n * factorial(n)


def test_b2_unique_two_dimensional_irreducible():
    rep = extend_to_bn(row_tableau(SkewShape((1,))), _letters_shifted((1,), 1))
    chi = character(rep)
    assert chi.dimension == 2
    assert char_inner(chi, chi) == 1
