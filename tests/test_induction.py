import re
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from ayrep.errors import NotStandardError, PreconditionError
from ayrep.groups import (
    Permutation,
    SignedPermutation,
    class_data_symmetric,
    identity,
    partitions,
    sym_group,
)
from ayrep.induction import (
    bn_classical,
    build_parabolic_from_shapes,
    classical_induced_character,
    extend_to_bn,
    induce,
    j_intervals,
    match_signed_forms,
    parabolic_functional,
    row_filling_pair,
    shuffle_cell,
    signed_pair_basis,
)
from ayrep.linalg import SquareMatrix, power_is_identity
from ayrep.reps import (
    ORTHOGONAL,
    Representation,
    SEMINORMAL,
    _step_coefficients,
    char_inner,
    character,
    is_irreducible,
    verify_axiom_B,
    verify_coxeter,
)
from ayrep.tableaux import (
    SkewShape,
    Tableau,
    enumerate_standard,
    hook_length_count,
    map_entries,
    relabel_cell,
    row_tableau,
)
from group_oracles import block_cycle_type, parabolic_elements


def _by_type(chi_values):
    return {r.cycle_type(): v for r, v in chi_values.items()}


def _letters_shifted(lam, k):
    q0 = row_tableau(SkewShape(lam))
    return map_entries(q0, {e: e + k for e in q0.positions()})


def test_j_intervals():
    assert j_intervals([1, 2, 4]) == [(1, 3), (4, 5)]
    assert j_intervals([]) == []
    assert j_intervals([1, 2.0]) == [(1, 3)]  # an integral float, by the integer rule


@pytest.mark.parametrize("J", [[1.5], None, [True], [0], [-2]])
def test_j_intervals_reads_J_by_the_integer_rule(J):
    # before: TypeError, TypeError, [(1, 2)], IndexError and []
    with pytest.raises(PreconditionError, match="J must be positive generator indices"):
        j_intervals(J)


@pytest.mark.parametrize("build", [parabolic_functional, build_parabolic_from_shapes])
def test_parabolic_builders_refuse_missing_shapes(build):
    # before: TypeError from len(None)
    with pytest.raises(PreconditionError, match=r"need one shape per generator run \(1\)"):
        build([1], 3, None)


def test_induce_trivial_from_two_letters():
    psi = build_parabolic_from_shapes([1], 3, [(2,)])
    induced = induce(psi)
    assert induced.dim == 3
    assert _by_type(character(induced).values) == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}
    assert verify_coxeter(induced).ok
    assert verify_axiom_B(induced).ok


def test_induce_from_full_group_is_identity():
    psi = build_parabolic_from_shapes([1, 2], 3, [(1, 1, 1)])  # sign representation
    induced = induce(psi)
    assert induced.dim == psi.dim
    assert _by_type(character(induced).values) == _by_type(character(psi).values)


def test_induce_tensor_product():
    # trivial of the first two letters times trivial of the third
    psi = build_parabolic_from_shapes([1], 3, [(2,)])
    induced = induce(psi)
    chi = _by_type(character(induced).values)
    assert chi == {(1, 1, 1): 3, (2, 1): 1, (3,): 0}  # trivial + standard


def test_induce_matches_classical_oracle():
    for J, shapes in [([1], [(2,)]), ([1], [(1, 1)]), ([2], [(2,)]), ([], [])]:
        psi = build_parabolic_from_shapes(J, 3, shapes)
        induced = induce(psi)
        oracle = classical_induced_character(psi)
        assert character(induced).values == oracle


def _conjugate_average_character(psi, n):
    """Ind chi(g) = (1/|S_J|) sum over x in S_n with x g x^-1 in S_J of
    chi(x g x^-1), by scanning the whole group."""
    J = frozenset(psi.gens)
    sub_elements = parabolic_elements(n, J)
    sub_set = set(sub_elements)
    chi = {block_cycle_type(r, J): v for r, v in character(psi).values.items()}
    out = {}
    for g in class_data_symmetric(n).reps:
        total = 0
        for x in sym_group(n):
            y = x * g * x.inverse()
            if y in sub_set:
                total += chi[block_cycle_type(y, J)]
        out[g] = Fraction(total, len(sub_elements))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_sum_oracle_matches_conjugate_average(n):
    for mask in range((1 << (n - 1)) - 1):  # every J short of all generators
        J = [g for g in range(1, n) if mask >> (g - 1) & 1]
        for shapes in product(*(partitions(b - a + 1) for a, b in j_intervals(J))):
            psi = build_parabolic_from_shapes(J, n, list(shapes))
            got = classical_induced_character(psi)
            expected = _conjugate_average_character(psi, n)
            assert [(g, v, type(v)) for g, v in got.items()] == [
                (g, v, type(v)) for g, v in expected.items()
            ]


def test_class_sum_oracle_enumerates_no_group(monkeypatch):
    psi = build_parabolic_from_shapes([1, 3], 5, [(2,), (1, 1)])
    expected = character(induce(psi)).values
    monkeypatch.setenv("AYREP_MAX_N", "4")
    assert classical_induced_character(psi) == expected


def test_class_sum_oracle_rejects_float_character():
    psi = build_parabolic_from_shapes([1], 3, [(2,)], ORTHOGONAL)
    with pytest.raises(PreconditionError, match="exact arithmetic"):
        classical_induced_character(psi)


def test_class_sum_oracle_rejects_a_signed_group_form():
    with pytest.raises(PreconditionError, match="type A"):
        classical_induced_character(extend_to_bn(*row_filling_pair((1,), (1,))))


def test_induce_rejects_broken_input():
    psi = build_parabolic_from_shapes([1, 2], 4, [(2, 1)])
    assert psi.dim == 2
    # the first generator leaves the cell at the first basis vector; giving
    # that column a neighbor entry breaks the two-term support condition
    cols = {j: dict(c) for j, c in psi.matrices[1].cols.items()}
    cols[0][1] = Fraction(1, 3)
    mats = {**psi.matrices, 1: SquareMatrix(psi.dim, cols)}
    bad = Representation(4, psi.basis, mats, SEMINORMAL)
    with pytest.raises(PreconditionError):
        induce(bad)


@pytest.mark.parametrize("J, n, shapes", [([5], 3, [(2,)]), ([0], 3, [(1,)])])
def test_parabolic_functional_checks_generators(J, n, shapes):
    with pytest.raises(PreconditionError, match=r"J must be generator indices within 1\.\.2"):
        parabolic_functional(J, n, shapes)


def test_parabolic_builders_take_n_by_the_integer_rule():
    # before, "3" raised TypeError from range() and 3.0 from [0] * n
    with pytest.raises(PreconditionError, match="the number of letters must be an integer"):
        build_parabolic_from_shapes([1], "3", [(2,)])
    assert parabolic_functional([1], 3.0, [(2,)]) == parabolic_functional([1], 3, [(2,)])


def test_shuffle_cell_examples():
    p = row_tableau(SkewShape((1,)))
    q = _letters_shifted((1,), 1)
    assert {w.one_line() for w in shuffle_cell(p, q)} == {"1,2", "2,1"}

    p2 = row_tableau(SkewShape((2,)))
    q2 = _letters_shifted((1,), 2)
    assert len(shuffle_cell(p2, q2)) == 3

    with pytest.raises(PreconditionError):
        shuffle_cell(p2, _letters_shifted((1,), 5))


def _block_cell(t, offset, n):
    """The relabel cell of t's letter block, embedded in S_n."""
    if t is None:
        return [identity(n)]
    base = map_entries(t, {e: e - offset for e in t.positions()})
    return [
        Permutation(tuple(range(1, offset + 1)) + tuple(offset + v for v in sigma.images)
                    + tuple(range(offset + t.size + 1, n + 1)))
        for sigma in relabel_cell(base)
    ]


def _product_shuffle_cell(p, q, k, n):
    """Block cells times the minimal coset representatives of S_k x S_(n-k),
    the latter by scanning S_n; no product may repeat."""
    omega = [v.inverse() for v in sym_group(n)  # v = w^-1 increases on each block
             if all(v(j) < v(j + 1) for j in range(1, n) if j != k)]
    out = [a * b * w for a in _block_cell(p, 0, n) for b in _block_cell(q, k, n) for w in omega]
    assert len(set(out)) == len(out)
    return set(out)


def _standard_fillings(lam, offset):
    if not lam:
        return [None]
    return [map_entries(t, {e: e + offset for e in t.positions()})
            for t in enumerate_standard(SkewShape(lam))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_shuffle_cell_matches_product_construction(n):
    """Every standard pair up to n = 5, and the row-filling pairs at n = 6."""
    for k in range(n + 1):
        for lam, mu in product(partitions(k), partitions(n - k)):
            pairs = (product(_standard_fillings(lam, 0), _standard_fillings(mu, k))
                     if n <= 5 else [row_filling_pair(lam, mu)])
            for p, q in pairs:
                assert shuffle_cell(p, q) == _product_shuffle_cell(p, q, k, n)


def test_shuffle_cell_rejects_a_non_standard_filling():
    p = Tableau(SkewShape((2,)), [(2, 1)])
    with pytest.raises(NotStandardError):
        shuffle_cell(p, None)
    with pytest.raises(NotStandardError):
        extend_to_bn(p, None)


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


# a name that is none, and two values that cannot be hashed (before, TypeError)
UNKNOWN_NORMALIZATIONS = ["bogus", [], {}]


def test_bn_classical_rejects_an_unknown_normalization():
    # before, it built a float form labelled "bogus"
    for normalization in UNKNOWN_NORMALIZATIONS:
        with pytest.raises(ValueError, match=re.escape(f"unknown normalization {normalization!r}")):
            bn_classical((1,), (), normalization)


def test_extend_to_bn_rejects_an_unknown_normalization():
    for normalization in UNKNOWN_NORMALIZATIONS:
        with pytest.raises(ValueError, match=re.escape(f"unknown normalization {normalization!r}")):
            extend_to_bn(*row_filling_pair((1,), (1,)), normalization)


@pytest.mark.parametrize("normalization", UNKNOWN_NORMALIZATIONS, ids=["str", "list", "dict"])
def test_match_signed_forms_rejects_an_unknown_normalization(normalization):
    cached = _step_coefficients.cache_info().currsize
    with pytest.raises(ValueError, match=re.escape(f"unknown normalization {normalization!r}")):
        match_signed_forms(*row_filling_pair((2,), (1,)), normalization)
    assert _step_coefficients.cache_info().currsize == cached


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extend_to_bn_basis_is_the_shuffle_cell_in_order(n):
    """Every standard pair: the induced basis, reordered, is the shuffle cell."""
    for k in range(n + 1):
        for lam, mu in product(partitions(k), partitions(n - k)):
            for p, q in product(_standard_fillings(lam, 0), _standard_fillings(mu, k)):
                expected = tuple(sorted(shuffle_cell(p, q), key=lambda w: w.sort_key()))
                assert extend_to_bn(p, q).basis == expected


def test_match_signed_forms_rejects_a_skew_tableau():
    p = next(iter(enumerate_standard(SkewShape((2, 1), (1,)))))
    with pytest.raises(PreconditionError, match="straight shapes"):
        match_signed_forms(p, None)


def test_signed_pair_basis_names_a_bad_second_shape():
    with pytest.raises(ValueError, match=r"^mu must be a positive weakly decreasing sequence: \(1, 2\)"):
        signed_pair_basis((1,), (1, 2))


@pytest.mark.parametrize("lam, mu, message", [
    (("2",), (1,), "^lambda and mu must have integer parts$"),
    ((None,), (1,), "^lambda and mu must have integer parts$"),
    ((2,), ("x",), "^mu must have integer parts$"),
    ((2,), (1.5,), "^mu must have integer parts$"),  # before, "mu and mu must ..."
])
@pytest.mark.parametrize("build", [signed_pair_basis, bn_classical])
def test_the_pair_forms_check_both_shapes_first(build, lam, mu, message):
    # before, sum(lam) raised TypeError for the first three
    with pytest.raises(ValueError, match=message):
        build(lam, mu)


@pytest.mark.parametrize("build", [signed_pair_basis, bn_classical])
def test_the_empty_pair_of_shapes_is_refused(build):
    # the rule of extend_to_bn(None, None): no form on zero letters
    with pytest.raises(PreconditionError, match="the signed group needs at least one letter"):
        build((), ())


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
            assert ext_f.matrices[g].reindexed(imap_f).equals(classical_f.matrices[g])


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
    assert chi.values[SignedPermutation((1, 2))] == 2
    assert char_inner(chi, chi) == 1
