"""The integer word-trace kernel against dense products written out here.

The reference reads the generator entries straight from the column storage
and multiplies full matrices, so it shares no code with `ayrep.linalg`.
"""

from fractions import Fraction
from itertools import product

import pytest

from ayrep.cells import Functional
from ayrep.groups import (
    class_data_signed,
    class_data_symmetric,
    identity,
    partitions,
    reduced_word,
    signed_reduced_word,
)
from ayrep.induction import (
    build_parabolic_from_shapes,
    extend_to_bn,
    induce,
    j_intervals,
    row_filling_pair,
)
from ayrep.linalg import SquareMatrix, power_is_identity, word_trace
from ayrep.reps import ORTHOGONAL, SEMINORMAL, build_from_functional, build_orthogonal_skew
from ayrep.tableaux import SkewShape, content_vector, row_tableau, skew_shape_family


def _dense(m: SquareMatrix) -> list:
    rows = [[0] * m.dim for _ in range(m.dim)]
    for j, col in m.cols.items():
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _dense_trace(mats: list, dim: int):
    """Trace of mats[0] * mats[1] * ...: int 0 if every diagonal entry is 0."""
    if not mats:
        return dim
    acc = _dense(mats[0])
    for m in mats[1:]:
        b = _dense(m)
        support = [[(k, b[k][j]) for k in range(dim) if b[k][j]] for j in range(dim)]
        acc = [
            [sum((row[k] * x for k, x in support[j] if row[k]), 0) for j in range(dim)]
            for row in acc
        ]
    diagonal = [acc[i][i] for i in range(dim) if acc[i][i]]
    return sum(diagonal[1:], diagonal[0]) if diagonal else 0


def _class_words(rep) -> list:
    if rep.group_type == "B":
        return [signed_reduced_word(r) for r in class_data_signed(rep.n).reps]
    return [reduced_word(r) for r in class_data_symmetric(rep.n).reps]


def _skew_reps(n_max: int, form: str) -> list:
    reps = []
    for n in range(1, n_max + 1):
        for shape in skew_shape_family(n):
            f = Functional(content_vector(row_tableau(shape)))
            reps.append(build_from_functional(f, identity(n), form))
    return reps


def _induced_reps(n_max: int) -> list:
    reps = []
    for n in range(2, n_max + 1):
        gens = list(range(1, n))
        for mask in range(1 << len(gens)):
            J = [g for k, g in enumerate(gens) if mask >> k & 1]
            if len(J) == len(gens):
                continue
            pools = [partitions(b - a + 1) for a, b in j_intervals(J)]
            for combo in product(*pools):
                reps.append(induce(build_parabolic_from_shapes(J, n, list(combo)), n))
    return reps


def _exact_reps() -> list:
    b_type = extend_to_bn(*row_filling_pair((2, 1), (1,)))
    return _skew_reps(5, SEMINORMAL) + _induced_reps(4) + [b_type]


def test_exact_word_traces_match_dense_products():
    types = []
    for rep in _exact_reps():
        for word in _class_words(rep):
            mats = [rep.matrices[g] for g in word]
            got = word_trace(mats, rep.dim)
            expected = _dense_trace(mats, rep.dim)
            assert got == expected, (rep.basis[0], word)
            assert type(got) is type(expected), (rep.basis[0], word, got)
            types.append(type(got))
    assert len(types) > 900
    assert set(types) == {int, Fraction}  # int for the identity class and for 0


def test_float_word_traces_match_dense_products():
    reps = _skew_reps(4, ORTHOGONAL)
    reps += [build_orthogonal_skew(s) for n in range(1, 5) for s in skew_shape_family(n)]
    for rep in reps:
        for word in _class_words(rep):
            mats = [rep.matrices[g] for g in word]
            assert word_trace(mats, rep.dim) == pytest.approx(
                _dense_trace(mats, rep.dim), rel=0, abs=1e-12
            )


def test_int_entries_trace_to_an_int():
    swap = SquareMatrix(2, {0: {1: 1}, 1: {0: 1}})
    assert word_trace([swap, swap], 2) == 2
    assert type(word_trace([swap, swap], 2)) is int
    assert type(word_trace([swap], 2)) is int


def test_power_is_identity_exact():
    rep = build_from_functional(Functional((0, 2, -1)), identity(3))
    s1, s2 = rep.matrices[1], rep.matrices[2]
    assert power_is_identity(s1, 2)
    perturbed = SquareMatrix(s1.dim, {j: dict(c) for j, c in s1.cols.items()})
    perturbed.set_entry(0, 0, s1.entry(0, 0) + Fraction(1, 10**6))
    assert not power_is_identity(perturbed, 2)
    braid = s1 * s2
    assert not power_is_identity(braid, 2)
    assert power_is_identity(braid, 3)
    shear = SquareMatrix(2, {0: {0: Fraction(1)}, 1: {0: Fraction(1), 1: Fraction(1)}})
    assert not power_is_identity(shear, 2)  # unit diagonal, nonzero corner


def test_power_is_identity_float():
    rep = build_orthogonal_skew(SkewShape((2, 1)))
    for g, m in rep.matrices.items():
        assert power_is_identity(m, 2, 1e-9), g
    rep = build_from_functional(Functional((0, 2, -1)), identity(3), ORTHOGONAL)
    braid = rep.matrices[1] * rep.matrices[2]
    assert power_is_identity(braid, 3, 1e-9)
    assert not power_is_identity(braid, 2, 1e-9)
    perturbed = SquareMatrix(braid.dim, {j: dict(c) for j, c in braid.cols.items()})
    perturbed.set_entry(0, 0, braid.entry(0, 0) + 1e-6)
    assert not power_is_identity(perturbed, 3, 1e-9)
    shear = SquareMatrix(2, {0: {0: 1.0}, 1: {0: 1e-6, 1: 1.0}})
    assert not power_is_identity(shear, 2, 1e-9)


def test_products_match_dense_products():
    for rep in _skew_reps(4, SEMINORMAL) + _induced_reps(3):
        for g, h in product(rep.gens, repeat=2):
            a, b = _dense(rep.matrices[g]), _dense(rep.matrices[h])
            expected = [[sum(a[i][k] * b[k][j] for k in range(rep.dim)) for j in range(rep.dim)]
                        for i in range(rep.dim)]
            prod = rep.matrices[g] * rep.matrices[h]
            assert _dense(prod) == expected
            assert all(v != 0 for col in prod.cols.values() for v in col.values())


def test_equals_exact_and_within_tol():
    m = SquareMatrix(2, {0: {0: Fraction(1, 3)}, 1: {0: Fraction(1), 1: Fraction(-1, 3)}})
    same = SquareMatrix(2, {1: {1: Fraction(-1, 3), 0: 1}, 0: {0: Fraction(1, 3)}})
    assert m.equals(same) and same.equals(m)
    assert SquareMatrix(2, {0: {}}).equals(SquareMatrix(2))  # an empty column is zero
    assert not m.equals(SquareMatrix(3, m.cols))
    fewer = SquareMatrix(2, {0: m.cols[0]})  # a missing column is zero
    assert not m.equals(fewer) and not fewer.equals(m)
    near = SquareMatrix(2, {0: {0: 1 / 3}, 1: {0: 1.0, 1: -1 / 3 + 1e-12}})
    assert not m.equals(near)
    assert m.equals(near, 1e-9) and near.equals(m, 1e-9)
    short = SquareMatrix(2, {0: {0: 1 / 3}, 1: {0: 1.0}})
    assert not m.equals(short, 1e-9) and not short.equals(m, 1e-9)
    assert not m.equals(SquareMatrix(2, {0: {0: 1 / 3, 1: 1e-6}, 1: m.cols[1]}), 1e-9)
