"""The integer word-trace and relation kernels against dense products written out here.

The reference reads the generator entries straight from the column storage
and multiplies full matrices, so it shares no code with `ayrep.linalg`.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from ayrep import linalg
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
    bn_classical,
    build_parabolic_from_shapes,
    extend_to_bn,
    induce,
    j_intervals,
    row_filling_pair,
)
from ayrep.linalg import FLOAT_TOL, SquareMatrix, power_is_identity, word_trace
from ayrep.reps import (
    ORTHOGONAL,
    SEMINORMAL,
    Representation,
    build_from_functional,
    build_orthogonal_skew,
    character,
    verify_axiom_B,
    verify_coxeter,
)
from ayrep.tableaux import SkewShape, content_vector, row_tableau, skew_shape_family
from value_digests import induction_cases


def _dense(m: SquareMatrix) -> list:
    rows = [[0] * m.dim for _ in range(m.dim)]
    for j, col in m.cols.items():
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _dense_mul(a: list, b: list) -> list:
    """a * b, summing only the nonzero terms."""
    dim = len(a)
    support = [[(k, b[k][j]) for k in range(dim) if b[k][j]] for j in range(dim)]
    return [[sum((row[k] * x for k, x in support[j] if row[k]), 0) for j in range(dim)]
            for row in a]


def _dense_trace(mats: list, dim: int):
    """Trace of mats[0] * mats[1] * ..., from the dense product."""
    if not mats:
        return dim
    acc = _dense(mats[0])
    for m in mats[1:]:
        acc = _dense_mul(acc, _dense(m))
    return sum(acc[i][i] for i in range(dim))


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
                reps.append(induce(build_parabolic_from_shapes(J, n, list(combo))))
    return reps


def _exact_reps() -> list:
    b_type = extend_to_bn(*row_filling_pair((2, 1), (1,)))
    return _skew_reps(5, SEMINORMAL) + _induced_reps(4) + [b_type]


def test_exact_word_traces_match_dense_products():
    traced = 0
    for rep in _exact_reps():
        for word in _class_words(rep):
            mats = [rep.matrices[g] for g in word]
            got = word_trace(mats, rep.dim)
            assert got == _dense_trace(mats, rep.dim), (rep.basis[0], word)
            # the identity class and a vanishing trace included
            assert type(got) is Fraction, (rep.basis[0], word, got)
            traced += 1
    assert traced > 900


def test_float_word_traces_match_dense_products():
    reps = _skew_reps(4, ORTHOGONAL)
    reps += [build_orthogonal_skew(s) for n in range(1, 5) for s in skew_shape_family(n)]
    floats = 0
    for rep in reps:
        for word in _class_words(rep):
            mats = [rep.matrices[g] for g in word]
            got = word_trace(mats, rep.dim)
            assert got == pytest.approx(_dense_trace(mats, rep.dim), rel=0, abs=1e-12)
            # the empty word has no entry to be a float; a float word gives
            # a float, or int 0 when no diagonal term survives
            if not word:
                assert type(got) is Fraction
            else:
                assert type(got) is float or (type(got) is int and got == 0), (word, got)
                floats += type(got) is float
    assert floats > 200


def test_int_entries_trace_to_a_fraction():
    swap = SquareMatrix(2, {0: {1: 1}, 1: {0: 1}})
    assert word_trace([swap, swap], 2) == 2
    assert type(word_trace([swap, swap], 2)) is Fraction
    assert word_trace([swap], 2) == 0  # no diagonal term survives
    assert type(word_trace([swap], 2)) is Fraction
    off_diagonal = SquareMatrix(2, {0: {1: Fraction(1, 3)}, 1: {0: Fraction(3)}})
    assert type(word_trace([off_diagonal], 2)) is Fraction


def test_float_words_keep_int_zero_when_no_diagonal_term_survives():
    swap = SquareMatrix(2, {0: {1: 1.0}, 1: {0: 1.0}})
    assert word_trace([swap], 2) == 0 and type(word_trace([swap], 2)) is int
    assert word_trace([swap, swap], 2) == 2.0 and type(word_trace([swap, swap], 2)) is float


@pytest.mark.parametrize("dim", [0, 1, 5])
def test_the_empty_word_traces_to_the_dimension_as_a_fraction(dim):
    assert word_trace([], dim) == Fraction(dim)
    assert type(word_trace([], dim)) is Fraction


def test_power_is_identity_exact():
    rep = build_from_functional(Functional((0, 2, -1)), identity(3))
    s1, s2 = rep.matrices[1], rep.matrices[2]
    assert power_is_identity(s1, 2)
    cols = {j: dict(c) for j, c in s1.cols.items()}
    cols[0][0] += Fraction(1, 10**6)
    assert not power_is_identity(SquareMatrix(s1.dim, cols), 2)
    braid = s1 * s2
    assert not power_is_identity(braid, 2)
    assert power_is_identity(braid, 3)
    shear = SquareMatrix(2, {0: {0: Fraction(1)}, 1: {0: Fraction(1), 1: Fraction(1)}})
    assert not power_is_identity(shear, 2)  # unit diagonal, nonzero corner


def test_power_is_identity_float():
    rep = build_orthogonal_skew(SkewShape((2, 1)))
    for g, m in rep.matrices.items():
        assert power_is_identity(m, 2), g
    rep = build_from_functional(Functional((0, 2, -1)), identity(3), ORTHOGONAL)
    braid = rep.matrices[1] * rep.matrices[2]
    assert power_is_identity(braid, 3)
    assert not power_is_identity(braid, 2)
    cols = {j: dict(c) for j, c in braid.cols.items()}
    cols[0][0] = braid.entry(0, 0) + 1e-6
    assert not power_is_identity(SquareMatrix(braid.dim, cols), 3)
    shear = SquareMatrix(2, {0: {0: 1.0}, 1: {0: 1e-6, 1: 1.0}})
    assert not power_is_identity(shear, 2)


def test_a_word_is_compared_at_the_size_and_in_the_arithmetic_of_its_matrices():
    # before, a size argument of 1 passed diag(1, 2)^2, and a tolerance passed
    # an exact matrix 10^-12 off the identity
    d = SquareMatrix(2, {0: {0: Fraction(1)}, 1: {1: Fraction(2)}})
    assert not linalg.word_is_identity([d, d]) and not power_is_identity(d, 2)
    assert not linalg.word_is_identity([SquareMatrix(1, {0: {0: 1 + Fraction(1, 10**12)}})])
    assert linalg.word_is_identity([SquareMatrix(1, {0: {0: 1 + 1e-12}})])
    assert not linalg.word_is_identity([SquareMatrix(1, {0: {0: 1 + 1e-6}})])
    assert linalg.word_is_identity([]) and power_is_identity(d, 0)  # the empty word


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
    # a float on either side: equal within FLOAT_TOL, unequal at 10^-6
    near = SquareMatrix(2, {0: {0: 1 / 3}, 1: {0: 1.0, 1: -1 / 3 + 1e-12}})
    assert m.equals(near) and near.equals(m)
    far = SquareMatrix(2, {0: {0: 1 / 3}, 1: {0: 1.0, 1: -1 / 3 + 1e-6}})
    assert not m.equals(far) and not far.equals(m)
    short = SquareMatrix(2, {0: {0: 1 / 3}, 1: {0: 1.0}})
    assert not m.equals(short) and not short.equals(m)
    assert not m.equals(SquareMatrix(2, {0: {0: 1 / 3, 1: 1e-6}, 1: m.cols[1]}))
    # no float: exact, so 10^-12 off is unequal
    exact_near = SquareMatrix(2, {0: m.cols[0],
                                  1: {0: Fraction(1), 1: Fraction(-1, 3) + Fraction(1, 10**12)}})
    assert not m.equals(exact_near) and not exact_near.equals(m)


# relation checks ------------------------------------------------------------------


def _dense_relation_failures(rep, tol=None) -> list:
    """verify_coxeter's failure texts, from dense s_g^2 and (s_g s_h)^m."""
    dim = rep.dim
    dense = {g: _dense(m) for g, m in rep.matrices.items()}

    def is_identity(p):
        return all(
            p[i][j] == (i == j) if tol is None else abs(p[i][j] - (i == j)) <= tol
            for i in range(dim) for j in range(dim)
        )

    failures = [f"s{g}^2 != 1" for g in rep.gens
                if not is_identity(_dense_mul(dense[g], dense[g]))]
    for a, g in enumerate(rep.gens):
        for h in rep.gens[a + 1:]:
            m = 4 if rep.group_type == "B" and (g, h) == (0, 1) else 3 if h - g == 1 else 2
            braid = power = _dense_mul(dense[g], dense[h])
            for _ in range(m - 1):
                power = _dense_mul(power, braid)
            if not is_identity(power):
                failures.append(f"(s{g} s{h})^{m} != 1")
    return failures


def _signed_reps(n_max: int) -> list:
    reps = []
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            for lam, mu in product(partitions(k), partitions(n - k)):
                for form in (SEMINORMAL, ORTHOGONAL):
                    reps.append(extend_to_bn(*row_filling_pair(lam, mu), form))
                    reps.append(bn_classical(lam, mu, form))
    return reps


def _replaced(rep, g, j, i, value):
    """A copy of rep with entry (i, j) of generator g's matrix set to value."""
    m = rep.matrices[g]
    cols = {k: dict(c) for k, c in m.cols.items()}
    cols.setdefault(j, {})[i] = value
    mats = {**rep.matrices, g: SquareMatrix(m.dim, cols)}
    return Representation(rep.n, rep.basis, mats, rep.normalization)


def _perturbed(rep):
    """A copy with the first off-diagonal entry of the first generator that has one moved.

    None when no generator has an off-diagonal entry.
    """
    for g in rep.gens:
        for j, col in rep.matrices[g].cols.items():
            for i, v in col.items():
                if i != j:
                    return _replaced(rep, g, j, i, v + (Fraction(1, 7) if rep.is_exact else 1e-3))
    return None


def test_relation_checks_match_dense_powers():
    reps = _skew_reps(4, SEMINORMAL) + _induced_reps(3) + _signed_reps(3)
    broken = 0
    for rep in reps:
        tol = None if rep.is_exact else FLOAT_TOL
        assert list(verify_coxeter(rep).failures) == _dense_relation_failures(rep, tol) == []
        bad = _perturbed(rep)
        if bad is not None:
            failures = list(verify_coxeter(bad).failures)
            assert failures == _dense_relation_failures(bad, tol), (rep.basis, failures)
            assert failures
            broken += 1
    assert len(reps) > 60 and broken > 40


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Record the first argument of every call to owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("build", [
    lambda: build_from_functional(Functional((0, 1, 2, -1, 0)), identity(5)),
    lambda: extend_to_bn(*row_filling_pair((2, 1), (1,))),
], ids=["A5", "B4"])
def test_scaled_once_per_generator_matrix(monkeypatch, build):
    rep = build()
    scaled = _count_calls(monkeypatch, linalg, "_scaled")
    assert verify_coxeter(rep).ok
    character(rep)
    counts = Counter(id(m) for m in scaled)
    assert set(counts) == {id(m) for m in rep.matrices.values()}
    assert set(counts.values()) == {1}


def test_exact_relations_form_no_products(monkeypatch):
    f = Functional((0, 1, 2, -1, 0))
    products = _count_calls(monkeypatch, SquareMatrix, "__mul__")
    assert verify_coxeter(build_from_functional(f, identity(5))).ok
    assert products == []
    assert verify_coxeter(build_from_functional(f, identity(5), ORTHOGONAL)).ok
    assert len(products) == 6  # one per pair of the four generators


# the two-term shortcuts: class traces along the diagonal, one push per orbit block


def _forms_at(n: int) -> list:
    """The seminormal form of every skew shape at n and, for n <= 5, every
    parabolic form of the induction sweep with its induced form."""
    reps = [build_from_functional(Functional(content_vector(row_tableau(shape))), identity(n))
            for shape in skew_shape_family(n)]
    for J, shapes in (induction_cases(n) if n <= 5 else ()):
        psi = build_parabolic_from_shapes(J, n, shapes)
        reps += [psi, induce(psi)]
    return reps


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_diagonal_class_traces_equal_pushed_word_traces(n):
    for rep in _forms_at(n):
        assert verify_axiom_B(rep).ok
        for cls_rep, value in character(rep).values.items():
            word = reduced_word(cls_rep)
            assert len(set(word)) == len(word)  # so every class went along the diagonal
            pushed = word_trace([rep.matrices[g] for g in word], rep.dim)
            assert value == pushed and type(value) is type(pushed) is Fraction, (rep.basis, word)


def test_a_stray_off_diagonal_entry_sends_the_character_to_the_pushed_trace():
    rep = build_from_functional(Functional((0, 2, 5)), identity(3))  # the regular form
    s1, s2 = rep.matrices[1], rep.matrices[2]
    (k,) = set(s2.cols[0]) - {0}  # the basis vector labelled s2
    assert rep.basis[k].images == (1, 3, 2)
    cols = {j: dict(col) for j, col in s1.cols.items()}
    cols[k][0] = Fraction(1, 7)  # labelled id, not s2 s1: off the two-term support
    stray = Representation(3, rep.basis, {1: SquareMatrix(6, cols), 2: s2}, SEMINORMAL)
    assert not verify_axiom_B(stray).ok
    chi = character(stray)
    detours = 0
    for cls_rep, value in chi.values.items():
        mats = [stray.matrices[g] for g in reduced_word(cls_rep)]
        assert value == word_trace(mats, 6) == _dense_trace(mats, 6)
        detours += value != word_trace(mats, 6, along_diagonal=True)
    assert detours == 1  # the 3-cycle s1 s2 comes back to id through the stray entry


def _blocks(mats: list, dim: int) -> list:
    """The orbit blocks of the basis under single off-diagonal column entries of mats."""
    parent = list(range(dim))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for m in mats:
        for j, col in m.cols.items():
            off = [i for i in col if i != j]
            if len(off) == 1:
                parent[root(off[0])] = root(j)
    blocks = {}
    for v in range(dim):
        blocks.setdefault(root(v), []).append(v)
    return list(blocks.values())


def _full_word_failures(rep) -> list:
    """verify_coxeter's failure texts with every basis vector pushed through every word."""
    mats = rep.matrices
    failures = [f"s{g}^2 != 1" for g in rep.gens
                if not linalg.word_is_identity([mats[g], mats[g]])]
    for a, g in enumerate(rep.gens):
        for h in rep.gens[a + 1:]:
            m = 3 if h - g == 1 else 2
            if not linalg.word_is_identity([mats[g], mats[h]] * m):
                failures.append(f"(s{g} s{h})^{m} != 1")
    return failures


def test_a_relation_fails_on_an_entry_changed_past_the_first_column_of_its_block():
    squares = braids = 0
    for rep in _skew_reps(4, SEMINORMAL) + _induced_reps(3):
        for g in rep.gens:
            s = rep.matrices[g]
            # every entry of a column that is not the first of its s_g block: s_g^2 fails
            for block in _blocks([s], rep.dim):
                for j in block[1:]:
                    for i, v in s.cols[j].items():
                        bad = _replaced(rep, g, j, i, v + Fraction(1, 7))
                        failures = list(verify_coxeter(bad).failures)
                        assert failures == _full_word_failures(bad)
                        assert f"s{g}^2 != 1" in failures
                        squares += 1
            # a sign flipped on a vector that s_g alone fixes keeps s_g^2 = 1; past the
            # first column of its <s_g, s_h> block, it still breaks (s_g s_h)^m
            alone = {j for (j, *more) in _blocks([s], rep.dim) if not more and j in s.cols}
            for h in rep.gens:
                if h == g:
                    continue
                for block in _blocks([s, rep.matrices[h]], rep.dim):
                    for j in block[1:]:
                        if j in alone:
                            bad = _replaced(rep, g, j, j, -s.cols[j][j])
                            failures = list(verify_coxeter(bad).failures)
                            assert failures == _full_word_failures(bad)
                            pair = f"(s{min(g, h)} s{max(g, h)})"
                            assert all(x.startswith("(") for x in failures)  # no square
                            assert any(x.startswith(pair) for x in failures), (failures, g, h)
                            braids += 1
    assert squares > 400 and braids > 100


def test_a_broken_square_sends_its_braids_to_the_full_word():
    cases = unsound = 0
    for rep in _skew_reps(4, SEMINORMAL) + _induced_reps(3):
        for g in rep.gens:
            for j, col in rep.matrices[g].cols.items():
                bad = _replaced(rep, g, j, j, col.get(j, 0) + Fraction(1, 7))
                failures = list(verify_coxeter(bad).failures)
                assert failures == _full_word_failures(bad)
                assert f"s{g}^2 != 1" in failures
                cases += 1
                # pushing one vector per block would miss some of these braid failures
                for h in rep.gens:
                    if h != g:
                        pair = [bad.matrices[g], bad.matrices[h]]
                        word = pair * (3 if abs(g - h) == 1 else 2)
                        unsound += (linalg.word_is_identity(word, closed_under=pair)
                                    and not linalg.word_is_identity(word))
    assert cases > 600 and unsound > 50


def test_a_word_with_a_repeated_letter_is_pushed(monkeypatch):
    from ayrep import reps

    rep = build_from_functional(Functional((0, 2, -1)), identity(3))  # dim 3
    (swap,) = [w for w in class_data_symmetric(3).reps if w.cycle_type() == (2, 1)]
    assert reduced_word(swap) == (1,)
    detour = (2, 1, 2, 1, 2)  # s2 s1 s2 s1 s2 = s1 also, but it repeats letters
    monkeypatch.setattr(reps, "reduced_word", lambda w: detour if w == swap else reduced_word(w))
    mats = [rep.matrices[g] for g in detour]
    assert character(rep).values[swap] == word_trace(mats, 3) == word_trace([rep.matrices[1]], 3)
    assert word_trace(mats, 3, along_diagonal=True) != word_trace(mats, 3)


def test_blocks_follow_only_columns_with_one_off_diagonal_entry():
    # s^2 fixes e0, but not e1: the block rule must not step from e0 to e1 along
    # column 0, which has two off-diagonal entries
    s = SquareMatrix(3, {0: {1: 1, 2: 1}, 1: {1: 1, 2: 1}, 2: {0: 1, 1: -1, 2: -1}})
    assert linalg._push([s.scaled_form()[1]] * 2, 0) == {0: 1}
    assert not linalg.word_is_identity([s, s], closed_under=[s])
    assert not power_is_identity(s, 2)
