"""Suite-level checks on `ayrep.verify` that the acceptance criteria do not make."""

import re
from fractions import Fraction
from functools import partial

import pytest

from ayrep import induction, reps, tableaux, verify
from ayrep.groups import Permutation
from ayrep.linalg import SquareMatrix
from ayrep.reps import ORTHOGONAL, SEMINORMAL
from ayrep.tableaux import skew_shape_family


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


def _traced_pairs(result) -> int:
    """(cell, functional) pairs, read from the 'k cells x m functionals' details."""
    pairs = 0
    for line in result.details:
        match = re.search(r"(\d+) cells x (\d+) functionals", line)
        if match:
            pairs += int(match[1]) * int(match[2])
    return pairs


def test_flat_suite_traces_each_cell_and_functional_once(monkeypatch):
    traced = _count_calls(monkeypatch, "character")
    built = _count_calls(monkeypatch, "build_from_functional")
    written, write = [], reps._two_term_matrices
    monkeypatch.setattr(reps, "_last", [(None,), None])
    monkeypatch.setattr(reps, "_two_term_matrices", lambda *args: written.append(args) or write(*args))
    result = verify.flat_suite()
    assert result.ok
    assert len(traced) == _traced_pairs(result) == 78
    assert len(built) == 1440  # every base element of every cell is still built
    assert len(written) == 156  # and written twice per pair: the second build is held


def test_flat_suite_traces_a_rep_that_differs(monkeypatch):
    altered = []

    def build(f, v, normalization):
        rep = reps.build_from_functional(f, v, normalization)
        if not altered and rep.dim >= 2 and v == rep.basis[-1]:
            # s1 -> 2 * identity changes the trace at the class of s1
            doubled = SquareMatrix(rep.dim, {j: {j: Fraction(2)} for j in range(rep.dim)})
            altered.append((f, v))
            return rep._replace(matrices={**rep.matrices, 1: doubled})
        return rep

    monkeypatch.setattr(verify, "build_from_functional", build)
    traced = _count_calls(monkeypatch, "character")
    result = verify.flat_suite()
    (f, v), = altered
    assert not result.ok
    assert any(
        f"character differs for f={f!r}, v={v.one_line()}" in bad
        for bad in result.counterexamples
    )
    assert len(traced) == 79  # the altered rep is traced on top of the 78 pairs


def test_flat_suite_fails_when_every_build_of_a_cell_drifts(monkeypatch):
    # before, it raised IndexError, and `ayrep verify --suite flat` printed a traceback
    def reversed_basis(f, v, normalization):
        rep = reps.build_from_functional(f, v, normalization)
        return rep._replace(basis=rep.basis[::-1])

    monkeypatch.setattr(verify, "build_from_functional", reversed_basis)
    result = verify.flat_suite()
    assert not result.ok
    drifted = [bad for bad in result.counterexamples if "cell drift" in bad]
    assert drifted and len(drifted) == len(result.counterexamples)


def test_specht_suite_traces_each_shape_once_and_reports_a_bad_norm(monkeypatch):
    def doubled(rep):
        chi = reps.character(rep)
        if rep.n == 3 and rep.dim == 2:  # (2,1) and the skew shapes of dimension 2
            chi = chi._replace(values={k: 2 * v for k, v in chi.values.items()})
        return chi

    monkeypatch.setattr(verify, "character", doubled)
    traced = _count_calls(monkeypatch, "character")
    result = verify.specht_suite(n_max=3)
    assert not result.ok
    assert len(traced) == sum(len(skew_shape_family(n)) for n in (1, 2, 3))
    assert [c for c in result.counterexamples if "norm" in c] == ["straight (2,1): norm != 1"]
    assert "n=3: all 3 irreducibles realized" in result.details


def test_bn_suite_passes_at_five_letters():
    """Above the CLI's limit of four: every (lam, mu) form at n = 5 against
    the classical pair form, entry by entry."""
    result = verify.bn_suite(5)
    assert result.ok, result.counterexamples
    assert result.details[-1] == "n=5: 36 pairs verified, sum dim^2 = 3840"


@pytest.mark.parametrize("form", [SEMINORMAL, ORTHOGONAL])
def test_bn_suite_reports_a_classical_mismatch_in_each_form(monkeypatch, form):
    def perturbed(p, q, normalization, shift):
        ext, classical, index_map = induction.match_signed_forms(p, q, normalization)
        if normalization == form:
            m = classical.matrices[0]
            moved = {j: {i: v + shift for i, v in col.items()} for j, col in m.cols.items()}
            matrices = {**classical.matrices, 0: SquareMatrix(m.dim, moved)}
            classical = classical._replace(matrices=matrices)
        return ext, classical, index_map

    monkeypatch.setattr(verify, "match_signed_forms", partial(perturbed, shift=Fraction(1, 10**12)))
    result = verify.bn_suite(n_max=1)
    if form == ORTHOGONAL:  # a shift within the tolerance passes
        assert result.ok
    else:
        assert result.counterexamples == (
            "n=1 ((),(1,)) seminormal: generator 0 mismatch",
            "n=1 ((1,),()) seminormal: generator 0 mismatch",
        )
    monkeypatch.setattr(verify, "match_signed_forms", partial(perturbed, shift=1))
    result = verify.bn_suite(n_max=1)
    assert result.counterexamples == (
        f"n=1 ((),(1,)) {form}: generator 0 mismatch",
        f"n=1 ((1,),()) {form}: generator 0 mismatch",
    )


def test_convexity_suite_reports_a_non_convex_descent_class(monkeypatch):
    # {123, 231} is not convex: 213 and 132 lie on geodesics between its members
    classes = verify.descent_classes

    def with_a_gap(n, A):
        if n == 3 and not A:
            return [tuple(map(Permutation, ((1, 2, 3), (2, 3, 1))))]
        return classes(n, A)

    monkeypatch.setattr(verify, "descent_classes", with_a_gap)
    result = verify.convexity_suite(n_max=3)
    assert not result.ok
    assert result.counterexamples == ("n=3: non-convex descent cell over A=[]",)
    # the gapped class stands in for the whole group: still 19 cells, 18 of them convex
    assert result.details[1] == "n=3: 7 +-1 patterns, 18 distinct cells convex"


def test_every_suite_but_flat_declares_its_sizes():
    assert set(verify.SIZES) == set(verify.SUITES) - {"flat"}
    assert all(size.default <= size.largest for size in verify.SIZES.values())


FAMILY = ["specht", "cells", "coxeter", "axiomB"]


def test_one_sweep_walks_and_builds_each_family_shape_once(monkeypatch):
    alone = {name: verify.SUITES[name](n_max=4) for name in [*FAMILY, "convexity"]}
    walked = _count_calls(monkeypatch, "descent_cell")
    monkeypatch.setattr(reps, "descent_cell", verify.descent_cell)  # the builder's walks count too
    built = _count_calls(monkeypatch, "build_from_functional")
    results = verify.run_suites([*FAMILY, "convexity"], 4)
    shapes = sum(len(skew_shape_family(n)) for n in range(1, 5))
    assert shapes == 41
    # one walk per family shape, then one per +-1 pattern of the genericity comparison
    assert len(walked) == shapes + 2 + 7 + 41
    assert len(built) == shapes
    assert len({rep_args[0] for rep_args in built}) == shapes  # the row fillings' contents
    assert [r.name for r in results] == [*FAMILY, "convexity"]
    assert all(r == alone[r.name] for r in results)


def test_one_sweep_serves_suites_of_different_size_bounds():
    # with no size bound each suite takes its default: `cells` sweeps n = 6
    # and `coxeter` n <= 5 plus its n = 6 sample, which both of them check
    results = verify.run_suites(["coxeter", "cells"])
    assert results == [verify.coxeter_suite(), verify.cells_suite()]
    assert [r.details for r in results] == [("150 shapes checked (exact and tol 1e-09)",),
                                            ("400 shapes checked up to n=6",)]


def test_a_suite_result_is_false_exactly_when_the_suite_failed():
    passed, = verify.run_suites(["tops"], 2)
    checked_nothing, = verify.run_suites(["tops"], 0)
    assert bool(passed) is True and bool(checked_nothing) is False
    assert checked_nothing.details == ("no checks performed",)


def test_the_sweep_reports_a_filling_missing_from_the_rows(monkeypatch):
    # a count of the fillings of (2,1) one short or one over breaks its
    # bijection, but not its form
    count = tableaux.count_standard
    for off in (-1, 1):
        monkeypatch.setattr(tableaux, "count_standard",
                            lambda shape, o=off: count(shape) + o * (str(shape) == "(2,1)"))
        cells_result, axiom_b = verify.run_suites(["cells", "axiomB"], 3)
        assert not cells_result.ok and axiom_b.ok
        assert cells_result.counterexamples == (
            "(2,1): relabel map failed to be a bijection onto standard fillings",)
        assert cells_result.details == ("13 shapes checked up to n=3",)
