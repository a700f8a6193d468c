"""Sweep suites behind `ayrep verify` and the acceptance tests.

Each suite returns a SuiteResult with deterministic detail lines; the CLI
maps failures to a nonzero exit status.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import comb, factorial, inf

from .cells import (
    BasicFlat,
    Functional,
    boundary_reflections,
    cell_tableau_bijection,
    descent_cell,
    descent_partition,
    flat_integer_points,
    flat_partition,
    genericity_violation,
    is_generic,
    is_generic_integer,
    is_minimal_ay_cell,
)
from .groups import (
    identity,
    is_convex,
    partitions,
    reflection,
    reflections,
    sym_group,
    weak_interval,
)
from .induction import (
    build_parabolic_from_shapes,
    classical_induced_character,
    induce,
    match_signed_forms,
    row_filling_pair,
    shuffle_cell,
)
from .reps import (
    ORTHOGONAL,
    SEMINORMAL,
    build_from_functional,
    build_orthogonal_skew,
    character,
    is_irreducible,
    mn_character,
    verify_axiom_B,
    verify_coxeter,
)
from .tableaux import (
    SkewShape,
    content_vector,
    count_standard,
    enumerate_standard,
    hook_length_count,
    relabel_cell,
    row_tableau,
    skew_shape_family,
    straight_shapes,
)
from .tops import top_elements


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    details: tuple
    counterexamples: tuple

    def __bool__(self) -> bool:
        return self.ok


def _result(name, details, bad):
    return SuiteResult(name, not bad, tuple(details), tuple(bad))


def _sample_shapes_6():
    """Deterministic sample at size 6: all straight shapes plus small skews."""
    sample = list(straight_shapes(6))
    family = skew_shape_family(6)
    for shape in family[::7]:
        if not shape.is_straight and count_standard(shape) <= 40:
            sample.append(shape)
    return sample


def coxeter_suite(n_max: int = 5, include_sample_6: bool = True,
                  tol: float = 1e-9) -> SuiteResult:
    """Involutions and braid relations, exact seminormal and float orthogonal."""
    bad, checked = [], 0
    jobs = [(n, shape) for n in range(1, n_max + 1) for shape in skew_shape_family(n)]
    if include_sample_6 and n_max >= 5:
        jobs.extend((6, shape) for shape in _sample_shapes_6())
    for n, shape in jobs:
        f = Functional(content_vector(row_tableau(shape)))
        rep = build_from_functional(f, identity(n), SEMINORMAL)
        report = verify_coxeter(rep)
        if not report.ok:
            bad.append(f"seminormal {shape}: {report.failures[0]}")
        orth = build_orthogonal_skew(shape)
        report = verify_coxeter(orth, tol)
        if not report.ok:
            bad.append(f"orthogonal {shape}: {report.failures[0]}")
        checked += 1
    return _result("coxeter", [f"{checked} shapes checked (exact and tol {tol})"], bad)


def axiom_b_suite(n_max: int = 5) -> SuiteResult:
    """Two-term local action on every cell representation of the sweep."""
    bad, checked = [], 0
    for n in range(1, n_max + 1):
        for shape in skew_shape_family(n):
            f = Functional(content_vector(row_tableau(shape)))
            rep = build_from_functional(f, identity(n), SEMINORMAL)
            report = verify_axiom_B(rep)
            if not report.ok:
                bad.append(f"{shape}: {report.failures[0]}")
            checked += 1
    return _result("axiomB", [f"{checked} representations checked"], bad)


def cells_suite(n_max: int = 6) -> SuiteResult:
    """Cell sizes equal standard-filling counts; relabel map is a bijection."""
    bad, checked = [], 0
    for n in range(1, n_max + 1):
        for shape in skew_shape_family(n):
            q = row_tableau(shape)
            f = Functional(content_vector(q))
            cell = descent_cell(f, identity(n))
            count = count_standard(shape)
            if cell.size != count:
                bad.append(f"{shape}: cell size {cell.size} != {count} fillings")
                continue
            try:
                cell_tableau_bijection(f, q)
            except AssertionError as exc:
                bad.append(f"{shape}: {exc}")
            checked += 1
    return _result("cells", [f"{checked} shapes checked up to n={n_max}"], bad)


def regular_suite(n_max: int = 5) -> SuiteResult:
    """Fully generic functionals give the regular character exactly."""
    bad, details = [], []
    for n in range(2, n_max + 1):
        f = Functional(tuple(3**i for i in range(1, n + 1)))
        if boundary_reflections(f):
            bad.append(f"n={n}: functional unexpectedly pairs to +-1")
            continue
        rep = build_from_functional(f, identity(n), SEMINORMAL)
        chi = character(rep)
        for cls_rep, value in chi.values.items():
            expected = factorial(n) if cls_rep.is_identity() else 0
            if value != expected:
                bad.append(f"n={n}: character at {cls_rep.one_line()} is {value}")
        details.append(f"n={n}: dim {rep.dim}, regular character exact")
    return _result("regular", details, bad)


def sample_flats() -> list:
    """A deterministic collection of flats with free components (>= 10)."""
    flats = []

    def add(n, pairs):
        flats.append(
            BasicFlat(n, frozenset((reflection(i, j), e) for (i, j), e in pairs))
        )

    add(3, [((1, 2), 1)])
    add(3, [((2, 3), -1)])
    add(3, [((1, 3), 1)])
    add(3, [((1, 2), -1)])
    add(4, [((1, 2), 1)])
    add(4, [((2, 3), 1)])
    add(4, [((1, 4), -1)])
    add(4, [((1, 2), 1), ((3, 4), 1)])
    add(4, [((1, 2), -1), ((3, 4), 1)])
    add(5, [((1, 2), 1)])
    add(5, [((2, 4), -1)])
    add(5, [((1, 2), 1), ((4, 5), 1)])
    add(5, [((2, 3), 1), ((3, 4), 1)])
    return flats


def flat_suite(points_needed: int = 3, span: int = 6, max_cells: int = 2) -> SuiteResult:
    """Characters agree across generic functionals on a flat and base elements."""
    bad, details = [], []
    flats = sample_flats()
    for flat in flats:
        cells = flat_partition(flat, flat.n)
        used_cells = 0
        for cell in cells:
            if used_cells >= max_cells:
                break
            generics = []
            for f in flat_integer_points(flat, span):
                if genericity_violation(f, cell.members, cell.interior, cell.boundary) is None:
                    generics.append(f)
                    if len(generics) >= points_needed:
                        break
            if len(generics) < points_needed:
                continue
            used_cells += 1
            tables = []
            for f in generics:
                for v in cell.members:
                    rep = build_from_functional(f, v, SEMINORMAL)
                    if frozenset(rep.basis) != cell.member_set:
                        bad.append(f"{flat}: cell drift for f={f!r}, v={v.one_line()}")
                        continue
                    tables.append((f, v, character(rep)))
            first = tables[0][2]
            for f, v, chi in tables[1:]:
                if chi != first:
                    bad.append(
                        f"{flat}: character differs for f={f!r}, v={v.one_line()}"
                    )
            boundary_data = {
                f: {t: f.pair(t) for t in sorted(cell.boundary)} for f in generics
            }
            datas = list(boundary_data.values())
            if any(d != datas[0] for d in datas[1:]):
                bad.append(f"{flat}: boundary pairings differ between generic points")
        if used_cells == 0:
            bad.append(f"{flat}: no cell admitted {points_needed} generic points")
        else:
            details.append(
                f"n={flat.n} flat with {len(flat.constraints)} constraints: "
                f"{used_cells} cells x {points_needed} functionals agree"
            )
    details.insert(0, f"{len(flats)} flats checked")
    return _result("flat", details, bad)


def specht_suite(n_max: int = 5, dim_sum_max: int = 6) -> SuiteResult:
    """Built characters equal the border-strip oracle; irreducibles realized."""
    bad, details = [], []
    checked = 0
    for n in range(1, n_max + 1):
        for shape in skew_shape_family(n):
            f = Functional(content_vector(row_tableau(shape)))
            rep = build_from_functional(f, identity(n), SEMINORMAL)
            chi = character(rep)
            for cls_rep, value in chi.values.items():
                expected = mn_character(shape, cls_rep.cycle_type())
                if value != expected:
                    bad.append(
                        f"{shape} at class {cls_rep.cycle_type()}: {value} != {expected}"
                    )
            checked += 1
    details.append(f"{checked} skew shapes matched the strip oracle")
    for n in range(1, n_max + 1):
        chars = []
        for lam in partitions(n):
            shape = SkewShape(lam)
            f = Functional(content_vector(row_tableau(shape)))
            rep = build_from_functional(f, identity(n), SEMINORMAL)
            if not is_irreducible(rep):
                bad.append(f"straight {shape}: norm != 1")
            chars.append(character(rep))
        if len({tuple(sorted((k.images, v) for k, v in c.values.items())) for c in chars}) != len(chars):
            bad.append(f"n={n}: straight-shape characters not pairwise distinct")
        details.append(f"n={n}: all {len(chars)} irreducibles realized")
    for n in range(1, dim_sum_max + 1):
        total = sum(hook_length_count(lam) ** 2 for lam in partitions(n))
        if total != factorial(n):
            bad.append(f"n={n}: sum of squared dimensions {total} != {factorial(n)}")
    details.append(f"dimension identity checked up to n={dim_sum_max}")
    return _result("specht", details, bad)


def _brute_minimal_family(n: int) -> set:
    """All translated cells sigma * B_Q, by direct relabel standardness."""
    group = sym_group(n)
    family = set()
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            members = relabel_cell(q)
            for sigma in group:
                family.add(frozenset(sigma * w for w in members))
    return family


def minimal_suite(n_max: int = 4, seed: int = 0, samples: int = 150) -> SuiteResult:
    """Recognizer agrees with the brute-force family of translated cells."""
    bad, details = [], []
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        family = _brute_minimal_family(n)
        group = list(sym_group(n))
        if n <= 3:
            subsets = []
            for mask in range(1, 1 << len(group)):
                subsets.append(frozenset(g for k, g in enumerate(group) if mask >> k & 1))
        else:
            subsets = list(family)
            subsets.extend(frozenset(weak_interval(w)) for w in group)
            for _ in range(samples):
                size = rng.randint(1, len(group))
                subsets.append(frozenset(rng.sample(group, size)))
        agreements = 0
        for candidate in subsets:
            flag, witness = is_minimal_ay_cell(candidate)
            expected = candidate in family
            if flag != expected:
                bad.append(
                    f"n={n}: {{{','.join(w.one_line() for w in sorted(candidate, key=lambda u: u.sort_key()))}}}"
                    f" recognizer={flag} brute={expected}"
                )
                continue
            if flag:
                sigma, q = witness
                translated = frozenset(sigma.inverse() * w for w in candidate)
                if translated != relabel_cell(q):
                    bad.append(f"n={n}: witness tableau does not regenerate the cell")
            agreements += 1
        details.append(
            f"n={n}: {agreements} subsets agree (family size {len(family)})"
        )
    return _result("minimal", details, bad)


def induction_suite(n_max: int = 5) -> SuiteResult:
    """Induced matrices vs the conjugate-average character; shuffle sizes."""
    from .induction import j_intervals

    bad, details = [], []
    checked = 0
    for n in range(2, n_max + 1):
        gens = list(range(1, n))
        subsets = []
        for mask in range(1 << len(gens)):
            J = [g for k, g in enumerate(gens) if mask >> k & 1]
            if len(J) < len(gens):
                subsets.append(J)
        for J in subsets:
            intervals = j_intervals(J)
            pools = [partitions(b - a + 1) for a, b in intervals]
            for combo in product(*pools):
                psi = build_parabolic_from_shapes(J, n, list(combo))
                induced = induce(psi, n)
                if not verify_coxeter(induced).ok:
                    bad.append(f"n={n} J={J} {combo}: induced matrices break relations")
                    continue
                chi = character(induced)
                oracle = classical_induced_character(psi, n)
                for cls_rep, value in chi.values.items():
                    if value != oracle[cls_rep]:
                        bad.append(
                            f"n={n} J={J} {combo} at {cls_rep.cycle_type()}: "
                            f"{value} != {oracle[cls_rep]}"
                        )
                checked += 1
    details.append(f"{checked} induced representations match the oracle")
    size_checked = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for lam in partitions(k):
                for mu in partitions(n - k):
                    cellset = shuffle_cell(*row_filling_pair(lam, mu))
                    expected = comb(n, k) * hook_length_count(lam) * hook_length_count(mu)
                    if len(cellset) != expected:
                        bad.append(
                            f"n={n} ({lam},{mu}): shuffle size {len(cellset)} != {expected}"
                        )
                    size_checked += 1
    details.append(f"{size_checked} shuffle-cell sizes match the product formula")
    return _result("induction", details, bad)


def bn_suite(n_max: int = 4, tol: float = 1e-9) -> SuiteResult:
    """Signed-group forms: relations, entrywise match, dimensions, norms."""
    bad, details = [], []
    for n in range(1, n_max + 1):
        dims_sq = 0
        count = 0
        for k in range(0, n + 1):
            for lam in partitions(k):
                for mu in partitions(n - k):
                    p, q = row_filling_pair(lam, mu)
                    ext, classical, index_map = match_signed_forms(p, q, SEMINORMAL)
                    rel = verify_coxeter(ext)
                    if not rel.ok:
                        bad.append(f"n={n} ({lam},{mu}): {rel.failures[0]}")
                    for g in ext.gens:
                        if not ext.matrices[g].reindexed(index_map).equals(classical.matrices[g]):
                            bad.append(f"n={n} ({lam},{mu}): generator {g} mismatch")
                            break
                    if not is_irreducible(ext):
                        bad.append(f"n={n} ({lam},{mu}): norm != 1")
                    ext_f, classical_f, index_map_f = match_signed_forms(p, q, ORTHOGONAL)
                    if not verify_coxeter(ext_f, tol).ok:
                        bad.append(f"n={n} ({lam},{mu}): float relations fail")
                    for g in ext_f.gens:
                        if not ext_f.matrices[g].reindexed(index_map_f).equals(
                            classical_f.matrices[g], tol
                        ):
                            bad.append(f"n={n} ({lam},{mu}): float generator {g} mismatch")
                            break
                    dims_sq += ext.dim**2
                    count += 1
        expected = 2**n * factorial(n)
        if dims_sq != expected:
            bad.append(f"n={n}: sum of squared dimensions {dims_sq} != {expected}")
        details.append(f"n={n}: {count} pairs verified, sum dim^2 = {dims_sq}")
    return _result("bn", details, bad)


def tops_suite(n_max: int = 5) -> SuiteResult:
    """Oracle top set equals the column-reading candidates; report discrepancies."""
    bad, details = [], []
    for n in range(1, n_max + 1):
        report = top_elements(n)
        if not report.oracle_matches_down:
            bad.append(
                f"n={n}: oracle {sorted(w.one_line() for w in report.oracle)} != "
                f"candidates {sorted(w.one_line() for w in report.candidates_down)}"
            )
        for row in report.rows:
            if not row.is_interval:
                bad.append(f"n={n} shape {row.lam}: cell of the row filling not an interval")
            if not row.irreducible:
                bad.append(f"n={n} shape {row.lam}: representation not irreducible")
            if not row.oracle_certified:
                bad.append(f"n={n} shape {row.lam}: candidate not oracle-certified")
        details.append(
            f"n={n}: p(n)={report.p_n}, distinct candidates={report.distinct_candidates}, "
            f"oracle size={len(report.oracle)}; top-to-bottom column reading matches oracle="
            f"{report.oracle_matches_down}, bottom-to-top matches={report.oracle_matches_up}"
        )
    return _result("tops", details, bad)


def convexity_suite(n_max: int = 5, coord_bound: int = 3,
                    equiv_n_max: int = 4, equiv_bound: int = 2) -> SuiteResult:
    """Descent cells are convex; the two genericity tests coincide."""
    bad, details = [], []
    for n in range(2, n_max + 1):
        refl = reflections(n)
        patterns = set()
        for coords in product(range(-coord_bound, coord_bound + 1), repeat=n):
            A = frozenset(
                t for t in refl if abs(coords[t.j - 1] - coords[t.i - 1]) == 1
            )
            patterns.add(A)
        seen_cells = set()
        convex_count = 0
        for A in sorted(patterns, key=lambda a: (len(a), sorted(a))):
            for cell in descent_partition(n, A):
                key = cell.member_set
                if key in seen_cells:
                    continue
                seen_cells.add(key)
                if not is_convex(cell.members):
                    bad.append(f"n={n}: non-convex descent cell over A={sorted(A)}")
                convex_count += 1
        details.append(
            f"n={n}: {len(patterns)} +-1 patterns, {convex_count} distinct cells convex"
        )
    agree = 0
    for n in range(2, equiv_n_max + 1):
        for coords in product(range(-equiv_bound, equiv_bound + 1), repeat=n):
            f = Functional(coords)
            direct = is_generic_integer(f)
            via_cell = is_generic(f, descent_cell(f, identity(n)))
            if direct != via_cell:
                bad.append(f"f={coords}: integer test {direct} != cell test {via_cell}")
            agree += 1
    details.append(f"{agree} functionals agree on the two genericity tests")
    return _result("convexity", details, bad)


SUITES = {
    "coxeter": coxeter_suite,
    "axiomB": axiom_b_suite,
    "cells": cells_suite,
    "regular": regular_suite,
    "flat": flat_suite,
    "specht": specht_suite,
    "minimal": minimal_suite,
    "induction": induction_suite,
    "bn": bn_suite,
    "tops": tops_suite,
    "convexity": convexity_suite,
}


# The largest n_max each suite runs at under a size bound; `flat` takes none.
_N_MAX_LIMITS = {
    "coxeter": inf,
    "axiomB": inf,
    "cells": inf,
    "regular": inf,
    "specht": inf,
    "minimal": 5,
    "induction": 5,
    "tops": 5,
    "bn": 4,
    "convexity": 5,
}


def run_suites(names, n: int = None, seed: int = 0) -> list:
    """Run the named suites scaled down to the requested size bound."""
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        kwargs = {}
        if n is not None and name in _N_MAX_LIMITS:
            kwargs["n_max"] = min(n, _N_MAX_LIMITS[name])
        if name == "minimal":
            kwargs["seed"] = seed
        results.append(SUITES[name](**kwargs))
    return results
