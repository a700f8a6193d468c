"""Sweep suites behind `ayrep verify` and the acceptance tests.

Each suite returns a SuiteResult with deterministic detail lines; the CLI
maps failures to a nonzero exit status.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import product
from math import comb, factorial, inf
from typing import NamedTuple

from .cells import (
    BasicFlat,
    Functional,
    boundary_reflections,
    descent_cell,
    descent_classes,
    flat_integer_points,
    flat_partition,
    genericity_violation,
    is_generic,
    is_generic_integer,
    is_minimal_ay_cell,
)
from .groups import (
    _check_cap,
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
    j_intervals,
    match_signed_forms,
    row_filling_pair,
    shuffle_cell,
)
from .linalg import FLOAT_TOL
from .reps import (
    ORTHOGONAL,
    SEMINORMAL,
    build_from_functional,
    build_orthogonal_skew,
    char_inner,
    character,
    is_irreducible,
    mn_character,
    verify_axiom_B,
    verify_coxeter,
)
from .tableaux import (
    check_relabel_bijection,
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


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    details: tuple
    counterexamples: tuple

    def __bool__(self) -> bool:
        return self.ok


def _result(name, details, bad, checked: int):
    """The suite's verdict; `checked` counts what it examined (any measure).

    Only checks scaled by the suite's size bound count; a fixed-size side
    check that runs whatever the bound is does not.  A sweep that examined
    nothing has no verdict to give, so it fails.
    """
    if not checked and not bad:
        return SuiteResult(name, False, (*details, "no checks performed"), ())
    return SuiteResult(name, not bad, tuple(details), tuple(bad))


# Per suite but `flat`, which takes no size: its default n_max, its largest n_max (a
# larger --n is clamped to it), and whether it runs in the shared `_family_sweep`.
_Size = namedtuple("_Size", "default largest family")
SIZES = {
    "coxeter": _Size(5, inf, True),
    "axiomB": _Size(5, inf, True),
    "cells": _Size(6, inf, True),
    "specht": _Size(5, inf, True),
    "regular": _Size(5, inf, False),
    "minimal": _Size(4, 5, False),
    "induction": _Size(5, 5, False),
    "bn": _Size(4, 4, False),
    "tops": _Size(5, 5, False),
    "convexity": _Size(5, 5, False),
}


def _reach(name: str, n_max) -> int:
    """The largest n a suite touches: every flat's, and coxeter's n = 6 sample at n_max = 5."""
    if name == "flat":
        return max(flat.n for flat in sample_flats())
    return 6 if name == "coxeter" and n_max == 5 else n_max


def _family_sweep(sizes: dict) -> dict:
    """The family suites named in `sizes` (name -> n_max) in one pass over
    their shapes; name -> its SuiteResult.  Per shape the exact form on the
    row filling's identity cell is built once, and its basis is the walked
    cell that `cells` reads (a shape that only `cells` needs is walked, not
    built); the form is dropped before `coxeter` builds the float form.
    """
    reach = {name: _reach(name, n_max) for name, n_max in sizes.items()}
    top, sample = reach.get("coxeter", 0), set()  # coxeter's sample past n_max, if it has one:
    if top > sizes.get("coxeter", 0):  # every straight shape, small skews of every 7th
        sample = {*straight_shapes(top), *(shape for shape in skew_shape_family(top)[::7]
                                           if count_standard(shape) <= 40)}
    bad = {name: [] for name in sizes}
    counts = dict.fromkeys(sizes, 0)
    straight = {}  # straight shape -> its traced character, for `specht`
    for n in range(1, max(reach.values(), default=0) + 1):
        for shape in skew_shape_family(n):
            names = [name for name, n_max in sizes.items()
                     if n <= n_max or name == "coxeter" and shape in sample]
            if not names:
                continue
            q = row_tableau(shape)
            f = Functional(content_vector(q))
            rep = build_from_functional(f, identity(n)) if names != ["cells"] else None
            members = descent_cell(f, identity(n)).members if rep is None else rep.basis
            for name in names:
                counts[name] += 1
            if "cells" in names:
                try:
                    check_relabel_bijection(q, members)
                    # straight shapes are also counted independently, by the hook formula
                    if shape.is_straight and len(members) != hook_length_count(shape.lam):
                        raise AssertionError(f"cell size {len(members)} != "
                                             f"{hook_length_count(shape.lam)} fillings")
                except AssertionError as exc:
                    bad["cells"].append(f"{shape}: {exc}")
            if "axiomB" in names:
                report = verify_axiom_B(rep)
                if not report.ok:
                    bad["axiomB"].append(f"{shape}: {report.failures[0]}")
            if "coxeter" in names:
                report = verify_coxeter(rep)
                if not report.ok:
                    bad["coxeter"].append(f"seminormal {shape}: {report.failures[0]}")
            if "specht" in names:
                chi = character(rep)
                if shape.is_straight:
                    straight[shape] = chi
                for cls_rep, value in chi.values.items():
                    expected = mn_character(shape, cls_rep.cycle_type())
                    if value != expected:
                        bad["specht"].append(
                            f"{shape} at class {cls_rep.cycle_type()}: {value} != {expected}")
            del rep, members  # one form alive at a time: the exact one goes before the float one
            if "coxeter" in names:
                report = verify_coxeter(build_orthogonal_skew(shape))
                if not report.ok:
                    bad["coxeter"].append(f"orthogonal {shape}: {report.failures[0]}")
    details = {"coxeter": [f"{counts.get('coxeter')} shapes checked (exact and tol {FLOAT_TOL})"],
               "axiomB": [f"{counts.get('axiomB')} representations checked"],
               "cells": [f"{counts.get('cells')} shapes checked up to n={sizes.get('cells')}"],
               "specht": [f"{counts.get('specht')} skew shapes matched the strip oracle"]}
    if "specht" in sizes:  # the straight characters are the irreducibles
        for n in range(1, sizes["specht"] + 1):
            shapes = straight_shapes(n)
            for shape in shapes:
                if char_inner(straight[shape], straight[shape]) != 1:
                    bad["specht"].append(f"straight {shape}: norm != 1")
            if len({straight[shape] for shape in shapes}) != len(shapes):
                bad["specht"].append(f"n={n}: straight-shape characters not pairwise distinct")
            details["specht"].append(f"n={n}: all {len(shapes)} irreducibles realized")
        dim_sum_max = 6  # the dimension identity needs no built matrices, so it runs past n_max
        for n in range(1, dim_sum_max + 1):
            total = sum(hook_length_count(lam) ** 2 for lam in partitions(n))
            if total != factorial(n):
                bad["specht"].append(f"n={n}: sum of squared dimensions {total} != {factorial(n)}")
        details["specht"].append(f"dimension identity checked up to n={dim_sum_max}")
    return {name: _result(name, details[name], bad[name], counts[name]) for name in sizes}


def coxeter_suite(n_max: int = SIZES["coxeter"].default) -> SuiteResult:
    """Involutions and braid relations, exact seminormal and float orthogonal."""
    return _family_sweep({"coxeter": n_max})["coxeter"]


def axiom_b_suite(n_max: int = SIZES["axiomB"].default) -> SuiteResult:
    """Two-term local action on every cell representation of the sweep."""
    return _family_sweep({"axiomB": n_max})["axiomB"]


def cells_suite(n_max: int = SIZES["cells"].default) -> SuiteResult:
    """Cell sizes equal standard-filling counts; relabel map is a bijection."""
    return _family_sweep({"cells": n_max})["cells"]


def regular_suite(n_max: int = SIZES["regular"].default) -> SuiteResult:
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
    return _result("regular", details, bad, len(details))


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


def _same_matrices(a, b) -> bool:
    """The same form, or the same generator matrix entries on bases the caller found equal."""
    return a is b or a.matrices.keys() == b.matrices.keys() and all(
        m.cols == b.matrices[g].cols for g, m in a.matrices.items())


def flat_suite() -> SuiteResult:
    """Characters agree across generic functionals on a flat and base elements.

    Every base element of the cell is walked and built, and a repeat on the
    held cell returns the held form; the character is traced again only when
    the matrices differ from the form last built for the same functional.
    """
    bad, details = [], []
    points_needed = 3  # generic functionals per cell
    flats = sample_flats()
    for flat in flats:
        cells = flat_partition(flat)
        used_cells = 0
        for cell in cells:
            if used_cells >= 2:
                break
            generics = []
            for f in flat_integer_points(flat, 6):
                if genericity_violation(f, cell) is None:
                    generics.append(f)
                    if len(generics) >= points_needed:
                        break
            if len(generics) < points_needed:
                continue
            used_cells += 1
            words = [w.images for w in cell.members]  # compared as words: no __eq__ per member
            tables = []
            for f in generics:
                traced = None  # the form last built for this f, and its character
                for v in cell.members:
                    rep = build_from_functional(f, v, SEMINORMAL)
                    if [w.images for w in rep.basis] != words:  # both in (length, word) order
                        bad.append(f"{flat}: cell drift for f={f!r}, v={v.one_line()}")
                        continue
                    same = traced is not None and _same_matrices(rep, traced[0])
                    traced = (rep, traced[1] if same else character(rep))
                    tables.append((f, v, traced[1]))
            for f, v, chi in tables[1:]:  # none when every build drifted
                if chi != tables[0][2]:
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
    return _result("flat", details, bad, len(flats))


def specht_suite(n_max: int = SIZES["specht"].default) -> SuiteResult:
    """Built characters equal the border-strip oracle; irreducibles realized."""
    return _family_sweep({"specht": n_max})["specht"]


def _brute_minimal_family(n: int) -> set:
    """All translated cells sigma * B_Q, by direct relabel standardness.

    Each B_Q adds its whole left orbit {sigma * B_Q}, so a B_Q already in the
    family has its orbit there too and is skipped.
    """
    group = sym_group(n)
    family = set()
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            members = relabel_cell(q)
            if members not in family:
                family.update(frozenset(sigma * w for w in members) for sigma in group)
    return family


def minimal_suite(n_max: int = SIZES["minimal"].default, seed: int = 0) -> SuiteResult:
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
            for _ in range(150):
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
    return _result("minimal", details, bad, len(details))


def induction_suite(n_max: int = SIZES["induction"].default) -> SuiteResult:
    """Induced matrices vs the Frobenius class-sum character; shuffle sizes."""
    bad, details = [], []
    checked = 0
    for n in range(2, n_max + 1):
        for mask in range((1 << (n - 1)) - 1):  # every J but the full generator set, the last mask
            J = [g for g in range(1, n) if mask >> (g - 1) & 1]
            for combo in product(*(partitions(b - a + 1) for a, b in j_intervals(J))):
                psi = build_parabolic_from_shapes(J, n, list(combo))
                induced = induce(psi)
                if not verify_coxeter(induced).ok:
                    bad.append(f"n={n} J={J} {combo}: induced matrices break relations")
                    continue
                chi = character(induced)
                oracle = classical_induced_character(psi)
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
    return _result("induction", details, bad, checked + size_checked)


def _check_signed_pair(p, q, form: str) -> tuple:
    """The signed form of (p, q), its `bn` JSON verdicts, and one line per
    failed check: the relations, an entrywise match with the classical pair
    form, and norm 1 when exact.  The pair passes when no line is returned."""
    ext, classical, index_map = match_signed_forms(p, q, form)
    rel = verify_coxeter(ext)
    mismatch = next((g for g in ext.gens if not ext.matrices[g].reindexed(index_map)
                     .equals(classical.matrices[g])), None)
    irreducible = is_irreducible(ext) if ext.is_exact else None
    failures = [rel.failures[0]] if not rel.ok else []
    if mismatch is not None:
        failures.append(f"generator {mismatch} mismatch")
    if irreducible is False:
        failures.append("norm != 1")
    checks = {"coxeter_ok": rel.ok, "classical_match": mismatch is None,
              "irreducible": irreducible}
    return ext, checks, failures


def bn_suite(n_max: int = SIZES["bn"].default) -> SuiteResult:
    """Signed-group forms: relations, entrywise match, dimensions, norms."""
    bad, details = [], []
    for n in range(1, n_max + 1):
        dims_sq = 0
        count = 0
        for k in range(0, n + 1):
            for lam in partitions(k):
                for mu in partitions(n - k):
                    p, q = row_filling_pair(lam, mu)
                    for form in (SEMINORMAL, ORTHOGONAL):
                        ext, _, failures = _check_signed_pair(p, q, form)
                        bad.extend(f"n={n} ({lam},{mu}) {form}: {x}" for x in failures)
                    dims_sq += ext.dim**2
                    count += 1
        expected = 2**n * factorial(n)
        if dims_sq != expected:
            bad.append(f"n={n}: sum of squared dimensions {dims_sq} != {expected}")
        details.append(f"n={n}: {count} pairs verified, sum dim^2 = {dims_sq}")
    return _result("bn", details, bad, len(details))


def _tops_failures(report) -> list:
    """One line per failed check of a `top_elements` report; it passes when empty."""
    n, bad = report.n, []
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
    return bad


def tops_suite(n_max: int = SIZES["tops"].default) -> SuiteResult:
    """Oracle top set equals the column-reading candidates; report discrepancies."""
    bad, details = [], []
    for n in range(1, n_max + 1):
        report = top_elements(n)
        bad.extend(_tops_failures(report))
        details.append(
            f"n={n}: p(n)={report.p_n}, distinct candidates={report.distinct_candidates}, "
            f"oracle size={len(report.oracle)}; top-to-bottom column reading matches oracle="
            f"{report.oracle_matches_down}, bottom-to-top matches={report.oracle_matches_up}"
        )
    return _result("tops", details, bad, len(details))


def convexity_suite(n_max: int = SIZES["convexity"].default) -> SuiteResult:
    """Descent cells are convex; the two genericity tests coincide."""
    bad, details, checked = [], [], 0
    for n in range(2, n_max + 1):
        refl = reflections(n)
        # each vector of [-3, 3]^n shifts, pairings kept, to one with minimum -3
        patterns = {frozenset(t for t in refl if abs(coords[t.j - 1] - coords[t.i - 1]) == 1)
                    for coords in product(range(-3, 4), repeat=n) if -3 in coords}
        seen_cells = set()
        convex_count = 0
        for A in sorted(patterns, key=lambda a: (len(a), sorted(a))):
            for members in descent_classes(n, A):
                key = tuple([w.images for w in members])  # members come in group order
                if key in seen_cells:
                    continue
                seen_cells.add(key)
                if is_convex(members):
                    convex_count += 1
                else:
                    bad.append(f"n={n}: non-convex descent cell over A={sorted(A)}")
        checked += len(seen_cells)
        details.append(f"n={n}: {len(patterns)} +-1 patterns, {convex_count} distinct cells convex")
    agree = 0
    for n in range(2, min(4, n_max) + 1):
        walked = {}  # the identity cell of f depends on f only through its +-1 pattern
        for coords in product(range(-2, 3), repeat=n):
            f = Functional(coords)
            direct = is_generic_integer(f)
            pattern = boundary_reflections(f)
            if pattern not in walked:
                walked[pattern] = descent_cell(f, identity(n))
                is_generic(f, walked[pattern])  # the cell's preconditions, checked once
            via_cell = genericity_violation(f, walked[pattern]) is None
            if direct != via_cell:
                bad.append(f"f={coords}: integer test {direct} != cell test {via_cell}")
            agree += 1
    details.append(f"{agree} functionals agree on the two genericity tests")
    return _result("convexity", details, bad, checked + agree)


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


def run_suites(names, n: int = None, seed: int = 0) -> list:
    """Run the named suites scaled down to the size bound, each size capped before any runs."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {sorted(SUITES)}")
    sizes = {name: SIZES[name].default if n is None else min(n, SIZES[name].largest)
             for name in names if name in SIZES}
    for name in names:
        _check_cap("A", _reach(name, sizes.get(name)))
    family = _family_sweep({name: size for name, size in sizes.items() if SIZES[name].family})
    results = []
    for name in names:
        kwargs = {"n_max": sizes[name]} if name in sizes else {}
        if name == "minimal":
            kwargs["seed"] = seed
        results.append(family[name] if name in family else SUITES[name](**kwargs))
    return results
