"""Representation matrices on cells and tableaux, characters, and oracles.

All exact matrices use the seminormal normalization: going up from C_w to
C_{ws} carries off-diagonal coefficient 1, coming back carries 1 - a^2 where
a is the reciprocal pairing of the conjugated reflection.  The orthogonal
variant puts sqrt(1 - a^2) on both sides and is kept in floating point purely
for display and cross-checks; characters agree between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cells import Functional, boundary_reflections, descent_cell, genericity_violation, _reflection_sets
from .errors import GenericityError, PreconditionError
from .groups import (
    ClassData,
    Permutation,
    _check_cap,
    braid_order,
    class_data_parabolic,
    class_data_signed,
    class_data_symmetric,
    conjugated_reflection,
    left_descents_in,
    parabolic_elements,
    reduced_word,
    signed_reduced_word,
)
from .linalg import SquareMatrix, power_is_identity, word_trace
from .tableaux import SkewShape, Tableau, enumerate_standard

SEMINORMAL = "seminormal"
ORTHOGONAL = "orthogonal-float"
FLOAT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator matrices over an ordered basis of labels."""

    group_type: str  # "A" or "B"
    n: int  # number of letters
    gens: tuple  # generator indices; "A": within 1..n-1, "B": 0..n-1
    basis: tuple
    matrices: dict  # generator index -> SquareMatrix
    normalization: str

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return self.normalization == SEMINORMAL


def _step_coefficients(h, up: bool, normalization: str) -> tuple:
    """Diagonal a = 1/h and neighbor coefficient b for a step with signed pairing h.

    Seminormal: b = 1 going up, 1 - a^2 coming down.  Orthogonal: b = sqrt(1 - a^2)
    both ways.
    """
    if normalization == SEMINORMAL:
        a = Fraction(1, h)
        return a, (Fraction(1) if up else 1 - a * a)
    a = 1.0 / h
    return a, math.sqrt(1.0 - a * a)


def _two_term_matrices(basis: Sequence, gens: Sequence[int], step) -> dict:
    """Generator matrices sending each basis vector v to a v + b v'.

    `step(v, g)` returns (a, v', b); the b term is dropped when v' is not in
    the basis.
    """
    index = {v: k for k, v in enumerate(basis)}
    mats = {}
    for g in gens:
        m = SquareMatrix(len(basis))
        for j, v in enumerate(basis):
            a, neighbor, b = step(v, g)
            m.set_entry(j, j, a)
            if neighbor in index:
                m.set_entry(index[neighbor], j, b)
        mats[g] = m
    return mats


def _functional_step(f: Functional, normalization: str):
    """Step on permutations: the pairing of the letters w(g), w(g+1)."""
    coords = f.coords

    def step(w: Permutation, g: int) -> tuple:
        x, y = w.images[g - 1], w.images[g]
        a, b = _step_coefficients(coords[y - 1] - coords[x - 1], x < y, normalization)
        return a, w.times_simple(g), b

    return step


def build_from_functional(f: Functional, w: Permutation,
                          normalization: str = SEMINORMAL) -> Representation:
    """The representation carried by the descent cell of w for a generic f.

    Basis vectors are the cell members in (length, word) order; the matrices
    realize each generator as a two-term action per basis vector.
    """
    if normalization not in (SEMINORMAL, ORTHOGONAL):
        raise ValueError(f"unknown normalization {normalization!r}")
    cell = descent_cell(f, w)
    bad = genericity_violation(f, cell.members, cell.interior, cell.boundary)
    if bad is not None:
        raise GenericityError(f"functional not generic for the cell: {bad[1]}", bad[0])
    n = f.size
    mats = _two_term_matrices(cell.members, range(1, n), _functional_step(f, normalization))
    return Representation("A", n, tuple(range(1, n)), cell.members, mats, normalization)


def build_parabolic(f: Functional, J: Sequence[int], n: int,
                    normalization: str = SEMINORMAL) -> Representation:
    """Identity descent cell and matrices inside the parabolic <s_j : j in J>."""
    J = tuple(sorted(set(J)))
    if not set(J) <= set(range(1, n)):
        raise PreconditionError(f"J must be generator indices within 1..{n - 1}")
    _check_cap("A", n)
    A = boundary_reflections(f)
    elements = parabolic_elements(n, frozenset(J))
    members = tuple(
        sorted(
            (v for v in elements if not left_descents_in(A, v)),
            key=lambda u: u.sort_key(),
        )
    )
    interior, boundary = _reflection_sets(list(members), J)
    bad = genericity_violation(f, members, interior, boundary, J)
    if bad is not None:
        raise GenericityError(f"functional not generic for the parabolic cell: {bad[1]}", bad[0])
    mats = _two_term_matrices(members, J, _functional_step(f, normalization))
    return Representation("A", n, J, members, mats, normalization)


def _swap_adjacent(q: Tableau, i: int) -> Tableau:
    rows = tuple(
        tuple(i + 1 if v == i else i if v == i + 1 else v for v in row) for row in q.rows
    )
    return Tableau(q.shape, rows)


def build_orthogonal_skew(shape: SkewShape) -> Representation:
    """Floating-point orthogonal form on the standard fillings of a skew shape.

    Each generator sends v_Q to (1/h) v_Q + sqrt(1 - 1/h^2) v_{Q'} where h is
    the content difference of i+1 and i in Q and Q' swaps them; the second
    term drops when the swap is not standard (|h| = 1).
    """
    basis = tuple(enumerate_standard(shape))
    n = shape.size

    def step(q: Tableau, g: int) -> tuple:
        pos = q.positions()
        (r1, c1), (r2, c2) = pos[g], pos[g + 1]
        a, b = _step_coefficients((c2 - r2) - (c1 - r1), r1 < r2, ORTHOGONAL)
        return a, _swap_adjacent(q, g), b

    mats = _two_term_matrices(basis, range(1, n), step)
    return Representation("A", n, tuple(range(1, n)), basis, mats, ORTHOGONAL)


# verification ----------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple

    def __bool__(self) -> bool:
        return self.ok


def verify_coxeter(rep: Representation, tol: float = FLOAT_TOL) -> VerificationReport:
    """Check involutivity and all braid relations of the generator matrices."""
    tolerance = None if rep.is_exact else tol
    failures = []
    gens = list(rep.gens)
    for g in gens:
        if not power_is_identity(rep.matrices[g], 2, tolerance):
            failures.append(f"s{g}^2 != 1")
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            g, h = gens[a], gens[b]
            m = braid_order(rep.group_type, g, h)
            prod = rep.matrices[g] * rep.matrices[h]
            if not power_is_identity(prod, m, tolerance):
                failures.append(f"(s{g} s{h})^{m} != 1")
    return VerificationReport(not failures, tuple(failures))


def verify_axiom_B(rep: Representation) -> VerificationReport:
    """Check the two-term local action over a permutation-indexed basis.

    Every generator column is supported on the vector itself and its single
    neighbor; coefficients depend only on the conjugated reflection and the
    direction of the step; steps leaving the basis carry no neighbor term.
    """
    if rep.group_type != "A":
        raise PreconditionError("local-action verification is defined for type A bases")
    index = {w: k for k, w in enumerate(rep.basis)}
    failures = []
    seen: dict = {}
    for g in rep.gens:
        m = rep.matrices[g]
        for j, w in enumerate(rep.basis):
            ws = w.times_simple(g)
            col = m.column(j)
            allowed = {j} | ({index[ws]} if ws in index else set())
            if not set(col) <= allowed:
                # steps leaving the basis may only carry the diagonal term
                failures.append(f"s{g} at {w.one_line()}: support outside C_w, C_ws")
                continue
            a = col.get(j, 0)
            b = col.get(index[ws], 0) if ws in index else 0
            t = conjugated_reflection(w, g)
            direction = w.length() < ws.length()
            key = (t, direction)
            if ws in index:
                if key in seen and seen[key] != (a, b):
                    failures.append(
                        f"s{g} at {w.one_line()}: coefficients differ for {t} going "
                        f"{'up' if direction else 'down'}"
                    )
                seen[key] = (a, b)
    return VerificationReport(not failures, tuple(failures))


# characters -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Character:
    """Class function determined by values on conjugacy class representatives."""

    kind: tuple
    order: int
    values: dict  # class representative -> value
    sizes: dict  # class representative -> class size

    @property
    def dimension(self):
        for rep_element, value in self.values.items():
            if rep_element.is_identity():
                return value
        raise KeyError("no identity class")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.kind == other.kind
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.kind, tuple(sorted((k.images, v) for k, v in self.values.items()))))


def _class_data_for(rep: Representation) -> ClassData:
    if rep.group_type == "B":
        return class_data_signed(rep.n)
    if rep.gens == tuple(range(1, rep.n)):
        return class_data_symmetric(rep.n)
    return class_data_parabolic(rep.n, frozenset(rep.gens))


def _word_for(rep: Representation, element) -> tuple:
    if rep.group_type == "B":
        return signed_reduced_word(element)
    return reduced_word(element)


def character(rep: Representation) -> Character:
    """Trace of one reduced word per conjugacy class representative."""
    data = _class_data_for(rep)
    values = {}
    for cls_rep in data.reps:
        word = _word_for(rep, cls_rep)
        mats = [rep.matrices[g] for g in word]
        values[cls_rep] = word_trace(mats, rep.dim)
    kind = (rep.group_type, rep.n, rep.gens)
    return Character(kind, data.order, values, dict(data.sizes))


def character_value(rep: Representation, element) -> object:
    """Trace of the rep at one element, via a reduced word."""
    word = _word_for(rep, element)
    return word_trace([rep.matrices[g] for g in word], rep.dim)


def char_inner(c1: Character, c2: Character) -> Fraction:
    """(1/|W|) sum over the group of the product of the two characters."""
    if c1.kind != c2.kind:
        raise PreconditionError("characters live on different groups")
    total = 0
    for rep_element, v in c1.values.items():
        total += c1.sizes[rep_element] * v * c2.values[rep_element]
    if isinstance(total, Fraction) or isinstance(total, int):
        return Fraction(total, c1.order)
    return total / c1.order


def is_irreducible(rep: Representation) -> bool:
    if not rep.is_exact:
        raise PreconditionError("irreducibility is decided in exact arithmetic")
    chi = character(rep)
    return char_inner(chi, chi) == 1


# skew character oracle --------------------------------------------------------


def mn_character(shape: SkewShape, cycle_type: Sequence[int]) -> int:
    """Skew character value by the border-strip recursion.

    Independent of any matrix construction; for straight shapes this is the
    classical irreducible character.
    """
    cycle_type = tuple(sorted((int(p) for p in cycle_type), reverse=True))
    if sum(cycle_type) != shape.size:
        raise PreconditionError("cycle type size must match the shape size")
    return _mn(shape.lam, shape.mu, cycle_type)


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple, alpha: tuple) -> int:
    lam = _strip(lam)
    mu = _strip(mu)
    if not alpha:
        return 1
    k, rest = alpha[0], alpha[1:]
    total = 0
    for nu, height in _border_strips(lam, mu, k):
        total += (-1) ** height * _mn(nu, mu, rest)
    return total


def _strip(parts: tuple) -> tuple:
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _border_strips(lam: tuple, mu: tuple, k: int):
    """Removable connected strips of size k leaving a shape containing mu."""
    rows = len(lam)
    mu_pad = tuple(mu) + (0,) * (rows - len(mu))
    for a in range(1, rows + 1):
        for b in range(a, rows + 1):
            nu = list(lam)
            ok = True
            for i in range(a, b):  # rows a..b-1 (1-based)
                nu[i - 1] = lam[i] - 1
                if nu[i - 1] < mu_pad[i - 1]:
                    ok = False
                    break
            if not ok:
                continue
            nu_b = lam[a - 1] + (b - a) - k
            lam_next = lam[b] if b < rows else 0
            if nu_b < max(lam_next, mu_pad[b - 1]) or nu_b > lam[b - 1] - 1:
                continue
            nu[b - 1] = nu_b
            if all(nu[i] >= nu[i + 1] for i in range(rows - 1)):
                yield tuple(nu), b - a
