"""Representation matrices on cells and tableaux, characters, and oracles.

All exact matrices use the seminormal normalization: going up from C_w to
C_{ws} carries off-diagonal coefficient 1, coming back carries 1 - a^2 where
a is the reciprocal pairing of the conjugated reflection.  The orthogonal
variant puts sqrt(1 - a^2) on both sides and is kept in floating point purely
for display and cross-checks; characters agree between the two.

A coefficient depends only on the pairing h, the direction of the step and
the normalization, so `_step_coefficients` is one memoised table shared by
every builder: each distinct coefficient is a single immutable Fraction (or
float) that all matrices hold, and comparing two builds' columns mostly
takes the identity shortcut.  The cell and parabolic builders step on
one-line tuples (w s_i swaps positions i and i+1) rather than on Permutation
objects; the basis they return is still the Permutation members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cells import Functional, boundary_reflections, descent_cell, genericity_violation, _walk_cell
from .errors import GenericityError, PreconditionError
from .groups import (
    Permutation,
    _check_cap,
    braid_order,
    class_data_parabolic,
    class_data_signed,
    identity,
    reduced_word,
    reflection,
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


@lru_cache(maxsize=None)
def _step_coefficients(h, up: bool, normalization: str) -> tuple:
    """Diagonal a = 1/h and neighbor coefficient b for a step with signed pairing h.

    Seminormal: b = 1 going up, 1 - a^2 coming down.  Orthogonal: b = sqrt(1 - a^2)
    both ways.  Memoised: equal arguments return the same shared objects.
    """
    if normalization == SEMINORMAL:
        a = Fraction(1, h)
        return a, (Fraction(1) if up else 1 - a * a)
    a = 1.0 / h
    return a, math.sqrt(1.0 - a * a)


def _two_term_matrices(basis: Sequence, gens: Sequence[int], step) -> dict:
    """Generator matrices sending each basis vector v to a v + b v'.

    `step(v, g)` returns (a, v', b); the b term is dropped when v' is not in
    the basis, and zero coefficients are never stored.  Each column is a
    fresh dict, written diagonal first.
    """
    index = {v: k for k, v in enumerate(basis)}
    mats = {}
    for g in gens:
        cols = {}
        for j, v in enumerate(basis):
            a, neighbor, b = step(v, g)
            col = {j: a} if a else {}
            k = index.get(neighbor)
            if k is not None and b:
                col[k] = b
            if col:
                cols[j] = col
        mats[g] = SquareMatrix(len(basis), cols)
    return mats


def _functional_step(f: Functional, normalization: str):
    """Step on one-line tuples: the pairing of the letters w(g), w(g+1)."""
    coords = f.coords

    def step(img: tuple, g: int) -> tuple:
        x, y = img[g - 1], img[g]
        a, b = _step_coefficients(coords[y - 1] - coords[x - 1], x < y, normalization)
        return a, img[:g - 1] + (y, x) + img[g + 1:], b

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
    mats = _two_term_matrices([w.images for w in cell.members], range(1, n),
                              _functional_step(f, normalization))
    return Representation("A", n, tuple(range(1, n)), cell.members, mats, normalization)


def build_parabolic(f: Functional, J: Sequence[int], n: int,
                    normalization: str = SEMINORMAL) -> Representation:
    """Identity descent cell and matrices inside the parabolic <s_j : j in J>."""
    J = tuple(sorted(set(J)))
    if not set(J) <= set(range(1, n)):
        raise PreconditionError(f"J must be generator indices within 1..{n - 1}")
    _check_cap("A", n)
    members, interior, boundary = _walk_cell(boundary_reflections(f), identity(n), J)
    bad = genericity_violation(f, members, interior, boundary, J)
    if bad is not None:
        raise GenericityError(f"functional not generic for the parabolic cell: {bad[1]}", bad[0])
    mats = _two_term_matrices([w.images for w in members], J, _functional_step(f, normalization))
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
    # Columns are read in place; neighbors are found on the one-line words.
    index = {w.images: k for k, w in enumerate(rep.basis)}
    failures = []
    seen: dict = {}
    for g in rep.gens:
        cols = rep.matrices[g].cols
        for j, w in enumerate(rep.basis):
            img = w.images
            x, y = img[g - 1], img[g]
            k = index.get(img[:g - 1] + (y, x) + img[g + 1:])
            col = cols.get(j, {})
            if len(col) > (j in col) + (k is not None and k in col):
                # steps leaving the basis may only carry the diagonal term
                failures.append(f"s{g} at {w.one_line()}: support outside C_w, C_ws")
                continue
            if k is None:
                continue
            # the ordered letter pair names the reflection w s_g w^-1 and the
            # direction of the step (x < y: it goes up)
            coefficients = (col.get(j, 0), col.get(k, 0))
            if (x, y) in seen and seen[x, y] != coefficients:
                failures.append(
                    f"s{g} at {w.one_line()}: coefficients differ for {reflection(x, y)} going "
                    f"{'up' if x < y else 'down'}"
                )
            seen[x, y] = coefficients
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
        if not isinstance(other, Character):
            return False
        _require_exact((self, other), "characters are compared in exact arithmetic")
        return self.kind == other.kind and self.values == other.values

    def __hash__(self):
        return hash((self.kind, tuple(sorted((k.images, v) for k, v in self.values.items()))))


def character(rep: Representation) -> Character:
    """Trace of one reduced word per conjugacy class representative."""
    data = (class_data_signed(rep.n) if rep.group_type == "B"
            else class_data_parabolic(rep.n, frozenset(rep.gens)))
    values = {}
    for cls_rep in data.reps:
        mats = [rep.matrices[g] for g in reduced_word(cls_rep)]
        values[cls_rep] = word_trace(mats, rep.dim)
    kind = (rep.group_type, rep.n, rep.gens)
    return Character(kind, data.order, values, dict(data.sizes))


def character_value(rep: Representation, element) -> object:
    """Trace of the rep at one element, via a reduced word."""
    return word_trace([rep.matrices[g] for g in reduced_word(element)], rep.dim)


def _require_exact(chars: tuple, what: str) -> None:
    if any(isinstance(v, float) for c in chars for v in c.values.values()):
        raise PreconditionError(what)


def char_inner(c1: Character, c2: Character) -> Fraction:
    """(1/|W|) sum over the group of the product of the two characters, exactly."""
    if c1.kind != c2.kind:
        raise PreconditionError("characters live on different groups")
    _require_exact((c1, c2), "the character inner product is taken in exact arithmetic")
    total = 0
    for rep_element, v in c1.values.items():
        total += c1.sizes[rep_element] * v * c2.values[rep_element]
    return Fraction(total, c1.order)


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
