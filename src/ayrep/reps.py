"""Representation matrices on cells and tableaux, characters, and oracles.

All exact matrices use the seminormal normalization: going up from C_w to
C_{ws} carries off-diagonal coefficient 1, coming back carries 1 - a^2 where
a is the reciprocal pairing of the conjugated reflection.  The orthogonal
variant puts sqrt(1 - a^2) on both sides and is kept in floating point purely
for display and cross-checks; characters agree between the two.  One table,
`_NORMALIZATIONS`, says what each name means (exact or not, and its one), and
`_normalization` refuses any other value before a coefficient is made.

`_step_coefficients` is one memoised table shared by every cell builder, so
each distinct coefficient is one Fraction (or float) that all matrices hold,
and comparing two builds' columns mostly takes the identity shortcut.  It
gives a zero coefficient as None, so it tests each coefficient for zero once.
Every cell builder writes its columns in one pass through `_two_term_matrices`,
which takes zeros as None and calls no number's truth test; the cell and
parabolic builders share one body, `_cell_rep`, which reads each neighbour
w s_g off the step graph of the walked cell and its coefficients off a
table over the letter pairs, and holds one form: the last, once its walked
Cell, f and name are built twice in a row.  The classical forms on tableaux,
which check them, state Young's rule apart, in `_young_matrices`.

`character` traces a class word with distinct letters from the diagonals
when the form is exact and passes `verify_axiom_B`, and pushes every other
word, type B and the float forms included, through `word_trace`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from typing import NamedTuple, Sequence

from .cells import (Cell, Functional, descent_cell, genericity_violation, parabolic_generators,
                    _walk_cell)
from .errors import GenericityError, PreconditionError
from .groups import (
    Permutation,
    _integers,
    braid_order,
    class_data_parabolic,
    class_data_signed,
    identity,
    reduced_word,
    reflection,
)
from .linalg import SquareMatrix, power_is_identity, word_is_identity, word_trace
from .tableaux import SkewShape, enumerate_standard

SEMINORMAL = "seminormal"
ORTHOGONAL = "orthogonal-float"
_NORMALIZATIONS = {SEMINORMAL: (True, Fraction(1)), ORTHOGONAL: (False, 1.0)}  # (exact, one)
_NAMES = tuple(_NORMALIZATIONS)
_last = [(None,), None]  # (cell, f.coords, name) of the last build; its form once built twice


def _normalization(name) -> tuple:
    """(exact, one) of a name; any other value, hashable or not, raises ValueError."""
    if name not in _NAMES:
        raise ValueError(f"unknown normalization {name!r}")
    return _NORMALIZATIONS[name]


class _Representation(NamedTuple):
    n: int  # number of letters
    basis: tuple
    matrices: dict  # generator index -> SquareMatrix
    normalization: str
    gens: tuple  # the matrices' generator indices, in order


class Representation(_Representation):
    """Matrices of the basis's size over an ordered basis of labels: all of s_0..s_(n-1) for
    the signed group, else any of s_1..s_(n-1); checked with the normalization on construction.
    Equal only to itself, and hashed by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    # `_replace` and copies go through __new__, which checks them and reads gens off the matrices
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:4]))
    __getnewargs__ = lambda self: self[:4]

    def __new__(cls, n: int, basis: tuple, matrices: dict, normalization: str):
        _normalization(normalization)
        ints, dim = _integers((n, *matrices)), len(basis)
        k, gens = (ints[0], sorted(ints[1:])) if ints else (0, [])  # k letters
        if k < 1 or (gens != list(range(k)) and gens and (gens[0] < 1 or gens[-1] >= k)) or any(
                getattr(m, "dim", None) != dim for m in matrices.values()):
            raise PreconditionError(
                f"a form on n >= 1 letters needs one dim {dim} matrix per generator, "
                f"all within 1..n-1 or all of 0..n-1: got n={n!r}, {tuple(matrices)}")
        return super().__new__(cls, k, basis, matrices, normalization, tuple(gens))

    @property
    def group_type(self) -> str:
        return "B" if 0 in self.gens else "A"  # only the signed group has s_0

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return _normalization(self.normalization)[0]


@lru_cache(maxsize=None)
def _step_coefficients(h, up: bool, normalization: str) -> tuple:
    """Diagonal a = 1/h and neighbor coefficient b for a step with signed pairing h.

    Seminormal: b = 1 going up, 1 - a^2 coming down.  Orthogonal: b = sqrt(1 - a^2)
    both ways.  A zero b (|h| = 1) is None, as `_two_term_matrices` takes it;
    a is never zero.  Memoised: equal arguments return the same shared objects,
    so each coefficient is tested for zero once.
    """
    exact, one = _normalization(normalization)
    a = one / h
    b = (one if up else one - a * a) if exact else math.sqrt(one - a * a)
    return a, (b if b else None)


def _two_term_matrices(dim: int, columns) -> dict:
    """Generator matrices sending each basis vector v_j to a v_j + b v_k.

    `columns` yields (g, steps), one per generator, each written in one pass
    and dropped before the next: steps yields ((a, b), k) for j = 0, 1, ...,
    k the basis index of the neighbour or None when the step leaves the basis
    (b is then dropped).  A zero coefficient comes as None: the builders test
    each coefficient once where they make it, so no column calls a number's
    truth test, and no zero is stored.  Each column is a fresh dict, written
    diagonal first.
    """
    mats = {}
    for g, steps in columns:
        cols = {}
        for j, ((a, b), k) in enumerate(steps):
            if a is None:
                if k is not None and b is not None:
                    cols[j] = {k: b}
            elif k is None or b is None:
                cols[j] = {j: a}
            else:
                cols[j] = {j: a, k: b}
        mats[g] = SquareMatrix(dim, cols)
    return mats


def _cell_rep(f: Functional, cell: Cell, normalization: str, where: str) -> Representation:
    """The one body of the cell and parabolic builders: a walked descent cell,
    checked generic for f, and its matrices.

    A column takes its neighbour from the walk's step graph and (a, b) from a
    table over the letters x, y that s_g swaps.  Once f is generic, a = 1/h
    != 0 for h = <f, t>, t = w s_g w^-1 (interior pairings avoid 0, boundary
    ones are +-1).  A step inside the cell has t interior: |h| >= 2, so
    1 - a^2 >= 3/4 and b != 0.  A step out crosses a wall: |h| = 1, so b = 0
    (None), but for the seminormal b = 1 going up, dropped with the missing
    neighbour.  The table holds each letter pair's (a, b) once, so a column
    costs a lookup.

    `_last` keys a build on the walked Cell object (`is`), f's coordinates and
    the name; a form built once is never held, so a sweep still frees each one.
    """
    _normalization(normalization)  # refused before any coefficient is made and cached
    key, held = _last
    repeat = key[0] is cell and key[1:] == (f.coords, normalization)
    if repeat and held is not None:
        return held
    bad = genericity_violation(f, cell)
    if bad is not None:
        raise GenericityError(f"functional not generic for {where}: {bad[1]}", bad[0])
    n, gens, c = f.size, cell.gens, f.coords
    table = [[None] * (n + 1) for _ in range(n + 1)]  # (a, b) per letters x, y
    words = [v.images for v in cell.members]

    def coefficients(x: int, y: int) -> tuple:
        ab = table[x][y] = _step_coefficients(c[y - 1] - c[x - 1], x < y, normalization)
        return ab

    def column(p: int, g: int):
        pairs = [table[x][y] or coefficients(x, y) for x, y in map(itemgetter(g - 1, g), words)]
        return zip(pairs, islice(cell.steps, p, None, len(gens)))

    mats = _two_term_matrices(len(words), ((g, column(p, g)) for p, g in enumerate(gens)))
    rep = Representation(n, cell.members, mats, normalization)
    _last[:] = (cell, f.coords, normalization), (rep if repeat else None)
    return rep


def build_from_functional(f: Functional, w: Permutation,
                          normalization: str = SEMINORMAL) -> Representation:
    """The representation carried by the descent cell of w for a generic f.

    Basis vectors are the cell members in (length, word) order; the matrices
    realize each generator as a two-term action per basis vector.
    """
    return _cell_rep(f, descent_cell(f, w), normalization, "the cell")


def build_parabolic(f: Functional, J: Sequence[int],
                    normalization: str = SEMINORMAL) -> Representation:
    """Identity descent cell and matrices inside the parabolic <s_j : j in J> on f's letters."""
    cell = _walk_cell(f, identity(f.size), parabolic_generators(J, f.size)[0])
    return _cell_rep(f, cell, normalization, "the parabolic cell")


def build_orthogonal_skew(shape: SkewShape) -> Representation:
    """Floating-point orthogonal form on a skew shape's standard fillings, by `_young_matrices`."""
    basis = tuple(enumerate_standard(shape))
    words = [_letter_places((q,)) for q in basis]
    return Representation(shape.size, basis, _young_matrices(words, ORTHOGONAL), ORTHOGONAL)


def _letter_places(tableaux: Sequence) -> tuple:
    """Where letters 1..n sit in a sequence of tableaux (None for an empty one):
    the (tableau, row, col) of each letter in turn."""
    places = {v: (side, r, c) for side, t in enumerate(tableaux) if t is not None
              for v, (r, c) in t.positions().items()}
    return tuple(map(places.__getitem__, range(1, len(places) + 1)))


def _young_matrices(words: list, normalization: str) -> dict:
    """s_1..s_(n-1) of Young's classical form on a basis of `_letter_places` words:
    v_w goes to a v_w + b v_w', w' the basis word with entries g and g+1 swapped.

    Letters in two tableaux swap with b = 1 and no a.  In one tableau a = 1/h, h the
    content of g+1 minus that of g, and b = 1 going down a row, else 1 - a^2
    (seminormal), or sqrt(1 - a^2) both ways (orthogonal); |h| = 1 puts g and g+1 side
    by side, so w' is not standard and no zero b is stored.  Words are hashed as tuples
    of place numbers, and each pair of places gets its (a, b) once.
    """
    places = sorted(words[0])  # every word puts its letters on the same places
    number = {place: i for i, place in enumerate(places)}
    words = [tuple(map(number.__getitem__, word)) for word in words]
    index = {word: j for j, word in enumerate(words)}
    exact, one = _normalization(normalization)
    table = [[None] * len(places) for _ in places]  # (a, b) per places x, y
    mats = {}
    for g in range(1, len(places)):
        cols = {}
        for j, word in enumerate(words):
            x, y = word[g - 1], word[g]
            if table[x][y] is None:
                (t1, r1, c1), (t2, r2, c2) = places[x], places[y]
                if t1 != t2:
                    table[x][y] = None, one
                else:
                    a = one / ((c2 - r2) - (c1 - r1))
                    b = (one if r1 < r2 else one - a * a) if exact else math.sqrt(one - a * a)
                    table[x][y] = a, b
            a, b = table[x][y]
            k = index.get(word[:g - 1] + (y, x) + word[g + 1:])
            cols[j] = {k: b} if a is None else {j: a} if k is None else {j: a, k: b}
        mats[g] = SquareMatrix(len(words), cols)
    return mats


# verification ----------------------------------------------------------------


class VerificationReport(NamedTuple):
    ok: bool
    failures: tuple

    def __bool__(self) -> bool:
        return self.ok


def verify_coxeter(rep: Representation) -> VerificationReport:
    """Check involutivity and all braid relations, float matrices within linalg.FLOAT_TOL."""
    failures = []
    gens = list(rep.gens)
    squares = {}  # g -> whether s_g^2 = 1
    for g in gens:
        s = rep.matrices[g]
        # s_g commutes with s_g^2, so it keeps the vectors s_g^2 fixes fixed (used if exact)
        squares[g] = word_is_identity([s, s], closed_under=(s,))
        if not squares[g]:
            failures.append(f"s{g}^2 != 1")
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            g, h = gens[a], gens[b]
            m = braid_order(g, h)
            if rep.is_exact:
                # with both squares 1, s_g and s_h conjugate P = (s_g s_h)^m to P^-1,
                # so they keep its fixed vectors fixed; else every vector is pushed
                pair = (rep.matrices[g], rep.matrices[h])
                closed = pair if squares[g] and squares[h] else ()
                holds = word_is_identity(list(pair) * m, closed_under=closed)
            else:
                # floats form s_g s_h first; the word would round in another order
                holds = power_is_identity(rep.matrices[g] * rep.matrices[h], m)
            if not holds:
                failures.append(f"(s{g} s{h})^{m} != 1")
    return VerificationReport(not failures, tuple(failures))


def _on_permutations(rep: Representation) -> bool:
    """Whether rep is of type A on a basis of permutations of its n letters:
    the forms whose labels `verify_axiom_B` reads."""
    return rep.group_type == "A" and all(
        type(w) is Permutation and w.size == rep.n for w in rep.basis)


def verify_axiom_B(rep: Representation) -> VerificationReport:
    """Check the two-term local action over a permutation-indexed basis.

    Every generator column is supported on the vector itself and its single
    neighbor; coefficients depend only on the conjugated reflection and the
    direction of the step; steps leaving the basis carry no neighbor term.
    It alone reads a column's support against the labels, whatever built the
    matrices, so it guards `character`'s diagonal traces and `induce`'s input
    too.  Any form `_on_permutations` refuses raises PreconditionError.
    Each word is read as one integer, a letter per digit, so neighbors are found
    without a swapped word or the group (the class-sum oracle calls this guard).
    """
    if not _on_permutations(rep):
        raise PreconditionError("the two-term local action is read on type A forms "
                                "over permutations of the n letters")
    # Columns are read in place.  With base 2^bits, w s_g, which swaps x = w(g) and
    # y = w(g+1), reads w's integer + (x - y) (2^bits - 1) 2^(bits (g-1)).
    bits = 8 if rep.n < 256 else 64  # a byte holds a letter up to 255
    keys = [int.from_bytes(bytes(w.images) if bits == 8 else b"".join(
        v.to_bytes(8, "little") for v in w.images), "little") for w in rep.basis]
    index = {m: k for k, m in enumerate(keys)}
    failures, seen, none = [], {}, {}
    for g in rep.gens:
        cols = rep.matrices[g].cols
        step = ((1 << bits) - 1) << bits * (g - 1)
        for j, (w, m) in enumerate(zip(rep.basis, keys)):
            x, y = pair = w.images[g - 1:g + 1]
            k = index.get(m + (x - y) * step)
            col = cols.get(j, none)
            if len(col) > (j in col) + (k in col):
                # steps leaving the basis may only carry the diagonal term
                failures.append(f"s{g} at {w.one_line()}: support outside C_w, C_ws")
                continue
            if k is None:
                continue
            # the ordered letter pair names the reflection w s_g w^-1 and the
            # direction of the step (x < y: it goes up)
            coefficients = (col.get(j, 0), col.get(k, 0))
            if seen.get(pair, coefficients) != coefficients:
                failures.append(
                    f"s{g} at {w.one_line()}: coefficients differ for {reflection(x, y)} going "
                    f"{'up' if x < y else 'down'}"
                )
            seen[pair] = coefficients
    return VerificationReport(not failures, tuple(failures))


# characters -------------------------------------------------------------------


class Character(NamedTuple):
    """Class function determined by values on conjugacy class representatives."""

    kind: tuple
    order: int
    values: dict  # class representative -> value
    sizes: dict  # class representative -> class size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return False
        _require_exact((self, other), "characters are compared in exact arithmetic")
        return self.kind == other.kind and self.values == other.values

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self):
        return hash((self.kind, tuple(sorted((k.images, v) for k, v in self.values.items()))))


def character(rep: Representation) -> Character:
    """Trace of one reduced word per conjugacy class representative.

    When the form is exact and passes `verify_axiom_B`, a word with distinct
    letters is traced along the diagonal: M_g moves the basis vector labelled
    w only to the one labelled w s_g, and no nonempty product of distinct s_g
    is 1, so the word comes back to w along the diagonal alone and its trace
    is the sum over w of the products of the M_g[w, w].  Others are pushed.
    """
    data = (class_data_signed(rep.n) if rep.group_type == "B"
            else class_data_parabolic(rep.n, frozenset(rep.gens)))
    two_term = rep.is_exact and _on_permutations(rep) and verify_axiom_B(rep).ok
    values = {}
    for cls_rep in data.reps:
        word = reduced_word(cls_rep)
        diagonal = two_term and len(set(word)) == len(word)
        values[cls_rep] = word_trace([rep.matrices[g] for g in word], rep.dim, diagonal)
    kind = (rep.group_type, rep.n, rep.gens)
    return Character(kind, data.order, values, dict(data.sizes))


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
    parts = _integers(cycle_type)
    if parts is None or sum(parts) != shape.size or min(parts, default=1) < 1:
        raise PreconditionError("cycle type must have positive parts summing to the shape size")
    return _mn(shape.lam, shape.mu, tuple(sorted(parts, reverse=True)))


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
