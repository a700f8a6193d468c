"""Induction of cell representations, shuffle cells, and the signed-group forms.

The signed group acts on the shuffle basis of a pair of tableaux: generators
1..n-1 are `induce` applied to the pair's cell representation of the Young
subgroup S_k x S_(n-k), and the extra generator adds one sign, diagonal and
depending on where the first letter sits.  The same representation also has a
classical description on pairs of tableaux over all letter splittings; the
`bn` suite compares the two entrywise, which checks `induce`'s matrices too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .cells import Functional, descent_cell, minimal_coset_reps, parabolic_generators
from .errors import PreconditionError
from .groups import (_integers, _letter_blocks, _shown, class_data_parabolic, class_data_symmetric,
                     identity)
from .linalg import SquareMatrix
from .reps import (SEMINORMAL, Representation, _letter_places, _normalization, _two_term_matrices,
                   _young_matrices, build_parabolic, character, verify_axiom_B)
from .tableaux import (
    SkewShape,
    Tableau,
    content_vector,
    enumerate_standard,
    map_entries,
    row_tableau,
)


def j_intervals(J: Sequence[int]) -> list:
    """Letter intervals [a, b] of the maximal runs of consecutive generators,
    once J is positive integers by `groups._integers`."""
    given = _shown(J)
    ints = _integers(given)
    if ints is None or min(ints, default=1) < 1:
        raise PreconditionError(f"J must be positive generator indices, got {given}")
    J = set(ints)
    return [(a, b) for a, b in _letter_blocks(max(J, default=0) + 1, J) if a < b]


def parabolic_functional(J: Sequence[int], n: int, shapes: Sequence) -> Functional:
    """Coordinates whose restriction to each generator run matches a shape.

    `shapes[t]` is a partition of the size of the t-th letter interval; its
    row-major filling provides the contents.  Letters outside every run get 0
    (they pair with nothing inside the parabolic).
    """
    J, n = parabolic_generators(J, n)
    intervals, shapes = j_intervals(J), _shown(shapes)
    if not isinstance(shapes, tuple) or len(shapes) != len(intervals):
        raise PreconditionError(f"need one shape per generator run ({len(intervals)})")
    coords = [0] * n
    for (a, b), lam in zip(intervals, shapes):
        shape = SkewShape(lam)
        if shape.size != b - a + 1:
            raise PreconditionError(f"shape {lam} does not fill letters {a}..{b}")
        coords[a - 1 : b] = content_vector(row_tableau(shape))
    return Functional(coords)


def build_parabolic_from_shapes(J: Sequence[int], n: int, shapes: Sequence,
                                normalization: str = SEMINORMAL) -> Representation:
    return build_parabolic(parabolic_functional(J, n, shapes), J, normalization)


def induce(psi: Representation) -> Representation:
    """Extend a parabolic cell representation to the full group.

    Vector i*R + t is m*r_t, m = psi.basis[i], for the R minimal coset
    representatives r_t in (length, word) order.  A generator s moves r_t, or
    folds back as s_j in r_t s = s_j r_t (Deodhar's lemma) and reads psi's column
    of s_j at i, which `verify_axiom_B` limits to rows i and k, m*s_j = psi.basis[k].
    """
    axiom = verify_axiom_B(psi)  # refuses any form outside its domain too
    if not axiom.ok:
        raise PreconditionError(f"input violates the two-term local action: {axiom.failures[0]}")
    reps_sorted = sorted(minimal_coset_reps(psi.n, psi.gens), key=lambda r: r.sort_key())
    R = len(reps_sorted)
    position = {r.images: t for t, r in enumerate(reps_sorted)}
    one = _normalization(psi.normalization)[1]

    def steps(s: int):
        # r s is no representative exactly when it is s_j r, for j = min(r(s), r(s+1))
        moves = [(position.get(r.times_simple(s).images), psi.matrices.get(min(r(s), r(s + 1))))
                 for r in reps_sorted]
        for i in range(psi.dim):
            for t, (u, fold) in enumerate(moves):
                if u is not None:
                    yield (None, one), i * R + u
                    continue
                col = fold.cols.get(i, {})
                b, k = next(((v, row) for row, v in col.items() if row != i), (0, None))
                yield (col.get(i) or None, b or None), None if k is None else k * R + t

    mats = _two_term_matrices(psi.dim * R, ((s, steps(s)) for s in range(1, psi.n)))
    basis = tuple(m * r for m in psi.basis for r in reps_sorted)
    return Representation(psi.n, basis, mats, psi.normalization)


def classical_induced_character(psi: Representation) -> dict:
    """Induced character by Frobenius' class-sum formula, as the matrix-free oracle.

    Ind chi(g) = |S_n| / (|S_J| |g^{S_n}|) * sum |c| chi(c), over the classes c
    of S_J whose elements have g's cycle type.  Returns a map from full-group
    class representatives to exact values.

    >>> psi = build_parabolic_from_shapes([1], 3, [(2,)])
    >>> list(classical_induced_character(psi).values())
    [Fraction(0, 1), Fraction(1, 1), Fraction(3, 1)]
    """
    if psi.group_type != "A" or not psi.is_exact:
        raise PreconditionError("the induced character is taken of type A, in exact arithmetic")
    sub = class_data_parabolic(psi.n, frozenset(psi.gens))
    full = class_data_symmetric(psi.n)
    chi = character(psi).values
    out = {}
    for g in full.reps:
        total = sum(sub.sizes[c] * chi[c] for c in sub.reps if c.cycle_type() == g.cycle_type())
        out[g] = Fraction(full.order * total, sub.order * full.sizes[g])
    return out


# shuffle cells and the signed group -------------------------------------------


def _letters(t: Optional[Tableau]) -> set:
    return set(t.positions()) if t is not None else set()


def row_filling_pair(lam: Sequence[int], mu: Sequence[int]) -> tuple:
    """Row fillings of lam on letters 1..k and of mu on letters k+1..n, both
    shapes checked first.  An empty shape gives None in its slot."""
    first = SkewShape(lam)
    try:
        second = SkewShape(mu)
    except ValueError as exc:  # a straight shape's errors name lambda's parts; these are mu's
        raise ValueError(str(exc).replace("lambda and mu", "mu").replace("lambda", "mu")) from None
    p, q = (row_tableau(shape) if shape.size else None for shape in (first, second))
    if q is not None:
        q = map_entries(q, {e: e + first.size for e in q.positions()})
    return p, q


def _pair_functional(p: Optional[Tableau], q: Optional[Tableau]) -> tuple:
    """(k, n, f): p's contents on letters 1..k, then q's contents shifted by
    max(c_p) - min(c_q) + 2, so that no pairing across the two letter blocks
    is 0 or +-1."""
    k = p.size if p is not None else 0
    n = k + (q.size if q is not None else 0)
    if n == 0:
        raise PreconditionError("the signed group needs at least one letter")
    if _letters(p) != set(range(1, k + 1)) or _letters(q) != set(range(k + 1, n + 1)):
        raise PreconditionError("tableaux must cover the letter intervals 1..k and k+1..n")
    cp = content_vector(p) if p is not None else ()
    cq = content_vector(map_entries(q, {e: e - k for e in q.positions()})) if q is not None else ()
    shift = max(cp) - min(cq) + 2 if cp and cq else 0
    return k, n, Functional(cp + tuple(c + shift for c in cq))


def shuffle_cell(p: Tableau, q: Optional[Tableau]) -> set:
    """All products a*b*w of p's cell on letters 1..k, q's cell on letters
    k+1..n, and a minimal coset representative w of S_k x S_(n-k).

    That is the identity descent cell of the pair functional.  Since w^-1
    increases on each letter block, x^-1 orders each block as a^-1 and b^-1
    do, for x = a*b*w.
    """
    _, n, f = _pair_functional(p, q)
    return set(descent_cell(f, identity(n)).members)


def extend_to_bn(p: Tableau, q: Optional[Tableau],
                 normalization: str = SEMINORMAL) -> Representation:
    """Signed-group representation on the shuffle basis of (p, q).

    Generators 1..n-1 are the representation induced from the cell of (p, q)
    in S_k x S_(n-k), on its basis in (length, word) order; the parabolic walk
    never pairs letters across the two blocks, so the shift of the pair
    functional plays no part.  Generator 0 is diagonal with sign +1 exactly
    when the first position holds a letter of p.
    """
    k, n, f = _pair_functional(p, q)
    induced = induce(build_parabolic(f, [g for g in range(1, n) if g != k], normalization))
    basis = tuple(sorted(induced.basis, key=lambda w: w.sort_key()))
    position = {w: j for j, w in enumerate(basis)}
    index_map = [position[w] for w in induced.basis]
    one = _normalization(normalization)[1]
    mats = {0: SquareMatrix(len(basis), {j: {j: one if w(1) <= k else -one}
                                         for j, w in enumerate(basis)})}
    for g, m in induced.matrices.items():
        mats[g] = m.reindexed(index_map)
    return Representation(n, basis, mats, normalization)


def signed_pair_basis(lam: Sequence[int], mu: Sequence[int]) -> tuple:
    """All pairs of standard tableaux of the two shapes over letter splittings."""
    p, q = row_filling_pair(lam, mu)
    k, n, _ = _pair_functional(p, q)  # refuses the empty pair
    fill_a = enumerate_standard(p.shape) if k else [None]
    fill_b = enumerate_standard(q.shape) if n - k else [None]
    basis = []
    for subset in combinations(range(1, n + 1), k):
        complement = tuple(v for v in range(1, n + 1) if v not in subset)
        for fa in fill_a:
            ta = map_entries(fa, {e: subset[e - 1] for e in fa.positions()}) if fa else None
            for fb in fill_b:
                tb = map_entries(fb, {e: complement[e - 1] for e in fb.positions()}) if fb else None
                basis.append((ta, tb))
    return tuple(basis)


def bn_classical(lam: Sequence[int], mu: Sequence[int],
                 normalization: str = SEMINORMAL) -> Representation:
    """The classical orthogonal form of the signed group on tableau pairs.

    Generators 1..n-1 are Young's classical form on the pairs' letter places,
    by `reps._young_matrices`; the extra generator is diagonal with sign +1
    exactly when letter 1 sits in the first tableau.
    """
    basis = signed_pair_basis(lam, mu)
    words = [_letter_places(pair) for pair in basis]
    one = _normalization(normalization)[1]
    mats = {0: SquareMatrix(len(basis), {j: {j: one if word[0][0] == 0 else -one}
                                         for j, word in enumerate(words)}),
            **_young_matrices(words, normalization)}
    return Representation(len(words[0]), basis, mats, normalization)


def match_signed_forms(p: Tableau, q: Optional[Tableau],
                       normalization: str = SEMINORMAL):
    """Index map aligning the shuffle-basis form with the classical pair form.

    Basis element sigma corresponds to the pair with every letter e replaced
    by sigma^{-1}(e).  Returns (shuffle_rep, classical_rep, index_map) where
    index_map[j] is the classical index of shuffle basis vector j.
    """
    if any(t is not None and not t.shape.is_straight for t in (p, q)):
        raise PreconditionError("the classical pair form needs straight shapes")
    ext = extend_to_bn(p, q, normalization)
    lam = p.shape.lam if p is not None else ()
    mu = q.shape.lam if q is not None else ()
    classical = bn_classical(lam, mu, normalization)
    cl_index = {_letter_places(pair): j for j, pair in enumerate(classical.basis)}
    # the pair of sigma puts letter k where (p, q) has the letter sigma(k)
    home = _letter_places((p, q))
    index_map = [cl_index[tuple(home[x - 1] for x in sigma.images)] for sigma in ext.basis]
    return ext, classical, index_map
