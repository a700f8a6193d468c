"""Induction of cell representations, shuffle cells, and the signed-group forms.

The signed group acts on the shuffle basis of a pair of tableaux: the extra
generator is diagonal with sign depending on where the first letter sits, the
others act exactly as the induced symmetric-group representation.  The same
representation also has a classical description on pairs of tableaux over all
letter splittings; the two are compared entrywise in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .cells import Functional
from .errors import PreconditionError
from .groups import (
    Permutation,
    block_cycle_type,
    class_data_symmetric,
    identity,
    minimal_coset_reps,
    parabolic_elements,
    sym_group,
)
from .linalg import SquareMatrix
from .reps import (
    SEMINORMAL,
    Representation,
    _step_coefficients,
    _two_term_matrices,
    character,
    verify_axiom_B,
)
from .tableaux import (
    SkewShape,
    Tableau,
    content_vector,
    enumerate_standard,
    map_entries,
    relabel_cell,
    row_tableau,
)


def j_intervals(J: Sequence[int]) -> list:
    """Letter intervals [a, b] of the maximal runs of consecutive generators."""
    J = sorted(set(J))
    out = []
    while J:
        start = J[0]
        end = start
        while J and J[0] == end:
            J.pop(0)
            end += 1
        out.append((start, end))  # letters start..end
    return out


def parabolic_functional(J: Sequence[int], n: int, shapes: Sequence) -> Functional:
    """Coordinates whose restriction to each generator run matches a shape.

    `shapes[t]` is a partition of the size of the t-th letter interval; its
    row-major filling provides the contents.  Letters outside every run get 0
    (they pair with nothing inside the parabolic).
    """
    intervals = j_intervals(J)
    if len(shapes) != len(intervals):
        raise PreconditionError(f"need one shape per generator run ({len(intervals)})")
    coords = [0] * n
    for (a, b), lam in zip(intervals, shapes):
        size = b - a + 1
        if sum(lam) != size:
            raise PreconditionError(f"shape {lam} does not fill letters {a}..{b}")
        cont = content_vector(row_tableau(SkewShape(tuple(lam))))
        coords[a - 1 : b] = list(cont)
    return Functional(coords)


def build_parabolic_from_shapes(J: Sequence[int], n: int, shapes: Sequence,
                                normalization: str = SEMINORMAL) -> Representation:
    from .reps import build_parabolic

    return build_parabolic(parabolic_functional(J, n, shapes), J, n, normalization)


def induce(psi: Representation, n: int) -> Representation:
    """Extend a parabolic cell representation to the full group.

    Basis vectors are indexed by products m*r over cell members m and minimal
    coset representatives r; a generator either moves r within the coset
    representatives or folds back into the parabolic where psi's coefficients
    apply.
    """
    if psi.group_type != "A" or psi.n != n:
        raise PreconditionError("induction needs a type A representation on n letters")
    J = set(psi.gens)
    if not J <= set(range(1, n)):
        raise PreconditionError("generators outside the ambient group")
    axiom = verify_axiom_B(psi)
    if not axiom.ok:
        raise PreconditionError(f"input violates the two-term local action: {axiom.failures[0]}")
    reps_sorted = sorted(minimal_coset_reps(n, J), key=lambda r: r.sort_key())
    psi_index = {m: k for k, m in enumerate(psi.basis)}
    pairs = [(m, r) for m in psi.basis for r in reps_sorted]
    rep_set = set(reps_sorted)
    one = _one(psi.normalization)

    def step(pair: tuple, s: int) -> tuple:
        m, r = pair
        rs = r.times_simple(s)
        if rs in rep_set:
            return 0, (m, rs), one
        # Deodhar's lemma: rs = s_j r, i.e. r(s), r(s+1) are the letters j, j+1
        j = min(r(s), r(s + 1))
        psi_j = psi.matrices[j]
        k = psi_index[m]
        mp = m.times_simple(j)
        b = psi_j.entry(psi_index[mp], k) if mp in psi_index else 0
        return psi_j.entry(k, k), (mp, r), b

    mats = _two_term_matrices(pairs, range(1, n), step)
    basis = tuple(m * r for m, r in pairs)
    return Representation("A", n, tuple(range(1, n)), basis, mats, psi.normalization)


def _one(normalization: str):
    return Fraction(1) if normalization == SEMINORMAL else 1.0


def classical_induced_character(psi: Representation, n: int) -> dict:
    """Induced character by averaging conjugates, as the matrix-free oracle.

    Returns a map from full-group class representatives to exact values.
    """
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


# shuffle cells and the signed group -------------------------------------------


def _letters(t: Optional[Tableau]) -> set:
    return set(t.positions()) if t is not None else set()


def _check_letter_split(p: Optional[Tableau], q: Optional[Tableau]):
    k = p.size if p is not None else 0
    n = k + (q.size if q is not None else 0)
    if n == 0:
        raise PreconditionError("the signed group needs at least one letter")
    if _letters(p) != set(range(1, k + 1)) or _letters(q) != set(range(k + 1, n + 1)):
        raise PreconditionError(
            "tableaux must cover the letter intervals 1..k and k+1..n"
        )
    return k, n


def row_filling_pair(lam: Sequence[int], mu: Sequence[int]) -> tuple:
    """Row fillings of lam on letters 1..k and of mu on letters k+1..n.

    An empty shape gives None in its slot.
    """
    k = sum(lam)
    p = row_tableau(SkewShape(tuple(lam))) if k else None
    q = None
    if sum(mu):
        q0 = row_tableau(SkewShape(tuple(mu)))
        q = map_entries(q0, {e: e + k for e in q0.positions()})
    return p, q


def _side_cell(t: Optional[Tableau], offset: int, n: int) -> list:
    """Permutations of the letter block (embedded in S_n) whose relabeling of t
    stays standard."""
    if t is None or t.size == 0:
        return [identity(n)]
    size = t.size
    base = map_entries(t, {e: e - offset for e in t.positions()})
    out = []
    for sigma in relabel_cell(base):
        images = list(range(1, offset + 1)) + [offset + v for v in sigma.images]
        images += list(range(offset + size + 1, n + 1))
        out.append(Permutation(images))
    return out


def shuffle_cell(p: Tableau, q: Optional[Tableau]) -> set:
    """All products of the two block cells with the minimal coset shuffles."""
    k, n = _check_letter_split(p, q)
    left = _side_cell(p, 0, n)
    right = _side_cell(q, k, n)
    omega = minimal_coset_reps(n, set(range(1, n)) - {k} if 0 < k < n else set(range(1, n)))
    out = set()
    for a in left:
        for b in right:
            ab = a * b
            for w in omega:
                out.add(ab * w)
    if len(out) != len(left) * len(right) * len(omega):
        raise PreconditionError("shuffle products collided; invalid input tableaux")
    return out


def _content_maps(p: Optional[Tableau], q: Optional[Tableau]) -> dict:
    cont = {}
    for t in (p, q):
        if t is None:
            continue
        for letter, (r, c) in t.positions().items():
            cont[letter] = c - r
    return cont


def extend_to_bn(p: Tableau, q: Optional[Tableau],
                 normalization: str = SEMINORMAL) -> Representation:
    """Signed-group representation on the shuffle basis of (p, q).

    Generators 1..n-1 act through the contents of p and q (letters crossing
    the split just swap basis vectors); generator 0 is diagonal with sign +1
    exactly when the first position holds a letter of p.
    """
    k, n = _check_letter_split(p, q)
    members = tuple(sorted(shuffle_cell(p, q), key=lambda w: w.sort_key()))
    cont = _content_maps(p, q)
    one = _one(normalization)

    def step(pi: Permutation, g: int) -> tuple:
        if g == 0:
            return (one if pi(1) <= k else -one), None, None
        x, y = pi(g), pi(g + 1)
        if (x <= k) != (y <= k):
            return 0, pi.times_simple(g), one
        a, b = _step_coefficients(cont[y] - cont[x], x < y, normalization)
        return a, pi.times_simple(g), b

    mats = _two_term_matrices(members, range(0, n), step)
    return Representation("B", n, tuple(range(0, n)), members, mats, normalization)


def signed_pair_basis(lam: Sequence[int], mu: Sequence[int], n: int) -> tuple:
    """All pairs of standard tableaux of the two shapes over letter splittings."""
    k = sum(lam)
    if k + sum(mu) != n:
        raise PreconditionError("shapes must split the letters")
    fill_a = list(enumerate_standard(SkewShape(tuple(lam)))) if k else [None]
    fill_b = list(enumerate_standard(SkewShape(tuple(mu)))) if n - k else [None]
    basis = []
    for subset in combinations(range(1, n + 1), k):
        complement = tuple(v for v in range(1, n + 1) if v not in subset)
        for fa in fill_a:
            ta = map_entries(fa, {e: subset[e - 1] for e in fa.positions()}) if fa else None
            for fb in fill_b:
                tb = (
                    map_entries(fb, {e: complement[e - 1] for e in fb.positions()})
                    if fb
                    else None
                )
                basis.append((ta, tb))
    return tuple(basis)


def _pair_swap(pair: tuple, i: int) -> tuple:
    """Exchange letters i and i+1 inside the pair of tableaux."""
    swap = {i: i + 1, i + 1: i}

    def rework(t: Optional[Tableau]) -> Optional[Tableau]:
        if t is None:
            return None
        return map_entries(t, {e: swap.get(e, e) for e in t.positions()})

    return (rework(pair[0]), rework(pair[1]))


def bn_classical(lam: Sequence[int], mu: Sequence[int],
                 normalization: str = SEMINORMAL) -> Representation:
    """The classical orthogonal form of the signed group on tableau pairs.

    Letters in the same tableau interact through their content difference;
    letters in different tableaux swap places with coefficient one; the extra
    generator is diagonal with sign +1 exactly when letter 1 sits in the
    first tableau.
    """
    n = sum(lam) + sum(mu)
    basis = signed_pair_basis(tuple(lam), tuple(mu), n)
    index = {_pair_key(pair): j for j, pair in enumerate(basis)}
    one = _one(normalization)
    mats = {}
    m0 = SquareMatrix(len(basis))
    for j, (ta, _tb) in enumerate(basis):
        in_first = ta is not None and 1 in ta.positions()
        m0.set_entry(j, j, one if in_first else -one)
    mats[0] = m0
    for g in range(1, n):
        m = SquareMatrix(len(basis))
        for j, pair in enumerate(basis):
            ta, tb = pair
            a_letters = set(ta.positions()) if ta else set()
            same_a = g in a_letters and g + 1 in a_letters
            same_b = g not in a_letters and g + 1 not in a_letters
            target = _pair_swap(pair, g)
            if not (same_a or same_b):
                m.set_entry(index[_pair_key(target)], j, one)
                continue
            t = ta if same_a else tb
            (r1, c1), (r2, c2) = t.positions()[g], t.positions()[g + 1]
            h = (c2 - r2) - (c1 - r1)
            if normalization == SEMINORMAL:
                a = Fraction(1, h)
                b = Fraction(1) if r1 < r2 else 1 - a * a
            else:
                a = 1.0 / h
                b = math.sqrt(1.0 - a * a)
            m.set_entry(j, j, a)
            swapped_side = target[0] if same_a else target[1]
            if swapped_side.is_increasing():
                m.set_entry(index[_pair_key(target)], j, b)
        mats[g] = m
    return Representation("B", n, tuple(range(0, n)), basis, mats, normalization)


def _pair_key(pair: tuple) -> tuple:
    def key(t: Optional[Tableau]):
        if t is None:
            return None
        return (t.shape.lam, t.shape.mu, t.rows)

    return (key(pair[0]), key(pair[1]))


def match_signed_forms(p: Tableau, q: Optional[Tableau],
                       normalization: str = SEMINORMAL):
    """Index map aligning the shuffle-basis form with the classical pair form.

    Basis element sigma corresponds to the pair with every letter e replaced
    by sigma^{-1}(e).  Returns (shuffle_rep, classical_rep, index_map) where
    index_map[j] is the classical index of shuffle basis vector j.
    """
    k, n = _check_letter_split(p, q)
    ext = extend_to_bn(p, q, normalization)
    lam = p.shape.lam if p is not None else ()
    mu = q.shape.lam if q is not None else ()
    classical = bn_classical(lam, mu, normalization)
    cl_index = {_pair_key(pair): j for j, pair in enumerate(classical.basis)}
    index_map = []
    for sigma in ext.basis:
        inv = sigma.inverse()
        ta = map_entries(p, {e: inv(e) for e in p.positions()}) if p else None
        tb = map_entries(q, {e: inv(e) for e in q.positions()}) if q else None
        index_map.append(cl_index[_pair_key((ta, tb))])
    return ext, classical, index_map
