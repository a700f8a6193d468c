"""Functionals, descent cells, genericity and basic flats.

An integer functional represents a linear form on the root space modulo the
all-ones vector; only pairing differences f_j - f_i matter.  Descent classes
with respect to the reflections paired to +-1 are the cells everything else
in the package is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import PreconditionError
from .groups import (
    Permutation,
    Reflection,
    _check_cap,
    conjugated_reflection,
    identity,
    is_convex,
    left_descents_in,
    pair,
    reflection,
    reflections,
    sym_group,
)
from .tableaux import Tableau, content_violation, tableau_from_content


class Functional:
    """Integer coordinate vector, one slot per letter, defined modulo shifts."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        self.coords = tuple(int(c) for c in coords)
        if not self.coords:
            raise ValueError("a functional needs at least one coordinate")

    @property
    def size(self) -> int:
        return len(self.coords)

    def pair(self, t: Reflection) -> int:
        return pair(self.coords, t)

    def __eq__(self, other) -> bool:
        return isinstance(other, Functional) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Functional({','.join(map(str, self.coords))})"


@dataclass(frozen=True)
class Cell:
    """A descent class with its interior and boundary reflection sets."""

    members: tuple  # sorted by (length, one-line word)
    interior: frozenset  # w s w^-1 with both w, ws inside
    boundary: frozenset  # w s w^-1 with w inside, ws outside

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def contains_identity(self) -> bool:
        return any(w.is_identity() for w in self.members)


def boundary_reflections(f: Functional) -> frozenset:
    """Reflections paired to +1 or -1."""
    return frozenset(t for t in reflections(f.size) if abs(f.pair(t)) == 1)


def make_cell(members: Iterable[Permutation]) -> Cell:
    members = sorted(set(members), key=lambda w: w.sort_key())
    return Cell(tuple(members), *_reflection_sets(members))


def descent_cell(f: Functional, w: Permutation) -> Cell:
    """All group elements whose descents on the +-1 reflections match w's.

    Found by walking inside the cell from w (see `_walk_cell`).  The walk is
    complete because the cell is convex (an intersection of the half-spaces
    of the reflections paired to +-1), and a convex set is connected: each
    member is joined to w by a geodesic that never leaves it.
    """
    if f.size != w.size:
        raise PreconditionError("functional and permutation sizes differ")
    _check_cap("A", w.size)
    return Cell(*_walk_cell(boundary_reflections(f), w, range(1, w.size)))


def _walk_cell(A: frozenset, start: Permutation, gens) -> tuple:
    """Breadth-first walk from start along the steps w -> w s_i, i in gens.

    The step changes the left inversion set by the one reflection
    t = w s_i w^-1, so it stays in the descent cell over A exactly when t is
    not in A; t goes to the interior set if it does and to the boundary set
    otherwise.  Returns (members sorted by (length, word), interior, boundary).
    """
    # The walk runs on one-line tuples and (low, high) value pairs; a pair
    # hashes and compares equal to its Reflection, so it is looked up in A.
    # Each member's length rides along: w s_i is one longer than w exactly
    # when w(i) < w(i+1).
    seen = {start.images}
    order = [(start.length(), start.images)]
    interior, boundary = set(), set()
    for length, img in order:
        for i in gens:
            x, y = img[i - 1], img[i]
            t = (x, y) if x < y else (y, x)
            if t in A:
                boundary.add(t)
                continue
            interior.add(t)
            nxt = img[:i - 1] + (y, x) + img[i + 1:]
            if nxt not in seen:
                seen.add(nxt)
                order.append((length + 1 if x < y else length - 1, nxt))
    order.sort()
    # from a list, not a generator: tuple() over a generator guesses a size
    # and resizes, and that held ~0.45 MiB more memory at the end of
    # `verify --suite convexity` (tracemalloc)
    members = tuple([Permutation._unsafe(img, length) for length, img in order])
    return (members, frozenset(map(Reflection._make, interior)),
            frozenset(map(Reflection._make, boundary)))


def _reflection_sets(members: list) -> tuple:
    member_set = frozenset(members)
    n = members[0].size
    interior, boundary = set(), set()
    for w in members:
        for i in range(1, n):
            t = conjugated_reflection(w, i)
            if w.times_simple(i) in member_set:
                interior.add(t)
            else:
                boundary.add(t)
    return frozenset(interior), frozenset(boundary)


def descent_partition(n: int, A: frozenset) -> list:
    """Partition of the group into descent classes over the reflection set A.

    Each class is walked from its first element in the group's order; the
    classes come ordered by their sorted descent sets.
    """
    group = sym_group(n)
    by_images = {v.images: v for v in group}
    cells, seen = [], set()
    for v in group:
        if v in seen:
            continue
        members, interior, boundary = _walk_cell(A, v, range(1, n))
        # the group's shared elements, from a list as in _walk_cell
        members = tuple([by_images[w.images] for w in members])
        seen.update(members)
        cells.append(Cell(members, interior, boundary))
    cells.sort(key=lambda c: sorted(left_descents_in(A, c.members[0])))
    return cells


def genericity_violation(f: Functional, members: Iterable[Permutation],
                         interior: frozenset, boundary: frozenset, gens=None):
    """None if f is generic for the cell, else (condition, detail).

    Conditions: interior pairings avoid {0, 1, -1}; boundary pairings equal
    +-1; when two adjacent generators both step out of the cell at the same
    element the two boundary pairings agree.
    """
    for t in sorted(interior):
        if f.pair(t) in (-1, 0, 1):
            return ("interior", f"<f,{t}> = {f.pair(t)}")
    for t in sorted(boundary):
        if abs(f.pair(t)) != 1:
            return ("boundary", f"<f,{t}> = {f.pair(t)}")
    # The corner test runs on one-line tuples: w s_i swaps positions i, i+1.
    words = sorted((w.length(), w.images) for w in members)
    member_set = {img for _, img in words}
    if gens is None:
        gens = range(1, f.size)
    gen_set = set(gens)
    corners = [i for i in gen_set if i + 1 in gen_set]
    coords = f.coords
    for _, img in words:
        for i in corners:
            x, y, z = img[i - 1], img[i], img[i + 1]
            if (img[:i - 1] + (y, x) + img[i + 1:] in member_set
                    or img[:i] + (z, y) + img[i + 2:] in member_set):
                continue
            p1 = coords[y - 1] - coords[x - 1] if x < y else coords[x - 1] - coords[y - 1]
            p2 = coords[z - 1] - coords[y - 1] if y < z else coords[y - 1] - coords[z - 1]
            if p1 != p2:
                w = Permutation._unsafe(img)
                t1, t2 = reflection(x, y), reflection(y, z)
                return (
                    "corner",
                    f"at {w.one_line()}: <f,{t1}> = {p1} != <f,{t2}> = {p2}",
                )
    return None


def is_generic(f: Functional, cell: Cell) -> bool:
    """Genericity of f for a convex cell containing the identity."""
    if not cell.contains_identity():
        raise PreconditionError("cell does not contain the identity")
    if not is_convex(cell.members):
        raise PreconditionError("cell is not convex")
    return genericity_violation(f, cell.members, cell.interior, cell.boundary) is None


def is_generic_integer(f: Functional) -> bool:
    """Zero pairings must have +1 and -1 pairings strictly between their slots.

    This is the content-vector condition.  Equivalent to
    is_generic(f, descent_cell(f, id)); cross-checked in tests.
    """
    return content_violation(f.coords) is None


def cell_tableau_bijection(f: Functional, q: Tableau, *, cell: Cell = None,
                           fillings: list = None) -> dict:
    """The map pi -> relabel(q, pi) from the identity cell onto standard fillings.

    A caller that already holds descent_cell(f, id) or
    enumerate_standard(q.shape) passes it as `cell` or `fillings`.
    """
    from .tableaux import content_vector, derived, enumerate_standard, relabel

    cq = content_vector(q)
    if f.size != q.size:
        raise PreconditionError("functional and tableau sizes differ")
    if f.size > 1 and derived(f.coords) != derived(cq):
        raise PreconditionError("derived coordinates do not match the tableau contents")
    if not is_generic_integer(f):
        raise PreconditionError("functional is not generic")
    if cell is None:
        cell = descent_cell(f, identity(f.size))
    if fillings is None:
        fillings = enumerate_standard(q.shape)
    mapping = {pi: relabel(q, pi) for pi in cell.members}
    images = set(mapping.values())
    expected = set(fillings)
    if len(images) != len(mapping) or images != expected:
        raise AssertionError("relabel map failed to be a bijection onto standard fillings")
    return mapping


def is_minimal_ay_cell(members: Iterable[Permutation]):
    """Whether the set is a translated identity cell of some integer functional.

    Returns (flag, witness) where witness = (sigma, tableau) translates the
    set to the identity cell of the tableau's content vector.
    """
    member_list = sorted(set(members), key=lambda w: w.sort_key())
    if not member_list:
        raise PreconditionError("the empty set is not a cell")
    if not is_convex(member_list):
        return False, None
    for sigma in member_list:
        inv = sigma.inverse()
        translated = frozenset(inv * w for w in member_list)
        c = _content_functional_for(translated)
        if c is not None:
            return True, (sigma, tableau_from_content(c))
    return False, None


def _content_functional_for(members: frozenset) -> Optional[tuple]:
    """Search a content vector whose identity cell equals the given set.

    The set must contain the identity and be convex.  Candidates are pinned
    at c_1 = 0 with entries within +-2(n-1), which loses no generality: wider
    content gaps can always be compressed to 2 without changing any descent
    data.
    """
    n = next(iter(members)).size
    if n == 1:
        return (0,)
    interior, boundary = _reflection_sets(sorted(members, key=lambda w: w.sort_key()))
    corners = []
    member_set = members
    for w in members:
        for i in range(1, n - 1):
            if w.times_simple(i) in member_set or w.times_simple(i + 1) in member_set:
                continue
            corners.append((conjugated_reflection(w, i), conjugated_reflection(w, i + 1)))
    bound = 2 * (n - 1)
    c = [0] * n

    def constraints_ok(k: int) -> bool:
        # all constraints whose reflections live inside 1..k
        for t in interior:
            if t.j <= k and c[t.j - 1] - c[t.i - 1] in (-1, 0, 1):
                return False
        for t in boundary:
            if t.j <= k and abs(c[t.j - 1] - c[t.i - 1]) != 1:
                return False
        for t1, t2 in corners:
            if t1.j <= k and t2.j <= k:
                if c[t1.j - 1] - c[t1.i - 1] != c[t2.j - 1] - c[t2.i - 1]:
                    return False
        return content_violation(c[:k]) is None

    def search(k: int) -> Optional[tuple]:
        if k == n:
            cand = tuple(c)
            if _identity_cell_members(cand) == members:
                return cand
            return None
        for val in range(-bound, bound + 1):
            c[k] = val
            if constraints_ok(k + 1):
                found = search(k + 1)
                if found is not None:
                    return found
        c[k] = 0
        return None

    return search(1)


def _identity_cell_members(coords: tuple) -> frozenset:
    n = len(coords)
    members, _, _ = _walk_cell(boundary_reflections(Functional(coords)), identity(n), range(1, n))
    return frozenset(members)


# basic flats -----------------------------------------------------------------


@dataclass(frozen=True)
class BasicFlat:
    """Solution set of equations <f, t> = eps_t, one per constrained reflection."""

    n: int
    constraints: frozenset  # of (Reflection, +1 | -1)

    def __post_init__(self):
        for t, eps in self.constraints:
            if eps not in (1, -1):
                raise ValueError("constraint signs must be +1 or -1")
            if not 1 <= t.i < t.j <= self.n:
                raise ValueError(f"reflection {t} outside 1..{self.n}")


def _flat_solve(flat: BasicFlat):
    """Union-find with potentials; returns (root, potential) arrays or None."""
    parent = list(range(flat.n + 1))
    pot = [0] * (flat.n + 1)  # coordinate minus coordinate of parent

    def potential(x):
        total = 0
        while parent[x] != x:
            total += pot[x]
            x = parent[x]
        return x, total

    for t, eps in sorted(flat.constraints):
        # constraint: f_j - f_i = eps
        ri, pi = potential(t.i)
        rj, pj = potential(t.j)
        if ri == rj:
            if pj - pi != eps:
                return None
        else:
            # attach rj under ri: f_rj = f_i + eps - pj ... relative to ri
            parent[rj] = ri
            pot[rj] = pi + eps - pj
    return potential


def flat_determined_reflections(flat: BasicFlat) -> frozenset:
    """All reflections whose pairing is forced to +1 or -1 on the flat."""
    potential = _flat_solve(flat)
    if potential is None:
        raise PreconditionError("inconsistent flat constraints")
    out = set()
    for t in reflections(flat.n):
        ri, pi = potential(t.i)
        rj, pj = potential(t.j)
        if ri == rj and pj - pi in (1, -1):
            out.add(t)
    return frozenset(out)


def flat_partition(flat: BasicFlat, n: int) -> list:
    """Descent classes over the reflections the flat determines to +-1."""
    if n != flat.n:
        raise PreconditionError("size mismatch")
    A = flat_determined_reflections(flat)
    return descent_partition(n, A)


def flat_integer_points(flat: BasicFlat, span: int):
    """Integer representatives on the flat, one free offset per component.

    The first component is pinned at 0 (functionals live modulo constant
    shifts); the other components scan -span..span.  Deterministic order.
    """
    potential = _flat_solve(flat)
    if potential is None:
        raise PreconditionError("inconsistent flat constraints")
    roots = []
    pots = []
    for x in range(1, flat.n + 1):
        r, p = potential(x)
        if r not in roots:
            roots.append(r)
        pots.append((r, p))
    from itertools import product

    free = roots[1:]
    for offsets in product(range(-span, span + 1), repeat=len(free)):
        assign = {roots[0]: 0}
        assign.update(dict(zip(free, offsets)))
        yield Functional(tuple(assign[r] + p for r, p in pots))
