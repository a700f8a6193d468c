"""Functionals, descent cells, genericity and basic flats.

An integer functional represents a linear form on the root space modulo the
all-ones vector; only pairing differences f_j - f_i matter.  Descent classes
with respect to the reflections paired to +-1 are the cells everything else
in the package is built on.

Every walk goes through `_walk_cell`, which holds the walks over the last
wall set only and each cell found there once, so at most one copy of the
group's elements: a repeated walk, or a walk into a held cell, returns it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional

from .errors import PreconditionError
from .groups import (
    Permutation,
    Reflection,
    _check_cap,
    _integers,
    _inversion_masks,
    _shown,
    _walls,
    identity,
    is_convex,
    reflection,
    reflections,
    sym_group,
)
from .tableaux import Tableau, content_violation, tableau_from_content


class Functional:
    """Integer coordinate vector, one slot per letter, defined modulo shifts."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        given = _shown(coords)
        self.coords = _integers(given)
        if self.coords is None:
            raise PreconditionError(f"functional coordinates must be integers, got {given}")
        if not self.coords:
            raise ValueError("a functional needs at least one coordinate")

    @property
    def size(self) -> int:
        return len(self.coords)

    def pair(self, t: Reflection) -> int:
        """Pairing with the root of t = (i, j): f_j - f_i, unchanged by a shift of f."""
        return self.coords[t.j - 1] - self.coords[t.i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Functional) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Functional({','.join(map(str, self.coords))})"


class Cell(NamedTuple):
    """A descent class, its interior and boundary reflection sets, and its step graph."""

    members: tuple  # sorted by (length, one-line word)
    interior: frozenset  # w s w^-1 with both w, ws inside
    boundary: frozenset  # w s w^-1 with w inside, ws outside
    gens: tuple  # the generator indices g of the steps w -> w s_g
    steps: tuple  # steps[j * len(gens) + p]: position of members[j] s_gens[p], or None

    @property
    def size(self) -> int:
        return len(self.members)

    def contains_identity(self) -> bool:
        return any(w.is_identity() for w in self.members)


def boundary_reflections(f: Functional) -> frozenset:
    """Reflections paired to +1 or -1."""
    return frozenset(t for t in reflections(f.size) if abs(f.pair(t)) == 1)


def descent_cell(f: Functional, w: Permutation) -> Cell:
    """All group elements whose descents on the +-1 reflections match w's.

    Found by walking inside the cell from w (see `_walk_cell`).  The walk is
    complete because the cell is convex (an intersection of the half-spaces
    of the reflections paired to +-1), and a convex set is connected: each
    member is joined to w by a geodesic that never leaves it.  Repeated on
    the same +-1 reflections and w, or from another member of a held cell,
    it returns the held Cell object.
    """
    return _walk_cell(f, w, range(1, w.size))


_held = {}  # the last wall set -> (walks by (start word, gens), cells by (first word, gens))


def _walk_cell(A, start: Permutation, gens) -> Cell:
    """`_walk` from start along gens over A (a reflection set, or a Functional
    of start's size standing for its `boundary_reflections`, found once the
    type-A cap on start's size has passed), memoised on frozenset(A), start's
    word and gens.  Only the walks over the last wall set are held; a call
    over other walls drops them.  A new walk whose cell equals a held one
    (same first member, then the whole Cell) returns the held object, so each
    cell, and so each group element, is held once; a walk that differs is
    returned as walked, so walks from several starts can still drift apart.
    """
    _check_cap("A", start.size)
    if isinstance(A, Functional):
        if A.size != start.size:
            raise PreconditionError("functional and permutation sizes differ")
        A = boundary_reflections(A)
    walls, gens = frozenset(A), tuple(gens)
    held = _held.get(walls)
    if held is None:
        _held.clear()
        held = _held[walls] = ({}, {})
    walks, cells = held
    key = (start.images, gens)
    if key not in walks:
        cell = _walk(walls, start, gens)
        first = cells.setdefault((cell.members[0].images, gens), cell)
        walks[key] = first if first == cell else cell
    return walks[key]


def _walk(A: frozenset, start: Permutation, gens: tuple) -> Cell:
    """Breadth-first walk from start along the steps w -> w s_i, i in gens,
    in the descent cell over the reflection set A.

    The step changes the left inversion set by the one reflection
    t = w s_i w^-1, so it stays in the descent cell over A exactly when t is
    not in A; t goes to the interior set if it does and to the boundary set
    otherwise.  Each member gets an id when found and a row of its neighbours'
    ids (-1 across a wall).  A step from j to k along s_i fills in k's step
    back to j along s_i as well (w s_i s_i = w, by the same reflection t), so
    each edge is walked once.  The one sort into (length, word) order maps
    ids to positions.  The rows stay in one flat tuple: a tuple per row held
    ~0.3 MiB more peak RSS on `verify --suite flat`, as CPython pools freed
    small tuples.
    """
    m = len(gens)
    # The walk runs on one-line tuples and (low, high) value pairs; a pair
    # hashes and compares equal to its Reflection, so it is looked up in A.
    # Each member's length rides along: w s_i is one longer than w exactly
    # when w(i) < w(i+1).
    ids = {start.images: 0}
    order = [(start.length(), start.images)]
    unset = [None] * m
    rows = unset[:]  # rows[k * m + p]: the step of id k along gens[p]
    interior, boundary = set(), set()
    for j, (length, img) in enumerate(order):
        base = j * m
        for p, i in enumerate(gens):
            if rows[base + p] is not None:  # walked from the other end
                continue
            x, y = img[i - 1], img[i]
            t = (x, y) if x < y else (y, x)
            if t in A:
                boundary.add(t)
                rows[base + p] = -1
                continue
            interior.add(t)
            nxt = img[:i - 1] + (y, x) + img[i + 1:]
            k = ids.get(nxt)
            if k is None:
                k = ids[nxt] = len(order)
                order.append((length + 1 if x < y else length - 1, nxt))
                rows += unset
            rows[base + p] = k
            rows[k * m + p] = j
    ranked = sorted(range(len(order)), key=order.__getitem__)  # position -> id
    position = [None] * (len(order) + 1)  # id -> position; position[-1] is None, across a wall
    for pos, k in enumerate(ranked):
        position[k] = pos
    steps = tuple([position[rows[k * m + p]] for k in ranked for p in range(m)])
    # from a list, not a generator: tuple() over a generator guesses a size and
    # resizes, which held ~0.45 MiB more at the end of `verify --suite convexity`
    members = tuple([Permutation._unsafe(order[k][1], order[k][0]) for k in ranked])
    return Cell(members, frozenset(map(Reflection._make, interior)),
                frozenset(map(Reflection._make, boundary)), gens, steps)


def parabolic_generators(J: Iterable[int], n: int) -> tuple:
    """(J sorted, n), once both are integers by `groups._integers` and J names generators of S_n."""
    J, ints = _integers(J), _integers((n,))
    if ints is None:
        raise PreconditionError(f"the number of letters must be an integer, got {n!r}")
    if J is None or not set(J) <= set(range(1, ints[0])):
        raise PreconditionError(f"J must be generator indices within 1..{ints[0] - 1}")
    return tuple(sorted(set(J))), ints[0]


def minimal_coset_reps(n: int, J: Iterable[int]) -> set:
    """Minimal-length representatives of the right cosets of <s_j : j in J>.

    Returns {w : no left descent of w lies in J}: the descent cell of the
    identity over the simple reflections (j, j+1), j in J, found by the walk.
    """
    J, n = parabolic_generators(J, n)
    A = frozenset(reflection(j, j + 1) for j in J)
    return set(_walk_cell(A, identity(n), range(1, n)).members)


def descent_classes(n: int, A: frozenset) -> list:
    """The descent classes over the reflection set A, by definition: the group
    bucketed on left inversions in A.  Each is a tuple in (length, word) order;
    they come ordered by their sorted descent sets."""
    group = sym_group(n)  # the cap, before the masks
    refl = reflections(n)
    a_mask = sum(1 << k for k, t in enumerate(refl) if t in A)
    buckets = {}
    for w, (mask, _) in zip(group, _inversion_masks(n).values()):
        buckets.setdefault(mask & a_mask, []).append(w)
    ordered = sorted(buckets, key=lambda m: [t for k, t in enumerate(refl) if m >> k & 1])
    return [tuple(buckets[m]) for m in ordered]


def descent_partition(n: int, A: frozenset) -> list:
    """The descent classes over the reflection set A as cells, in
    `descent_classes` order, each walked from its first member for its
    step graph.  A convex class is connected, so the walk must reach it all.
    """
    gens = tuple(range(1, n))
    cells = []
    for members in descent_classes(n, A):
        cell = _walk_cell(A, members[0], gens)
        if cell.members != members:
            raise AssertionError(f"the walk from {members[0].one_line()} missed its descent class")
        cells.append(cell)
    return cells


def genericity_violation(f: Functional, cell: Cell):
    """None if f is generic for the cell, else (condition, detail).

    Conditions: interior pairings avoid {0, 1, -1}; boundary pairings equal
    +-1; at a member w whose steps along two adjacent generators i, i+1 both
    leave the cell (None in the step graph), the letters x, y, z at positions
    i, i+1, i+2 of w have f_y - f_x = f_z - f_y, directed as the builder reads
    them (the undirected pairings test the same only when x < y < z or x > y > z).
    """
    for t in sorted(cell.interior):
        if f.pair(t) in (-1, 0, 1):
            return ("interior", f"<f,{t}> = {f.pair(t)}")
    for t in sorted(cell.boundary):
        if abs(f.pair(t)) != 1:
            return ("boundary", f"<f,{t}> = {f.pair(t)}")
    c, gens, steps, m = f.coords, cell.gens, cell.steps, len(cell.gens)
    corners = [(p, gens.index(i + 1), i) for p, i in enumerate(gens) if i + 1 in gens]
    for j, w in enumerate(cell.members):
        for p, q, i in corners:  # indexed in place: slices would be pooled tuples
            if steps[j * m + p] is not None or steps[j * m + q] is not None:
                continue
            x, y, z = w.images[i - 1:i + 2]
            xy, yz = c[y - 1] - c[x - 1], c[z - 1] - c[y - 1]
            if xy != yz:
                return ("corner", f"at {w.one_line()}: f{y} - f{x} = {xy} != f{z} - f{y} = {yz}")
    return None


def is_generic(f: Functional, cell: Cell) -> bool:
    """Genericity of f for a convex cell containing the identity."""
    if not cell.contains_identity():
        raise PreconditionError("cell does not contain the identity")
    if not is_convex(cell.members):
        raise PreconditionError("cell is not convex")
    return genericity_violation(f, cell) is None


def is_generic_integer(f: Functional) -> bool:
    """Zero pairings must have +1 and -1 pairings strictly between their slots.

    This is the content-vector condition.  Equivalent to
    is_generic(f, descent_cell(f, id)); cross-checked in tests.
    """
    return content_violation(f.coords) is None


def cell_tableau_bijection(q: Tableau) -> dict:
    """The map pi -> relabel(q, pi) from the identity cell of q's contents onto fillings."""
    from .tableaux import check_relabel_bijection, content_vector, relabel

    cell = descent_cell(Functional(content_vector(q)), identity(q.size))
    check_relabel_bijection(q, cell.members)
    return {pi: relabel(q, pi) for pi in cell.members}


def is_minimal_ay_cell(members: Iterable[Permutation]):
    """Whether the set is a translated identity cell of some integer functional.

    Returns (flag, witness) where witness = (sigma, tableau) translates the
    set to the identity cell of the tableau's content vector; sigma is the
    first member in (length, word) order.

    One translation decides.  The identity cell of a generic content vector
    is B_Q = {pi : relabel(Q, pi) is standard} for its tableau Q.  If
    K = tau B_Q, every member sigma = tau pi gives sigma^-1 K = pi^-1 B_Q,
    which is the cell of the standard filling relabel(Q, pi), because
    relabel(relabel(Q, pi), rho) = relabel(Q, pi rho).  So when some member
    translates K to an identity cell, every member does.
    """
    member_list = sorted(set(members), key=lambda w: w.sort_key())
    if not is_convex(member_list):  # refuses an empty set and mixed sizes
        return False, None
    sigma = member_list[0]
    inv = sigma.inverse()
    c = _content_functional_for(frozenset(inv * w for w in member_list))
    if c is None:
        return False, None
    return True, (sigma, tableau_from_content(c))


def _content_functional_for(members: frozenset) -> Optional[tuple]:
    """A content vector whose identity cell equals the given set, or None.

    The set must contain the identity and be convex, so its walls (read off
    the inversion masks by `groups._walls`, as `is_convex` reads them) cut
    it out.  If it is the identity cell of c, each wall is a reflection
    (x, y) paired to +-1: c_y - c_x = +-1.  The walls join the letters into
    pieces; inside a piece one sign per letter after the first, in
    breadth-first order, fixes the contents.  Each new piece starts more
    than n above the contents so far, so no pairing across pieces is 0 or
    +-1.  That loses no cell: pulling the pieces of c apart
    drops only reflections paired to +-1 that are not walls, so the cell
    stays between c's and the one the walls cut out, and the +1 and -1
    between two equal contents of a piece lie in that piece.  Of the at
    most 2^(n-1) candidates, the first that is generic and whose walked
    identity cell is the set is returned.
    """
    n = next(iter(members)).size
    lo, hi, _ = _walls({w.images for w in members})
    walls = [t for k, t in enumerate(reflections(n)) if (lo | hi) >> k & 1]
    neighbours = {x: {y for t in walls if x in t for y in t if y != x} for x in range(1, n + 1)}
    order, seen = [], set()  # (letter, the letter it hangs from or None)
    for first in range(1, n + 1):
        if first in seen:
            continue
        seen.add(first)
        piece = [(first, None)]
        for x, _ in piece:
            for y in sorted(neighbours[x] - seen):
                seen.add(y)
                piece.append((y, x))
        order += piece
    free = sum(parent is not None for _, parent in order)
    for signs in product((-1, 1), repeat=free):
        c, step = {}, iter(signs)
        for x, parent in order:
            if parent is None:
                c[x] = max(c.values(), default=-n - 1) + n + 1
            else:
                c[x] = c[parent] + next(step)
        cand = tuple(c[x] for x in range(1, n + 1))
        if (content_violation(cand) is None
                and set(descent_cell(Functional(cand), identity(n)).members) == members):
            return cand
    return None


# basic flats -----------------------------------------------------------------


class _BasicFlat(NamedTuple):
    n: int
    constraints: frozenset  # of (Reflection, +1 | -1)


class BasicFlat(_BasicFlat):
    """Solution set of equations <f, t> = eps_t, one per constrained reflection."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` goes through __new__

    def __new__(cls, n: int, constraints: frozenset):
        for t, eps in constraints:
            if eps not in (1, -1):
                raise ValueError("constraint signs must be +1 or -1")
            if not 1 <= t.i < t.j <= n:
                raise ValueError(f"reflection {t} outside 1..{n}")
        return super().__new__(cls, n, constraints)


def _flat_solve(flat: BasicFlat) -> list:
    """Union-find with potentials: entry x is (root, offset) with
    f_x = f_root + offset on the flat, for each letter x (entry 0 unused)."""
    parent = list(range(flat.n + 1))
    pot = [0] * (flat.n + 1)  # coordinate minus coordinate of parent

    def find(x):
        total = 0
        while parent[x] != x:
            total += pot[x]
            x = parent[x]
        return x, total

    for t, eps in sorted(flat.constraints):
        # constraint: f_j - f_i = eps
        ri, pi = find(t.i)
        rj, pj = find(t.j)
        if ri != rj:
            parent[rj] = ri
            pot[rj] = pi + eps - pj
        elif pj - pi != eps:
            raise PreconditionError("inconsistent flat constraints")
    return [find(x) for x in range(flat.n + 1)]


def flat_determined_reflections(flat: BasicFlat) -> frozenset:
    """All reflections whose pairing is forced to +1 or -1 on the flat."""
    table = _flat_solve(flat)
    return frozenset(
        t for t in reflections(flat.n)
        if table[t.i][0] == table[t.j][0] and table[t.j][1] - table[t.i][1] in (1, -1)
    )


def flat_partition(flat: BasicFlat) -> list:
    """Descent classes over the reflections the flat determines to +-1."""
    return descent_partition(flat.n, flat_determined_reflections(flat))


def flat_integer_points(flat: BasicFlat, span: int):
    """Integer representatives on the flat, one free offset per component.

    The first component is pinned at 0 (functionals live modulo constant
    shifts); the other components scan -span..span.  Deterministic order.
    """
    table = _flat_solve(flat)[1:]
    roots = list(dict.fromkeys(r for r, _ in table))
    for offsets in product(range(-span, span + 1), repeat=len(roots) - 1):
        assign = dict(zip(roots, (0, *offsets)))
        yield Functional(tuple(assign[r] + p for r, p in table))
