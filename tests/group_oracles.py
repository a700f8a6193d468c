"""Subgroup enumeration and descent sets for the brute-force oracles of the tests.

`ayrep` itself never enumerates a parabolic subgroup S_J: it reads S_J's
classes from cycle types.  These scans are the tests' independent check.
`left_descents_in` reads descents off w^{-1} one reflection at a time, where
`ayrep` buckets cells on cached inversion masks; `swap_walls` finds walls by
building each swapped word, where `ayrep` flips one bit of a mask.
"""

from ayrep.errors import PreconditionError
from ayrep.groups import Permutation, identity


def parabolic_elements(n, J):
    """S_J by breadth-first search from the identity, each level sorted by images."""
    order = frontier = [identity(n)]
    seen = set(order)
    while frontier:
        frontier = sorted(
            {w.times_simple(j) for w in frontier for j in J} - seen, key=lambda u: u.images
        )
        seen.update(frontier)
        order = order + frontier
    return tuple(order)


def block_cycle_type(w, J):
    """The cycle type of w on each maximal letter block of S_J; w must lie in S_J."""
    out, start = [], 0
    for stop in [j for j in range(1, w.size) if j not in J] + [w.size]:
        block = w.images[start:stop]
        out.append(Permutation(tuple(v - start for v in block)).cycle_type())
        start = stop
    return tuple(out)


def run_intervals(J):
    """Letter intervals [a, b] of the maximal runs of consecutive generators,
    by popping runs off the sorted generators."""
    J = sorted(set(J))
    out = []
    while J:
        start = end = J[0]
        while J and J[0] == end:
            J.pop(0)
            end += 1
        out.append((start, end))
    return out


def block_sizes(n, J):
    """The sizes of the letter blocks of S_J in order, singletons included."""
    sizes = []
    for i in range(1, n + 1):
        if i - 1 in J:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def left_descents_in(candidates, w):
    """{t in candidates : l(t w) < l(w)}; for t=(i,j) that is w^{-1}(i) > w^{-1}(j)."""
    where = {v: pos for pos, v in enumerate(w.images)}  # w^{-1}, without a Permutation
    candidates = tuple(candidates)
    if not all(t.i in where and t.j in where for t in candidates):
        raise PreconditionError(f"reflections must move letters within 1..{w.size}")
    return {t for t in candidates if where[t.i] > where[t.j]}


def swap_walls(K):
    """The walls of a set K of one-line words, as letter pairs (x, y): some
    member has x just left of y, and swapping the two leaves the set."""
    walls = set()
    for img in K:
        for i in range(len(img) - 1):
            x, y = img[i], img[i + 1]
            if img[:i] + (y, x) + img[i + 2:] not in K:
                walls.add((x, y))
    return walls
