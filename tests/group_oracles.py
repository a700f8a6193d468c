"""Subgroup enumeration for the brute-force oracles of the tests.

`ayrep` itself never enumerates a parabolic subgroup S_J: it reads S_J's
classes from cycle types.  These scans are the tests' independent check.
"""

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
