"""Fillings, layouts, shape lists and brute-force answers the tests compare
against; `ayrep` itself never computes them this way.

The box layout below places skew diagrams as dicts of (row, col) boxes, with
the overflow repair the stacking rule of `ayrep.tableaux` proves it never
needs.

The last section holds the brute-force oracles of `ayrep` in their direct
form, with none of the shortcuts the library takes: a `Tableau` relabelled
and tested per permutation, every relabel cell translated by every
permutation, and every translate of an interval compared with every
straight-shape cell.
"""

from ayrep.cells import Functional
from ayrep.errors import AyrepError
from ayrep.groups import Permutation, identity, partitions, sym_group, weak_interval
from ayrep.reps import build_from_functional, is_irreducible
from ayrep.tableaux import (
    SkewShape,
    Tableau,
    compositions,
    content_vector,
    enumerate_standard,
    relabel,
    skew_shape_family,
)


def boxes(shape: SkewShape) -> list:
    """Boxes (row, col) in row-major order."""
    return [(r, c) for r, (l, m) in enumerate(zip(shape.lam, shape.mu), start=1)
            for c in range(m + 1, l + 1)]


def from_box_entries(shape: SkewShape, entries: dict) -> Tableau:
    return Tableau(shape, [[entries[(r, c)] for c in range(m + 1, l + 1)]
                           for r, (l, m) in enumerate(zip(shape.lam, shape.mu), start=1)])


def column_tableau(shape: SkewShape) -> Tableau:
    """Boxes filled 1..n in column-major order."""
    order = sorted((c, r) for r, c in boxes(shape))
    rows = [[] for _ in shape.lam]
    for k, (_, r) in enumerate(order, start=1):
        rows[r - 1].append(k)
    return Tableau(shape, rows)


def assemble_components(parts: list) -> dict:
    """Place box dicts with pairwise separated contents into one diagram.

    Pieces are laid out from northeast to southwest; diagonal shifts keep all
    contents intact.  Returns the merged box -> value dict at coordinates with
    min(row) or min(col) equal to 1 and both at least 1.
    """
    ordered = sorted(parts, key=lambda p: -max(c - r for (r, c) in p))
    placed: dict = {}
    for part in ordered:
        if not placed:
            shifted = dict(part)
        else:
            max_row = max(r for r, _ in placed)
            d = (max_row + 1) - min(r for r, _ in part)
            shifted = {(r + d, c + d): v for (r, c), v in part.items()}
            min_col_placed = min(c for _, c in placed)
            overflow = max(c for _, c in shifted) - min_col_placed + 1
            if overflow > 0:
                placed = {(r - overflow, c - overflow): v for (r, c), v in placed.items()}
        placed.update(shifted)
    s = max(1 - min(r for r, _ in placed), 1 - min(c for _, c in placed))
    return {(r + s, c + s): v for (r, c), v in placed.items()}


def shape_from_boxes(cells) -> SkewShape:
    """Reconstruct lambda/mu from a set of (row, col) boxes with min coords >= 1."""
    rows: dict = {}
    for r, c in set(cells):
        rows.setdefault(r, []).append(c)
    max_row = max(rows)
    lam = [0] * (max_row + 1)
    mu = [0] * (max_row + 1)
    below = 0
    for r in range(max_row, 0, -1):
        if r in rows:
            cols = sorted(rows[r])
            if cols != list(range(cols[0], cols[-1] + 1)):
                raise AyrepError(f"row {r} is not contiguous: {cols}")
            lam[r], mu[r] = cols[-1], cols[0] - 1
        else:
            lam[r] = mu[r] = below
        below = lam[r]
    return SkewShape(lam[1:], mu[1:])


def box_join_components(pieces) -> SkewShape:
    """Chain pieces SW to NE with content gaps of exactly 2, as box dicts."""
    parts = []
    next_lo = None
    for piece in pieces:
        part = {box: None for box in boxes(piece)}
        lo = min(c - r for (r, c) in part)
        if next_lo is not None:
            part = {(r, c + next_lo - lo): None for (r, c) in part}
        next_lo = max(c - r for (r, c) in part) + 2
        parts.append(part)
    return shape_from_boxes(assemble_components(parts).keys())


def box_tableau_from_content(values) -> Tableau:
    """The content-to-tableau construction of `ayrep.tableaux` with the box
    layout: each content run is a dict of boxes, assembled as above.  Takes
    a valid content vector."""
    first: dict = {}
    for m, gamma in enumerate(values, start=1):
        first.setdefault(gamma, m)
    top: dict = {}
    parts: list = []
    piece: dict = {}
    for gamma in sorted(first):
        if gamma - 1 in first:
            top[gamma] = top[gamma - 1] - (first[gamma] < first[gamma - 1])
        else:
            top[gamma] = 0
            parts.append({})
        piece[gamma] = parts[-1]
    placed = dict.fromkeys(first, 0)
    for m, gamma in enumerate(values, start=1):
        r = top[gamma] + placed[gamma]
        piece[gamma][(r, r + gamma)] = m
        placed[gamma] += 1
    entries = assemble_components(parts)
    return from_box_entries(shape_from_boxes(entries.keys()), entries)


def recursive_connected_skew_shapes(m: int) -> list:
    """Connected skew shapes with m boxes, row starts chosen by a depth-first
    search; row i+1 starts in [a_i - l_(i+1) + 1, min(a_i, a_i + l_i - l_(i+1))]."""
    out = []
    for lengths in compositions(m):
        starts_found = []

        def extend(partial, idx):
            if idx == len(lengths):
                starts_found.append(list(partial))
                return
            prev_a, prev_l = partial[-1], lengths[idx - 1]
            for a in range(prev_a - lengths[idx] + 1,
                           min(prev_a, prev_a + prev_l - lengths[idx]) + 1):
                partial.append(a)
                extend(partial, idx + 1)
                partial.pop()

        extend([0], 1)
        for starts in starts_found:
            shift = 1 - min(starts)
            lam = [a + shift + l - 1 for a, l in zip(starts, lengths)]
            mu = [a + shift - 1 for a in starts]
            out.append(SkewShape(lam, mu))
    return out


def recursive_skew_shape_family(n: int) -> list:
    """Pieces joined by the box layout for every composition of n, chosen by
    a depth-first search, with repeated shapes dropped."""
    shapes = []
    for sizes in compositions(n):
        def choose(idx, chosen):
            if idx == len(sizes):
                shapes.append(box_join_components(chosen))
                return
            for piece in recursive_connected_skew_shapes(sizes[idx]):
                choose(idx + 1, chosen + [piece])

        choose(0, [])
    return list(dict.fromkeys(shapes))


# brute-force oracles in their direct form ---------------------------------------


def scan_relabel_cell(q: Tableau) -> frozenset:
    """{pi : relabel(q, pi) is standard}, one relabelled tableau per pi."""
    return frozenset(pi for pi in sym_group(q.size) if relabel(q, pi).is_standard())


def translated_cell_family(n: int) -> set:
    """Every sigma * B_Q, each relabel cell translated by every sigma."""
    family = set()
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            members = scan_relabel_cell(q)
            for sigma in sym_group(n):
                family.add(frozenset(sigma * w for w in members))
    return family


def straight_candidates(n: int) -> list:
    """(filling, cell) for every standard filling of a straight shape."""
    return [(q, scan_relabel_cell(q)) for lam in partitions(n)
            for q in enumerate_standard(SkewShape(lam))]


def is_top_by_comparison(pi: Permutation, candidates: list) -> bool:
    """Whether some translate sigma^{-1} [id, pi] (sigma in the interval) equals
    a candidate cell whose representation is irreducible."""
    interval = frozenset(weak_interval(pi))
    for sigma in sorted(interval, key=Permutation.sort_key):
        inv = sigma.inverse()
        translated = frozenset(inv * w for w in interval)
        for q, members in candidates:
            if translated == members:
                rep = build_from_functional(Functional(content_vector(q)), identity(pi.size))
                if is_irreducible(rep):
                    return True
    return False
