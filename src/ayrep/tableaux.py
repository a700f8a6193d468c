"""Skew shapes, standard tableaux, content vectors and reading words.

Boxes live at matrix coordinates (row, col), 1-based, row 1 on top.  The
content of a box is col - row.  A skew shape is a pair of partitions
lambda/mu with mu inside lambda; rows with lambda_i = mu_i are allowed (they
encode diagonal offsets of disconnected pieces).

>>> shape = SkewShape((2, 1), ())
>>> [t.rows for t in enumerate_standard(shape)]
[((1, 2), (3,)), ((1, 3), (2,))]
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    AyrepError,
    ContentVectorError,
    EmptyShapeError,
    NotStandardError,
    PreconditionError,
)
from .groups import Permutation, partitions, sym_group


class SkewShape:
    """A skew diagram lambda/mu, mu padded with zeros to the length of lambda."""

    __slots__ = ("lam", "mu", "_boxes")

    def __init__(self, lam: Sequence[int], mu: Sequence[int] = ()):
        lam = tuple(lam)
        mu = tuple(mu) + (0,) * (len(lam) - len(mu))
        if len(mu) != len(lam):
            raise ValueError("mu longer than lambda")
        if any(l <= 0 for l in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError(f"lambda must be a positive weakly decreasing sequence: {lam}")
        if any(m < 0 for m in mu) or list(mu) != sorted(mu, reverse=True):
            raise ValueError(f"mu must be a nonnegative weakly decreasing sequence: {mu}")
        if any(m > l for l, m in zip(lam, mu)):
            raise ValueError(f"mu must fit inside lambda: {lam}/{mu}")
        self.lam = lam
        self.mu = mu
        self._boxes = None

    @property
    def size(self) -> int:
        return sum(l - m for l, m in zip(self.lam, self.mu))

    @property
    def is_straight(self) -> bool:
        return all(m == 0 for m in self.mu)

    def boxes(self) -> tuple:
        """Boxes (row, col) in row-major order."""
        if self._boxes is None:
            self._boxes = tuple(
                (r, c)
                for r, (l, m) in enumerate(zip(self.lam, self.mu), start=1)
                for c in range(m + 1, l + 1)
            )
        return self._boxes

    def row_entries_template(self) -> list:
        return [self.lam[r] - self.mu[r] for r in range(len(self.lam))]

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewShape) and self.lam == other.lam and self.mu == other.mu

    def __hash__(self) -> int:
        return hash((self.lam, self.mu))

    def __repr__(self) -> str:
        return f"SkewShape({self.lam}, {self.mu})"

    def __str__(self) -> str:
        lam = ",".join(map(str, self.lam))
        if self.is_straight:
            return f"({lam})"
        mu = ",".join(str(m) for m in self.mu if m > 0)
        return f"({lam})/({mu})"


def straight_shapes(n: int) -> list:
    return [SkewShape(lam) for lam in partitions(n)]


class Tableau:
    """A filling of a skew shape; `rows[i]` holds the entries of row i+1."""

    __slots__ = ("shape", "rows", "_pos")

    def __init__(self, shape: SkewShape, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(r) for r in rows)
        expected = shape.row_entries_template()
        if [len(r) for r in rows] != expected:
            raise ValueError(f"row sizes {[len(r) for r in rows]} do not match shape {shape}")
        self.shape = shape
        self.rows = rows
        self._pos = None

    @classmethod
    def from_box_entries(cls, shape: SkewShape, entries: dict) -> "Tableau":
        rows = []
        for r, (l, m) in enumerate(zip(shape.lam, shape.mu), start=1):
            rows.append(tuple(entries[(r, c)] for c in range(m + 1, l + 1)))
        return cls(shape, rows)

    @property
    def size(self) -> int:
        return self.shape.size

    def positions(self) -> dict:
        """Map entry -> (row, col)."""
        if self._pos is None:
            pos = {}
            for r, row in enumerate(self.rows, start=1):
                for k, v in enumerate(row):
                    pos[v] = (r, self.shape.mu[r - 1] + 1 + k)
            self._pos = pos
        return self._pos

    def entry_map(self) -> dict:
        """Map (row, col) -> entry."""
        return {box: v for v, box in self.positions().items()}

    def is_increasing(self) -> bool:
        """Rows increase left to right, columns increase downwards, entries distinct."""
        vals = [v for row in self.rows for v in row]
        if len(set(vals)) != len(vals):
            return False
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
        entries = self.entry_map()
        for (r, c), v in entries.items():
            below = entries.get((r + 1, c))
            if below is not None and v >= below:
                return False
        return True

    def is_standard(self) -> bool:
        vals = sorted(v for row in self.rows for v in row)
        return vals == list(range(1, self.size + 1)) and self.is_increasing()

    def to_text(self) -> str:
        lines = []
        for r, row in enumerate(self.rows):
            cells = ["."] * self.shape.mu[r] + [str(v) for v in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.shape.lam),
            "mu": list(self.shape.mu),
            "entries": [[r, c, v] for v, (r, c) in sorted(self.positions().items())],
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

    def __repr__(self) -> str:
        return f"Tableau({self.shape}, {self.rows})"


def row_tableau(shape: SkewShape) -> Tableau:
    """Boxes filled 1..n in row-major order."""
    entries = {box: k for k, box in enumerate(shape.boxes(), start=1)}
    return Tableau.from_box_entries(shape, entries)


def column_tableau(shape: SkewShape) -> Tableau:
    """Boxes filled 1..n in column-major order."""
    boxes = sorted(shape.boxes(), key=lambda rc: (rc[1], rc[0]))
    entries = {box: k for k, box in enumerate(boxes, start=1)}
    return Tableau.from_box_entries(shape, entries)


def enumerate_standard(shape: SkewShape) -> list:
    """All standard fillings, sorted by their row-major reading."""
    if shape.size == 0:
        raise EmptyShapeError("cannot enumerate fillings of an empty shape")
    boxes = shape.boxes()
    box_set = set(boxes)
    n = len(boxes)
    out = []
    entries = {}

    def rec(k: int):
        if k > n:
            out.append(dict(entries))
            return
        for box in boxes:
            if box in entries:
                continue
            r, c = box
            if (r, c - 1) in box_set and (r, c - 1) not in entries:
                continue
            if (r - 1, c) in box_set and (r - 1, c) not in entries:
                continue
            entries[box] = k
            rec(k + 1)
            del entries[box]

    rec(1)
    tableaux = [Tableau.from_box_entries(shape, e) for e in out]
    tableaux.sort(key=lambda t: t.rows)
    return tableaux


def hook_length_count(lam: Sequence[int]) -> int:
    """Number of standard fillings of a straight shape, by the hook product."""
    lam = tuple(lam)
    n = sum(lam)
    conj = [sum(1 for l in lam if l > c) for c in range(lam[0])] if lam else []
    prod = 1
    for r, l in enumerate(lam):
        for c in range(l):
            prod *= (l - c) + (conj[c] - r) - 1
    return factorial(n) // prod


def count_standard(shape: SkewShape) -> int:
    if shape.is_straight:
        return hook_length_count(shape.lam)
    return len(enumerate_standard(shape))


# content vectors -------------------------------------------------------------


def content_vector(q: Tableau) -> tuple:
    """(c(1),...,c(n)) where c(k) = col - row of the box holding k."""
    if not q.is_standard():
        raise NotStandardError(f"content vector needs a standard tableau, got {q!r}")
    pos = q.positions()
    return tuple(pos[k][1] - pos[k][0] for k in range(1, q.size + 1))


def derived(values: Sequence[int]) -> tuple:
    """Consecutive differences (v_2 - v_1, ..., v_n - v_{n-1})."""
    if len(values) < 2:
        raise PreconditionError("derived vector needs at least two coordinates")
    return tuple(b - a for a, b in zip(values, values[1:]))


def content_violation(values: Sequence[int]):
    """First pair (i, j) breaking the content-vector condition, or None.

    Whenever c_i = c_j with i < j there must be intermediate positions
    realizing c_i + 1 and c_i - 1.
    """
    vals = tuple(values)
    n = len(vals)
    for i in range(n):
        for j in range(i + 1, n):
            if vals[i] != vals[j]:
                continue
            between = vals[i + 1 : j]
            if vals[i] + 1 not in between or vals[i] - 1 not in between:
                return (i + 1, j + 1)
    return None


def is_content_vector(values: Sequence[int]) -> bool:
    return content_violation(values) is None


class _Component:
    """A connected piece under construction: boxes at private coordinates."""

    __slots__ = ("boxes", "lo", "hi", "last_box", "lo_box", "hi_box")

    def __init__(self, box, entry, content):
        self.boxes = {box: entry}
        self.lo = self.hi = content
        self.last_box = {content: box}
        self.lo_box = self.hi_box = box

    def shift(self, d: int):
        """Diagonal translation by d (contents preserved)."""
        self.boxes = {(r + d, c + d): v for (r, c), v in self.boxes.items()}
        self.last_box = {g: (r + d, c + d) for g, (r, c) in self.last_box.items()}
        self.lo_box = (self.lo_box[0] + d, self.lo_box[1] + d)
        self.hi_box = (self.hi_box[0] + d, self.hi_box[1] + d)


def tableau_from_content(values: Sequence[int]) -> Tableau:
    """A standard skew tableau whose content vector equals `values`.

    Entries are appended one at a time; each lands next to the boxes that the
    content condition guarantees, disconnected pieces are kept separate and
    finally arranged along the diagonal with minimal padding.
    """
    vals = tuple(values)
    bad = content_violation(vals)
    if bad is not None:
        raise ContentVectorError(
            f"positions {bad} share a content with no +1/-1 witnesses between them",
            pair=bad,
        )
    comps: list = []
    for m, gamma in enumerate(vals, start=1):
        inside = next((c for c in comps if c.lo <= gamma <= c.hi), None)
        if inside is not None:
            i, j = inside.last_box[gamma]
            if (i, j + 1) not in inside.boxes or (i + 1, j) not in inside.boxes:
                raise AyrepError(f"internal placement failure at entry {m}")
            inside.boxes[(i + 1, j + 1)] = m
            inside.last_box[gamma] = (i + 1, j + 1)
            continue
        below = next((c for c in comps if c.hi == gamma - 1), None)
        above = next((c for c in comps if c.lo == gamma + 1), None)
        if below is not None and above is not None:
            i_lo, j_lo = below.hi_box
            i_hi, j_hi = above.lo_box
            above.shift((i_lo - 1) - i_hi)
            below.boxes.update(above.boxes)
            below.boxes[(i_lo, j_lo + 1)] = m
            below.last_box.update(above.last_box)
            below.last_box[gamma] = (i_lo, j_lo + 1)
            below.hi = above.hi
            below.hi_box = above.hi_box
            comps.remove(above)
        elif below is not None:
            i, j = below.hi_box
            below.boxes[(i, j + 1)] = m
            below.hi = gamma
            below.hi_box = (i, j + 1)
            below.last_box[gamma] = (i, j + 1)
        elif above is not None:
            i, j = above.lo_box
            above.boxes[(i + 1, j)] = m
            above.lo = gamma
            above.lo_box = (i + 1, j)
            above.last_box[gamma] = (i + 1, j)
        else:
            comps.append(_Component((0, gamma), m, gamma))
    entries = _assemble_components([c.boxes for c in comps])
    shape = shape_from_boxes(entries.keys())
    result = Tableau.from_box_entries(shape, entries)
    if content_vector(result) != vals:
        raise AyrepError("internal error: content round trip failed")
    return result


def _assemble_components(parts: list) -> dict:
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


def shape_from_boxes(boxes: Iterable) -> SkewShape:
    """Reconstruct lambda/mu from a set of (row, col) boxes with min coords >= 1."""
    boxes = set(boxes)
    rows: dict = {}
    for r, c in boxes:
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


# tableau operations ----------------------------------------------------------


def relabel(q: Tableau, pi: Permutation) -> Tableau:
    """Replace each entry e by pi^{-1}(e); the result need not be standard."""
    if pi.size != q.size:
        raise PreconditionError(f"permutation size {pi.size} != tableau size {q.size}")
    inv = pi.inverse()
    return Tableau(q.shape, [tuple(inv(v) for v in row) for row in q.rows])


def relabel_cell(q: Tableau) -> frozenset:
    """{pi : relabel(q, pi) is standard}, by brute force over the whole group.

    The oracle for descent cells: it uses no functional and no descent data.
    """
    return frozenset(pi for pi in sym_group(q.size) if relabel(q, pi).is_standard())


def map_entries(q: Tableau, mapping: dict) -> Tableau:
    """Replace entries through an arbitrary injective map (used for letter sets)."""
    return Tableau(q.shape, [tuple(mapping[v] for v in row) for row in q.rows])


class ReadingWords(NamedTuple):
    row_word: Permutation
    column_word_down: Permutation
    column_word_up: Permutation


def reading_words(q: Tableau) -> ReadingWords:
    """Row and column readings of a standard straight-shape tableau.

    The row word scans rows right to left, top to bottom.  Both column
    readings scan columns left to right; `column_word_up` reads each column
    bottom to top, `column_word_down` top to bottom.
    """
    if not q.shape.is_straight:
        raise PreconditionError("reading words are defined for straight shapes")
    if not q.is_standard():
        raise NotStandardError("reading words need a standard tableau")
    row_word = [v for row in q.rows for v in reversed(row)]
    cols: dict = {}
    for (r, c), v in q.entry_map().items():
        cols.setdefault(c, []).append((r, v))
    down, up = [], []
    for c in sorted(cols):
        col = [v for _, v in sorted(cols[c])]
        down.extend(col)
        up.extend(reversed(col))
    return ReadingWords(Permutation(row_word), Permutation(down), Permutation(up))


def is_row_tableau(q: Tableau) -> bool:
    """Each row's entries exceed every entry of all earlier rows."""
    seen_max = None
    for row in q.rows:
        if not row:
            continue
        if seen_max is not None and min(row) <= seen_max:
            return False
        seen_max = max(row) if seen_max is None else max(seen_max, max(row))
    return True


def is_column_tableau(q: Tableau) -> bool:
    """Each column's entries exceed every entry of all earlier columns."""
    cols: dict = {}
    for (r, c), v in q.entry_map().items():
        cols.setdefault(c, []).append(v)
    seen_max = None
    for c in sorted(cols):
        col = cols[c]
        if seen_max is not None and min(col) <= seen_max:
            return False
        seen_max = max(col) if seen_max is None else max(seen_max, max(col))
    return True


class HookDistance(NamedTuple):
    value: int
    case: str  # "row", "column" or "apart"


def hook_distance(q: Tableau, k: int) -> HookDistance:
    """c(k+1) - c(k) with the adjacency trichotomy; never 0 on standard input."""
    if not 1 <= k < q.size:
        raise PreconditionError(f"k must be in 1..{q.size - 1}")
    pos = q.positions()
    (r1, c1), (r2, c2) = pos[k], pos[k + 1]
    value = (c2 - r2) - (c1 - r1)
    if r1 == r2:
        case = "row"
    elif c1 == c2:
        case = "column"
    else:
        case = "apart"
    if value == 0:
        raise AyrepError("adjacent entries on one diagonal: tableau is not standard")
    return HookDistance(value, case)


def inversions(q: Tableau) -> int:
    """Pairs i < j with i strictly south of j."""
    pos = q.positions()
    vals = sorted(pos)
    count = 0
    for a in range(len(vals)):
        for b in range(a + 1, len(vals)):
            if pos[vals[a]][0] > pos[vals[b]][0]:
                count += 1
    return count


# shape enumeration -----------------------------------------------------------


def compositions(rest: int):
    """Ordered lists of positive parts summing to rest."""
    if rest == 0:
        yield []
        return
    for first in range(1, rest + 1):
        for tail in compositions(rest - first):
            yield [first] + tail


@lru_cache(maxsize=None)
def connected_skew_shapes(m: int) -> tuple:
    """All connected skew shapes with m boxes, up to translation."""
    out = []

    for lengths in compositions(m):
        offsets = [[0]]

        def extend(partial, idx):
            if idx == len(lengths):
                offsets_final.append(list(partial))
                return
            prev_a, prev_l = partial[-1], lengths[idx - 1]
            lo = prev_a - lengths[idx] + 1
            hi = min(prev_a, prev_a + prev_l - lengths[idx])
            for a in range(lo, hi + 1):
                partial.append(a)
                extend(partial, idx + 1)
                partial.pop()

        offsets_final: list = []
        extend([0], 1)
        for offs in offsets_final:
            shift = 1 - min(offs)
            a = [o + shift for o in offs]
            lam = [a[i] + lengths[i] - 1 for i in range(len(lengths))]
            mu = [a[i] - 1 for i in range(len(lengths))]
            out.append(SkewShape(lam, mu))
    return tuple(out)


@lru_cache(maxsize=None)
def skew_shape_family(n: int) -> tuple:
    """Skew shapes of size n in canonical embeddings.

    Ordered lists of connected pieces, southwest to northeast, with content
    ranges separated by exactly 2 (wider separations change no cell and give
    boundary-equivalent representations, so one canonical gap suffices).
    """
    shapes = []

    for comp_sizes in compositions(n):
        def choose(idx, chosen):
            if idx == len(comp_sizes):
                shapes.append(_join_components(chosen))
                return
            for piece in connected_skew_shapes(comp_sizes[idx]):
                choose(idx + 1, chosen + [piece])

        choose(0, [])
    seen = set()
    unique = []
    for s in shapes:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return tuple(unique)


def _join_components(pieces: list) -> SkewShape:
    """Chain pieces SW to NE with content gaps of exactly 2."""
    parts = []
    next_lo = None
    for piece in pieces:
        boxes = {box: None for box in piece.boxes()}
        contents = [c - r for (r, c) in boxes]
        lo = min(contents)
        if next_lo is not None:
            delta = next_lo - lo
            boxes = {(r, c + delta): None for (r, c) in boxes}
            lo += delta
        next_lo = max(c - r for (r, c) in boxes) + 2
        parts.append(boxes)
    merged = _assemble_components(parts)
    return shape_from_boxes(merged.keys())
