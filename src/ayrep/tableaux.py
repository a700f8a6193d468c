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
from itertools import accumulate, islice, product
from math import factorial
from typing import NamedTuple, Sequence

from .errors import (
    AyrepError,
    ContentVectorError,
    EmptyShapeError,
    NotStandardError,
    PreconditionError,
)
from .groups import Permutation, _integers, _shown, partitions, sym_group


class SkewShape:
    """A skew diagram lambda/mu, mu padded with zeros to the length of lambda."""

    __slots__ = ("lam", "mu")

    def __init__(self, lam: Sequence[int], mu: Sequence[int] = ()):
        lam, mu = _integers(lam), _integers(mu)
        if lam is None or mu is None:
            raise ValueError("lambda and mu must have integer parts")
        mu += (0,) * (len(lam) - len(mu))
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

    @property
    def size(self) -> int:
        return sum(l - m for l, m in zip(self.lam, self.mu))

    @property
    def is_straight(self) -> bool:
        return all(m == 0 for m in self.mu)

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
        rows = tuple(map(tuple, rows))
        if list(map(len, rows)) != [l - m for l, m in zip(shape.lam, shape.mu)]:
            raise ValueError(f"row sizes {[len(r) for r in rows]} do not match shape {shape}")
        self.shape = shape
        self.rows = rows
        self._pos = None

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

    def is_standard(self) -> bool:
        """Entries are 1..n, each less than the entries just right of and below it."""
        return (sorted(v for row in self.rows for v in row) == list(range(1, self.size + 1))
                and all(a < b for a, b in _precedence_pairs(self)))

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
    letters = iter(range(1, shape.size + 1))
    return Tableau(shape, [islice(letters, l - m) for l, m in zip(shape.lam, shape.mu)])


def enumerate_standard(shape: SkewShape) -> list:
    """All standard fillings, sorted by their row-major reading."""
    n = shape.size
    if n == 0:
        raise EmptyShapeError("cannot enumerate fillings of an empty shape")
    lam, mu = shape.lam, shape.mu
    rows = [[] for _ in lam]
    out = []

    def rec(k: int):
        # letter k goes in the next box of a row whose box above is filled or outside
        if k > n:
            out.append(tuple(map(tuple, rows)))
            return
        for r, row in enumerate(rows):
            c = mu[r] + len(row) + 1
            if c > lam[r] or (r and mu[r - 1] + len(rows[r - 1]) < c <= lam[r - 1]):
                continue
            row.append(k)
            rec(k + 1)
            row.pop()

    rec(1)
    out.sort()
    return [Tableau(shape, filling) for filling in out]


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
    """Number of standard fillings of lambda/mu, by the corner recursion (Stanley, EC2,
    ch. 7): the largest entry sits in the last box of a row r that is a corner of lambda
    outside mu, so f^(lambda/mu) is the sum of f^((lambda - e_r)/mu) over those rows."""
    if shape.size == 0:
        raise EmptyShapeError("cannot count fillings of an empty shape")
    mu = shape.mu
    memo = {mu: 1}  # the shapes between mu and lambda, for this call only

    def count(lam: tuple) -> int:
        if lam not in memo:
            memo[lam] = sum(count(lam[:r] + (l - 1,) + lam[r + 1:]) for r, l in enumerate(lam)
                            if l > mu[r] and (r + 1 == len(lam) or lam[r + 1] < l))
        return memo[lam]

    return count(shape.lam)


# content vectors -------------------------------------------------------------


def content_vector(q: Tableau) -> tuple:
    """(c(1),...,c(n)) where c(k) = col - row of the box holding k."""
    if not q.is_standard():
        raise NotStandardError(f"content vector needs a standard tableau, got {q!r}")
    pos = q.positions()
    return tuple(pos[k][1] - pos[k][0] for k in range(1, q.size + 1))


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


def tableau_from_content(values: Sequence[int]) -> Tableau:
    """A standard skew tableau whose content vector equals `values`.

    Let first[g] be the first letter of content g.  The contents split into
    maximal runs of consecutive integers, one connected piece each.  Within
    a run top[g] = 0 at the lowest content, and above it top[g] = top[g-1] - 1
    if first[g] < first[g-1], else top[g] = top[g-1].  The k-th letter of
    content g goes in box (top[g] + k - 1, top[g] + k - 1 + g).  The pieces
    are then stacked by falling content, each with its top row directly
    below the bottom row of the piece above (`_shape_from_rows`).

    Why it holds: restricted to the contents {g, g+1}, the letters alternate,
    since the content condition puts a g+1 between two g's and a g between
    two g+1's.  So the first g+1 box sits right of the first g box when g
    comes first, and directly above it otherwise; along one diagonal each
    later letter sits one row lower.

    >>> tableau_from_content((0, 1, -1, 0)).rows
    ((1, 2), (3, 4))
    """
    given = _shown(values)
    vals = _integers(given)
    if vals is None:
        raise PreconditionError(f"contents must be integers, got {given}")
    if not vals:
        raise EmptyShapeError("an empty content vector has no tableau")
    bad = content_violation(vals)
    if bad is not None:
        raise ContentVectorError(
            f"positions {bad} share a content with no +1/-1 witnesses between them",
            pair=bad,
        )
    first: dict = {}
    for m, gamma in enumerate(vals, start=1):
        first.setdefault(gamma, m)
    top: dict = {}
    piece: dict = {}  # content -> minus its run's lowest content: runs sort by falling content
    for gamma in sorted(first):
        if gamma - 1 in first:
            top[gamma] = top[gamma - 1] - (first[gamma] < first[gamma - 1])
            piece[gamma] = piece[gamma - 1]
        else:
            top[gamma] = 0
            piece[gamma] = -gamma
    rows: dict = {}  # (piece, row) -> its (content, letter) pairs
    placed = dict.fromkeys(first, 0)
    for m, gamma in enumerate(vals, start=1):
        rows.setdefault((piece[gamma], top[gamma] + placed[gamma]), []).append((gamma, m))
        placed[gamma] += 1
    filled = [sorted(rows[key]) for key in sorted(rows)]
    shape = _shape_from_rows([(row[0][0], row[-1][0]) for row in filled])
    empty = [()] * (len(shape.lam) - len(filled))
    result = Tableau(shape, empty + [[m for _, m in row] for row in filled])
    if content_vector(result) != vals:
        raise AyrepError("internal error: content round trip failed")
    return result


def _shape_from_rows(rows: list) -> SkewShape:
    """The skew shape whose rows, top to bottom, hold the contents lo..hi.

    Row r (counted from 1) spans the columns lo + r .. hi + r.  When a column
    would fall below 1, leading empty rows move every row down and every
    column right by as many, which keeps the contents.

    Both callers list connected pieces by falling content, each from its top
    row to its bottom row, and the contents of two pieces are at least 2
    apart.  Then no two pieces share a column, so no piece needs moving to
    make room for the next one.  Take a lower piece whose top row is row
    R + 1.  That row ends at a content hi at least 2 below the lowest
    content lo of the piece above, so in column hi + R + 1 <= lo + R - 1.
    The bottom row R of the piece above starts at content lo, in column
    lo + R.  Within a skew shape the rows start and end further left going
    down, so every column of the lower piece lies left of every column of
    the pieces above it.
    """
    pad = max(0, max(-lo - i for i, (lo, _) in enumerate(rows)))
    lam = [hi + i + 1 + pad for i, (_, hi) in enumerate(rows)]
    mu = [lo + i + pad for i, (lo, _) in enumerate(rows)]
    return SkewShape([lam[0]] * pad + lam, [lam[0]] * pad + mu)


# tableau operations ----------------------------------------------------------


def relabel(q: Tableau, pi: Permutation) -> Tableau:
    """Replace each entry e by pi^{-1}(e); the result need not be standard."""
    if pi.size != q.size:
        raise PreconditionError(f"permutation size {pi.size} != tableau size {q.size}")
    if not all(1 <= v <= q.size for row in q.rows for v in row):
        raise PreconditionError(f"relabel needs entries in 1..{q.size}")
    inv = pi.inverse()
    return Tableau(q.shape, [tuple(inv(v) for v in row) for row in q.rows])


def relabel_cell(q: Tableau) -> frozenset:
    """{pi : relabel(q, pi) is standard}, by the pair test of `_precedence_pairs` over the
    whole group: the oracle for descent cells, which reads no functional or descent data."""
    pairs = _precedence_pairs(q)
    return frozenset(pi for pi in sym_group(q.size)
                     if all(pi.images.index(a) < pi.images.index(b) for a, b in pairs))


def check_relabel_bijection(q: Tableau, members: tuple) -> None:
    """Raise AssertionError unless pi -> relabel(q, pi) maps the members one to one onto
    the standard fillings of q's shape: each passes the test of `_precedence_pairs` (on
    where[v - 1], v's position in pi's word, found once), distinct members have distinct
    images, and `count_standard` counts them.  No filling is built."""
    pairs, letters = [(a - 1, b - 1) for a, b in _precedence_pairs(q)], range(q.size)
    wheres = (sorted(letters, key=pi.images.__getitem__) for pi in members)
    if not (all(where[a] < where[b] for where in wheres for a, b in pairs)
            and len({pi.images for pi in members}) == len(members) == count_standard(q.shape)):
        raise AssertionError("relabel map failed to be a bijection onto standard fillings")


def _precedence_pairs(q: Tableau) -> list:
    """The entry pairs (a, b) of q, b just right of or below a.  For q holding
    each of 1..n once, relabel(q, pi) is standard exactly when pi^{-1}(a) <
    pi^{-1}(b) for each pair: a stands left of b in pi's one-line word."""
    n, at = q.size, {box: v for v, box in q.positions().items()}
    if sorted(at.values()) != list(range(1, n + 1)):
        raise PreconditionError(f"relabel_cell needs each of 1..{n} once")
    return [(a, at[b]) for (r, c), a in at.items() for b in ((r, c + 1), (r + 1, c)) if b in at]


def map_entries(q: Tableau, mapping: dict) -> Tableau:
    """Replace entries through an arbitrary injective map (used for letter sets)."""
    return Tableau(q.shape, [tuple(mapping[v] for v in row) for row in q.rows])


class ReadingWords(NamedTuple):
    column_word_down: Permutation
    column_word_up: Permutation


def reading_words(q: Tableau) -> ReadingWords:
    """Column readings of a standard straight-shape tableau.

    Both scan columns left to right; `column_word_up` reads each column bottom
    to top, `column_word_down` top to bottom.
    """
    if not q.shape.is_straight:
        raise PreconditionError("reading words are defined for straight shapes")
    if not q.is_standard():
        raise NotStandardError("reading words need a standard tableau")
    cols: dict = {}
    for v, (r, c) in q.positions().items():
        cols.setdefault(c, []).append((r, v))
    down, up = [], []
    for c in sorted(cols):
        col = [v for _, v in sorted(cols[c])]
        down.extend(col)
        up.extend(reversed(col))
    return ReadingWords(Permutation(down), Permutation(up))


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
    """All connected skew shapes with m boxes, up to translation.

    For each composition of m into row lengths, row i+1 starts d columns left
    of row i: d >= 0, it ends no further right (d >= l_(i+1) - l_i), and it
    shares a column with row i (d <= l_(i+1) - 1).  Each d runs from its
    largest value down, so the row starts grow through the list.
    """
    out = []
    for lengths in compositions(m):
        lefts = [range(l - 1, max(0, l - above) - 1, -1)
                 for above, l in zip(lengths, lengths[1:])]
        for ds in product(*lefts):
            # a row's mu is the sum of the shifts of the rows below it
            mu = list(accumulate(reversed(ds), initial=0))[::-1]
            out.append(SkewShape([s + l for s, l in zip(mu, lengths)], mu))
    return tuple(out)


@lru_cache(maxsize=None)
def skew_shape_family(n: int) -> tuple:
    """Skew shapes of size n in canonical embeddings.

    Ordered lists of connected pieces, southwest to northeast, with content
    ranges separated by exactly 2 (wider separations change no cell and give
    boundary-equivalent representations, so one canonical gap suffices).
    The order is part of the contract: the coxeter sweep samples every 7th
    shape at n = 6.
    """
    return tuple(
        _join_components(pieces)
        for sizes in compositions(n)
        for pieces in product(*map(connected_skew_shapes, sizes))
    )


def _join_components(pieces: tuple) -> SkewShape:
    """Chain pieces SW to NE with content gaps of exactly 2, the last piece on top."""
    rows: list = []
    for piece in pieces:
        spans = [(m + 1 - r, l - r) for r, (l, m) in enumerate(zip(piece.lam, piece.mu), 1)]
        # the lowest content starts a piece's bottom row, the highest ends its top row
        delta = rows[0][1] + 2 - spans[-1][0] if rows else 0
        rows = [(lo + delta, hi + delta) for lo, hi in spans] + rows
    return _shape_from_rows(rows)
