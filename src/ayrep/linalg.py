"""Minimal sparse square matrices over exact rationals (or floats).

Columns hold images of basis vectors: entry (i, j) is the coefficient of
basis vector i in the image of basis vector j.  Generator matrices in this
package have at most two nonzero entries per column, so everything stays
dict-of-dict sparse.  A matrix never changes after it is built.

Word traces and relation checks run on integers.  Each exact matrix M is
scaled by the lcm s of its entry denominators, so that N = s*M has integer
entries; seminormal entries are 1/h, 1 and 1 - 1/h^2, so s divides h^2.
Then M1 * ... * Mk = (N1 * ... * Nk) / (s1 * ... * sk) exactly, and each
basis vector is pushed through the word in Python ints with a single
division at the end, so an exact trace is a Fraction whatever the word.
A matrix computes its scaled form once, on first use, and keeps it.  A
word with distinct letters on an exact form that passes
`reps.verify_axiom_B` comes back to each basis vector along the diagonal
alone; `reps.character` has it traced from the scaled diagonals, unpushed.

`word_is_identity` and `power_is_identity` push every basis vector through
a word and compare the result with (s1 * ... * sk) times that vector, so no
product is formed.  Matrices with float entries (the orthogonal form) run
the same loops with scale 1 and compare within FLOAT_TOL, so the entries
alone decide how matrices compare; each comparison is written so that a
NaN fails it.

A relation (s t)^m = 1, or s^2 = 1 as (s, s, 1), is checked block by block
(`relation_holds`).  A block is walked forward from a basis vector e_j that
no earlier block covers, along the stored entries of the columns of s and
t, in the order found.  It holds every image of its vectors, so s and t
keep its span, even where a support is one-way, and the relation holds
exactly when it holds on every block; blocks may overlap.  An exact block
pushes e_j through s t ... s t once.  If e_j comes back fixed, the block
is done when every column of s and t in it has at most one off-diagonal
entry, that entry nonzero, and s is t or both squares hold: S commutes with
P = S^2, and once S^2 = T^2 = 1, S P S = T P T = P^-1 for P = (ST)^m, so
either way the vectors P fixes are closed under S and T, and when P fixes
e_v and S e_v = a e_v + b e_k with b != 0, it fixes e_k.  Any other exact
block pushes every vector it holds.  A square's verdict is decided once
per matrix and kept, as its scaled form is.  A float block (s or t holding
a float) is keyed on m and its entries, relabelled in walk order, and one
table (`_block_holds`) forms each distinct key's local s t and raises it to
the power.  Each entry of s t sums the same terms in the same order as in
the whole product, and a pushed vector stays in its block, so every float
verdict is bit for bit the whole product's (pushing the word s t s t ...
would round in another order).  A block is judged in its own entries'
arithmetic; a float form the library builds holds only floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

FLOAT_TOL = 1e-9  # entrywise slack of every comparison of matrices that hold a float


class SquareMatrix:
    __slots__ = ("dim", "cols", "_form", "_square")

    def __init__(self, dim: int, cols: dict = None):
        self.dim = dim
        self.cols = cols if cols is not None else {}
        self._form = self._square = None  # kept by scaled_form and relation_holds

    def entry(self, i: int, j: int):
        return self.cols.get(j, {}).get(i, 0)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        cols = {}
        for j, col in other.cols.items():
            out: dict = {}
            for k, x in col.items():
                for i, a in self.cols.get(k, {}).items():
                    v = out.get(i, 0) + a * x
                    if v == 0:
                        out.pop(i, None)
                    else:
                        out[i] = v
            if out:
                cols[j] = out
        return SquareMatrix(self.dim, cols)

    def equals(self, other: "SquareMatrix") -> bool:
        """Entrywise equality, exact or (given a float) within FLOAT_TOL, column by column."""
        if self.dim != other.dim:
            return False
        tol = FLOAT_TOL if _holds_float(self) or _holds_float(other) else None
        for j in self.cols.keys() | other.cols.keys():
            a, b = self.cols.get(j, {}), other.cols.get(j, {})
            if tol is None:
                if a != b:
                    return False
            elif not all(abs(a.get(i, 0) - b.get(i, 0)) <= tol for i in a.keys() | b.keys()):
                return False  # written so that a NaN compares unequal
        return True

    def reindexed(self, index_map: Sequence[int]) -> "SquareMatrix":
        """Conjugate by the basis relabeling j -> index_map[j]."""
        cols = {}
        for j, col in self.cols.items():
            cols[index_map[j]] = {index_map[i]: v for i, v in col.items()}
        return SquareMatrix(self.dim, cols)

    def scaled_form(self) -> tuple:
        """The (s, columns, is_float, diagonal) of `_scaled`, computed on first use and kept."""
        if self._form is None:
            self._form = _scaled(self)
        return self._form

    def to_dense(self) -> list:
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def __repr__(self) -> str:
        return f"SquareMatrix(dim={self.dim}, nnz={sum(len(c) for c in self.cols.values())})"


def _holds_float(m: SquareMatrix) -> bool:
    return any(isinstance(v, float) for col in m.cols.values() for v in col.values())


def _scaled(m: SquareMatrix) -> tuple:
    """(s, columns, is_float, diagonal): columns[j] lists the (i, s * m[i, j]) and
    diagonal[j] is s * m[j, j], or diagonal is None; s = 1 if a float is in m."""
    columns = [()] * m.dim
    if _holds_float(m):
        for j, col in m.cols.items():
            columns[j] = col.items()  # a view: the matrix never changes
        return 1, columns, True, None
    s = lcm(*(v.denominator for col in m.cols.values() for v in col.values()))
    for j, col in m.cols.items():
        columns[j] = tuple((i, v.numerator * (s // v.denominator)) for i, v in col.items())
    return s, columns, False, [dict(col).get(j, 0) for j, col in enumerate(columns)]


def _push(chain: Sequence, j: int) -> dict:
    """Image of basis vector j under chain[0] * chain[1] * ..., sparse, zeros dropped."""
    vec = {j: 1}
    for columns in reversed(chain):
        out: dict = {}
        for k, x in vec.items():
            for i, a in columns[k]:
                v = out.get(i, 0) + a * x
                if v == 0:
                    out.pop(i, None)
                else:
                    out[i] = v
        vec = out
        if not vec:
            break
    return vec


def word_trace(matrices: Sequence[SquareMatrix], dim: int, along_diagonal: bool = False):
    """Trace of the product matrices[0] * matrices[1] * ... without forming it.

    An exact word, the empty one included, gives a Fraction.  A float word
    gives a float, or int 0 when no diagonal term survives.  With
    `along_diagonal` the caller vouches that the product comes back to a
    basis vector along the diagonal entries only; an exact word is then
    traced as the sum over j of the products of the scaled diagonal entries,
    and nothing is pushed.
    """
    forms = [m.scaled_form() for m in matrices]
    if along_diagonal and forms and not any(is_float for _, _, is_float, _ in forms):
        total = sum(map(prod, zip(*[diagonal for _, _, _, diagonal in forms])))
        return Fraction(total, prod(s for s, _, _, _ in forms))
    chain = [columns for _, columns, _, _ in forms]
    total = 0
    for j in range(dim):  # not sum(): since Python 3.12 it rounds float sums differently
        total += _push(chain, j).get(j, 0)
    if any(is_float for _, _, is_float, _ in forms):
        return total
    return Fraction(total, prod(s for s, _, _, _ in forms))


def word_is_identity(matrices: Sequence[SquareMatrix]) -> bool:
    """Whether matrices[0] * matrices[1] * ... is the identity, without forming it.

    Exact, or entrywise within FLOAT_TOL when a matrix holds a float; every
    basis vector is pushed.
    """
    forms = [m.scaled_form() for m in matrices]
    chain = [columns for _, columns, _, _ in forms]
    one = prod(s for s, _, _, _ in forms)
    exact = not any(form[2] for form in forms)
    for j in range(matrices[0].dim if matrices else 0):  # the empty word is the identity
        vec = _push(chain, j)
        if exact:
            if vec != {j: one}:
                return False
        elif not abs(vec.pop(j, 0) / one - 1) <= FLOAT_TOL or not all(
                abs(v / one) <= FLOAT_TOL for v in vec.values()):
            return False  # written so that a NaN fails
    return True


def power_is_identity(m: SquareMatrix, k: int) -> bool:
    """Whether m^k is the identity, exactly or (m holding a float) within FLOAT_TOL."""
    return word_is_identity([m] * k)


def relation_holds(s: SquareMatrix, t: SquareMatrix, m: int) -> bool:
    """Whether (s t)^m is the identity, exactly or (s or t holding a float)
    within FLOAT_TOL, checked block by block (see the module notes); s^2 = 1
    is (s, s, 1), decided once per matrix and kept."""
    square = s is t and m == 1
    if square and s._square is not None:
        return s._square
    (scale_s, cols_s, float_s, _), (scale_t, cols_t, float_t, _) = s.scaled_form(), t.scaled_form()
    exact = not (float_s or float_t)
    chain, one = [cols_s, cols_t] * m, (scale_s * scale_t) ** m
    vouch = exact and (s is t or relation_holds(s, s, 1) and relation_holds(t, t, 1))
    pair = (cols_s,) if s is t else (cols_s, cols_t)
    # start[i]: the first vector of the last block that holds e_i; where[i]: e_i's place in it
    start, where, holds, empty = [-1] * s.dim, [0] * s.dim, True, {}
    for j in range(s.dim):
        if start[j] >= 0:
            continue
        start[j], block, two_term = j, [j], vouch
        for v in block:  # the block holds every image of its vectors
            for columns in pair:
                off = 0  # a stored zero counts as two off-diagonal entries
                for i, x in columns[v]:
                    if i != v:
                        off += 1 if x else 2
                        if start[i] != j:
                            start[i], where[i] = j, len(block)
                            block.append(i)
                two_term = two_term and off < 2
        if exact:
            holds = all(_push(chain, v) == {v: one} for v in (block[:1] if two_term else block))
        else:  # m, the size, and the (column, row, value) triples of s and of t in stored order
            holds = _block_holds((m, len(block), *(
                tuple([(k, where[i], x) for k, v in enumerate(block)
                       for i, x in cols.get(v, empty).items()]) for cols in (s.cols, t.cols))))
        if not holds:
            break
    if square:
        s._square = holds
    return holds


@lru_cache(maxsize=None)
def _block_holds(key: tuple) -> bool:
    """`power_is_identity(s * t, m)` on the local s and t that a key spells out."""
    m, dim, *triples = key
    s, t = (SquareMatrix(dim) for _ in triples)
    for matrix, entries in zip((s, t), triples):
        for j, i, x in entries:
            matrix.cols.setdefault(j, {})[i] = x
    return power_is_identity(s * t, m)
