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
A matrix computes its scaled form once, on first use, and keeps it.

A relation is checked as a word too: `word_is_identity` pushes each basis
vector through M1 * ... * Mk and compares the result with (s1 * ... * sk)
times that vector, so an exact braid check (s_g s_h)^m never forms s_g s_h.
Matrices with float entries (the orthogonal form) run the same loops with
scale 1.  Float braid checks still form s_g s_h and raise it to the power
(`power_is_identity`): pushing the word instead would round in another
order and change the float results in their last bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence


class SquareMatrix:
    __slots__ = ("dim", "cols", "_form")

    def __init__(self, dim: int, cols: dict = None):
        self.dim = dim
        self.cols = cols if cols is not None else {}
        self._form = None

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

    def equals(self, other: "SquareMatrix", tol=None) -> bool:
        """Entrywise equality, exact or (given tol) within tol, column by column in place."""
        if self.dim != other.dim:
            return False
        for j in self.cols.keys() | other.cols.keys():
            a, b = self.cols.get(j, {}), other.cols.get(j, {})
            if tol is None:
                if a != b:
                    return False
            elif any(abs(a.get(i, 0) - b.get(i, 0)) > tol for i in a.keys() | b.keys()):
                return False
        return True

    def reindexed(self, index_map: Sequence[int]) -> "SquareMatrix":
        """Conjugate by the basis relabeling j -> index_map[j]."""
        cols = {}
        for j, col in self.cols.items():
            cols[index_map[j]] = {index_map[i]: v for i, v in col.items()}
        return SquareMatrix(self.dim, cols)

    def scaled_form(self) -> tuple:
        """The (s, columns, is_float) of `_scaled`, computed on first use and kept."""
        if self._form is None:
            self._form = _scaled(self)
        return self._form

    def to_dense(self) -> list:
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def __repr__(self) -> str:
        return f"SquareMatrix(dim={self.dim}, nnz={sum(len(c) for c in self.cols.values())})"


def _scaled(m: SquareMatrix) -> tuple:
    """(s, columns, is_float): columns[j] lists the (i, s * m[i, j]); s = 1 if a float is in m."""
    entries = [v for col in m.cols.values() for v in col.values()]
    columns = [()] * m.dim
    if any(isinstance(v, float) for v in entries):
        for j, col in m.cols.items():
            columns[j] = tuple(col.items())
        return 1, columns, True
    s = lcm(*(v.denominator for v in entries))
    for j, col in m.cols.items():
        columns[j] = tuple((i, v.numerator * (s // v.denominator)) for i, v in col.items())
    return s, columns, False


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


def word_trace(matrices: Sequence[SquareMatrix], dim: int):
    """Trace of the product matrices[0] * matrices[1] * ... without forming it.

    An exact word, the empty one included, gives a Fraction.  A float word
    gives a float, or int 0 when no diagonal term survives.
    """
    forms = [m.scaled_form() for m in matrices]
    chain = [columns for _, columns, _ in forms]
    total = 0
    for j in range(dim):  # not sum(): since Python 3.12 it rounds float sums differently
        total += _push(chain, j).get(j, 0)
    if any(is_float for _, _, is_float in forms):
        return total
    return Fraction(total, prod(s for s, _, _ in forms))


def word_is_identity(matrices: Sequence[SquareMatrix], dim: int, tol=None) -> bool:
    """Whether matrices[0] * matrices[1] * ... is the identity, without forming it.

    Exact, or (given tol) entrywise within tol.
    """
    forms = [m.scaled_form() for m in matrices]
    chain = [columns for _, columns, _ in forms]
    one = prod(s for s, _, _ in forms)
    for j in range(dim):
        vec = _push(chain, j)
        if tol is None:
            if vec != {j: one}:
                return False
        elif abs(vec.pop(j, 0) / one - 1) > tol or any(abs(v / one) > tol for v in vec.values()):
            return False
    return True


def power_is_identity(m: SquareMatrix, k: int, tol=None) -> bool:
    """Whether m^k is the identity, exactly or (given tol) entrywise within tol."""
    return word_is_identity([m] * k, m.dim, tol)
