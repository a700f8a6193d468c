"""Minimal sparse square matrices over exact rationals (or floats).

Columns hold images of basis vectors: entry (i, j) is the coefficient of
basis vector i in the image of basis vector j.  Generator matrices in this
package have at most two nonzero entries per column, so everything stays
dict-of-dict sparse.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class SquareMatrix:
    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols: dict = None):
        self.dim = dim
        self.cols = cols if cols is not None else {}

    @classmethod
    def identity(cls, dim: int, one=Fraction(1)) -> "SquareMatrix":
        return cls(dim, {j: {j: one} for j in range(dim)})

    def set_entry(self, i: int, j: int, value) -> None:
        if value == 0:
            self.cols.get(j, {}).pop(i, None)
        else:
            self.cols.setdefault(j, {})[i] = value

    def entry(self, i: int, j: int):
        return self.cols.get(j, {}).get(i, 0)

    def column(self, j: int) -> dict:
        return dict(self.cols.get(j, {}))

    def apply(self, vec: dict) -> dict:
        out: dict = {}
        for j, x in vec.items():
            for i, a in self.cols.get(j, {}).items():
                v = out.get(i, 0) + a * x
                if v == 0:
                    out.pop(i, None)
                else:
                    out[i] = v
        return out

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        cols = {}
        for j, col in other.cols.items():
            out = self.apply(col)
            if out:
                cols[j] = out
        return SquareMatrix(self.dim, cols)

    def max_deviation_from(self, other: "SquareMatrix") -> float:
        worst = 0.0
        keys = set(self.cols) | set(other.cols)
        for j in keys:
            rows = set(self.cols.get(j, {})) | set(other.cols.get(j, {}))
            for i in rows:
                worst = max(worst, abs(self.entry(i, j) - other.entry(i, j)))
        return worst

    def is_identity(self, tol=None) -> bool:
        if tol is None:
            for j in range(self.dim):
                if self.cols.get(j, {}) != {j: self.entry(j, j)} or self.entry(j, j) != 1:
                    return False
            return True
        return self.max_deviation_from(SquareMatrix.identity(self.dim, 1.0)) <= tol

    def equals(self, other: "SquareMatrix", tol=None) -> bool:
        if self.dim != other.dim:
            return False
        if tol is None:
            return all(
                self.column(j) == other.column(j)
                for j in set(self.cols) | set(other.cols)
            )
        return self.max_deviation_from(other) <= tol

    def reindexed(self, index_map: Sequence[int]) -> "SquareMatrix":
        """Conjugate by the basis relabeling j -> index_map[j]."""
        cols = {}
        for j, col in self.cols.items():
            cols[index_map[j]] = {index_map[i]: v for i, v in col.items()}
        return SquareMatrix(self.dim, cols)

    def to_dense(self) -> list:
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def __repr__(self) -> str:
        return f"SquareMatrix(dim={self.dim}, nnz={sum(len(c) for c in self.cols.values())})"


def word_trace(matrices: Sequence[SquareMatrix], dim: int):
    """Trace of the product matrices[0] * matrices[1] * ... without forming it."""
    if not matrices:
        return dim if dim else 0
    total = 0
    for j in range(dim):
        vec = {j: 1}
        for m in reversed(matrices):
            vec = m.apply(vec)
            if not vec:
                break
        total += vec.get(j, 0)
    return total


def power_is_identity(m: SquareMatrix, k: int, tol=None) -> bool:
    acc = m
    for _ in range(k - 1):
        acc = acc * m
    return acc.is_identity(tol)
