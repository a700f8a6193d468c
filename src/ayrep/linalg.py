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

A relation is checked as a word too: `word_is_identity` pushes a basis
vector through M1 * ... * Mk and compares the result with (s1 * ... * sk)
times that vector, so an exact braid check (s_g s_h)^m never forms s_g s_h.
An exact check pushes one basis vector per orbit block.  S commutes with
P = S^2, and once S^2 = T^2 = 1, S P S = T P T = P^-1 for P = (ST)^m;
either way P S e = S e when P e = e, so the vectors P fixes are closed
under S (and T).  A generator column has at most one off-diagonal entry,
S e_j = a e_j + b e_k, so if P fixes e_j it fixes b e_k and so e_k: a
pushed e_j that comes back fixed vouches for every e_k reached from it
along such entries, and a moved vector shows at the first push of its
block.  Matrices with float entries (the orthogonal form) run the same
loops with scale 1, push every vector and compare within FLOAT_TOL, so
the entries alone decide how matrices compare.  Float braid checks still
form s_g s_h and raise it to the power (`power_is_identity`): pushing the
word instead would round in another order and change the float results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

FLOAT_TOL = 1e-9  # entrywise slack of every comparison of matrices that hold a float


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
            columns[j] = tuple(col.items())
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


def word_is_identity(matrices: Sequence[SquareMatrix],
                     closed_under: Sequence[SquareMatrix] = ()) -> bool:
    """Whether matrices[0] * matrices[1] * ... is the identity, without forming it.

    Exact, or entrywise within FLOAT_TOL when a matrix holds a float.  An
    exact check may name in `closed_under` matrices S under which the
    vectors the product P fixes are closed (S P = P S, or S P S = P^-1);
    each basis vector reached from a fixed one along a column of S with one
    off-diagonal entry is then fixed too, and is not pushed.
    """
    forms = [m.scaled_form() for m in matrices]
    chain = [columns for _, columns, _, _ in forms]
    one = prod(s for s, _, _, _ in forms)
    exact = not any(form[2] for form in forms)
    closed = [m.scaled_form()[1] for m in closed_under] if exact else []
    dim = matrices[0].dim if matrices else 0  # the empty word is the identity at any size
    fixed = bytearray(dim)
    for j in range(dim):
        if fixed[j]:
            continue
        vec = _push(chain, j)
        if exact:
            if vec != {j: one}:
                return False
        elif abs(vec.pop(j, 0) / one - 1) > FLOAT_TOL or any(
                abs(v / one) > FLOAT_TOL for v in vec.values()):
            return False
        fixed[j] = 1
        block = [j]
        for v in block:  # S e_v = a e_v + b e_k, b != 0: P fixes S e_v, so b e_k, so e_k
            for columns in closed:
                off = [i for i, _ in columns[v] if i != v]
                if len(off) == 1 and not fixed[off[0]]:
                    fixed[off[0]] = 1
                    block.append(off[0])
    return True


def power_is_identity(m: SquareMatrix, k: int) -> bool:
    """Whether m^k is the identity, exactly or (m holding a float) within FLOAT_TOL."""
    return word_is_identity([m] * k)
