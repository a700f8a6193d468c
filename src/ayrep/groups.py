"""Symmetric and hyperoctahedral group combinatorics.

Elements are kept in one-line notation on {1..n}.  Conventions pinned for the
whole package:

* composition is (pi * sigma)(i) = pi(sigma(i)),
* right multiplication by the adjacent swap s_i exchanges positions i, i+1,
* left multiplication by the transposition (i, j) exchanges values i, j,
* for a reflection t = (i, j) with i < j and a coordinate vector f,
  the pairing is <f, t> = f_j - f_i.

>>> w = Permutation((3, 2, 1, 5, 4))
>>> w.length()
4
>>> (w * w.inverse()).is_identity()
True
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod
from typing import Iterable, NamedTuple, Sequence

from .errors import PreconditionError, SizeCapError

DEFAULT_CAPS = {"A": 7, "B": 5}
_CAP_ENV = "AYREP_MAX_N"


def group_cap(group_type: str) -> int:
    """Enumeration cap for the given family, overridable via AYREP_MAX_N."""
    env = os.environ.get(_CAP_ENV)
    if env is None:
        return DEFAULT_CAPS[group_type]
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(f"{_CAP_ENV} must be an integer, got {env!r}") from None


def _check_cap(group_type: str, n: int) -> None:
    cap = group_cap(group_type)
    if n > cap:
        raise SizeCapError(
            f"type {group_type} enumeration capped at n={cap} (requested {n}); "
            f"raise {_CAP_ENV} to override"
        )


class Permutation:
    """A permutation of {1..n}, image of i stored at slot i-1."""

    __slots__ = ("images", "_length")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not one-line notation on 1..{len(images)}: {images}")
        self.images = images
        self._length = None

    @classmethod
    def _unsafe(cls, images: tuple, length: int = None) -> "Permutation":
        """No validation; `length`, when given, must be the inversion count."""
        p = object.__new__(cls)
        p.images = images
        p._length = length
        return p

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for pos, val in enumerate(self.images, start=1):
            inv[val - 1] = pos
        return Permutation._unsafe(tuple(inv))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("size mismatch")
        simg = self.images
        return Permutation._unsafe(tuple(simg[v - 1] for v in other.images))

    def times_simple(self, i: int) -> "Permutation":
        """Right multiplication by s_i: swap positions i, i+1 (1-based)."""
        img = list(self.images)
        img[i - 1], img[i] = img[i], img[i - 1]
        return Permutation._unsafe(tuple(img))

    def length(self) -> int:
        """Coxeter length: the number of inversions of the one-line word."""
        if self._length is None:
            img = self.images
            n = len(img)
            self._length = sum(
                1 for a in range(n) for b in range(a + 1, n) if img[a] > img[b]
            )
        return self._length

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def cycle_type(self) -> tuple:
        seen = [False] * len(self.images)
        lengths = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            k, cur = 0, start
            while not seen[cur - 1]:
                seen[cur - 1] = True
                cur = self.images[cur - 1]
                k += 1
            lengths.append(k)
        return tuple(sorted(lengths, reverse=True))

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        return cls(int(part) for part in text.split(","))

    def sort_key(self) -> tuple:
        return (self.length(), self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.one_line()})"


def identity(n: int) -> Permutation:
    return Permutation._unsafe(tuple(range(1, n + 1)))


def simple(n: int, i: int) -> Permutation:
    """The adjacent transposition s_i in S_n, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} is not a generator of S_{n}")
    return identity(n).times_simple(i)


class Reflection(NamedTuple):
    """A transposition (i, j) with i < j, acting on values from the left."""

    i: int
    j: int

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


def reflection(i: int, j: int) -> Reflection:
    if i == j:
        raise ValueError("a reflection needs two distinct values")
    return Reflection(i, j) if i < j else Reflection(j, i)


@lru_cache(maxsize=None)
def reflections(n: int) -> tuple:
    return tuple(Reflection(i, j) for i, j in combinations(range(1, n + 1), 2))


def conjugated_reflection(w: Permutation, i: int) -> Reflection:
    """The reflection w s_i w^{-1}, i.e. the transposition of values w(i), w(i+1)."""
    return reflection(w.images[i - 1], w.images[i])


def pair(coords: Sequence[int], t: Reflection):
    """Pairing of a coordinate vector with the root of t = (i, j): f_j - f_i.

    Invariant under adding a constant to all coordinates.
    """
    return coords[t.j - 1] - coords[t.i - 1]


def left_descents_in(candidates: Iterable[Reflection], w: Permutation) -> set:
    """{t in candidates : l(t w) < l(w)}; for t=(i,j) that is w^{-1}(i) > w^{-1}(j)."""
    inv = w.inverse().images
    return {t for t in candidates if inv[t.i - 1] > inv[t.j - 1]}


def sym_group(n: int) -> tuple:
    """Cap-checked access to the cached enumeration of S_n."""
    _check_cap("A", n)
    return parabolic_elements(n, frozenset(range(1, n)))


def reduced_word(w) -> tuple:
    """One reduced word (g_1,...,g_k) with w = s_{g_1} * ... * s_{g_k}.

    Peels the first right descent off a one-line list until none is left:
    g = 0 when w(1) < 0 (signed w only), else the least i with w(i) > w(i+1).
    Each peel shortens w by one, so the word is reduced.
    """
    img = list(w.images)
    word = []
    while True:
        if img and img[0] < 0:
            g = 0
            img[0] = -img[0]
        else:
            g = next((i for i in range(1, len(img)) if img[i - 1] > img[i]), None)
            if g is None:
                return tuple(reversed(word))
            img[g - 1], img[g] = img[g], img[g - 1]
        word.append(g)


def weak_interval(w: Permutation) -> set:
    """The right weak order interval [id, w] = {u : l(u) + l(u^{-1} w) = l(w)}."""
    lw = w.length()
    out = set()
    for u in sym_group(w.size):
        lu = u.length()
        if lu <= lw and lu + (u.inverse() * w).length() == lw:
            out.add(u)
    return out


@lru_cache(maxsize=None)
def _inversion_masks(n: int) -> dict:
    """Left inversion sets encoded as bitmasks over reflections(n)."""
    refl = reflections(n)
    masks = {}
    for w in sym_group(n):
        inv = w.inverse().images
        m = 0
        for k, t in enumerate(refl):
            if inv[t.i - 1] > inv[t.j - 1]:
                m |= 1 << k
        masks[w] = m
    return masks


def is_convex(members: Iterable[Permutation]) -> bool:
    """Whether every geodesic of the right Cayley graph between two members
    stays inside the set.

    Criterion: a nonempty K is convex exactly when, for every boundary edge
    (w in K, ws not in K), all of K lies on w's side of the wall w s w^-1,
    i.e. no member's left inversion set differs from w's on that reflection.
    (<=) A geodesic from K to any x outside leaves K by a boundary edge and
    crosses its wall once, so these half-spaces cut out K: an intersection
    of convex sets.  (=>) ws lies on a geodesic from w to any member across
    the wall, its inversion set being sandwiched between theirs.
    Costs O(|K| n); checked against the sandwich test and a brute-force path
    search in the tests.
    """
    K = set(members)
    if not K:
        raise PreconditionError("convexity of the empty set is undefined")
    n = next(iter(K)).size
    masks = _inversion_masks(n)
    union, common = 0, ~0
    for w in K:
        union |= masks[w]
        common &= masks[w]
    split = union & ~common  # reflections whose walls cut through K
    if not split:
        return True
    for w in K:
        mw = masks[w]
        for i in range(1, n):
            ws = w.times_simple(i)
            if ws not in K and (mw ^ masks[ws]) & split:
                return False
    return True


def minimal_coset_reps(n: int, J: Iterable[int]) -> set:
    """Minimal-length representatives of the right cosets of <s_j : j in J>.

    Returns {w : no left descent of w lies in J}.
    """
    J = set(J)
    if not J <= set(range(1, n)):
        raise ValueError(f"J must be a set of generator indices 1..{n - 1}")
    reps = set()
    for w in sym_group(n):
        inv = w.inverse().images
        if all(inv[j - 1] < inv[j] for j in J):
            reps.add(w)
    return reps


@lru_cache(maxsize=None)
def parabolic_elements(n: int, J: frozenset) -> tuple:
    """Elements of the standard parabolic subgroup <s_j : j in J> of S_n."""
    start = identity(n)
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for j in sorted(J):
                ws = w.times_simple(j)
                if ws not in seen:
                    seen.add(ws)
                    nxt.append(ws)
        nxt.sort(key=lambda u: u.images)
        order.extend(nxt)
        frontier = nxt
    return tuple(order)


class SignedPermutation:
    """A signed permutation of {1..n}; negative images mark sign flips."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(abs(v) for v in images) != list(range(1, len(images) + 1)) or 0 in images:
            raise ValueError(f"not a signed one-line word on 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def _unsafe(cls, images: tuple) -> "SignedPermutation":
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if i < 0:
            return -self.images[-i - 1]
        return self.images[i - 1]

    def inverse(self) -> "SignedPermutation":
        inv = [0] * len(self.images)
        for pos, val in enumerate(self.images, start=1):
            if val > 0:
                inv[val - 1] = pos
            else:
                inv[-val - 1] = -pos
        return SignedPermutation._unsafe(tuple(inv))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return SignedPermutation._unsafe(tuple(self(v) for v in other.images))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    @classmethod
    def from_one_line(cls, text: str) -> "SignedPermutation":
        return cls(int(part) for part in text.split(","))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(("B", self.images))

    def __repr__(self) -> str:
        return f"SignedPermutation({self.one_line()})"


def signed_reduced_word(w: SignedPermutation) -> tuple:
    """`reduced_word` under its type-B name, which perfbench reports."""
    return reduced_word(w)


def braid_order(group_type: str, g: int, h: int) -> int:
    """Order of s_g s_h: 4 for the signed pair (0,1), 3 for adjacent, else 2."""
    if g == h:
        raise ValueError("generators must differ")
    a, b = min(g, h), max(g, h)
    if group_type == "B" and (a, b) == (0, 1):
        return 4
    return 3 if b - a == 1 else 2


# conjugacy-class bookkeeping ------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n, weakly decreasing, in reverse lexicographic order."""
    if n == 0:
        return ((),)
    out = []

    def rec(rest, most, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, most), 0, -1):
            rec(rest - part, part, prefix + [part])

    rec(n, n, [])
    return tuple(out)


class ClassData(NamedTuple):
    """Conjugacy classes: the group order, representatives and class sizes."""

    order: int
    reps: tuple
    sizes: dict


def _z(parts: tuple) -> int:
    """The centralizer order z of a cycle type: prod of k^m_k m_k!."""
    return prod(k ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))


def _consecutive_cycles(parts: tuple, negative: tuple = ()) -> list:
    """One-line images of consecutive cycles of the given lengths; the cycles
    of `negative` follow, each with its closing image negated."""
    img, start = [], 1
    for p, sign in [(p, 1) for p in parts] + [(p, -1) for p in negative]:
        img.extend(range(start + 1, start + p))
        img.append(sign * start)
        start += p
    return img


def _letter_blocks(n: int, J) -> tuple:
    """The sizes of the letter blocks of S_J in order, singletons included."""
    sizes = []
    for i in range(1, n + 1):
        if i - 1 in J:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(sizes)


def block_cycle_type(w: Permutation, J) -> tuple:
    """The cycle type of w on each letter block of S_J; w must lie in S_J."""
    out, start = [], 0
    for size in _letter_blocks(w.size, J):
        block = w.images[start:start + size]
        out.append(Permutation._unsafe(tuple(v - start for v in block)).cycle_type())
        start += size
    return tuple(out)


def class_data_symmetric(n: int) -> ClassData:
    return class_data_parabolic(n, frozenset(range(1, n)))


@lru_cache(maxsize=None)
def class_data_signed(n: int) -> ClassData:
    """Classes of the signed group by (alpha, beta), the cycle types of its
    positive and negative cycles; (alpha, beta) has 2^n n! / (z_alpha z_beta
    2^(l(alpha) + l(beta))) elements."""
    _check_cap("B", n)
    order = 2**n * factorial(n)
    sizes = {}  # representative -> size, in class order
    for k in range(n + 1):
        for alpha, beta in product(partitions(n - k), partitions(k)):
            rep = SignedPermutation(_consecutive_cycles(alpha, beta))
            sizes[rep] = order // (_z(alpha) * _z(beta) * 2 ** (len(alpha) + len(beta)))
    return ClassData(order, tuple(sizes), sizes)


@lru_cache(maxsize=None)
def class_data_parabolic(n: int, J: frozenset) -> ClassData:
    """Classes of S_J by block-wise cycle type: one partition per letter block.

    A class's representative is made of consecutive cycles and it has
    prod |b|! / z elements; for S_n these are the partitions(n) in order.
    """
    blocks = _letter_blocks(n, J)
    order = prod(map(factorial, blocks))
    sizes = {}  # representative -> size, in class order
    for types in product(*map(partitions, blocks)):
        sizes[Permutation(_consecutive_cycles(sum(types, ())))] = order // prod(map(_z, types))
    return ClassData(order, tuple(sizes), sizes)
