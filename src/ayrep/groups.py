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
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterable, NamedTuple, Optional

from .errors import PreconditionError, SizeCapError

DEFAULT_CAPS = {"A": 7, "B": 5}
_CAP_ENV = "AYREP_MAX_N"


def _check_cap(group_type: str, n: int) -> None:
    """Refuse n above the family's enumeration cap, overridable via AYREP_MAX_N."""
    env = os.environ.get(_CAP_ENV)
    try:
        cap = DEFAULT_CAPS[group_type] if env is None else int(env)
    except ValueError:
        raise PreconditionError(f"{_CAP_ENV} must be an integer, got {env!r}") from None
    if n > cap:
        raise SizeCapError(
            f"type {group_type} enumeration capped at n={cap} (requested {n}); "
            f"raise {_CAP_ENV} to override"
        )


def _integers(values: Iterable) -> Optional[tuple]:
    """The values as ints, or None unless they are iterable, each equals its int() and none is
    a bool: the one rule for integer input, so 2.0 passes and 1.5, "1", True and 5 do not."""
    try:  # a bool is dropped, so the lengths differ
        given = tuple(values)
        ints = tuple(int(v) for v in given if not isinstance(v, bool))
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == given else None


def _shown(values) -> object:
    """values as the tuple a refusal shows, or the value itself when it is not iterable."""
    return tuple(values) if isinstance(values, Iterable) else values


class _OneLine:
    """One-line words on {1..n}, equal within one class; each class has its own hash."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        # the one integer rule, then `_letter` must take the images onto 1..n once each
        given = _shown(images)
        ints = _integers(given)
        if ints is None or sorted(map(self._letter, ints)) != list(range(1, len(ints) + 1)):
            size = len(given) if isinstance(given, tuple) else "n"
            raise ValueError(f"not {self._what} on 1..{size}: {given}")
        self.images = ints

    @property
    def size(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def one_line(self) -> str:
        return ",".join(str(v) for v in self.images)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.images == other.images

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.one_line()})"


class Permutation(_OneLine):
    """A permutation of {1..n}, image of i stored at slot i-1."""

    __slots__ = ("_length",)
    _letter, _what = int, "one-line notation"

    def __init__(self, images: Iterable[int]):
        super().__init__(images)
        self._length = None

    @classmethod
    def _unsafe(cls, images: tuple, length: int = None) -> "Permutation":
        """No validation; `length`, when given, must be the inversion count."""
        p = object.__new__(cls)
        p.images = images
        p._length = length
        return p

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

    def sort_key(self) -> tuple:
        return (self.length(), self.images)

    def __hash__(self) -> int:
        return hash(self.images)


def identity(n: int) -> Permutation:
    if _integers((n,)) is None or n < 0:
        raise ValueError(f"the identity needs an integer n >= 0, got {n!r}")
    return Permutation._unsafe(tuple(range(1, int(n) + 1)))


class Reflection(NamedTuple):
    """A transposition (i, j) with i < j, acting on values from the left."""

    i: int
    j: int

    def __str__(self) -> str:
        return f"({self.i},{self.j})"


def reflection(i: int, j: int) -> Reflection:
    letters = _integers((i, j))
    if letters is None or i == j or min(letters) < 1:
        raise ValueError(f"a reflection needs two distinct letters >= 1, got {i!r} and {j!r}")
    return Reflection(*sorted(letters))


@lru_cache(maxsize=None)
def reflections(n: int) -> tuple:
    return tuple(Reflection(i, j) for i, j in combinations(range(1, n + 1), 2))


def sym_group(n: int) -> tuple:
    """Cap-checked access to the cached enumeration of S_n, in `sort_key` order."""
    _check_cap("A", n)
    return _sym_group(n)


@lru_cache(maxsize=None)
def _sym_group(n: int) -> tuple:
    group = (Permutation._unsafe(img) for img in permutations(range(1, n + 1)))
    return tuple(sorted(group, key=Permutation.sort_key))


@lru_cache(maxsize=None)
def _inversion_masks(n: int) -> dict:
    """Each word of `_sym_group(n)`, in its order -> (its left inversion set, the bits its
    steps w s_1, ..., w s_(n-1) flip, Bjorner-Brenti 1.4): bit k is reflections(n)[k] =
    (x, y), set when y is left of x.  Callers check the cap first."""
    bit = {p: 1 << k for k, t in enumerate(reflections(n)) for p in (t, t[::-1])}
    return {img: (sum(bit[y, x] for a, x in enumerate(img) for y in img[a + 1:] if y < x),
                  tuple(map(bit.__getitem__, zip(img, img[1:]))))
            for img in (w.images for w in _sym_group(n))}


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
    """The right weak order interval [id, w] = {u : l(u) + l(u^{-1} w) = l(w)}.

    Walked down from w by the steps u -> u s_i with u(i) > u(i+1): these
    peel the last letter off a reduced word, so the walk reaches exactly the
    prefixes u of reduced words w = u v.

    >>> sorted(u.one_line() for u in weak_interval(Permutation((2, 3, 1))))
    ['1,2,3', '2,1,3', '2,3,1']
    """
    _check_cap("A", w.size)  # [id, w0] is all of S_n
    out, level = {w}, {w.images}
    while level:
        level = {
            img[:i] + (img[i + 1], img[i]) + img[i + 2:]
            for img in level for i in range(len(img) - 1) if img[i] > img[i + 1]
        }
        out.update(map(Permutation._unsafe, level))
    return out


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
    The walls and their sides are read off the inversion masks (`_walls`), so
    each member costs one AND and one compare.  Checked against the sandwich
    test and a brute-force path search.
    """
    members = tuple(members)
    K = {w.images for w in members}
    if set(map(type, members)) != {Permutation} or len(set(map(len, K))) != 1:
        raise PreconditionError("convexity needs permutations of one size, "
                                "not none, signed words or different sizes")
    _check_cap("A", len(next(iter(K))))
    lo, hi, inside = _walls(K)
    return all(m & (lo | hi) == hi for m in inside)


def _walls(K: set) -> tuple:
    """The walls of a set of one-line words as masks (lo, hi), and the members' masks:
    w s_i crosses a wall when its mask, w's with the step's bit flipped, is no member's,
    and the bit goes to hi when w has it set, else to lo.  A convex set is exactly the
    words whose masks agree with hi on lo | hi (see `is_convex`).  Callers check the cap."""
    member = list(map(_inversion_masks(len(next(iter(K)))).__getitem__, K))
    inside = {m for m, _ in member}
    lo = hi = 0
    for m, bits in member:
        for b in bits:
            if m ^ b not in inside:
                lo, hi = lo | b & ~m, hi | b & m
    return lo, hi, inside


class SignedPermutation(_OneLine):
    """A signed permutation of {1..n}; negative images mark sign flips."""

    __slots__ = ()
    _letter, _what = abs, "a signed one-line word"

    @classmethod
    def _unsafe(cls, images: tuple) -> "SignedPermutation":
        p = object.__new__(cls)
        p.images = images
        return p

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

    def __hash__(self) -> int:
        return hash(("B", self.images))


def signed_reduced_word(w: SignedPermutation) -> tuple:
    """`reduced_word` under its type-B name, which perfbench reports."""
    return reduced_word(w)


def braid_order(g: int, h: int) -> int:
    """Order of s_g s_h: 4 for (0,1), as only the signed group has s_0; 3 if adjacent, else 2."""
    if g == h:
        raise ValueError("generators must differ")
    a, b = min(g, h), max(g, h)
    return 4 if (a, b) == (0, 1) else 3 if b - a == 1 else 2


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


def _letter_blocks(n: int, J) -> list:
    """The letter blocks [a, b] of S_J in order, singletons included."""
    blocks = []
    for i in range(1, n + 1):
        if i - 1 in J:
            blocks[-1] = (blocks[-1][0], i)
        else:
            blocks.append((i, i))
    return blocks


def class_data_symmetric(n: int) -> ClassData:
    return class_data_parabolic(n, frozenset(range(1, n)))


def class_data_signed(n: int) -> ClassData:
    """Classes of the signed group by (alpha, beta), the cycle types of its
    positive and negative cycles; (alpha, beta) has 2^n n! / (z_alpha z_beta
    2^(l(alpha) + l(beta))) elements."""
    _check_cap("B", n)
    return _class_data_signed(n)


@lru_cache(maxsize=None)
def _class_data_signed(n: int) -> ClassData:
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
    blocks = [b - a + 1 for a, b in _letter_blocks(n, J)]
    order = prod(map(factorial, blocks))
    sizes = {}  # representative -> size, in class order
    for types in product(*map(partitions, blocks)):
        sizes[Permutation(_consecutive_cycles(sum(types, ())))] = order // prod(map(_z, types))
    return ClassData(order, tuple(sizes), sizes)
