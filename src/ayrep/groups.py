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
from itertools import combinations
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
    def _unsafe(cls, images: tuple) -> "Permutation":
        p = object.__new__(cls)
        p.images = images
        p._length = None
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

    def right_descents(self) -> set:
        return {i for i in range(1, len(self.images)) if self.images[i - 1] > self.images[i]}

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


def enumerate_group(group_type: str, n: int) -> list:
    """All elements of S_n ("A") or of the signed permutation group ("B").

    Breadth-first closure over the simple generators, so the returned list is
    graded by length and deterministic.  Raises SizeCapError above the
    configured cap.
    """
    if group_type not in ("A", "B"):
        raise ValueError(f"unknown group type {group_type!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if group_type == "A":
        return list(sym_group(n))
    return [el for el, _word in signed_group_data(n)]


def sym_group(n: int) -> tuple:
    """Cap-checked access to the cached enumeration of S_n."""
    _check_cap("A", n)
    return parabolic_elements(n, frozenset(range(1, n)))


def signed_group_data(n: int) -> tuple:
    """Cap-checked access to the signed group with one word per element."""
    _check_cap("B", n)
    return _signed_group_data(n)


def reduced_word(w: Permutation) -> tuple:
    """One reduced word (i_1,...,i_k) with w = s_{i_1} * ... * s_{i_k}."""
    word = []
    cur = w
    while True:
        descents = cur.right_descents()
        if not descents:
            break
        i = min(descents)
        cur = cur.times_simple(i)
        word.append(i)
    return tuple(reversed(word))


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

    Uses the fact that x lies on a geodesic from u to v exactly when the left
    inversion set of x is sandwiched between the intersection and the union of
    those of u and v (checked against a brute-force path search in the tests).
    """
    K = set(members)
    if not K:
        raise PreconditionError("convexity of the empty set is undefined")
    n = next(iter(K)).size
    masks = _inversion_masks(n)
    if len(K) <= 1 or len(K) == len(masks):
        return True
    inside = [masks[w] for w in K]
    outside = [m for w, m in masks.items() if w not in K]
    for mu in inside:
        for mv in inside:
            lo = mu & mv
            hi = mu | mv
            for mx in outside:
                if mx & lo == lo and mx & hi == mx:
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

    def times_gen(self, g: int) -> "SignedPermutation":
        """Right multiplication: g=0 flips the sign in slot 1, g>=1 swaps slots g, g+1."""
        img = list(self.images)
        if g == 0:
            img[0] = -img[0]
        else:
            img[g - 1], img[g] = img[g], img[g - 1]
        return SignedPermutation._unsafe(tuple(img))

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


def signed_identity(n: int) -> SignedPermutation:
    return SignedPermutation._unsafe(tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def _signed_group_data(n: int) -> tuple:
    """BFS enumeration of the signed group with one reduced word per element."""
    start = signed_identity(n)
    words = {start: ()}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in range(0, n):
                wg = w.times_gen(g)
                if wg not in words:
                    words[wg] = words[w] + (g,)
                    nxt.append(wg)
        nxt.sort(key=lambda u: u.images)
        order.extend(nxt)
        frontier = nxt
    return tuple((el, words[el]) for el in order)


def signed_reduced_word(w: SignedPermutation) -> tuple:
    for el, word in signed_group_data(w.size):
        if el == w:
            return word
    raise ValueError("element not found")


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
    """Conjugacy classes: representatives, sizes, and an element -> rep map."""

    order: int
    reps: tuple
    sizes: dict
    to_rep: dict


def _cycle_type_rep(n: int, parts: tuple) -> Permutation:
    img = []
    start = 1
    for p in parts:
        block = list(range(start + 1, start + p)) + [start]
        img.extend(block)
        start += p
    return Permutation(img)


@lru_cache(maxsize=None)
def class_data_symmetric(n: int) -> ClassData:
    reps = {parts: _cycle_type_rep(n, parts) for parts in partitions(n)}
    elements = sym_group(n)
    sizes = {rep: 0 for rep in reps.values()}
    to_rep = {}
    for w in elements:
        rep = reps[w.cycle_type()]
        sizes[rep] += 1
        to_rep[w] = rep
    return ClassData(len(elements), tuple(reps.values()), sizes, to_rep)


def _brute_class_data(elements: Sequence) -> ClassData:
    elements = list(elements)
    remaining = set(elements)
    reps, sizes, to_rep = [], {}, {}
    inverses = {g: g.inverse() for g in elements}
    for g in elements:
        if g not in remaining:
            continue
        orbit = {x * g * inverses[x] for x in elements}
        remaining -= orbit
        reps.append(g)
        sizes[g] = len(orbit)
        for h in orbit:
            to_rep[h] = g
    return ClassData(len(elements), tuple(reps), sizes, to_rep)


@lru_cache(maxsize=None)
def class_data_signed(n: int) -> ClassData:
    return _brute_class_data([el for el, _ in signed_group_data(n)])


@lru_cache(maxsize=None)
def class_data_parabolic(n: int, J: frozenset) -> ClassData:
    return _brute_class_data(parabolic_elements(n, J))
