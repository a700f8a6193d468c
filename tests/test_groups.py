import itertools
import math
import random
from collections import deque
from functools import lru_cache, reduce
from operator import and_, mul, or_

import pytest
from hypothesis import given, settings, strategies as st

from ayrep.cells import descent_partition
from ayrep.errors import PreconditionError, SizeCapError
from ayrep.groups import (
    Permutation,
    SignedPermutation,
    block_cycle_type,
    class_data_parabolic,
    class_data_signed,
    class_data_symmetric,
    identity,
    is_convex,
    left_descents_in,
    minimal_coset_reps,
    pair,
    parabolic_elements,
    partitions,
    reduced_word,
    reflection,
    reflections,
    signed_reduced_word,
    simple,
    weak_interval,
    sym_group,
)


def perms(n):
    return list(sym_group(n))


@st.composite
def permutation_strategy(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    images = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(images)


def _bfs_distances(n):
    """Graph distance from the identity in the right Cayley graph."""
    start = identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(1, n):
            ws = w.times_simple(i)
            if ws not in dist:
                dist[ws] = dist[w] + 1
                queue.append(ws)
    return dist


def _signed_gen(n, g):
    """s_0 flips the sign of 1; s_g for g >= 1 swaps g and g+1."""
    img = list(range(1, n + 1))
    if g == 0:
        img[0] = -1
    else:
        img[g - 1], img[g] = img[g], img[g - 1]
    return SignedPermutation(img)


def _signed_bfs_distances(n):
    """Graph distance from the identity in the right Cayley graph of B_n,
    for every element of B_n."""
    gens = [_signed_gen(n, g) for g in range(n)]
    start = SignedPermutation(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in gens:
            ws = w * s
            if ws not in dist:
                dist[ws] = dist[w] + 1
                queue.append(ws)
    return dist


# length ----------------------------------------------------------------------


def test_length_examples():
    assert identity(4).length() == 0
    assert Permutation((3, 2, 1, 5, 4)).length() == 4
    assert Permutation((1, 4, 2, 5, 3)).length() == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_length_equals_word_length(n):
    dist = _bfs_distances(n)
    for w in perms(n):
        assert w.length() == dist[w]


@given(permutation_strategy())
@settings(max_examples=80, deadline=None)
def test_inverse_round_trip(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity()


@given(permutation_strategy(), st.data())
@settings(max_examples=80, deadline=None)
def test_simple_step_changes_length_by_one(w, data):
    if w.size < 2:
        return
    i = data.draw(st.integers(min_value=1, max_value=w.size - 1))
    assert abs(w.times_simple(i).length() - w.length()) == 1


def _min_descent_word(w):
    """Strip the least right descent until none is left, on Permutations."""
    word, cur = [], w
    while True:
        descents = [i for i in range(1, cur.size) if cur(i) > cur(i + 1)]
        if not descents:
            return tuple(reversed(word))
        cur = cur.times_simple(descents[0])
        word.append(descents[0])


def test_reduced_word_reproduces_element():
    for n in range(1, 7):
        dist = _bfs_distances(n)
        for w in perms(n):
            word = reduced_word(w)
            assert len(word) == dist[w] == w.length()
            assert reduce(mul, (simple(n, i) for i in word), identity(n)) == w
            assert word == _min_descent_word(w)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_signed_reduced_word_is_a_shortest_word(n):
    dist = _signed_bfs_distances(n)
    assert len(dist) == 2**n * math.factorial(n)
    gens = [_signed_gen(n, g) for g in range(n)]
    start = SignedPermutation(range(1, n + 1))
    for w, d in dist.items():
        word = signed_reduced_word(w)
        assert len(word) == d
        assert reduce(mul, (gens[g] for g in word), start) == w


# descents and pairing ----------------------------------------------------------


def test_left_descents_examples():
    assert left_descents_in(reflections(3), identity(3)) == set()
    assert left_descents_in({reflection(1, 2)}, Permutation((2, 1, 3))) == {reflection(1, 2)}
    assert left_descents_in({reflection(1, 3)}, Permutation((1, 3, 2))) == set()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_descent_count_is_length(n):
    T = reflections(n)
    for w in perms(n):
        assert len(left_descents_in(T, w)) == w.length()


def test_pair_examples():
    assert pair((0, 2, -1), reflection(1, 3)) == -1
    assert pair((0, 2, -1), reflection(1, 2)) == 2


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=7), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_pair_shift_invariance(coords, shift):
    n = len(coords)
    shifted = [c + shift for c in coords]
    for t in reflections(n):
        assert pair(coords, t) == pair(shifted, t)


def test_pair_of_conjugated_reflection_matches_position_difference():
    from ayrep.groups import conjugated_reflection

    f = (0, 2, -1, 4)
    for w in perms(4):
        for i in range(1, 4):
            t = conjugated_reflection(w, i)
            sign = 1 if w(i) < w(i + 1) else -1
            assert pair(f, t) == sign * (f[w(i + 1) - 1] - f[w(i) - 1])


# weak order ---------------------------------------------------------------------


def test_weak_interval_examples():
    assert weak_interval(identity(3)) == {identity(3)}
    assert weak_interval(Permutation((1, 3, 2))) == {identity(3), Permutation((1, 3, 2))}
    expected = {
        Permutation((1, 2, 3, 4, 5)),
        Permutation((1, 2, 4, 3, 5)),
        Permutation((1, 4, 2, 3, 5)),
        Permutation((1, 2, 4, 5, 3)),
        Permutation((1, 4, 2, 5, 3)),
    }
    assert weak_interval(Permutation((1, 4, 2, 5, 3))) == expected


def _on_some_geodesic(n, u, v):
    """Graph-theoretic betweenness oracle via breadth-first distances."""
    dist = _bfs_distances(n)
    d_uv = dist[(u.inverse() * v)]
    return {
        x
        for x in perms(n)
        if dist[(u.inverse() * x)] + dist[(x.inverse() * v)] == d_uv
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_convexity_matches_geodesic_oracle(n):
    rng = random.Random(7)
    group = perms(n)
    candidates = []
    if n <= 3:
        for size in range(1, len(group) + 1):
            candidates.extend(
                [set(c) for c in itertools.combinations(group, size)][:40]
            )
    else:
        for _ in range(60):
            candidates.append(set(rng.sample(group, rng.randint(1, 8))))
    for K in candidates:
        oracle = all(
            _on_some_geodesic(n, u, v) <= K for u in K for v in K
        )
        assert is_convex(K) == oracle


def test_convexity_examples():
    assert is_convex({identity(3)})
    assert is_convex({identity(3), Permutation((2, 1, 3)), Permutation((1, 3, 2))})
    assert not is_convex({identity(3), Permutation((2, 3, 1))})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weak_intervals_convex(n):
    for w in perms(n):
        assert is_convex(weak_interval(w))


@lru_cache(maxsize=None)
def _left_inversion_masks(n):
    """Left inversion set of every element, as a bitmask over reflections(n)."""
    refl = reflections(n)
    masks = {}
    for w in perms(n):
        descents = left_descents_in(refl, w)
        masks[w] = sum(1 << k for k, t in enumerate(refl) if t in descents)
    return masks


def _sandwich_convex(members):
    """Oracle: no outside element lies on a geodesic between two members.

    x lies on a geodesic from u to v exactly when its left inversion set is
    sandwiched between the intersection and the union of theirs.  Only an x
    sandwiched between the intersection and the union over all of K can be.
    """
    K = set(members)
    masks = _left_inversion_masks(next(iter(K)).size)
    inside = [masks[w] for w in K]
    lo_all, hi_all = reduce(and_, inside), reduce(or_, inside)
    outside = [
        m for w, m in masks.items()
        if w not in K and m & lo_all == lo_all and m | hi_all == hi_all
    ]
    for a, mu in enumerate(inside):
        for mv in inside[a + 1:]:
            lo, hi = mu & mv, mu | mv
            if any(mx & lo == lo and mx | hi == hi for mx in outside):
                return False
    return True


def _suite_descent_cells(n):
    """The distinct descent cells over the +-1 patterns of coordinates in -3..3."""
    refl = reflections(n)
    patterns = {
        frozenset(t for t in refl if abs(coords[t.j - 1] - coords[t.i - 1]) == 1)
        for coords in itertools.product(range(-3, 4), repeat=n)
    }
    return sorted(
        {c.member_set for A in patterns for c in descent_partition(n, A)},
        key=lambda K: sorted(w.sort_key() for w in K),
    )


def _near_misses(K):
    """K with one outside neighbour added, and K with its first or last member dropped."""
    n = next(iter(K)).size
    out = []
    members = sorted(K, key=lambda w: w.sort_key())
    for w in members:
        steps = [w.times_simple(i) for i in range(1, n) if w.times_simple(i) not in K]
        if steps:
            out.append(K | {steps[0]})
            break
    if len(members) > 1:
        out.extend([K - {members[0]}, K - {members[-1]}])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_convexity_matches_sandwich_oracle(n):
    rng = random.Random(n)
    group = perms(n)
    convex = _suite_descent_cells(n) + [frozenset(weak_interval(w)) for w in group]
    candidates = list(convex)
    for K in convex:
        candidates.extend(_near_misses(K))
    for _ in range(200):
        candidates.append(frozenset(rng.sample(group, rng.randint(1, len(group)))))
    verdicts = []
    for K in candidates:
        verdicts.append(is_convex(K))
        assert verdicts[-1] == _sandwich_convex(K), sorted(w.one_line() for w in K)
    assert all(verdicts[:len(convex)])
    if n >= 3:
        assert not all(verdicts)


# cosets and enumeration ----------------------------------------------------------


def test_minimal_coset_reps_examples():
    assert minimal_coset_reps(3, {1}) == {
        identity(3),
        Permutation((1, 3, 2)),
        Permutation((3, 1, 2)),
    }
    assert minimal_coset_reps(3, set()) == set(perms(3))
    assert len(minimal_coset_reps(4, {1, 3})) == 6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coset_rep_counts(n):
    import math

    for mask in range(1 << (n - 1)):
        J = {i + 1 for i in range(n - 1) if mask >> i & 1}
        reps = minimal_coset_reps(n, J)
        subgroup = parabolic_elements(n, frozenset(J))
        assert len(reps) * len(subgroup) == math.factorial(n)


def test_sym_group_examples():
    assert len(sym_group(3)) == 6
    assert sym_group(1) == (identity(1),)


def test_group_caps(monkeypatch):
    with pytest.raises(SizeCapError):
        sym_group(8)
    with pytest.raises(SizeCapError, match=r"type B enumeration capped at n=5 \(requested 6\)"):
        class_data_signed(6)
    monkeypatch.setenv("AYREP_MAX_N", "3")
    with pytest.raises(SizeCapError):
        sym_group(4)
    monkeypatch.setenv("AYREP_MAX_N", "8")
    assert len(sym_group(4)) == 24
    monkeypatch.setenv("AYREP_MAX_N", "x")
    with pytest.raises(PreconditionError, match="AYREP_MAX_N"):
        sym_group(4)


def test_signed_permutations():
    w = SignedPermutation((-2, 1, 3))
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w
    assert len(_signed_bfs_distances(2)) == 8
    s0 = SignedPermutation((1, 2)) * _signed_gen(2, 0)
    assert s0.images == (-1, 2)
    assert SignedPermutation.from_one_line("-2,1").one_line() == "-2,1"


# conjugacy classes -------------------------------------------------------------


def _brute_class_data(elements):
    """Conjugacy classes by conjugating one element of each class by the whole
    group: (representatives, sizes, element -> representative)."""
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
    return reps, sizes, to_rep


def _assert_same_classes(data, elements):
    """The closed-form class data partitions `elements` as the brute force does."""
    brute_reps, brute_sizes, to_rep = _brute_class_data(elements)
    assert data.order == len(elements)
    hit = [to_rep[r] for r in data.reps]  # each representative lies in the group
    assert sorted(hit, key=lambda g: g.images) == sorted(brute_reps, key=lambda g: g.images)
    for r, b in zip(data.reps, hit):
        assert data.sizes[r] == brute_sizes[b]
    assert sum(data.sizes.values()) == data.order
    return to_rep


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_parabolic_class_data_matches_brute_force(n):
    for mask in range(1 << (n - 1)):
        J = frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)
        data = class_data_parabolic(n, J)
        to_rep = _assert_same_classes(data, parabolic_elements(n, J))
        # the block-wise cycle type names the class, as the induction oracle reads it
        keys = {r: block_cycle_type(r, J) for r in data.reps}
        assert len(set(keys.values())) == len(keys)
        by_key = {k: to_rep[r] for r, k in keys.items()}
        for y, b in to_rep.items():
            assert by_key[block_cycle_type(y, J)] == b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_class_data_is_by_partition(n):
    data = class_data_symmetric(n)
    assert [r.cycle_type() for r in data.reps] == list(partitions(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_class_data_matches_brute_force(n):
    data = class_data_signed(n)
    _assert_same_classes(data, _signed_bfs_distances(n))
    assert sum(1 for r in data.reps if r.is_identity()) == 1


def test_serialization():
    w = Permutation((3, 2, 1, 5, 4))
    assert w.one_line() == "3,2,1,5,4"
    assert Permutation.from_one_line("3,2,1,5,4") == w


def test_doctests():
    import doctest

    import ayrep.groups
    import ayrep.tableaux

    for mod in (ayrep.groups, ayrep.tableaux):
        assert doctest.testmod(mod).failed == 0
