from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ayrep.errors import PreconditionError, SizeCapError
from ayrep.groups import (
    Permutation,
    SignedPermutation,
    enumerate_group,
    identity,
    is_convex,
    left_descents_in,
    minimal_coset_reps,
    pair,
    parabolic_elements,
    reduced_word,
    reflection,
    reflections,
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


def test_reduced_word_reproduces_element():
    for w in perms(4):
        word = reduced_word(w)
        assert len(word) == w.length()
        prod = identity(4)
        for i in word:
            prod = prod * simple(4, i)
        assert prod == w


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
    import itertools
    import random

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


def test_enumerate_group_examples():
    assert len(enumerate_group("A", 3)) == 6
    assert len(enumerate_group("B", 2)) == 8
    assert enumerate_group("A", 1) == [identity(1)]


def test_enumerate_group_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        enumerate_group("A", 8)
    monkeypatch.setenv("AYREP_MAX_N", "3")
    with pytest.raises(SizeCapError):
        enumerate_group("A", 4)
    monkeypatch.setenv("AYREP_MAX_N", "8")
    assert len(enumerate_group("A", 4)) == 24
    monkeypatch.setenv("AYREP_MAX_N", "x")
    with pytest.raises(PreconditionError, match="AYREP_MAX_N"):
        enumerate_group("A", 4)


def test_signed_permutations():
    w = SignedPermutation((-2, 1, 3))
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w
    b2 = enumerate_group("B", 2)
    assert len(set(b2)) == 8
    s0 = SignedPermutation((1, 2)).times_gen(0)
    assert s0.images == (-1, 2)
    assert SignedPermutation.from_one_line("-2,1").one_line() == "-2,1"


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
