import itertools
import math
import random
from collections import deque
from functools import lru_cache, reduce
from operator import and_, mul, or_

import pytest
from hypothesis import given, settings, strategies as st

import ayrep.cells
import ayrep.groups
from ayrep.cells import (
    Functional,
    _walk_cell,
    descent_cell,
    descent_classes,
    descent_partition,
    minimal_coset_reps,
)
from ayrep.errors import PreconditionError, SizeCapError
from ayrep.groups import (
    Permutation,
    SignedPermutation,
    _letter_blocks,
    _walls,
    braid_order,
    class_data_parabolic,
    class_data_signed,
    class_data_symmetric,
    identity,
    is_convex,
    partitions,
    reduced_word,
    reflection,
    reflections,
    signed_reduced_word,
    weak_interval,
    sym_group,
)
from ayrep.induction import bn_classical, j_intervals, row_filling_pair, shuffle_cell
from ayrep.reps import build_from_functional, build_parabolic, mn_character
from ayrep.tableaux import SkewShape, tableau_from_content
from ayrep.tops import straight_cell_sets
from group_oracles import (
    block_cycle_type,
    block_sizes,
    left_descents_in,
    parabolic_elements,
    run_intervals,
    swap_walls,
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


# one-line words --------------------------------------------------------------


@pytest.mark.parametrize("cls, images", [
    (Permutation, (True, 2)), (Permutation, (1.5, 2)),
    (SignedPermutation, (True, -2)), (SignedPermutation, ("1", -2)),
])
def test_one_line_words_refuse_non_integer_images(cls, images):
    with pytest.raises(ValueError, match=r"on 1\.\.2"):
        cls(images)


def test_one_line_words_read_integral_floats_as_ints():
    assert Permutation((2.0, 1.0)).one_line() == "2,1"
    assert SignedPermutation((2.0, -1.0)).one_line() == "2,-1"


# Each slot that takes a sequence of integers reads it by the one integer rule,
# so a value that is no sequence at all is refused as a bad entry is.
SEQUENCE_SLOTS = {
    "Functional": (Functional, PreconditionError),
    "Permutation": (Permutation, ValueError),
    "SignedPermutation": (SignedPermutation, ValueError),
    "tableau_from_content": (tableau_from_content, PreconditionError),
    "SkewShape-lambda": (SkewShape, ValueError),
    "SkewShape-mu": (lambda x: SkewShape((2,), x), ValueError),
    "mn_character": (lambda x: mn_character(SkewShape((2,)), x), PreconditionError),
    "minimal_coset_reps-J": (lambda x: minimal_coset_reps(3, x), PreconditionError),
    "bn_classical-lambda": (lambda x: bn_classical(x, (1,)), ValueError),
    "bn_classical-mu": (lambda x: bn_classical((1,), x), ValueError),
}


@pytest.mark.parametrize("value", [None, 5, 1.5])
@pytest.mark.parametrize("slot", SEQUENCE_SLOTS)
def test_a_non_iterable_sequence_is_refused_by_the_integer_rule(slot, value):
    # before, tuple(), set() or len() raised TypeError
    call, error = SEQUENCE_SLOTS[slot]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error


@pytest.mark.parametrize("n", [True, -1, 1.5, "2"])
def test_identity_takes_an_integer_letter_count(n):
    # before, True gave Permutation(1), -1 the empty word and "2" a TypeError
    with pytest.raises(ValueError, match="the identity needs an integer n >= 0"):
        identity(n)


def test_identity_reads_an_integral_float_as_an_int():
    # before, identity(2.0) raised TypeError
    assert identity(2.0).images == (1, 2) and identity(0).images == ()


@pytest.mark.parametrize("letters", [(1.5, 2), (0, 3), (True, 2), (2, 2), ("1", 2)])
def test_reflection_takes_two_distinct_integer_letters(letters):
    # before, (1.5, 2) and (0, 3) each gave a Reflection
    with pytest.raises(ValueError, match="a reflection needs two distinct letters >= 1"):
        reflection(*letters)


def test_reflection_reads_integral_floats_as_ints():
    assert reflection(3, 2.0) == (2, 3) and type(reflection(3, 2.0).i) is int


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
            assert reduce(mul, (identity(n).times_simple(i) for i in word), identity(n)) == w
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
    # letter 4 has no position in a permutation of 3 letters
    with pytest.raises(PreconditionError, match=r"within 1\.\.3"):
        left_descents_in([reflection(1, 4)], identity(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_descent_count_is_length(n):
    T = reflections(n)
    for w in perms(n):
        assert len(left_descents_in(T, w)) == w.length()


def test_pair_examples():
    assert Functional((0, 2, -1)).pair(reflection(1, 3)) == -1
    assert Functional((0, 2, -1)).pair(reflection(1, 2)) == 2


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=7), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_pair_shift_invariance(coords, shift):
    n = len(coords)
    shifted = [c + shift for c in coords]
    for t in reflections(n):
        assert Functional(coords).pair(t) == Functional(shifted).pair(t)


def test_pair_of_conjugated_reflection_matches_position_difference():
    # w s_i w^-1 is the transposition of the values w(i), w(i+1)
    f = (0, 2, -1, 4)
    for w in perms(4):
        for i in range(1, 4):
            t = reflection(w(i), w(i + 1))
            sign = 1 if w(i) < w(i + 1) else -1
            assert Functional(f).pair(t) == sign * (f[w(i + 1) - 1] - f[w(i) - 1])


def test_braid_order_reads_the_signed_pair_off_s0():
    # only the signed group has s_0, so (s_0 s_1) has order 4 wherever it is asked
    assert [braid_order(g, h) for g, h in [(0, 1), (1, 0), (1, 2), (3, 2), (0, 2), (1, 3)]] == [
        4, 4, 3, 3, 2, 2]
    with pytest.raises(ValueError, match="generators must differ"):
        braid_order(1, 1)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weak_interval_walk_matches_length_scan(n):
    group = perms(n)
    for w in group:
        lw = w.length()
        expected = {u for u in group if u.length() + (u.inverse() * w).length() == lw}
        assert weak_interval(w) == expected


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
    for members in ([], [identity(2), identity(3)], [Permutation((2, 1)), Permutation((1, 3, 2))]):
        with pytest.raises(PreconditionError, match="one size"):
            is_convex(members)


def test_convexity_refuses_signed_words():
    for members in ([SignedPermutation((-1, 2))],
                    [SignedPermutation((-1, 2)), SignedPermutation((1, 2))],
                    [identity(2), SignedPermutation((1, 2))]):
        with pytest.raises(PreconditionError, match="signed words"):
            is_convex(members)


def _letter_pairs(lo, hi, n):
    """The walls (lo, hi) of `groups._walls` as letter pairs (x, y), x just left of y."""
    return ({(t.i, t.j) for k, t in enumerate(reflections(n)) if lo >> k & 1}
            | {(t.j, t.i) for k, t in enumerate(reflections(n)) if hi >> k & 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_walls_match_swapped_words(n):
    for K in _suite_descent_cells(n):
        for L in [K, *_near_misses(K)]:
            words = {w.images for w in L}
            lo, hi, _ = _walls(words)
            assert _letter_pairs(lo, hi, n) == swap_walls(words), sorted(words)


def test_a_wall_seen_from_both_sides_refuses_convexity():
    # 1,3,2 steps out across (1,3) to 3,1,2, and 2,3,1 across it from the
    # other side to 2,1,3: only the recorded sides tell the two apart
    K = {identity(3), Permutation((1, 3, 2)), Permutation((2, 3, 1))}
    walls = swap_walls({w.images for w in K})
    assert walls == {(1, 2), (1, 3), (2, 3), (3, 1)}  # (1,3) from both sides, the rest from one
    lo, hi, _ = _walls({w.images for w in K})
    assert _letter_pairs(lo, hi, 3) == walls
    assert lo & hi == 1 << reflections(3).index((1, 3))
    assert not is_convex(K)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weak_intervals_convex(n):
    for w in perms(n):
        assert is_convex(weak_interval(w))


@lru_cache(maxsize=None)
def _left_inversion_masks(n):
    """Left inversion set of every element, as a bitmask over reflections(n), keyed by
    the element's one-line tuple."""
    refl = reflections(n)
    masks = {}
    for w in perms(n):
        descents = left_descents_in(refl, w)
        masks[w.images] = sum(1 << k for k, t in enumerate(refl) if t in descents)
    return masks


def _sandwich_convex(members):
    """Oracle: no outside element lies on a geodesic between two members.

    x lies on a geodesic from u to v exactly when its left inversion set is
    sandwiched between the intersection and the union of theirs.  Only an x
    sandwiched between the intersection and the union over all of K can be.
    """
    K = {w.images for w in members}
    masks = _left_inversion_masks(len(next(iter(K))))
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


@lru_cache(maxsize=None)
def _suite_descent_cells(n):
    """The distinct descent cells over the +-1 patterns of coordinates in -3..3, built
    once per n for every test that reads them."""
    refl = reflections(n)
    patterns = {
        frozenset(t for t in refl if abs(coords[t.j - 1] - coords[t.i - 1]) == 1)
        for coords in itertools.product(range(-3, 4), repeat=n)
    }
    return tuple(sorted(
        {frozenset(members) for A in patterns for members in descent_classes(n, A)},
        key=lambda K: sorted(w.sort_key() for w in K),
    ))


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
    convex = [*_suite_descent_cells(n), *(frozenset(weak_interval(w)) for w in group)]
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


def _brute_coset_reps(n, J):
    """{w in S_n : w^-1(j) < w^-1(j+1) for all j in J}, by scanning the group."""
    return {v.inverse() for v in sym_group(n) if all(v(j) < v(j + 1) for j in J)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_coset_reps_walk_matches_group_scan(n):
    for mask in range(1 << (n - 1)):
        J = {i + 1 for i in range(n - 1) if mask >> i & 1}
        assert minimal_coset_reps(n, J) == _brute_coset_reps(n, J)
        A = frozenset(reflection(j, j + 1) for j in J)
        members = _walk_cell(A, identity(n), range(1, n)).members
        assert list(members) == sorted(members, key=lambda w: w.sort_key())


def test_minimal_coset_reps_rejects_bad_generators():
    with pytest.raises(PreconditionError, match=r"J must be generator indices within 1\.\.2"):
        minimal_coset_reps(3, {3})


@pytest.mark.parametrize("n", [1.5, "3", None, (3,)])
def test_minimal_coset_reps_takes_n_by_the_integer_rule(n):
    # before, range() raised TypeError
    with pytest.raises(PreconditionError, match="the number of letters must be an integer"):
        minimal_coset_reps(n, [1])


def test_minimal_coset_reps_reads_an_integral_float_as_an_int():
    assert minimal_coset_reps(3.0, [1]) == minimal_coset_reps(3, [1])


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_sym_group_is_breadth_first_order(n):
    assert sym_group(n) == parabolic_elements(n, range(1, n))


def test_group_caps(monkeypatch):
    with pytest.raises(SizeCapError):
        sym_group(8)
    with pytest.raises(SizeCapError, match=r"type B enumeration capped at n=5 \(requested 6\)"):
        class_data_signed(6)
    # each cap is checked on every call, not only when a cache is filled
    checks = [
        sym_group,
        class_data_signed,
        lambda n: is_convex([identity(n)]),
        lambda n: weak_interval(identity(n)),
        lambda n: minimal_coset_reps(n, {1}),
        straight_cell_sets,
        lambda n: descent_cell(Functional(range(n)), identity(n)),
        lambda n: descent_classes(n, frozenset()),
        lambda n: descent_partition(n, frozenset()),
        lambda n: build_from_functional(Functional(range(n)), identity(n)),
        lambda n: build_parabolic(Functional(range(n)), [1]),
        lambda n: shuffle_cell(*row_filling_pair((n - 1,), (1,))),
    ]
    for check in checks:
        monkeypatch.setenv("AYREP_MAX_N", "4")
        check(4)
        monkeypatch.setenv("AYREP_MAX_N", "3")
        with pytest.raises(SizeCapError, match=r"capped at n=3 \(requested 4\)"):
            check(4)
    monkeypatch.setenv("AYREP_MAX_N", "8")
    assert len(sym_group(4)) == 24
    monkeypatch.setenv("AYREP_MAX_N", "x")
    with pytest.raises(PreconditionError, match="AYREP_MAX_N"):
        sym_group(4)


def test_the_cap_comes_before_any_scan_of_reflections(monkeypatch):
    # an over-cap functional must fail at once, not after the n(n-1)/2 scan
    # that finds its +-1 reflections
    def scan(n):
        raise AssertionError(f"reflections({n}) scanned before the cap")

    monkeypatch.setattr(ayrep.cells, "reflections", scan)
    monkeypatch.setattr(ayrep.groups, "reflections", scan)
    n = 1000
    f = Functional(range(n))
    checks = [
        lambda: descent_cell(f, identity(n)),
        lambda: build_from_functional(f, identity(n)),
        lambda: build_parabolic(f, [1]),
        lambda: shuffle_cell(*row_filling_pair((n - 1,), (1,))),
    ]
    for check in checks:
        with pytest.raises(SizeCapError, match=r"capped at n=7 \(requested 1000\)"):
            check()


def test_signed_permutations():
    w = SignedPermutation((-2, 1, 3))
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w
    assert len(_signed_bfs_distances(2)) == 8
    s0 = SignedPermutation((1, 2)) * _signed_gen(2, 0)
    assert s0.images == (-1, 2)


# conjugacy classes -------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_letter_blocks_match_the_run_and_size_oracles(n):
    for k in range(n):
        for J in itertools.combinations(range(1, n), k):
            blocks = _letter_blocks(n, set(J))
            assert tuple(b - a + 1 for a, b in blocks) == block_sizes(n, set(J))
            assert [a for a, _ in blocks] == [1] + [b + 1 for _, b in blocks[:-1]]
            for given_as in (J, J[::-1], list(J) + list(J)):
                assert j_intervals(given_as) == run_intervals(given_as)


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


def test_the_two_families_share_one_line_words_but_not_equality():
    w, v = Permutation((2, 1)), SignedPermutation((2, 1))
    assert (w.size, w.one_line(), repr(w)) == (2, "2,1", "Permutation(2,1)")
    assert (v.size, v.one_line(), repr(v)) == (2, "2,1", "SignedPermutation(2,1)")
    assert w != v and v != w and len({w, v}) == 2
    assert w != (2, 1) and v != (2, 1)
    assert hash(w) == hash((2, 1)) and hash(v) == hash(("B", (2, 1)))  # set orders rely on these
    assert not SignedPermutation((-1, 2)).is_identity() and identity(3).is_identity()


def test_doctests():
    import doctest

    import ayrep.groups
    import ayrep.tableaux

    for mod in (ayrep.groups, ayrep.tableaux):
        assert doctest.testmod(mod).failed == 0
