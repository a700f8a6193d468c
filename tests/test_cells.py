import random
from itertools import product

import pytest

import ayrep.cells
import ayrep.tableaux
from ayrep.cells import (
    BasicFlat,
    Cell,
    Functional,
    _content_functional_for,
    _flat_solve,
    _walk_cell,
    boundary_reflections,
    cell_tableau_bijection,
    descent_cell,
    descent_classes,
    descent_partition,
    flat_determined_reflections,
    flat_integer_points,
    flat_partition,
    genericity_violation,
    is_generic,
    is_generic_integer,
    is_minimal_ay_cell,
)
from ayrep.errors import PreconditionError, SizeCapError
from ayrep.groups import (
    Permutation,
    _inversion_masks,
    identity,
    is_convex,
    partitions,
    reflection,
    reflections,
    sym_group,
    weak_interval,
)
from ayrep.induction import j_intervals, parabolic_functional
from ayrep.reps import build_parabolic
from ayrep.tableaux import (
    SkewShape,
    Tableau,
    content_vector,
    enumerate_standard,
    relabel,
    relabel_cell,
    row_tableau,
    skew_shape_family,
)
from ayrep.verify import sample_flats
from group_oracles import left_descents_in, parabolic_elements


def P(*images):
    return Permutation(images)


def test_boundary_reflections_examples():
    assert boundary_reflections(Functional((0, 2, -1))) == {reflection(1, 3)}
    assert boundary_reflections(Functional((0, 5, 9))) == frozenset()
    assert boundary_reflections(Functional((0, 1, -1))) == {
        reflection(1, 2),
        reflection(1, 3),
    }


def test_functional_refuses_non_integer_coordinates():
    assert Functional((2.0, 1)).coords == (2, 1)
    with pytest.raises(PreconditionError, match=r"must be integers, got \(0.5, 1\)"):
        Functional((0.5, 1))
    for coords in ((float("inf"), 0), (None, 1), (True, 0)):
        with pytest.raises(PreconditionError, match="must be integers"):
            Functional(coords)


def test_descent_cell_examples():
    cell = descent_cell(Functional((0, 2, -1)), identity(3))
    assert set(cell.members) == {identity(3), P(2, 1, 3), P(1, 3, 2)}
    assert cell.interior == {reflection(1, 2), reflection(2, 3)}
    assert cell.boundary == {reflection(1, 3)}

    generic = descent_cell(Functional((0, 3, 9, 27)), P(2, 4, 1, 3))
    assert len(generic.members) == 24

    cell2 = descent_cell(Functional((0, 1, -1, 0)), identity(4))
    assert set(cell2.members) == {identity(4), P(1, 3, 2, 4)}


def test_descent_cell_translate_free():
    f = Functional((0, 2, -1))
    for v in descent_cell(f, identity(3)).members:
        assert descent_cell(f, v).members == descent_cell(f, identity(3)).members


def test_is_generic_examples():
    f1 = Functional((0, -1, -2))
    assert is_generic(f1, descent_cell(f1, identity(3)))
    f3 = Functional((0, 2, -1))
    assert is_generic(f3, descent_cell(f3, identity(3)))
    # boundary values +1 and -3: the singleton cell rejects it
    f2 = Functional((0, 1, -2))
    cell = descent_cell(Functional((0, -1, -2)), identity(3))
    assert cell.size == 1
    assert not is_generic(f2, cell)


def test_is_generic_preconditions():
    f = Functional((0, 2, -1))
    members = (P(2, 1, 3),)
    no_id = Cell(members, frozenset(), frozenset(), (1, 2), _step_graph(members, (1, 2)))
    with pytest.raises(PreconditionError):
        is_generic(f, no_id)
    members = (identity(3), P(2, 3, 1))
    non_convex = Cell(members, frozenset(), frozenset(), (1, 2), _step_graph(members, (1, 2)))
    with pytest.raises(PreconditionError):
        is_generic(f, non_convex)


def test_is_generic_integer_examples():
    assert is_generic_integer(Functional((0, 1, -1, 0)))
    assert not is_generic_integer(Functional((0, 0, 5)))
    assert not is_generic_integer(Functional((0, 1, 0)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generic_integer_equivalent_to_cell_genericity(n):
    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        assert is_generic_integer(f) == is_generic(f, descent_cell(f, identity(n)))


def test_cell_tableau_bijection_example():
    q = Tableau(SkewShape((2, 1)), ((1, 2), (3,)))
    mapping = cell_tableau_bijection(q)
    assert mapping == {
        identity(3): q,
        P(1, 3, 2): Tableau(SkewShape((2, 1)), ((1, 3), (2,))),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cell_tableau_bijection_is_the_relabel_map(n):
    for shape in skew_shape_family(n):
        q = row_tableau(shape)
        f = Functional(content_vector(q))
        cell = descent_cell(f, identity(n))
        mapping = cell_tableau_bijection(q)
        assert list(mapping) == list(cell.members)
        assert mapping == {pi: relabel(q, pi) for pi in cell.members}


def test_cell_tableau_bijection_rejects_non_bijections(monkeypatch):
    # a count one short or one over goes in through `count_standard`; a
    # member listed twice in place of another, or a foreign cell, through
    # the walk
    n = 4
    qs = [row_tableau(shape) for shape in skew_shape_family(n)]
    cells = [descent_cell(Functional(content_vector(q)), identity(n)) for q in qs]
    message = "relabel map failed to be a bijection onto standard fillings"
    foreign_of_the_same_size = 0  # caught by the pair test alone
    for q, cell in zip(qs, cells):
        assert cell_tableau_bijection(q)
        count = len(enumerate_standard(q.shape))
        for wrong in (count - 1, count + 1):
            monkeypatch.setattr(ayrep.tableaux, "count_standard", lambda _, c=wrong: c)
            with pytest.raises(AssertionError, match=message):
                cell_tableau_bijection(q)
        monkeypatch.undo()
        members = cell.members
        broken = [cell._replace(members=members[:-1] + members[:1])] * (count > 1)
        others = [c for c in cells if c.members != members]
        assert others
        foreign_of_the_same_size += sum(c.size == cell.size for c in others)
        for other in broken + others:
            monkeypatch.setattr(ayrep.cells, "descent_cell", lambda *_, c=other: c)
            with pytest.raises(AssertionError, match=message):
                cell_tableau_bijection(q)
        monkeypatch.undo()
    assert foreign_of_the_same_size


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cell_sizes_match_filling_counts(n):
    from ayrep.tableaux import row_tableau, skew_shape_family

    for shape in skew_shape_family(n):
        q = row_tableau(shape)
        f = Functional(content_vector(q))
        cell = descent_cell(f, identity(n))
        assert cell.size == len(enumerate_standard(shape))


def test_is_minimal_ay_cell_examples():
    flag, witness = is_minimal_ay_cell({identity(3), P(1, 3, 2)})
    assert flag
    sigma, q = witness
    translated = {sigma.inverse() * w for w in {identity(3), P(1, 3, 2)}}
    regenerated = {
        pi for pi in sym_group(3) if relabel(q, pi).is_standard()
    }
    assert translated == regenerated

    flag2, _ = is_minimal_ay_cell({identity(3), P(2, 3, 1)})
    assert not flag2

    for w in sym_group(3):
        flag3, witness3 = is_minimal_ay_cell({w})
        assert flag3
        assert witness3[0] == w
        assert witness3[1].size == 3

    with pytest.raises(PreconditionError):
        is_minimal_ay_cell(set())


def test_is_minimal_ay_cell_refuses_mixed_sizes():
    for members in ({identity(2), identity(3)}, {P(2, 1), identity(3)}, {P(2, 1), P(1, 3, 2)}):
        with pytest.raises(PreconditionError, match="different sizes"):
            is_minimal_ay_cell(members)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_translating_a_relabel_cell_by_a_member_gives_a_relabel_cell(n):
    # the argument that lets is_minimal_ay_cell translate by one member only
    for shape in skew_shape_family(n):
        for q in enumerate_standard(shape):
            cell = relabel_cell(q)
            for pi in cell:
                inv = pi.inverse()
                assert frozenset(inv * w for w in cell) == relabel_cell(relabel(q, pi))


def test_recognizer_searches_contents_once_per_convex_set(monkeypatch):
    calls = []
    monkeypatch.setattr("ayrep.cells._content_functional_for",
                        lambda members: calls.append(members) or _content_functional_for(members))
    assert is_minimal_ay_cell({identity(3), P(2, 3, 1)}) == (False, None)  # not convex
    assert calls == []
    rejected = 0
    for w in sym_group(4):
        interval = weak_interval(w)
        assert is_convex(interval)
        flag, _ = is_minimal_ay_cell(interval)
        rejected += not flag
        # translated by its shortest member, the identity
        assert calls == [frozenset(interval)]
        calls.clear()
    assert rejected > 0  # convex sets that are no cell are searched once too
    sigma = P(3, 1, 4, 2)
    cell = {sigma * pi for pi in relabel_cell(row_tableau(SkewShape((2, 2))))}
    assert is_minimal_ay_cell(cell)[0]
    assert len(calls) == 1


def test_recognizer_keeps_two_pieces_apart():
    # two (2,1) pieces whose contents would touch if the second were placed
    # by its first letter just above the first piece's contents
    q = Tableau(SkewShape((4, 3, 2, 1), (2, 2)), [(1, 3), (2,), (4, 6), (5,)])
    assert q.is_standard()
    sigma = P(2, 5, 1, 6, 3, 4)
    for members in (relabel_cell(q), {sigma * pi for pi in relabel_cell(q)}):
        flag, witness = is_minimal_ay_cell(members)
        assert flag
        tau, found = witness
        assert frozenset(tau.inverse() * w for w in members) == relabel_cell(found)


def test_flat_partition_examples():
    L = BasicFlat(3, frozenset({(reflection(1, 3), -1)}))
    cells = flat_partition(L)
    assert sorted(c.size for c in cells) == [3, 3]

    whole = BasicFlat(3, frozenset())
    assert [c.size for c in flat_partition(whole)] == [6]

    point = BasicFlat(2, frozenset({(reflection(1, 2), 1)}))
    assert sorted(c.size for c in flat_partition(point)) == [1, 1]

    for c in cells:
        assert is_convex(c.members)


def test_a_replaced_flat_is_checked_as_a_built_one():
    flat = BasicFlat(3, frozenset({(reflection(1, 3), -1)}))
    assert flat._replace(n=4) == BasicFlat(4, flat.constraints)
    for changes, message in (({"n": 2}, "outside 1..2"),
                             ({"constraints": frozenset({(reflection(1, 3), 2)})}, "signs")):
        for make in (flat._replace, lambda **c: BasicFlat(**{**flat._asdict(), **c})):
            with pytest.raises(ValueError, match=message):
                make(**changes)


def test_flat_determined_closure():
    L = BasicFlat(
        3, frozenset({(reflection(1, 2), 1), (reflection(2, 3), 1)})
    )
    # the (1,3) pairing is forced to 2, so only the two constraints remain
    assert flat_determined_reflections(L) == {reflection(1, 2), reflection(2, 3)}
    chain = BasicFlat(
        4, frozenset({(reflection(1, 2), 1), (reflection(2, 3), -1)})
    )
    # f_3 - f_1 is forced to 0: determined but not a +-1 constraint
    assert flat_determined_reflections(chain) == {reflection(1, 2), reflection(2, 3)}


def test_flat_inconsistent():
    L = BasicFlat(
        3,
        frozenset(
            {
                (reflection(1, 2), 1),
                (reflection(2, 3), 1),
                (reflection(1, 3), -1),
            }
        ),
    )
    with pytest.raises(PreconditionError):
        flat_partition(L)


def _potential_oracle(flat):
    """Union-find with potentials, walked on demand: a function from a letter
    to (root, offset), or None when the constraints are inconsistent."""
    parent = list(range(flat.n + 1))
    pot = [0] * (flat.n + 1)

    def potential(x):
        total = 0
        while parent[x] != x:
            total += pot[x]
            x = parent[x]
        return x, total

    for t, eps in sorted(flat.constraints):
        ri, pi = potential(t.i)
        rj, pj = potential(t.j)
        if ri == rj:
            if pj - pi != eps:
                return None
        else:
            parent[rj] = ri
            pot[rj] = pi + eps - pj
    return potential


def test_flat_solve_matches_the_potential_oracle():
    inconsistent = BasicFlat(3, frozenset({(reflection(1, 2), 1), (reflection(2, 3), 1),
                                           (reflection(1, 3), -1)}))
    assert _potential_oracle(inconsistent) is None
    for call in (_flat_solve, flat_determined_reflections,
                 lambda flat: list(flat_integer_points(flat, 1))):
        with pytest.raises(PreconditionError, match="inconsistent flat constraints"):
            call(inconsistent)
    for flat in sample_flats():
        potential = _potential_oracle(flat)
        table = _flat_solve(flat)
        assert table[1:] == [potential(x) for x in range(1, flat.n + 1)]
        assert flat_determined_reflections(flat) == {
            t for t in reflections(flat.n)
            if potential(t.i)[0] == potential(t.j)[0]
            and potential(t.j)[1] - potential(t.i)[1] in (1, -1)
        }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_monotone_positions_on_generic_cells(n):
    """Reflections paired to 0 or +-1 order the positions identically across
    the whole identity cell."""
    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        if not is_generic_integer(f):
            continue
        cell = descent_cell(f, identity(n))
        for t in reflections(n):
            if f.pair(t) not in (-1, 0, 1):
                continue
            signs = {
                (w.inverse())(t.j) > (w.inverse())(t.i) for w in cell.members
            }
            assert signs == {True}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generic_cells_have_disjoint_reflection_sets(n):
    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        cell = descent_cell(f, identity(n))
        if is_generic(f, cell):
            assert not (cell.interior & cell.boundary)


def test_flat_integer_points_lie_on_flat():
    L = BasicFlat(4, frozenset({(reflection(1, 2), 1)}))
    points = list(flat_integer_points(L, 2))
    assert len(points) == 25  # two free components scanning -2..2
    for f in points:
        assert f.pair(reflection(1, 2)) == 1
    assert len({f.coords for f in points}) == len(points)


# walking a cell against scanning the whole group ------------------------------


def _with_reflection_sets(members, gens):
    """(members in (length, word) order, interior, boundary) of a member set."""
    members = sorted(members, key=lambda w: w.sort_key())
    member_set = set(members)
    interior, boundary = set(), set()
    for w in members:
        for i in gens:
            t = reflection(w(i), w(i + 1))
            (interior if w.times_simple(i) in member_set else boundary).add(t)
    return tuple(members), frozenset(interior), frozenset(boundary)


def _step_graph(members, gens):
    """steps[j * len(gens) + p]: the position of members[j] s_gens[p] among
    the members, or None, found with Permutation.times_simple."""
    position = {w: j for j, w in enumerate(members)}
    return tuple(position.get(w.times_simple(g)) for w in members for g in gens)


def _patterns(n):
    """The +-1 patterns the convexity suite visits: coordinates within +-3."""
    return {
        frozenset(t for t in reflections(n) if abs(coords[t.j - 1] - coords[t.i - 1]) == 1)
        for coords in product(range(-3, 4), repeat=n)
    }


def _scan_classes(elements, A):
    """Descent classes over A by scanning every element, keyed by descent set."""
    buckets = {}
    for v in elements:
        buckets.setdefault(frozenset(left_descents_in(A, v)), []).append(v)
    return buckets


def _as_triple(cell):
    return cell.members, cell.interior, cell.boundary


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_descent_cell_walk_matches_scan_on_skew_shapes(n):
    gens = range(1, n)
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        buckets = _scan_classes(sym_group(n), boundary_reflections(f))
        expected = _with_reflection_sets(buckets[frozenset()], gens)
        assert _as_triple(descent_cell(f, identity(n))) == expected, shape


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_descent_cell_walk_matches_scan_from_every_base_element(n):
    gens = range(1, n)
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        A = boundary_reflections(f)
        expected = {
            key: _with_reflection_sets(members, gens)
            for key, members in _scan_classes(sym_group(n), A).items()
        }
        for v in sym_group(n):
            assert _as_triple(descent_cell(f, v)) == expected[frozenset(left_descents_in(A, v))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_descent_partition_matches_bucket_scan(n):
    """Every +-1 pattern the convexity suite visits (coordinates within +-3)."""
    for A in _patterns(n):
        buckets = _scan_classes(sym_group(n), A)
        expected = [
            _with_reflection_sets(buckets[key], range(1, n))
            for key in sorted(buckets, key=sorted)
        ]
        assert [_as_triple(c) for c in descent_partition(n, A)] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_descent_class_is_the_walk_from_its_members(n):
    """From every member at n <= 4, from the first at n = 5."""
    gens = range(1, n)
    for A in _patterns(n):
        for members in descent_classes(n, A):
            for w in members if n <= 4 else members[:1]:
                assert _walk_cell(A, w, gens).members == members


def test_descent_partition_refuses_a_walk_that_misses_a_member(monkeypatch):
    walk = _walk_cell

    def short_walk(*args):
        cell = walk(*args)
        return cell._replace(members=cell.members[:-1])

    monkeypatch.setattr(ayrep.cells, "_walk_cell", short_walk)
    with pytest.raises(AssertionError, match="the walk from 1,2,3 missed its descent class"):
        descent_partition(3, frozenset())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_partition_shares_the_group_elements(n, monkeypatch):
    # the classes descent_partition walks are the group's own objects; the
    # walked cells build their members, as every walk does
    group = {v.images: v for v in sym_group(n)}
    _inversion_masks.cache_clear()  # so that the masks are found under the patch

    def build(*args):
        raise AssertionError("descent_classes built a Permutation")

    monkeypatch.setattr(Permutation, "__init__", build)
    monkeypatch.setattr(Permutation, "_unsafe", build)
    for A in _patterns(n):
        for members in descent_classes(n, A):
            assert all(w is group[w.images] for w in members)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parabolic_cells_match_scan(n):
    gens = range(1, n)
    for mask in range(1 << (n - 1)):
        J = tuple(g for g in gens if mask >> (g - 1) & 1)
        elements = parabolic_elements(n, frozenset(J))
        for shapes in product(*(partitions(b - a + 1) for a, b in j_intervals(J))):
            f = parabolic_functional(J, n, shapes)
            A = boundary_reflections(f)
            expected = _with_reflection_sets(_scan_classes(elements, A)[frozenset()], J)
            cell = _walk_cell(A, identity(n), J)
            assert _as_triple(cell) == expected
            assert cell.gens == J and cell.steps == _step_graph(expected[0], J)
            assert build_parabolic(f, J).basis == expected[0]


# the step graph the walk records ------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_step_graph_matches_times_simple_on_every_partition_cell(n):
    """Every +-1 pattern at n <= 4: coordinates within +-3 give the same 1, 2,
    7 and 41 patterns as coordinates within +-6."""
    gens = tuple(range(1, n))
    for A in _patterns(n):
        for cell in descent_partition(n, A):
            assert cell.gens == gens
            assert cell.steps == _step_graph(cell.members, gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_step_graph_matches_times_simple_on_identity_cells(n):
    gens = tuple(range(1, n))
    for shape in skew_shape_family(n):
        cell = descent_cell(Functional(content_vector(row_tableau(shape))), identity(n))
        assert cell.gens == gens
        assert cell.steps == _step_graph(cell.members, gens), shape


# lengths carried through the walk; the corner rule on the step graph ----------


def _inversions(images):
    n = len(images)
    return sum(1 for a in range(n) for b in range(a + 1, n) if images[a] > images[b])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_walked_lengths_are_inversion_counts(n):
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        starts = sym_group(n) if n <= 4 else [identity(n)]
        for v in starts:
            for w in descent_cell(f, v).members:
                assert w.length() == _inversions(w.images), (shape, w)


def _permutation_genericity_violation(f, members, interior, boundary, gens=None):
    """The genericity test with its corner condition stepping on Permutations."""
    for t in sorted(interior):
        if f.pair(t) in (-1, 0, 1):
            return ("interior", f"<f,{t}> = {f.pair(t)}")
    for t in sorted(boundary):
        if abs(f.pair(t)) != 1:
            return ("boundary", f"<f,{t}> = {f.pair(t)}")
    members = sorted(members, key=lambda w: w.sort_key())
    member_set = frozenset(members)
    if gens is None:
        gens = range(1, f.size)
    gen_set = set(gens)
    for w in members:
        for i in gen_set:
            if i + 1 not in gen_set:
                continue
            if w.times_simple(i) in member_set or w.times_simple(i + 1) in member_set:
                continue
            # directed: the pairings of (x, y) and (y, z) read left to right in w
            x, y, z = w(i), w(i + 1), w(i + 2)
            xy, yz = f.coords[y - 1] - f.coords[x - 1], f.coords[z - 1] - f.coords[y - 1]
            if xy != yz:
                return ("corner", f"at {w.one_line()}: f{y} - f{x} = {xy} != f{z} - f{y} = {yz}")
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corner_test_matches_permutation_version_on_descent_cells(n):
    for coords in product(range(-2, 3), repeat=n):
        f = Functional(coords)
        for cell in descent_partition(n, boundary_reflections(f)):
            expected = _permutation_genericity_violation(
                f, cell.members, cell.interior, cell.boundary)
            assert genericity_violation(f, cell) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_corner_test_matches_permutation_version_on_random_subsets(n):
    rng = random.Random(n)
    group = list(sym_group(n))
    for _ in range(200):
        members = rng.sample(group, rng.randint(1, len(group)))
        f = Functional(rng.randint(-2, 2) for _ in range(n))
        gens = rng.choice([None, [g for g in range(1, n) if rng.random() < 0.7]])
        expected = _permutation_genericity_violation(f, members, frozenset(), frozenset(), gens)
        # the rule reads the subset's step graph, derived here with times_simple
        gens = tuple(range(1, n)) if gens is None else tuple(gens)
        members = tuple(sorted(members, key=lambda w: w.sort_key()))
        cell = Cell(members, frozenset(), frozenset(), gens, _step_graph(members, gens))
        assert genericity_violation(f, cell) == expected


# the walk against the walk that stepped along every edge from both ends


def _reference_walk(A, start, gens):
    """The cell walk as it ran before each edge was walked once: every member
    steps along every generator, and a second sort inverts the ranking."""
    if isinstance(A, Functional):
        A = boundary_reflections(A)
    gens = tuple(gens)
    ids = {start.images: 0}
    order = [(start.length(), start.images)]
    rows = []
    interior, boundary = set(), set()
    for length, img in order:
        for i in gens:
            x, y = img[i - 1], img[i]
            t = (x, y) if x < y else (y, x)
            if t in A:
                boundary.add(t)
                rows.append(-1)
                continue
            interior.add(t)
            nxt = img[:i - 1] + (y, x) + img[i + 1:]
            k = ids.get(nxt)
            if k is None:
                k = ids[nxt] = len(order)
                order.append((length + 1 if x < y else length - 1, nxt))
            rows.append(k)
    ranked = sorted(range(len(order)), key=order.__getitem__)
    position = sorted(range(len(order)), key=ranked.__getitem__) + [None]
    m = len(gens)
    steps = tuple(position[rows[k * m + p]] for k in ranked for p in range(m))
    members = tuple(Permutation(order[k][1]) for k in ranked)
    return Cell(members, frozenset(reflection(*t) for t in interior),
                frozenset(reflection(*t) for t in boundary), gens, steps)


def _assert_same_walk(cell, reference):
    for field in Cell._fields:
        assert getattr(cell, field) == getattr(reference, field), field
    assert [w.length() for w in cell.members] == [w.length() for w in reference.members]


def test_the_walk_matches_the_reference_walk_on_every_flat_walk(monkeypatch):
    import ayrep.reps
    from ayrep import verify

    walks = []
    walk = _walk_cell

    def recording_walk(A, start, gens):
        walks.append((A, start, tuple(gens), walk(A, start, gens)))
        return walks[-1][3]

    monkeypatch.setattr(ayrep.cells, "_walk_cell", recording_walk)
    monkeypatch.setattr(ayrep.reps, "_walk_cell", recording_walk)
    assert verify.flat_suite().ok
    assert len(walks) == 1474  # 1,440 builds and the 34 cells of the flats' partitions
    for A, start, gens, cell in walks:
        _assert_same_walk(cell, _reference_walk(A, start, gens))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_walk_matches_the_reference_walk_on_family_cells(n):
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        _assert_same_walk(descent_cell(f, identity(n)), _reference_walk(f, identity(n), range(1, n)))


# the memo of the walks over the last wall set ----------------------------------


@pytest.fixture
def walked(monkeypatch):
    """The starts the inner walk runs from, beginning with nothing held."""
    starts = []
    walk = ayrep.cells._walk

    def counting(A, start, gens):
        starts.append(start)
        return walk(A, start, gens)

    monkeypatch.setattr(ayrep.cells, "_held", {})
    monkeypatch.setattr(ayrep.cells, "_walk", counting)
    return starts


def test_a_repeated_walk_returns_the_held_cell(walked):
    f = Functional((0, 1, 5, 9))
    cell = descent_cell(f, identity(4))
    assert descent_cell(Functional(f.coords), identity(4)) is cell
    assert walked == [identity(4)]


def test_walks_from_every_member_of_a_cell_keep_one_cell(walked):
    group = sym_group(5)
    cells = [_walk_cell(frozenset(), w, range(1, 5)) for w in group]
    assert all(cell is cells[0] for cell in cells) and cells[0].members == group
    assert len(walked) == 120


def test_a_walk_over_other_walls_drops_the_held_walks(walked):
    start, gens = identity(4), range(1, 4)
    cell = _walk_cell(frozenset(), start, gens)
    _walk_cell(frozenset({reflection(1, 2)}), start, gens)
    assert list(ayrep.cells._held) == [frozenset({reflection(1, 2)})]
    again = _walk_cell(frozenset(), start, gens)
    assert again == cell and again is not cell
    assert len(walked) == 3


def test_a_wall_set_mutated_after_a_call_is_walked_again(walked):
    A, start, gens = set(), identity(3), range(1, 3)
    assert _walk_cell(A, start, gens).size == 6
    A.add(reflection(1, 2))
    cell = _walk_cell(A, start, gens)
    assert cell.size == 3
    _assert_same_walk(cell, _reference_walk(frozenset(A), start, gens))


def test_the_cap_and_the_size_check_come_before_the_held_walks(walked, monkeypatch):
    # (0,1,5,9) and (0,1,5) both pair only (1, 2) to +-1: one wall set
    f, start = Functional((0, 1, 5, 9)), identity(4)
    descent_cell(f, start)
    with pytest.raises(PreconditionError, match="functional and permutation sizes differ"):
        _walk_cell(Functional((0, 1, 5)), start, range(1, 4))
    monkeypatch.setenv("AYREP_MAX_N", "3")
    with pytest.raises(SizeCapError, match=r"capped at n=3 \(requested 4\)"):
        descent_cell(f, start)
    assert len(walked) == 1


def test_flat_reports_a_walk_that_drifts_from_its_held_cell(monkeypatch):
    from ayrep import verify

    walk, drifted = ayrep.cells._walk, []

    def drifting(A, start, gens):
        # the first walk from a member that is not its cell's first loses
        # the cell's last member, with the first member kept
        cell = walk(A, start, gens)
        if drifted or start == cell.members[0]:
            return cell
        drifted.append(start)
        return cell._replace(members=cell.members[:-1])

    monkeypatch.setattr(ayrep.cells, "_held", {})
    monkeypatch.setattr(ayrep.cells, "_walk", drifting)
    result = verify.flat_suite()
    assert not result.ok and result.counterexamples
    assert all("cell drift" in line and f"v={drifted[0].one_line()}" in line
               for line in result.counterexamples)


def test_flat_and_the_cells_workload_walk_each_input_once(walked, monkeypatch):
    import ayrep.reps
    from ayrep import verify

    calls = []

    def counted(A, start, gens):
        calls.append(start)
        return _walk_cell(A, start, gens)

    monkeypatch.setattr(ayrep.cells, "_walk_cell", counted)
    monkeypatch.setattr(ayrep.reps, "_walk_cell", counted)
    assert verify.flat_suite().ok
    assert (len(walked), len(calls)) == (474, 1474)
    walked.clear()
    calls.clear()
    ayrep.cells._held.clear()
    assert all(verify.run_suites(["cells", "axiomB", "convexity"], 6))
    assert (len(walked), len(calls)) == (368, 450)
