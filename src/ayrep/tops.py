"""Classification of elements whose weak-order interval carries an irreducible.

The ground truth is a brute-force search: translate the interval by each of
its members and compare against every straight-shape standard filling's cell.
The closed-form candidates come from reading the row filling of each
partition by columns; both reading directions are reported because they
disagree under the composition conventions pinned in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cells import Functional
from .groups import Permutation, identity, partitions, sym_group, weak_interval
from .reps import build_from_functional, is_irreducible
from .tableaux import (
    SkewShape,
    Tableau,
    column_tableau,
    content_vector,
    enumerate_standard,
    reading_words,
    relabel,
    relabel_cell,
    row_tableau,
)


@lru_cache(maxsize=None)
def straight_cell_sets(n: int) -> tuple:
    """(partition, filling, cell) for every standard filling of a straight shape.

    The cell is computed directly from relabeling standardness, independent
    of any functional machinery.
    """
    out = []
    for lam in partitions(n):
        shape = SkewShape(lam)
        for q in enumerate_standard(shape):
            out.append((lam, q, relabel_cell(q)))
    return tuple(out)


def is_top_brute(pi: Permutation) -> bool:
    """Whether [id, pi] is a translated straight-shape cell carrying an
    irreducible representation (verified through the exact character norm)."""
    n = pi.size
    interval = frozenset(weak_interval(pi))
    candidates = straight_cell_sets(n)
    for sigma in sorted(interval, key=lambda w: w.sort_key()):
        inv = sigma.inverse()
        translated = frozenset(inv * w for w in interval)
        for _lam, q, members in candidates:
            if translated == members:
                rep = build_from_functional(Functional(content_vector(q)), identity(n))
                if is_irreducible(rep):
                    return True
    return False


@dataclass(frozen=True)
class TopRow:
    lam: tuple
    interval_size: int
    maximum: Permutation  # unique longest element of the row filling's cell
    is_interval: bool
    column_word_down: Permutation
    column_word_up: Permutation
    down_matches_maximum: bool
    up_matches_maximum: bool
    irreducible: bool
    oracle_certified: bool


@dataclass(frozen=True)
class TopReport:
    n: int
    p_n: int
    rows: tuple
    oracle: frozenset
    candidates_down: frozenset
    candidates_up: frozenset
    distinct_candidates: int

    @property
    def oracle_matches_down(self) -> bool:
        return self.oracle == self.candidates_down

    @property
    def oracle_matches_up(self) -> bool:
        return self.oracle == self.candidates_up


def top_elements(n: int) -> TopReport:
    """Candidate set per partition against the brute-force oracle.

    For each partition the row filling's cell is inspected: its unique
    maximal element (when the cell is an interval) is the candidate, and the
    two column readings of the row filling are compared against it.
    """
    rows = []
    oracle = frozenset(pi for pi in sym_group(n) if is_top_brute(pi))
    for lam in partitions(n):
        shape = SkewShape(lam)
        r = row_tableau(shape)
        members = relabel_cell(r)
        maximal = _maximal_members(members, n)
        assert maximal, "a finite nonempty cell has a maximal element"
        maximum = max(maximal, key=lambda w: w.sort_key())
        is_interval = len(maximal) == 1 and members == frozenset(weak_interval(maximum))
        if n >= 2:
            words = reading_words(r)
            down, up = words.column_word_down, words.column_word_up
        else:
            down = up = identity(1)
        rep = build_from_functional(Functional(content_vector(r)), identity(n))
        rows.append(
            TopRow(
                lam=lam,
                interval_size=len(members),
                maximum=maximum,
                is_interval=is_interval,
                column_word_down=down,
                column_word_up=up,
                down_matches_maximum=down == maximum,
                up_matches_maximum=up == maximum,
                irreducible=is_irreducible(rep),
                oracle_certified=maximum in oracle,
            )
        )
    down_set = frozenset(r.column_word_down for r in rows)
    up_set = frozenset(r.column_word_up for r in rows)
    return TopReport(
        n=n,
        p_n=len(partitions(n)),
        rows=tuple(rows),
        oracle=oracle,
        candidates_down=down_set,
        candidates_up=up_set,
        distinct_candidates=len(down_set),
    )


def _maximal_members(members: frozenset, n: int) -> frozenset:
    """Members with no generator step up that stays inside the set."""
    return frozenset(
        pi
        for pi in members
        if all(
            pi.times_simple(i) not in members or pi.times_simple(i).length() < pi.length()
            for i in range(1, n)
        )
    )


def maximal_elements_of_cell(q: Tableau) -> frozenset:
    """Length-maximal members of a filling's cell (for the interval analysis)."""
    return _maximal_members(relabel_cell(q), q.size)


def column_tableau_check(lam: tuple) -> bool:
    """relabel(row filling, maximum of its cell) is the column filling."""
    shape = SkewShape(lam)
    r = row_tableau(shape)
    maxima = maximal_elements_of_cell(r)
    if len(maxima) != 1:
        return False
    (m,) = maxima
    return relabel(r, m) == column_tableau(shape)
