"""Classification of elements whose weak-order interval carries an irreducible.

The ground truth is a brute-force search: translate the interval by each of
its members and look each translate up among the straight-shape fillings' cells.
The closed-form candidates come from reading the row filling of each
partition by columns; both reading directions are reported because they
disagree under the composition conventions pinned in this package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cells import Functional
from .errors import PreconditionError
from .groups import (Permutation, _check_cap, _integers, identity, partitions, sym_group,
                     weak_interval)
from .reps import build_from_functional, is_irreducible
from .tableaux import (
    SkewShape,
    content_vector,
    enumerate_standard,
    reading_words,
    relabel_cell,
    row_tableau,
)


def straight_cell_sets(n: int) -> dict:
    """Each straight-shape standard filling's cell, mapped to its fillings in order.

    The cell is computed directly from relabeling standardness, independent
    of any functional machinery.
    """
    _check_cap("A", n)  # outside the cache, which would skip it once filled
    return _straight_cell_sets(n)


@lru_cache(maxsize=None)
def _straight_cell_sets(n: int) -> dict:
    out = {}
    for lam in partitions(n):
        for q in enumerate_standard(SkewShape(lam)):
            cell = relabel_cell(q)
            out[cell] = out.get(cell, ()) + (q,)
    return out


def is_top_brute(pi: Permutation) -> bool:
    """Whether [id, pi] is a translated straight-shape cell carrying an
    irreducible representation (verified through the exact character norm).

    Translation keeps size, so an interval of no cell's size is no translated
    cell; each translate is looked up in `straight_cell_sets`, in its order.
    """
    n = pi.size
    interval = frozenset(weak_interval(pi))
    fillings = straight_cell_sets(n)
    if all(len(members) != len(interval) for members in fillings):
        return False
    for sigma in sorted(interval, key=lambda w: w.sort_key()):
        inv = sigma.inverse()
        for q in fillings.get(frozenset(inv * w for w in interval), ()):
            rep = build_from_functional(Functional(content_vector(q)), identity(n))
            if is_irreducible(rep):
                return True
    return False


class TopRow(NamedTuple):
    lam: tuple
    interval_size: int
    maximum: Permutation  # unique longest element of the row filling's cell
    is_interval: bool
    column_word_down: Permutation
    column_word_up: Permutation
    irreducible: bool
    oracle_certified: bool


class TopReport(NamedTuple):
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

    For each partition the row filling's cell is inspected: its longest
    member (the last of the basis) is the candidate, and the two column
    readings of the row filling are recorded beside it.
    """
    if _integers((n,)) is None or n < 1:
        raise PreconditionError(f"top elements need n >= 1, got n={n}")
    n = int(n)
    rows = []
    oracle = frozenset(pi for pi in sym_group(n) if is_top_brute(pi))
    for lam in partitions(n):
        shape = SkewShape(lam)
        r = row_tableau(shape)
        rep = build_from_functional(Functional(content_vector(r)), identity(n))
        members = frozenset(rep.basis)  # the walked cell of the row filling
        # the basis is in sort_key order, so its last member is a longest one and
        # hence maximal; a cell equal to [id, m] has m as its only maximal member
        maximum = rep.basis[-1]
        is_interval = members == frozenset(weak_interval(maximum))
        words = reading_words(r)
        rows.append(
            TopRow(
                lam=lam,
                interval_size=len(members),
                maximum=maximum,
                is_interval=is_interval,
                column_word_down=words.column_word_down,
                column_word_up=words.column_word_up,
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
