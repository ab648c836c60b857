"""Brute-force ground truth at desk scale.

Exhaustively enumerates all valid score sequences for small n and all
labeled tournaments for very small n, and computes reachability from the
arcs alone, so every claim the fast algorithms make can be certified
against an independent search.  ``stats`` counts over the same branching
as the sequence enumeration without listing it, and reads its two maxima
off the closed forms the tests certify against that listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterator, List, Optional

from .sequences import (
    LandauSequence,
    ScoreVector,
    _int_scores,
    _order,
    max_c_value,
    max_down_jumps,
)
from .tournaments import Tournament, _matrix, _tournament

if TYPE_CHECKING:
    import numpy as np

SEQUENCE_CAP = 12
TOURNAMENT_CAP = 6


class CapExceededError(Exception):
    """Requested order is past the practical enumeration limit."""


def _values(k: int, cap: int, rest: int) -> range:
    """The values position k takes, ascending, in the enumeration's branching.

    Position k (1-based) is at most cap, the value placed at k+1, and
    positions 1..k must sum to rest, where C(k,2) <= rest <= k*cap.  It
    takes each x from ceil(rest/k), so the k-1 earlier positions, each at
    most x, can still reach rest - x, up to min(cap, rest - C(k-1,2)), so
    their sum stays at or above C(k-1,2).  Both bounds then hold at k-1, and
    the range is never empty (ceil(rest/k) <= cap as rest <= k*cap, and
    <= rest - C(k-1,2) as rest >= C(k,2)), so every branch ends in a valid
    sequence; position 1 takes exactly rest.
    """
    return range(-(-rest // k), min(cap, rest - comb(k - 1, 2)) + 1)


def _sequence_order(n: int) -> int:
    """``n`` read as an order, within the sequence cap."""
    n = _order(n)
    if n > SEQUENCE_CAP:
        raise CapExceededError(f"n={n} exceeds sequence cap {SEQUENCE_CAP}")
    return n


def enumerate_landau_sequences(n: int) -> List[LandauSequence]:
    """All valid score sequences of length n, ascending in the total order.

    The regular sequence comes first and the transitive sequence last.  The
    sequences are generated in that order, so none is sorted: positions are
    filled from the last one down to the first, each trying its values in
    ascending order, which is ascending order on the reversed tuples.
    """
    n = _sequence_order(n)
    found: List[tuple] = []

    def fill(k: int, cap: int, rest: int, suffix: tuple) -> None:
        if k == 1:
            found.append((rest,) + suffix)
            return
        for x in _values(k, cap, rest):
            fill(k - 1, x, rest - x, (x,) + suffix)

    fill(n, n - 1, comb(n, 2), ())
    # tests/test_oracle.py checks every tuple, and the order, against an
    # independent filter at every order up to the cap
    return list(map(LandauSequence._trusted, found))


def enumerate_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^C(n,2) labeled tournaments on n vertices, in arc-bitmask order.

    Bit k of the mask orients the k-th pair (i, j), i < j, in lexicographic
    pair order: set means i beats j.
    """
    n = _order(n)
    if n > TOURNAMENT_CAP:
        raise CapExceededError(f"n={n} exceeds tournament cap {TOURNAMENT_CAP}")
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield Tournament._trusted(rows)


@lru_cache(maxsize=None)
def _realizable_score_tuples(n: int) -> frozenset:
    return frozenset(
        tuple(sorted(t._popcounts())) for t in enumerate_tournaments(n)
    )


def realizable_by_brute_force(v: ScoreVector) -> bool:
    """True iff some enumerated tournament has ``v`` as its sorted scores."""
    scores = tuple(v)
    # the enumeration checks n, and its cap, before a score is read
    realizable = _realizable_score_tuples(len(scores))
    return tuple(sorted(_int_scores(scores))) in realizable


def reachability(t: Tournament) -> np.ndarray:
    """Boolean n x n matrix; (i, j) true iff a directed path leads i to j.

    Warshall's transitive closure of the arcs, on one int per row: every
    vertex reaches itself, and a vertex that reaches k reaches all k does.
    It reads no scores, so it can certify score-based claims.
    """
    reach = [row | 1 << i for i, row in enumerate(_tournament(t)._rows)]
    for k in range(t.n):
        bit, through = 1 << k, reach[k]
        for i, row in enumerate(reach):
            if row & bit:
                reach[i] = row | through
    return _matrix(reach)


def three_cycles(t: Tournament) -> int:
    """Number of cyclic triples, counted on the arcs, not read off the scores.

    An arc i -> j closes a 3-cycle with each k in ``rows[j]`` and not in
    ``rows[i]``, so each cycle is counted once for each of its three arcs.
    """
    rows = _tournament(t)._rows
    return sum((rows[j] & ~rows[i]).bit_count() for i, j in t.arcs()) // 3


@dataclass(frozen=True)
class EnumerationStats:
    """The count of the sequences of order n and the two walks' worst cases.

    ``max_trace_length`` is the longest down trace, d(R_n, Tr_n)/2, and
    ``max_c`` the most 3-cycles, c(R_n), which is also the most up steps.
    ``realizable_count`` is only available within the tournament cap and, by
    Landau's theorem, always equals ``sequence_count`` there.
    """

    n: int
    sequence_count: int
    realizable_count: Optional[int]
    max_trace_length: int
    max_c: int


def stats(n: int) -> EnumerationStats:
    """Count the sequences of order n; read the two maxima off closed forms.

    No sequence is listed.  One memoized recursion follows the enumeration's
    branching (``_values``) over its states (k, cap, rest), at most
    n * n * (C(n,2) + 1) of them, each trying at most n values, and returns
    the number of completions of positions 1..k.  The longest down trace and
    the most 3-cycles are ``max_down_jumps(n)`` and ``max_c_value(n)``;
    tests/test_oracle.py certifies both against walked traces and against
    3-cycles counted on the arcs, and against the listed sequences' largest
    d(R_n, S)/2 and c(S).  Only ``realizable_count``, within the tournament
    cap, lists the sequences.
    """
    n = _sequence_order(n)

    @cache
    def count(k: int, cap: int, rest: int) -> int:
        if k == 1:
            return 1
        return sum(count(k - 1, x, rest - x) for x in _values(k, cap, rest))

    realizable = None
    if n <= TOURNAMENT_CAP:
        realizable = sum(
            map(realizable_by_brute_force, enumerate_landau_sequences(n))
        )
    return EnumerationStats(
        n=n,
        sequence_count=count(n, n - 1, comb(n, 2)),
        realizable_count=realizable,
        max_trace_length=max_down_jumps(n),
        max_c=max_c_value(n),
    )
