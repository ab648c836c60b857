"""Brute-force ground truth at desk scale.

Exhaustively enumerates all valid score sequences for small n and all
labeled tournaments for very small n, and computes reachability from the
arcs alone, so every claim the fast algorithms make can be certified
against an independent search.  ``stats`` aggregates over the same
branching as the sequence enumeration without listing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from .sequences import (
    LandauSequence,
    ScoreVector,
    _int_scores,
    _order,
    regular_sequence,
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
    """Aggregate counts and maxima over the enumerated sequences of order n.

    ``realizable_count`` is only available within the tournament cap and, by
    Landau's theorem, always equals ``sequence_count`` there.
    """

    n: int
    sequence_count: int
    realizable_count: Optional[int]
    max_trace_length: int
    max_c: int


def stats(n: int) -> EnumerationStats:
    """Aggregate trace lengths and 3-cycle counts over the sequences of order n.

    No sequence is listed.  One memoized recursion follows the enumeration's
    branching (``_values``) over its states (k, cap, rest), at most
    n * n * (C(n,2) + 1) of them, each trying at most n values, and returns
    for positions 1..k the number of completions, the largest sum of
    |x_i - r_i| against r = R_n and the smallest sum of C(x_i, 2).  Both sums
    split by position, so the largest d(R_n, S) and the largest
    c(S) = C(n,3) - sum C(s_i, 2) over the order are read off the start
    state.  The longest down trace is the largest d(R_n, S)/2, its length by
    the identity the tests certify against walked traces.  Only
    ``realizable_count``, within the tournament cap, lists the sequences.
    """
    n = _sequence_order(n)
    r = regular_sequence(n).scores

    @cache
    def branch(k: int, cap: int, rest: int) -> Tuple[int, int, int]:
        if k == 1:
            return 1, abs(rest - r[0]), comb(rest, 2)
        subs = [(x, *branch(k - 1, x, rest - x)) for x in _values(k, cap, rest)]
        return (
            sum(c for _, c, _, _ in subs),
            max(d + abs(x - r[k - 1]) for x, _, d, _ in subs),
            min(q + comb(x, 2) for x, _, _, q in subs),
        )

    count, far, fewest = branch(n, n - 1, comb(n, 2))
    realizable = None
    if n <= TOURNAMENT_CAP:
        realizable = sum(
            map(realizable_by_brute_force, enumerate_landau_sequences(n))
        )
    return EnumerationStats(
        n=n,
        sequence_count=count,
        realizable_count=realizable,
        max_trace_length=far // 2,
        max_c=comb(n, 3) - fewest,
    )
