"""Score sequences: validation, the total order, the 1-norm metric, and jumps.

A score sequence is the non-decreasing vector of out-degrees of a tournament.
Landau's conditions characterize exactly which integer vectors arise this way:
every prefix sum of the sorted scores is at least C(k,2) and the total is
exactly C(n,2).  This module holds the sequence-level machinery: validation,
the total order that compares sequences from the last coordinate downward,
and three jump algorithms that walk that order one unit of score at a time.

Scores must be integers: Python ints and numpy integer scalars are accepted
(through ``operator.index``) and stored as Python ints.  Floats, even
integral ones, and bools raise ``TypeError`` instead of being truncated.
"""

from __future__ import annotations

import enum
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from math import comb
from operator import eq, gt, lt
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

#: Raw, unvalidated score input: any sequence of integers of length >= 1.
ScoreVector = Sequence[int]


class ViolationKind(enum.Enum):
    NEGATIVE = "negative"
    NOT_NON_DECREASING = "not-non-decreasing"
    PREFIX_SUM_DEFICIT = "prefix-sum-deficit"
    TOTAL_SUM_MISMATCH = "total-sum-mismatch"


@dataclass(frozen=True)
class ViolationReport:
    """First reason a score vector fails validation.

    ``index`` is the smallest 1-based position witnessing the violation.
    Checks run in a fixed order (negativity, monotonicity, prefix sums,
    total) so the report is deterministic.
    """

    kind: ViolationKind
    index: int
    observed: int
    required: int

    @property
    def message(self) -> str:
        k = self.index
        if self.kind is ViolationKind.NEGATIVE:
            return f"negative score {self.observed} at k={k}"
        if self.kind is ViolationKind.NOT_NON_DECREASING:
            return (
                f"score {self.observed} < {self.required} breaks "
                f"non-decreasing order at k={k}"
            )
        if self.kind is ViolationKind.PREFIX_SUM_DEFICIT:
            return f"prefix sum {self.observed} < {self.required} at k={k}"
        return f"total {self.observed} != {self.required}"


def _first_true(flags: Iterator[bool]) -> Optional[int]:
    """1-based position of the first true flag, or None; the scan runs in C."""
    return next(compress(count(1), flags), None)


def _int_scores(v: ScoreVector) -> tuple:
    """The entries of ``v`` as Python ints; bools and non-integers raise TypeError."""
    scores = tuple(v)
    if bool in map(type, scores):  # bool has no subclasses
        raise TypeError("scores must be integers, not bools")
    return tuple(map(operator.index, scores))


def _score_pair(a: ScoreVector, b: ScoreVector) -> Tuple[tuple, tuple]:
    """The scores of ``a`` and ``b``, a sequence's as they are and a raw
    vector's read by ``_int_scores``; ``ValueError`` unless equally long."""
    ta, tb = (v.scores if isinstance(v, LandauSequence) else _int_scores(v) for v in (a, b))
    if len(ta) != len(tb):
        raise ValueError("sequences must have equal length")
    return ta, tb


def _sequence(s: LandauSequence) -> LandauSequence:
    """``s`` itself; ``TypeError`` unless it is a :class:`LandauSequence`."""
    if not isinstance(s, LandauSequence):
        raise TypeError(f"expected a LandauSequence, not {type(s).__name__}")
    return s


def _violation(scores: tuple) -> Optional[ViolationReport]:
    """First violation of Landau's conditions by a tuple of Python ints."""
    n = len(scores)
    if not n:
        raise ValueError("score vector must have length >= 1")
    if min(scores) < 0:
        k = _first_true(map(lt, scores, repeat(0)))
        return ViolationReport(ViolationKind.NEGATIVE, k, scores[k - 1], 0)
    if list(scores) != sorted(scores):
        k = _first_true(map(lt, scores[1:], scores))
        return ViolationReport(
            ViolationKind.NOT_NON_DECREASING, k + 1, scores[k], scores[k - 1]
        )
    # the prefix sums against C(k,2) = 0 + 1 + ... + (k-1)
    k = _first_true(map(lt, accumulate(scores), accumulate(range(n))))
    if k is not None:
        return ViolationReport(
            ViolationKind.PREFIX_SUM_DEFICIT, k, sum(scores[:k]), comb(k, 2)
        )
    total = sum(scores)
    if total != comb(n, 2):
        return ViolationReport(ViolationKind.TOTAL_SUM_MISMATCH, n, total, comb(n, 2))
    return None


def first_violation(v: ScoreVector) -> Optional[ViolationReport]:
    """Return the first violation of Landau's conditions, or None if valid.

    Raises ``TypeError`` when an entry is a bool or not an integer.
    """
    return _violation(_int_scores(v))


def _seq_str(scores: Iterable[int]) -> str:
    """The comma form of a score list, the form a sequence literal takes."""
    return ",".join(str(x) for x in scores)


@dataclass(frozen=True, slots=True)
class LandauSequence:
    """A non-decreasing integer tuple satisfying Landau's conditions.

    Construction re-checks the conditions, so a held instance is always a
    genuine score sequence.  Use :func:`validate_landau` to get a report
    instead of an exception for bad input.
    """

    scores: tuple

    def __post_init__(self):
        scores = _int_scores(self.scores)
        report = _violation(scores)
        if report is not None:
            raise ValueError(report.message)
        _set_scores(self, scores)

    @classmethod
    def _trusted(cls, scores: tuple) -> "LandauSequence":
        # Python-int scores known to be valid (checked, a closed form, or a
        # jump's result, which the tests certify): set the slot, no re-check.
        self = object.__new__(cls)
        _set_scores(self, scores)
        return self

    @property
    def n(self) -> int:
        return len(self.scores)

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[int]:
        return iter(self.scores)

    def __getitem__(self, i):
        return self.scores[i]

    def __str__(self) -> str:
        return _seq_str(self.scores)


_set_scores = LandauSequence.scores.__set__


def validate_landau(v: ScoreVector) -> Union[LandauSequence, ViolationReport]:
    """Check Landau's conditions; return the validated sequence or a report."""
    scores = _int_scores(v)
    report = _violation(scores)
    if report is not None:
        return report
    return LandauSequence._trusted(scores)


def validate_strong_landau(s: LandauSequence) -> bool:
    """True iff every proper prefix sum strictly exceeds C(k,2).

    Strict prefix sums characterize the score sequences of strong
    tournaments.  n = 1 is vacuously strong.
    """
    return first_equality_index(s) is None


def _prefix_equalities(scores: Sequence[int]) -> Iterator[int]:
    """Each k < n where the sorted prefix sum is C(k,2): a strong-component cut."""
    prefix = 0
    for k in range(1, len(scores)):
        prefix += scores[k - 1]
        if prefix == comb(k, 2):
            yield k


def first_equality_index(s: LandauSequence) -> Optional[int]:
    """Smallest k < n with prefix sum exactly C(k,2), or None if strong."""
    return next(_prefix_equalities(_sequence(s).scores), None)


def _order(n: int) -> int:
    """``n`` read as an index: ``TypeError`` if it is not one (a bool is the 0
    or 1 it equals), ``ValueError`` below 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def regular_sequence(n: int) -> LandauSequence:
    """Score sequence of a regular (n odd) or nearly-regular (n even) tournament.

    This is the minimum of the total order on valid sequences of length n.
    """
    n = _order(n)
    if n % 2 == 1:
        return LandauSequence._trusted(((n - 1) // 2,) * n)
    half = n // 2
    return LandauSequence._trusted(((n - 2) // 2,) * half + (half,) * half)


def transitive_sequence(n: int) -> LandauSequence:
    """Score sequence (0, 1, ..., n-1) of the transitive tournament.

    This is the maximum of the total order on valid sequences of length n.
    """
    return LandauSequence._trusted(tuple(range(_order(n))))


class Order(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def compare_order(a: ScoreVector, b: ScoreVector) -> Order:
    """Compare two sequences in the total order.

    Coordinates are scanned from the last position downward; the first
    position where the sequences differ decides.  A :class:`LandauSequence`
    is read by its scores, any other vector by the score rule (``TypeError``
    for a bool or a non-integer entry).
    """
    ra, rb = (t[::-1] for t in _score_pair(a, b))
    return Order((ra > rb) - (ra < rb))


def distance(a: ScoreVector, b: ScoreVector) -> int:
    """1-norm distance between two equal-length integer vectors.

    A :class:`LandauSequence` is read by its scores, any other vector by the
    score rule (``TypeError`` for a bool or a non-integer entry).  For
    vectors with equal totals the result is always even.
    """
    return sum(map(abs, map(operator.sub, *_score_pair(a, b))))


class JumpAlgorithm(enum.Enum):
    DOWN = "down"
    GR_DOWN = "gr-down"
    GR_UP = "gr-up"


class AlreadyRegular(Exception):
    """Down jump requested on the regular/nearly-regular sequence."""


class AlreadyTransitive(Exception):
    """Up jump requested on the transitive sequence."""


class Converged(Exception):
    """Target-directed jump requested when already at the target."""


@dataclass(frozen=True, slots=True)
class JumpStep:
    """One jump: two positions move by +1/-1, shifting the order by one jump.

    ``low`` and ``high`` are 1-based positions, matching the indices the
    algorithms are defined by.
    """

    before: LandauSequence
    after: LandauSequence
    low: int
    high: int
    algorithm: JumpAlgorithm


#: The unit of score each algorithm moves: added at ``low`` and at ``high``.
_MOVES = {
    JumpAlgorithm.DOWN: (1, -1),
    JumpAlgorithm.GR_DOWN: (1, -1),
    JumpAlgorithm.GR_UP: (-1, 1),
}


def _replayed(
    scores: List[int], algorithm: JumpAlgorithm, positions: Iterable[int]
) -> Iterator[Tuple[int, int]]:
    """Apply each (low, high) pair of the flat ``positions`` to ``scores`` in
    place by the algorithm's move, and yield the pair once it is applied."""
    at_low, at_high = _MOVES[algorithm]
    positions = iter(positions)
    for low, high in zip(positions, positions):
        scores[low - 1] += at_low
        scores[high - 1] += at_high
        yield low, high


@dataclass(frozen=True, init=False, repr=False)
class JumpTrace:
    """A chain of jumps from ``start`` to ``end``, held as their positions.

    A trace keeps the two sequences, the algorithm and each step's 1-based
    ``(low, high)`` pair, 8 bytes a step; every step is rebuilt from these
    by replaying the pairs on a copy of ``start``.  ``steps`` rebuilds the
    whole tuple of :class:`JumpStep` on each read and does not keep it, so
    read it once.  Equality and ``repr`` are those of the tuple (start, end,
    steps).  Equal traces hash equal, and hashing reads no steps.
    """

    start: LandauSequence
    end: LandauSequence
    _algorithm: Optional[JumpAlgorithm]
    _pairs: array

    def __init__(
        self, start: LandauSequence, end: LandauSequence, steps: Sequence[JumpStep]
    ):
        """Hold ``steps``, which must chain from ``start`` to ``end`` under one
        algorithm; raises ``ValueError`` otherwise, ``TypeError`` on wrong types."""
        if not (isinstance(start, LandauSequence) and isinstance(end, LandauSequence)):
            raise TypeError("start and end must be LandauSequences")
        steps = tuple(steps)
        if not all(isinstance(step, JumpStep) for step in steps):
            raise TypeError("steps must be JumpSteps")
        algorithms = {step.algorithm for step in steps}
        if not algorithms <= set(JumpAlgorithm):
            raise TypeError("step algorithms must be JumpAlgorithms")
        if len(algorithms) > 1:
            raise ValueError("steps mix jump algorithms")
        try:
            pairs = array("I", chain.from_iterable((st.low, st.high) for st in steps))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"step positions must be positive ints: {exc}") from None
        if pairs and (min(pairs) < 1 or max(pairs) > len(start)):
            raise ValueError(f"step positions must lie in 1..{len(start)}")
        algorithm = algorithms.pop() if steps else None
        self.__dict__.update(start=start, end=end, _algorithm=algorithm, _pairs=pairs)
        if self.steps != steps or (steps[-1].after if steps else start) != end:
            raise ValueError("steps do not chain from start to end")

    @classmethod
    def _trusted(
        cls,
        start: LandauSequence,
        end: LandauSequence,
        algorithm: Optional[JumpAlgorithm],
        pairs: array,
    ) -> "JumpTrace":
        # A walk's own trace: the pairs take start to end under the algorithm,
        # which an empty trace does not hold, as in __init__.
        self = object.__new__(cls)
        algorithm = algorithm if pairs else None
        self.__dict__.update(start=start, end=end, _algorithm=algorithm, _pairs=pairs)
        return self

    def __len__(self) -> int:
        return len(self._pairs) // 2

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Yield each step's ``(low, high)`` positions."""
        positions = iter(self._pairs)
        return zip(positions, positions)

    def sequences(self) -> Iterator[LandauSequence]:
        """Yield start, then the sequence after each step."""
        yield self.start
        if self._pairs:
            scores = list(self.start.scores)
            new_sequence = LandauSequence._trusted
            for _ in _replayed(scores, self._algorithm, self._pairs):
                yield new_sequence(tuple(scores))

    @property
    def steps(self) -> tuple:
        """The tuple of :class:`JumpStep`, rebuilt from the pairs on each read."""
        seqs, pairs = list(self.sequences()), self._pairs
        return tuple(
            map(
                JumpStep,
                seqs,
                seqs[1:],
                pairs[0::2],
                pairs[1::2],
                repeat(self._algorithm),
            )
        )

    def __hash__(self) -> int:
        # the fields the dataclass's == compares, so equal traces hash equal
        return hash((self.start, self.end, self._algorithm, self._pairs.tobytes()))

    def __repr__(self) -> str:
        return (
            f"JumpTrace(start={self.start!r}, end={self.end!r}, steps={self.steps!r})"
        )


# The three walks.  Each takes a sorted list ``a`` and its ``target`` and
# returns one array of the 1-based positions low, high, low, high, ... of
# the steps that move ``a`` one unit of score at a time until it equals
# ``target``; the up walk moves ``a`` itself, the down walks only read it.
# The arrays are built by C-level ``range`` and ``array`` operations: each
# down walk in closed form, the up walk one run of big steps at the same k
# at a time.  No walk stops after a precomputed count: each closed form is
# read off the target's values, and ``_closed_form`` raises if the raises
# and the lowers it pairs differ in number.  The step functions share no
# code with the walks: each reads its step off the algorithm's rule.
def _closed_form(lowers: Callable, a: List[int], target: List[int]) -> array:
    """A down walk: the flat positions lows[0], highs[0], lows[1], highs[1],
    ... of the arrays ``_raises(a, target)`` and ``lowers(a, target)`` of its
    raised and lowered positions.  The raises are spread into the result and
    freed before ``lowers`` is called, so at most 12 bytes a step are held."""
    raised = _raises(a, target)
    pairs = raised * 2
    pairs[0::2] = raised
    del raised
    lowered = lowers(a, target)
    if 2 * len(lowered) != len(pairs):
        raise ValueError(
            f"walk raises {len(pairs) // 2} times but lowers {len(lowered)} times"
        )
    pairs[1::2] = lowered
    return pairs


# Both down walks raise the last position of the run of the lowest value v
# still short of the target, and differ only in the position they lower.  That
# position's target is at least the first short position's, more than v, so
# the raise stops at the target; a lower stops at the target too.  So the
# lowers never change which positions are short or what they hold.  Nor do
# they move the end of v's run: a position before the first short one holds
# at most v, and an excess one past it more than its target > v, before and
# after it is lowered.  So the raises never depend on the lowers, and round v
# raises exactly the positions whose start is at most v and whose target
# exceeds v, last first.
def _raises(a: List[int], target: List[int]) -> array:
    """Round v runs from a[0] up to target[-1] - 1 and raises the positions
    bisect_right(a, v) down to bisect_right(target, v) + 1."""
    lows = array("I")
    for v in range(a[0], target[-1]):
        lows.extend(range(bisect_right(a, v), bisect_right(target, v), -1))
    return lows


# The down walk raises the last position of the minimum's run and lowers the
# first position of the maximum's run.  Before the end the first is short of
# R_n and the second above it: otherwise the list would lie on one side of
# R_n, whose values differ by at most 1, position by position, with the same
# total C(n,2).  So the minimum is the lowest short value.
def _down_walk(a: List[int], target: List[int]) -> array:
    return _closed_form(_down_lowers, a, target)


def _down_lowers(a: List[int], target: List[int]) -> array:
    """The maximum w runs from a[-1] down to target[0] + 1 and lowers the
    positions bisect_left(a, w) + 1 up to bisect_left(target, w)."""
    highs = array("I")
    for w in range(a[-1], target[0], -1):
        highs.extend(range(bisect_left(a, w) + 1, bisect_left(target, w) + 1))
    return highs


# The Griggs-Reid down walk raises the last position of the run of the first
# short position's value, and lowers the first position above its target.
def _gr_down_walk(a: List[int], target: List[int]) -> array:
    return _closed_form(_gr_down_lowers, a, target)


def _gr_down_lowers(a: List[int], target: List[int]) -> array:
    """Each excess position i, in ascending order, is lowered a[i] - target[i]
    times in a row."""
    highs = array("I")
    for i, excess in enumerate(map(operator.sub, a, target), 1):
        if excess > 0:
            highs.extend(repeat(i, excess))
    return highs


# The up walk does Python work only once per run of big steps.  Let k be the
# first position of a repeated value v, so positions 1..k are strictly
# increasing up to v, and let j be the smallest position such that positions
# j..k hold consecutive values, v-(k-j) .. v.  The big step lowers position k
# to v-1 and raises h, the last position of v.  If j < k, position k-1 holds
# v-1, so k-1 is now the first position of a repeated value, whose run is
# k-1..k (position k+1 holds at least v): the next step is (k-1, k), which
# gives position k back its v and lowers position k-1 to v-2.  This repeats
# down to (j, j+1), and there it stops: position j-1 holds less than a[j]-1,
# so the prefix is strictly increasing again.  That cascade of k-j steps
# lowers position j by one and gives position k back its v; positions
# j+1..k-1 end as they began.  The cascade is a slice of ``cascades``, the
# pairs (i, i+1) for i = n-1 down to 1.
#
# After a cascade, k is again the first repeated position while the run of v
# holds two positions or more, and the run of consecutive values now starts
# at j+1, since position j is two below position j+1.  So the walk makes
# (k, h), cascade j..k, (k, h-1), cascade j+1..k, and so on, and the run
# stops at the first big step with no cascade (j has reached k, and position
# k drops to v-1) or once the run of v is down to one position.  Its net
# change lowers positions j.. by one and raises positions ..h to v+1, one per
# big step.  Every state inside the run repeats a score, so none is the
# target Tr_n.  After it, positions 1..k strictly increase, so the search for
# the next k resumes at k+1, and j is found by a scan down from the new k; at
# j = 1 the scan reads a[-1], the largest score, which is never a[0]-1.
def _up_walk(a: List[int], target: List[int]) -> array:
    n = len(a)
    cascades = array("I", chain.from_iterable((i, i + 1) for i in range(n - 1, 0, -1)))
    pairs, k = array("I"), 0
    while a != target:
        k += 1
        while a[k - 1] != a[k]:
            k += 1
        j = k
        while a[j - 2] == a[j - 1] - 1:
            j -= 1
        v, lowest = a[k - 1], a[j - 1]
        h = bisect_right(a, v, k)
        big = min(k - j, h - k - 1) + 1
        base = 2 * (n - k)
        for x in range(j, j + big):
            pairs.append(k)
            pairs.append(h + j - x)
            pairs += cascades[base : 2 * (n - x)]
        a[j - 1 : j + big - 1] = range(lowest - 1, lowest + big - 1)
        a[h - big : h] = repeat(v + 1, big)
    return pairs


def _trace(algorithm: JumpAlgorithm, s: LandauSequence) -> JumpTrace:
    """The trace of ``algorithm`` for ``s``: down walks from s to R_n,
    gr-down from Tr_n to s, gr-up from s to Tr_n."""
    n = _sequence(s).n
    if algorithm is JumpAlgorithm.DOWN:
        walk, start, end = _down_walk, s, regular_sequence(n)
    elif algorithm is JumpAlgorithm.GR_DOWN:
        walk, start, end = _gr_down_walk, transitive_sequence(n), s
    else:
        walk, start, end = _up_walk, s, transitive_sequence(n)
    pairs = walk(list(start.scores), list(end.scores))
    return JumpTrace._trusted(start, end, algorithm, pairs)


def _step(
    algorithm: JumpAlgorithm,
    rule: Callable,
    s: LandauSequence,
    target: LandauSequence,
    at_target: type,
) -> JumpStep:
    # the step (low, high) = rule(s, target) toward target, made by the
    # algorithm's move; raises at_target at the target
    if s.scores == target.scores:
        raise at_target(str(s))
    low, high = rule(s.scores, target.scores)
    scores = list(s.scores)
    next(_replayed(scores, algorithm, (low, high)))
    return JumpStep(s, LandauSequence._trusted(tuple(scores)), low, high, algorithm)


# The rules of the three step functions, each read off the sorted scores ``a``
# in O(n) as the function's docstring states, at a sequence short of its target.
def _down_rule(a: tuple, target: tuple) -> Tuple[int, int]:
    return bisect_right(a, a[0]), bisect_left(a, a[-1]) + 1


def _gr_down_rule(a: tuple, target: tuple) -> Tuple[int, int]:
    alpha = _first_true(map(lt, a, target))
    return bisect_right(a, a[alpha - 1]), _first_true(map(gt, a, target))


def _up_rule(a: tuple, target: tuple) -> Tuple[int, int]:
    k = _first_true(map(eq, a, a[1:]))
    return k, bisect_right(a, a[k - 1])


def down_jump_step(s: LandauSequence) -> JumpStep:
    """One jump down toward the regular sequence.

    p is the last position of the leading run of the minimum, q the first
    position of the trailing run of the maximum; position p gains 1 and
    position q loses 1.  The result stays valid and sits strictly below the
    input in the total order, two closer to the regular sequence in 1-norm.
    """
    r = regular_sequence(_sequence(s).n)
    return _step(JumpAlgorithm.DOWN, _down_rule, s, r, AlreadyRegular)


def down_trace(s: LandauSequence) -> JumpTrace:
    """Iterate down jumps until the regular sequence; d(s, R)/2 steps.

    The walk is read off in closed form: one bisect per value the minimum
    and the maximum pass, and C-level array work per step.  Unlike ``landau
    trace`` the walk has no cap; the trace holds 8 bytes a step, and 12
    while the closed form is built.
    """
    return _trace(JumpAlgorithm.DOWN, s)


def gr_down_step(u: LandauSequence, target: LandauSequence) -> JumpStep:
    """One Griggs-Reid jump down from ``u`` toward ``target``.

    beta is the last position sharing the value of the first position where
    u falls short of the target; gamma is the first position where u exceeds
    the target.  Position beta gains 1 and position gamma loses 1.
    """
    _score_pair(_sequence(u), _sequence(target))
    return _step(JumpAlgorithm.GR_DOWN, _gr_down_rule, u, target, Converged)


def gr_down_trace(target: LandauSequence) -> JumpTrace:
    """Jump down from the transitive sequence to ``target``; d(Tr, target)/2 steps.

    The walk is read off in closed form: the raises of ``down_trace``, one
    bisect per value they pass, O(n) Python work for the lowers, and C-level
    array work per step.  Unlike ``landau trace`` the walk has no cap; the
    trace holds 8 bytes a step, and 12 while the closed form is built.
    """
    return _trace(JumpAlgorithm.GR_DOWN, target)


def up_step(s: LandauSequence) -> JumpStep:
    """One Griggs-Reid jump up toward the transitive sequence.

    k is the first position of a repeated value and m the multiplicity of
    that value; position k loses 1 and position k+m-1 gains 1.
    """
    tr = transitive_sequence(_sequence(s).n)
    return _step(JumpAlgorithm.GR_UP, _up_rule, s, tr, AlreadyTransitive)


def up_trace(s: LandauSequence) -> JumpTrace:
    """Iterate up jumps until the transitive sequence; c_value(s) steps.

    The walk does Python work once per run of big steps at one position k
    and once per big step; each big step's cascade of steps is a C-level
    slice of a table.  Unlike ``landau trace`` the walk has no cap; the
    trace holds 8 bytes a step, so ``up_trace(regular_sequence(1001))``,
    with c = 41,791,750, would hold about 334 MB.
    """
    return _trace(JumpAlgorithm.GR_UP, s)


def c_value(s: LandauSequence) -> int:
    """C(n,3) minus the number of transitive triples; counts 3-cycles.

    Any tournament realizing ``s`` has exactly this many directed 3-cycles,
    and the up-jump algorithm takes exactly this many steps from ``s``.
    """
    return _cyclic_triples(_sequence(s).scores)


def _cyclic_triples(scores: Sequence[int]) -> int:
    """C(n,3) - sum C(s_i,2) for the n scores of a tournament, in any order
    (Kendall & Babington Smith, 1940): a transitive triple has exactly one
    vertex that beats the other two."""
    return comb(len(scores), 3) - sum(map(comb, scores, repeat(2)))


def max_c_value(n: int) -> int:
    """Maximum of c over all valid sequences of length n, attained at R_n."""
    n = _order(n)
    if n % 2 == 1:
        return (n**3 - n) // 24
    return (n**3 - 4 * n) // 24


def max_down_jumps(n: int) -> int:
    """Maximum down-trace length over valid sequences of length n.

    Equals d(R_n, Tr_n)/2: (n^2-1)/8 for odd n, (n^2-2n)/8 for even n.
    """
    n = _order(n)
    if n % 2 == 1:
        return (n**2 - 1) // 8
    return (n**2 - 2 * n) // 8
