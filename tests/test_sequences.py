import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.oracle import enumerate_landau_sequences, realizable_by_brute_force
from landau.sequences import (
    AlreadyRegular,
    AlreadyTransitive,
    Converged,
    JumpAlgorithm,
    JumpStep,
    JumpTrace,
    LandauSequence,
    Order,
    ViolationKind,
    ViolationReport,
    _down_walk,
    _gr_down_walk,
    _prefix_equalities,
    _up_walk,
    c_value,
    compare_order,
    distance,
    down_jump_step,
    down_trace,
    first_equality_index,
    first_violation,
    gr_down_step,
    gr_down_trace,
    max_c_value,
    max_down_jumps,
    regular_sequence,
    transitive_sequence,
    up_step,
    up_trace,
    validate_landau,
    validate_strong_landau,
)


def seq(*scores):
    s = validate_landau(scores)
    assert isinstance(s, LandauSequence)
    return s


class TestValidateLandau:
    def test_paper_example_sequence_is_valid(self):
        assert isinstance(validate_landau((1, 1, 2, 3, 4, 5, 6, 6)), LandauSequence)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_transitive_is_valid_for_all_n(self, n):
        assert isinstance(validate_landau(tuple(range(n))), LandauSequence)

    def test_prefix_sum_deficit_reported_at_smallest_k(self):
        report = validate_landau((0, 0, 3))
        assert isinstance(report, ViolationReport)
        assert report.kind is ViolationKind.PREFIX_SUM_DEFICIT
        assert (report.index, report.observed, report.required) == (2, 0, 1)
        assert report.message == "prefix sum 0 < 1 at k=2"

    def test_negative_checked_before_monotonicity(self):
        report = validate_landau((3, -1, 2))
        assert report.kind is ViolationKind.NEGATIVE
        assert report.index == 2

    def test_not_non_decreasing(self):
        report = validate_landau((2, 1, 0))
        assert report.kind is ViolationKind.NOT_NON_DECREASING
        assert report.index == 2

    def test_total_sum_mismatch(self):
        report = validate_landau((1, 2, 3))
        assert report.kind is ViolationKind.TOTAL_SUM_MISMATCH
        assert (report.observed, report.required) == (6, 3)

    def test_empty_input_is_usage_error(self):
        with pytest.raises(ValueError):
            validate_landau(())

    def test_direct_construction_rejects_invalid(self):
        with pytest.raises(ValueError):
            LandauSequence((0, 0, 3))


class TestScoreInputTypes:
    @pytest.mark.parametrize(
        "scores",
        [
            (0, 1.7),
            (0.4, 0.6),
            (0.0, 1.0),
            (False, True),
            (0, True),
            (np.True_, np.False_),
            (0, np.float64(1.0)),
            ("0", "1"),
            (0, None),
        ],
    )
    @pytest.mark.parametrize(
        "check",
        [
            first_violation,
            validate_landau,
            LandauSequence,
            realizable_by_brute_force,
            pytest.param(lambda v: distance(v, (0, 1)), id="distance-left"),
            pytest.param(lambda v: distance((0, 1), v), id="distance-right"),
            pytest.param(lambda v: compare_order(v, (0, 1)), id="compare_order-left"),
            pytest.param(lambda v: compare_order((0, 1), v), id="compare_order-right"),
        ],
    )
    def test_non_integer_entries_raise_type_error(self, check, scores):
        with pytest.raises(TypeError):
            check(scores)

    @pytest.mark.parametrize(
        "scores",
        [
            np.array([0, 1, 2]),
            (np.int64(1), np.int32(1), np.uint8(1)),
            (0, np.int16(1), 2),
        ],
    )
    def test_numpy_integers_are_accepted_as_python_ints(self, scores):
        s = validate_landau(scores)
        assert isinstance(s, LandauSequence)
        assert all(type(x) is int for x in s.scores)
        assert LandauSequence(scores) == s

    def test_huge_integers_get_a_report(self):
        report = validate_landau((0, 10**30))
        assert report.kind is ViolationKind.TOTAL_SUM_MISMATCH


def _reference_first_violation(scores):
    """The per-entry loops of the validator before its scans moved to C."""
    for i, s in enumerate(scores, start=1):
        if s < 0:
            return ViolationReport(ViolationKind.NEGATIVE, i, s, 0)
    for i in range(1, len(scores)):
        if scores[i] < scores[i - 1]:
            return ViolationReport(
                ViolationKind.NOT_NON_DECREASING, i + 1, scores[i], scores[i - 1]
            )
    prefix = 0
    for k, s in enumerate(scores, start=1):
        prefix += s
        if prefix < comb(k, 2):
            return ViolationReport(
                ViolationKind.PREFIX_SUM_DEFICIT, k, prefix, comb(k, 2)
            )
    n = len(scores)
    if prefix != comb(n, 2):
        return ViolationReport(ViolationKind.TOTAL_SUM_MISMATCH, n, prefix, comb(n, 2))
    return None


class TestFirstViolationAgainstReference:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_vector_with_entries_from_minus_1_to_n(self, n):
        for scores in product(range(-1, n + 1), repeat=n):
            assert first_violation(scores) == _reference_first_violation(scores)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=40))
    def test_drawn_vectors(self, scores):
        for v in (scores, sorted(scores)):
            assert first_violation(v) == _reference_first_violation(tuple(v))


class TestValidateStrongLandau:
    def test_three_cycle_sequence_is_strong(self):
        assert validate_strong_landau(seq(1, 1, 1))

    def test_transitive_is_not_strong(self):
        assert not validate_strong_landau(seq(0, 1, 2))

    def test_paper_example_is_strong(self):
        # prefix sums 1,2,4,7,11,16,22 all strictly above 0,1,3,6,10,15,21
        assert validate_strong_landau(seq(1, 1, 2, 3, 4, 5, 6, 6))

    def test_single_vertex_is_vacuously_strong(self):
        assert validate_strong_landau(seq(0))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cuts_are_the_prefix_sums_equal_to_c_k_2(self, n):
        for s in enumerate_landau_sequences(n):
            cuts = [k for k in range(1, n) if sum(s.scores[:k]) == comb(k, 2)]
            assert list(_prefix_equalities(s.scores)) == cuts, s
            assert first_equality_index(s) == next(iter(cuts), None)


class TestRegularTransitive:
    def test_regular_odd(self):
        assert regular_sequence(5).scores == (2, 2, 2, 2, 2)

    def test_regular_even(self):
        assert regular_sequence(8).scores == (3, 3, 3, 3, 4, 4, 4, 4)

    def test_regular_n1(self):
        assert regular_sequence(1).scores == (0,)

    @pytest.mark.parametrize("n,expected", [(6, (0, 1, 2, 3, 4, 5)), (1, (0,)), (3, (0, 1, 2))])
    def test_transitive(self, n, expected):
        assert transitive_sequence(n).scores == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            regular_sequence(0)
        with pytest.raises(ValueError):
            transitive_sequence(0)

    def test_closed_forms_are_valid_up_to_200(self):
        # both are built without the Landau check, so check them here
        for n in range(1, 201):
            for s in (regular_sequence(n), transitive_sequence(n)):
                assert first_violation(s.scores) is None
                assert all(type(x) is int for x in s.scores)
                assert LandauSequence(s.scores) == s


class TestSlottedValues:
    def values(self):
        s = LandauSequence((0, 1, 2))
        step = down_jump_step(s)
        return s, step, down_trace(s)

    def test_frozen_without_dict(self):
        s, step, _ = self.values()
        for obj, name in [(s, "scores"), (step, "low"), (step, "after")]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        for obj in (s, step):
            assert not hasattr(obj, "__dict__")
            # a name that is not a field: CPython's frozen slotted dataclasses
            # raise TypeError from their __setattr__ instead
            with pytest.raises((FrozenInstanceError, TypeError)):
                obj.extra = None

    def test_eq_hash_repr_unchanged(self):
        s, step, trace = self.values()
        assert s == LandauSequence._trusted((0, 1, 2)) == seq(0, 1, 2)
        assert hash(s) == hash(((0, 1, 2),))
        assert repr(s) == "LandauSequence(scores=(0, 1, 2))"
        assert step == JumpStep(s, seq(1, 1, 1), 1, 3, JumpAlgorithm.DOWN)
        assert hash(step) == hash((s, seq(1, 1, 1), 1, 3, JumpAlgorithm.DOWN))
        assert repr(step) == (
            "JumpStep(before=LandauSequence(scores=(0, 1, 2)), "
            "after=LandauSequence(scores=(1, 1, 1)), low=1, high=3, "
            "algorithm=<JumpAlgorithm.DOWN: 'down'>)"
        )
        assert trace.steps == (step,)

    def test_pickle_round_trip(self):
        for obj in self.values():
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and repr(copy) == repr(obj)


class TestCompareOrder:
    def test_paper_down_jump_is_decreasing(self):
        a = seq(1, 2, 2, 3, 4, 5, 5, 6)
        b = seq(1, 1, 2, 3, 4, 5, 6, 6)
        assert compare_order(a, b) is Order.LESS
        assert compare_order(b, a) is Order.GREATER

    def test_chain_from_gr_down_note(self):
        a = seq(1, 1, 2, 3, 3, 5)
        b = seq(0, 1, 2, 4, 4, 4)
        c = seq(1, 2, 2, 3, 3, 4)
        assert compare_order(b, a) is Order.LESS
        assert compare_order(c, b) is Order.LESS

    def test_equal(self):
        a = seq(1, 1, 1)
        assert compare_order(a, a) is Order.EQUAL

    def test_length_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            compare_order(seq(0, 1), seq(0, 1, 2))


class TestDistance:
    def test_paper_transitive_example(self):
        assert distance(transitive_sequence(6), (1, 1, 1, 4, 4, 4)) == 4

    def test_paper_regular_example(self):
        assert distance(regular_sequence(6), (1, 2, 3, 3, 3, 3)) == 2

    def test_identical(self):
        assert distance((3, 1, 4), (3, 1, 4)) == 0

    def test_length_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            distance((1,), (1, 2))


class TestDownJump:
    def test_first_paper_step(self):
        step = down_jump_step(seq(1, 1, 2, 3, 4, 5, 6, 6))
        assert step.after.scores == (1, 2, 2, 3, 4, 5, 5, 6)
        assert (step.low, step.high) == (2, 7)

    def test_third_paper_step(self):
        step = down_jump_step(seq(2, 2, 2, 3, 4, 5, 5, 5))
        assert step.after.scores == (2, 2, 3, 3, 4, 4, 5, 5)
        assert (step.low, step.high) == (3, 6)

    def test_regular_input_raises(self):
        with pytest.raises(AlreadyRegular):
            down_jump_step(seq(3, 3, 3, 3, 4, 4, 4, 4))

    def test_regular_gives_empty_trace(self):
        assert len(down_trace(regular_sequence(9))) == 0

    def test_steps_chain(self):
        trace = down_trace(seq(0, 1, 2, 3, 4, 5))
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert a.after == b.before


class TestGrDownJump:
    def test_first_paper_step(self):
        step = gr_down_step(seq(0, 1, 2, 3, 4, 5), seq(2, 2, 2, 3, 3, 3))
        assert step.after.scores == (1, 1, 2, 3, 3, 5)
        assert (step.low, step.high) == (1, 5)

    def test_second_paper_step(self):
        step = gr_down_step(seq(1, 1, 2, 3, 3, 5), seq(2, 2, 2, 3, 3, 3))
        assert step.after.scores == (1, 2, 2, 3, 3, 4)
        assert (step.low, step.high) == (2, 6)

    def test_converged(self):
        s = seq(2, 2, 2, 3, 3, 3)
        with pytest.raises(Converged):
            gr_down_step(s, s)

    def test_transitive_target_gives_empty_trace(self):
        assert len(gr_down_trace(transitive_sequence(8))) == 0


class TestUpJump:
    def test_first_paper_step(self):
        step = up_step(seq(1, 1, 3, 3, 3, 4))
        assert step.after.scores == (0, 2, 3, 3, 3, 4)
        assert (step.low, step.high) == (1, 2)

    def test_second_paper_step(self):
        step = up_step(seq(0, 2, 3, 3, 3, 4))
        assert step.after.scores == (0, 2, 2, 3, 4, 4)
        assert (step.low, step.high) == (3, 5)

    def test_transitive_raises(self):
        with pytest.raises(AlreadyTransitive):
            up_step(transitive_sequence(6))

    def test_transitive_gives_empty_trace(self):
        assert len(up_trace(transitive_sequence(5))) == 0


class TestCountsAndBounds:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_c_value_transitive_is_zero(self, n):
        assert c_value(transitive_sequence(n)) == 0

    def test_c_value_regular_7(self):
        assert c_value(seq(3, 3, 3, 3, 3, 3, 3)) == 14

    @pytest.mark.parametrize("n,expected", [(7, 14), (8, 20), (1, 0)])
    def test_max_c_value(self, n, expected):
        assert max_c_value(n) == expected

    @pytest.mark.parametrize("n,expected", [(7, 6), (8, 6), (1, 0), (2, 0)])
    def test_max_down_jumps(self, n, expected):
        assert max_down_jumps(n) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_max_down_jumps_matches_distance(self, n):
        d = distance(regular_sequence(n), transitive_sequence(n))
        assert max_down_jumps(n) == d // 2


# The step functions as they were before the shared walk engine, kept
# verbatim as the reference the walks and step functions are compared against.
# ``_reference_chain`` walks each of them from a start to an end.


def _reference_down_jump_step(s: LandauSequence) -> JumpStep:
    t = s.scores
    n = len(t)
    if t == regular_sequence(n).scores:
        raise AlreadyRegular(str(s))
    p = 1
    while p < n and t[p] == t[0]:
        p += 1
    q = n
    while q > 1 and t[q - 2] == t[n - 1]:
        q -= 1
    after = list(t)
    after[p - 1] += 1
    after[q - 1] -= 1
    return JumpStep(s, LandauSequence(tuple(after)), p, q, JumpAlgorithm.DOWN)


def _reference_gr_down_step(u: LandauSequence, target: LandauSequence) -> JumpStep:
    if len(u) != len(target):
        raise ValueError("sequences must have equal length")
    if u.scores == target.scores:
        raise Converged(str(u))
    alpha = next(
        i for i, (x, y) in enumerate(zip(u.scores, target.scores), start=1) if x < y
    )
    beta = max(i for i, x in enumerate(u.scores, start=1) if x == u.scores[alpha - 1])
    gamma = next(
        i for i, (x, y) in enumerate(zip(u.scores, target.scores), start=1) if x > y
    )
    after = list(u.scores)
    after[beta - 1] += 1
    after[gamma - 1] -= 1
    return JumpStep(u, LandauSequence(tuple(after)), beta, gamma, JumpAlgorithm.GR_DOWN)


def _reference_up_step(s: LandauSequence) -> JumpStep:
    t = s.scores
    n = len(t)
    if t == transitive_sequence(n).scores:
        raise AlreadyTransitive(str(s))
    k = next(i for i in range(1, n) if t[i - 1] == t[i])
    m = t.count(t[k - 1])
    after = list(t)
    after[k - 1] -= 1
    after[k + m - 2] += 1
    return JumpStep(s, LandauSequence(tuple(after)), k, k + m - 1, JumpAlgorithm.GR_UP)


def _reference_chain(step_fn, start: LandauSequence, end: LandauSequence) -> tuple:
    """The steps of a walk from ``start`` to ``end``, one reference step at a time."""
    steps, cur = [], start
    while cur != end:
        steps.append(step_fn(cur))
        cur = steps[-1].after
    return tuple(steps)


def _walks(s: LandauSequence):
    """(trace, step, reference step, start, end) of the three walks of ``s``."""
    r, tr = regular_sequence(s.n), transitive_sequence(s.n)
    return [
        (down_trace, down_jump_step, _reference_down_jump_step, s, r),
        (
            gr_down_trace,
            lambda u: gr_down_step(u, s),
            lambda u: _reference_gr_down_step(u, s),
            tr,
            s,
        ),
        (up_trace, up_step, _reference_up_step, s, tr),
    ]


def _outcome(step_fn, *args):
    """A step, or the type of what it raised."""
    try:
        return step_fn(*args)
    except Exception as exc:
        return type(exc)


def _assert_walks_match(s: LandauSequence) -> None:
    for trace, step, reference_step, start, end in _walks(s):
        steps = _reference_chain(reference_step, start, end)
        # one step at a time along the reference chain first, so a wrong rule
        # fails at its first wrong step instead of walking without end
        for u in (start, *(st.after for st in steps)):
            assert _outcome(step, u) == _outcome(reference_step, u), (trace, s, u)
        assert trace(s) == JumpTrace(start, end, steps), (trace, s)


@st.composite
def valid_sequences(draw, max_n=40):
    """Sorted scores of a drawn tournament on up to ``max_n`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = n * (n - 1) // 2
    upper = np.zeros((n, n), dtype=bool)
    upper[np.triu_indices(n, 1)] = draw(
        st.lists(st.booleans(), min_size=pairs, max_size=pairs)
    )
    return _sorted_scores(_complete(upper))


def _complete(upper: np.ndarray) -> np.ndarray:
    """The tournament in which i < j beats j iff ``upper[i, j]``."""
    n = len(upper)
    return upper | (~(upper | upper.T) & np.tri(n, n, -1, dtype=bool))


def _random_tournament(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each pair i < j oriented i -> j with probability p."""
    return _complete(np.triu(rng.random((n, n)) < p, k=1))


def _drawn_scores(n: int, seed: int) -> LandauSequence:
    """Sorted scores of a tournament on ``n`` vertices, each arc a fair coin
    drawn from ``seed``: the draw every seeded byte pin reads."""
    return _sorted_scores(_random_tournament(n, 0.5, np.random.default_rng(seed)))


def _sorted_scores(adj: np.ndarray) -> LandauSequence:
    """Sorted scores of the tournament with adjacency matrix ``adj``."""
    return LandauSequence(tuple(sorted(int(x) for x in adj.sum(axis=1))))


class TestWalkEngineAgainstReference:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_sequence_up_to_9(self, n):
        for s in enumerate_landau_sequences(n):
            _assert_walks_match(s)

    @settings(max_examples=40, deadline=None)
    @given(valid_sequences())
    def test_drawn_sequences_up_to_40(self, s):
        _assert_walks_match(s)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gr_down_walk_from_every_start_to_every_target(self, n):
        seqs = enumerate_landau_sequences(n)
        for target in seqs:
            for start in seqs:
                u, ref = start, start
                while True:
                    got = _outcome(gr_down_step, u, target)
                    assert got == _outcome(_reference_gr_down_step, ref, target)
                    if got is Converged:
                        break
                    u = gr_down_step(u, target).after
                    ref = _reference_gr_down_step(ref, target).after

    @pytest.mark.parametrize("n", [50, 64])
    def test_larger_regular_and_random_sequences(self, n):
        # long up walks, so the amortized scan for k restarts many times
        for s in (regular_sequence(n), _drawn_scores(n, seed=n)):
            _assert_walks_match(s)

    def test_gr_down_step_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            gr_down_step(seq(0, 1), seq(1, 1, 1))


def _reference_walks(s: LandauSequence):
    """(trace, start, end, reference steps) of the three walks of ``s``."""
    return [
        (trace(s), start, end, _reference_chain(reference_step, start, end))
        for trace, _, reference_step, start, end in _walks(s)
    ]


def _first_where(flags) -> int:
    """1-based position of the first true flag, or one past the end."""
    flags = list(flags)
    return flags.index(True) + 1 if True in flags else len(flags) + 1


def _assert_walk_invariants_hold(s: LandauSequence) -> None:
    """The facts the comments on ``_gr_down_walk`` and ``_up_walk`` rely on,
    read off the reference chains.  Along the gr-down walk to ``s`` no
    position becomes short of ``s`` or above it, so the first short position
    (alpha) and the first excess position (gamma, each step's high) never
    decrease: the raises follow from a forward scan for alpha, and the lowers
    take the excess positions in ascending order.  Along the up walk the low
    position drops by at most one from a step to the next, as each cascade
    steps down one position at a time from the run's k."""
    tr = transitive_sequence(s.n)
    chain = _reference_chain(lambda u: _reference_gr_down_step(u, s), tr, s)
    seen_alpha = seen_gamma = 0
    for step in chain:
        short = [x < y for x, y in zip(step.before.scores, s.scores)]
        excess = [x > y for x, y in zip(step.before.scores, s.scores)]
        after_short = [x < y for x, y in zip(step.after.scores, s.scores)]
        after_excess = [x > y for x, y in zip(step.after.scores, s.scores)]
        assert not any(a and not b for a, b in zip(after_short, short)), (s, step)
        assert not any(a and not b for a, b in zip(after_excess, excess)), (s, step)
        alpha, gamma = _first_where(short), _first_where(excess)
        assert gamma == step.high
        assert alpha >= seen_alpha and gamma >= seen_gamma, (s, step)
        seen_alpha, seen_gamma = alpha, gamma
    ks = [step.low for step in _reference_chain(_reference_up_step, s, tr)]
    assert all(k >= prev - 1 for prev, k in zip(ks, ks[1:])), (s, ks)


class TestWalkInvariants:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_sequence_up_to_9(self, n):
        for s in enumerate_landau_sequences(n):
            _assert_walk_invariants_hold(s)

    @settings(max_examples=40, deadline=None)
    @given(valid_sequences())
    def test_drawn_sequences_up_to_40(self, s):
        _assert_walk_invariants_hold(s)


def _assert_walk_follows_reference(walk, start, end, steps) -> None:
    """The array ``walk`` returns from ``start`` to ``end`` is the flat
    positions low, high, low, high, ... of the reference chain ``steps``."""
    expected = [x for step in steps for x in (step.low, step.high)]
    assert list(walk(list(start.scores), list(end.scores))) == expected, (start, end)


def _assert_down_walk_follows_reference(s: LandauSequence) -> None:
    """The down walk from ``s`` to R_n."""
    r = regular_sequence(s.n)
    steps = _reference_chain(_reference_down_jump_step, s, r)
    _assert_walk_follows_reference(_down_walk, s, r, steps)


def _assert_gr_down_walk_follows_reference(u, target: LandauSequence) -> None:
    """The gr-down walk from ``u`` to ``target``."""
    steps = _reference_chain(lambda x: _reference_gr_down_step(x, target), u, target)
    _assert_walk_follows_reference(_gr_down_walk, u, target, steps)


def _assert_up_walk_follows_reference(s: LandauSequence) -> None:
    """The up walk from ``s`` to Tr_n."""
    tr = transitive_sequence(s.n)
    steps = _reference_chain(_reference_up_step, s, tr)
    _assert_walk_follows_reference(_up_walk, s, tr, steps)


class TestUpWalkChunks:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_sequence_up_to_9(self, n):
        for s in enumerate_landau_sequences(n):
            _assert_up_walk_follows_reference(s)

    @settings(max_examples=40, deadline=None)
    @given(valid_sequences())
    def test_drawn_sequences_up_to_40(self, s):
        _assert_up_walk_follows_reference(s)

    @pytest.mark.parametrize("n", [100, 101])
    def test_long_cascades_of_the_regular_sequence(self, n):
        _assert_up_walk_follows_reference(regular_sequence(n))


class TestClosedFormWalks:
    """The down walks' closed forms and the up walk's runs against the
    reference chains, which step one unit at a time and stop on reaching the
    target."""

    @pytest.mark.parametrize("n", range(1, 12))
    def test_down_walk_of_every_sequence_up_to_11(self, n):
        for s in enumerate_landau_sequences(n):
            _assert_down_walk_follows_reference(s)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gr_down_walk_of_every_pair_up_to_8(self, n):
        seqs = enumerate_landau_sequences(n)
        for target in seqs:
            for start in seqs:
                _assert_gr_down_walk_follows_reference(start, target)

    def test_up_walk_of_every_sequence_of_order_10(self):
        for s in enumerate_landau_sequences(10):
            _assert_up_walk_follows_reference(s)

    @settings(max_examples=40, deadline=None)
    @given(valid_sequences())
    def test_drawn_sequences_up_to_40(self, s):
        _assert_down_walk_follows_reference(s)
        _assert_gr_down_walk_follows_reference(transitive_sequence(s.n), s)
        _assert_gr_down_walk_follows_reference(s, regular_sequence(s.n))

    @pytest.mark.parametrize("n", [40, 64, 300])
    def test_gr_down_walk_between_drawn_sequences(self, n):
        # the shared raises hold from any sorted start, not only Tr_n
        u, s = _drawn_scores(n, seed=n), _drawn_scores(n, seed=n + 1)
        assert u != s
        _assert_gr_down_walk_follows_reference(u, s)
        _assert_gr_down_walk_follows_reference(s, u)

    @pytest.mark.parametrize("n", [300, 301])
    def test_transitive_sequences(self, n):
        _assert_down_walk_follows_reference(transitive_sequence(n))
        _assert_gr_down_walk_follows_reference(
            transitive_sequence(n), regular_sequence(n)
        )

    @pytest.mark.parametrize(
        "walk, target, message",
        [
            (_gr_down_walk, [1, 2, 2, 2], "walk raises 2 times but lowers 1 times"),
            (_down_walk, [1, 1, 2, 3], "walk raises 1 times but lowers 0 times"),
        ],
        ids=["gr-down", "down"],
    )
    def test_unequal_raises_and_lowers_raise(self, walk, target, message):
        # a target one above the start's total: the closed form has one more
        # raise than lowers, which is an error, not a shorter walk
        with pytest.raises(ValueError, match=message):
            walk([0, 1, 2, 3], target)


#: multi-step traces of all three walks, and the empty traces at n = 1 and 2
PINNED = [
    (0,),
    (0, 1),
    (1, 1, 2, 2),
    (0, 1, 2, 3, 4),
    (2, 2, 2, 2, 2),
    (1, 1, 2, 3, 4, 4),
]


class TestTracePins:
    """``==``, ``repr`` and pickling of traces, as a frozen dataclass of
    (start, end, steps) gives them; equal traces hash equal."""

    def test_repr_literals(self):
        assert repr(down_trace(seq(0))) == (
            "JumpTrace(start=LandauSequence(scores=(0,)), "
            "end=LandauSequence(scores=(0,)), steps=())"
        )
        assert repr(up_trace(seq(1, 1, 2, 2))) == (
            "JumpTrace(start=LandauSequence(scores=(1, 1, 2, 2)), "
            "end=LandauSequence(scores=(0, 1, 2, 3)), "
            "steps=(JumpStep(before=LandauSequence(scores=(1, 1, 2, 2)), "
            "after=LandauSequence(scores=(0, 2, 2, 2)), low=1, high=2, "
            "algorithm=<JumpAlgorithm.GR_UP: 'gr-up'>), "
            "JumpStep(before=LandauSequence(scores=(0, 2, 2, 2)), "
            "after=LandauSequence(scores=(0, 1, 2, 3)), low=2, high=4, "
            "algorithm=<JumpAlgorithm.GR_UP: 'gr-up'>)))"
        )

    @pytest.mark.parametrize("scores", PINNED)
    def test_eq_hash_repr_pickle_match_the_fields(self, scores):
        for trace, start, end, steps in _reference_walks(seq(*scores)):
            assert trace == JumpTrace(start, end, steps)
            assert hash(trace) == hash(JumpTrace(start, end, steps))
            assert repr(trace) == (
                f"JumpTrace(start={start!r}, end={end!r}, steps={steps!r})"
            )
            copy = pickle.loads(pickle.dumps(trace))
            assert copy == trace and hash(copy) == hash(trace)
            assert repr(copy) == repr(trace) and copy.steps == steps

    def test_multi_step_pins_cover_every_walk(self):
        lengths = [
            [len(steps) for *_, steps in _reference_walks(seq(*scores))]
            for scores in PINNED
        ]
        assert all(max(column) >= 2 for column in zip(*lengths))

    def test_empty_traces_are_equal_across_walks(self):
        for scores in [(0,), (0, 1)]:
            s = seq(*scores)
            traces = [down_trace(s), gr_down_trace(s), up_trace(s), JumpTrace(s, s, ())]
            for a, b in product(traces, repeat=2):
                assert a == b and hash(a) == hash(b)
        assert down_trace(seq(0, 1)) == up_trace(seq(0, 1))

    def test_equal_pairs_of_two_walks_are_unequal(self):
        # both walks go Tr_3 -> R_3 by the one jump (1, 3); steps differ in
        # their algorithm, so the traces differ
        down = down_trace(transitive_sequence(3))
        gr = gr_down_trace(regular_sequence(3))
        assert [(st.low, st.high) for st in down.steps] == [(1, 3)]
        assert [(st.low, st.high) for st in gr.steps] == [(1, 3)]
        assert (down.start, down.end) == (gr.start, gr.end)
        assert down != gr
        assert down != (down.start, down.end, down.steps)

    def test_frozen(self):
        trace = down_trace(seq(0, 1, 2))
        for name in ("start", "end", "steps"):
            with pytest.raises(AttributeError):
                setattr(trace, name, None)


class TestTraceConstructor:
    def walk(self):
        return gr_down_trace(seq(2, 2, 2, 2, 2))

    def test_rebuilds_an_equal_trace(self):
        trace = self.walk()
        assert JumpTrace(trace.start, trace.end, list(trace.steps)) == trace

    def test_rejects_steps_that_do_not_chain(self):
        trace = self.walk()
        start, end, steps = trace.start, trace.end, trace.steps
        assert len(steps) == 3
        broken = [
            (end, end, steps),  # wrong start
            (start, start, steps),  # wrong end
            (start, end, steps[:1] + steps[2:]),  # a step missing
            (start, end, ()),  # no steps between different sequences
            (start, end, steps[::-1]),
        ]
        first = steps[0]
        for low, high in [(first.low + 1, first.high), (0, first.high), (1, 6)]:
            wrong = JumpStep(first.before, first.after, low, high, first.algorithm)
            broken.append((start, end, (wrong,) + steps[1:]))
        for args in broken:
            with pytest.raises(ValueError):
                JumpTrace(*args)

    def test_rejects_mixed_algorithms(self):
        # down and gr-down move the same way, so the steps still chain
        trace = self.walk()
        start, end, steps = trace.start, trace.end, trace.steps
        first = steps[0]
        relabelled = JumpStep(
            first.before, first.after, first.low, first.high, JumpAlgorithm.DOWN
        )
        with pytest.raises(ValueError):
            JumpTrace(start, end, (relabelled,) + steps[1:])


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestTraceMemory:
    def test_down_trace_of_transitive_400(self):
        s = transitive_sequence(400)
        trace, peak = _peak_bytes(down_trace, s)
        assert len(trace) == max_down_jumps(400) == 19_900
        assert peak < 5e6

    def test_hashing_reads_no_steps(self):
        # a hash that rebuilt the 19,900 steps would peak near 68 MB
        trace = down_trace(transitive_sequence(400))
        value, peak = _peak_bytes(hash, trace)
        assert value == hash(down_trace(transitive_sequence(400)))
        assert peak < 1e6

    def test_up_trace_of_regular_101(self):
        s = regular_sequence(101)
        trace, peak = _peak_bytes(up_trace, s)
        assert len(trace) == max_c_value(101) == 42_925
        assert peak < 1e6

    @pytest.mark.parametrize(
        "trace, s",
        [
            (down_trace, transitive_sequence(4000)),
            (gr_down_trace, regular_sequence(4000)),
        ],
        ids=["down", "gr-down"],
    )
    def test_down_walks_of_order_4000_hold_12_bytes_a_step(self, trace, s):
        # the trace's 1,999,000 pairs take 16 MB; its raises are spread into
        # them and freed before its lowers are built, so 24 MB are held at
        # most, where holding raises, lowers and pairs at once took 32 MB
        result, peak = _peak_bytes(trace, s)
        assert len(result) == max_down_jumps(4000) == 1_999_000
        assert peak < 26e6

    @pytest.mark.parametrize(
        "step, args",
        [
            (down_jump_step, (transitive_sequence(4000),)),
            (gr_down_step, (transitive_sequence(4000), regular_sequence(4000))),
            (up_step, (regular_sequence(4000),)),
        ],
        ids=["down", "gr-down", "up"],
    )
    def test_one_step_of_order_4000_stays_linear(self, step, args):
        # a step reads its rule off the sequence in O(n); a walk built
        # eagerly would hold 8 bytes for each of its 2M steps
        result, peak = _peak_bytes(step, *args)
        assert isinstance(result, JumpStep)
        assert peak < 1e6

    @pytest.mark.parametrize("n", range(1, 10))
    def test_len_end_sequences_and_pairs_match_the_steps(self, n):
        for s in enumerate_landau_sequences(n):
            for trace in (down_trace(s), gr_down_trace(s), up_trace(s)):
                steps = trace.steps
                assert len(trace) == len(steps)
                assert trace.end == (steps[-1].after if steps else trace.start)
                assert list(trace.sequences()) == [trace.start] + [
                    st.after for st in steps
                ]
                assert list(trace.pairs()) == [(st.low, st.high) for st in steps]
