"""Property tests for the executable consequences of the structural lemmas."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau.oracle import (
    enumerate_landau_sequences,
    enumerate_tournaments,
    reachability,
)
from landau.sequences import (
    LandauSequence,
    Order,
    c_value,
    compare_order,
    distance,
    down_jump_step,
    down_trace,
    first_violation,
    gr_down_step,
    max_c_value,
    max_down_jumps,
    regular_sequence,
    transitive_sequence,
    up_step,
    up_trace,
    validate_landau,
    validate_strong_landau,
)
from landau.tournaments import is_strong, score_sequence

all_small_sequences = [
    s for n in range(1, 9) for s in enumerate_landau_sequences(n)
]
nontrivial = [s for s in all_small_sequences if s.n >= 2]


@st.composite
def equal_sum_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    b[-1] += sum(a) - sum(b)
    return a, b


@given(equal_sum_pairs())
def test_distance_parity_for_equal_sums(pair):
    a, b = pair
    assert distance(a, b) % 2 == 0


@given(st.sampled_from(all_small_sequences))
def test_equality_gap(s):
    # a prefix sum hitting C(k,2) exactly forces a strict score increase at k
    prefix = 0
    for k in range(1, s.n):
        prefix += s[k - 1]
        if prefix == comb(k, 2):
            assert s[k - 1] < s[k]


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=2, max_value=19),
)
def test_two_value_rigidity(n, a, m):
    # a two-valued sequence over {a, a+1} summing to C(n,2) with 1 < m < n
    # copies of a can only be the nearly-regular sequence, n even
    if not 1 < m < n:
        return
    scores = (a,) * m + (a + 1,) * (n - m)
    if sum(scores) != comb(n, 2):
        return
    assert n % 2 == 0
    assert scores == regular_sequence(n).scores


@given(st.sampled_from([s for s in nontrivial if s != regular_sequence(s.n)]))
def test_down_step_closure_progress_and_order(s):
    step = down_jump_step(s)
    r = regular_sequence(s.n)
    assert first_violation(step.after.scores) is None
    assert distance(step.after, r) == distance(s, r) - 2
    assert distance(step.before, step.after) == 2
    assert compare_order(step.after, s) is Order.LESS


@given(st.sampled_from([s for s in nontrivial if s != transitive_sequence(s.n)]))
def test_up_step_closure_and_order(s):
    step = up_step(s)
    assert first_violation(step.after.scores) is None
    assert compare_order(step.after, s) is Order.GREATER


@given(st.sampled_from([s for s in nontrivial if s != transitive_sequence(s.n)]))
def test_gr_down_step_from_transitive(s):
    step = gr_down_step(transitive_sequence(s.n), s)
    assert first_violation(step.after.scores) is None
    assert compare_order(step.after, transitive_sequence(s.n)) is Order.LESS


@given(st.sampled_from(all_small_sequences))
def test_strong_tail_of_down_trace(s):
    trace = down_trace(s)
    for step in trace.steps:
        assert validate_strong_landau(step.after)


@given(st.sampled_from(all_small_sequences))
def test_up_trace_length_is_c(s):
    assert len(up_trace(s)) == c_value(s)


@pytest.mark.parametrize("n", range(1, 8))
def test_compare_order_is_a_total_order(n):
    seqs = enumerate_landau_sequences(n)
    for i, a in enumerate(seqs):
        for j, b in enumerate(seqs):
            cmp = compare_order(a, b)
            assert compare_order(b, a) is Order(-cmp)
            assert (cmp is Order.EQUAL) == (i == j)
            # transitivity over the enumeration order
            if i < j:
                assert cmp is Order.LESS


@pytest.mark.parametrize("n", range(1, 9))
def test_c_maximality_attained_at_regular(n):
    seqs = enumerate_landau_sequences(n)
    assert max(c_value(s) for s in seqs) == max_c_value(n)
    assert c_value(regular_sequence(n)) == max_c_value(n)


#: How many sequences other than Tr_n attain the down-trace bound, n = 1..8.
OTHER_MAXIMIZERS = {1: 0, 2: 0, 3: 0, 4: 2, 5: 2, 6: 7, 7: 11, 8: 35}


@pytest.mark.parametrize("n", range(1, 9))
def test_down_trace_bound_and_maximizers(n):
    seqs = enumerate_landau_sequences(n)
    lengths = {s.scores: len(down_trace(s)) for s in seqs}
    bound = max_down_jumps(n)
    assert all(v <= bound for v in lengths.values())
    assert lengths[transitive_sequence(n).scores] == bound
    # the transitive sequence need not be the unique maximizer
    others = [k for k, v in lengths.items() if v == bound and k != transitive_sequence(n).scores]
    assert len(others) == OTHER_MAXIMIZERS[n]
    if n == 4:
        assert sorted(others) == [(0, 2, 2, 2), (1, 1, 1, 3)]


@pytest.mark.parametrize("n", range(1, 6))
def test_strongness_criterion_exhaustive(n):
    for t in enumerate_tournaments(n):
        strong = bool(reachability(t).all())
        assert validate_strong_landau(score_sequence(t)) == strong
        assert is_strong(t) == strong


def test_landau_validation_agrees_with_oracle_small():
    from itertools import combinations_with_replacement

    from landau.oracle import realizable_by_brute_force

    for n in range(1, 6):
        for v in combinations_with_replacement(range(n), n):
            valid = isinstance(validate_landau(v), LandauSequence)
            assert valid == realizable_by_brute_force(v)
