"""Property tests for the executable consequences of the structural lemmas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from landau.oracle import enumerate_landau_sequences
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
    validate_landau,
    validate_strong_landau,
)


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


@pytest.mark.parametrize("n", range(3, 10))
def test_down_step_closure_progress_and_order(n):
    r = regular_sequence(n)
    for s in enumerate_landau_sequences(n):
        if s == r:
            continue
        step = down_jump_step(s)
        assert first_violation(step.after.scores) is None
        assert distance(step.after, r) == distance(s, r) - 2
        assert distance(step.before, step.after) == 2
        assert compare_order(step.after, s) is Order.LESS


@pytest.mark.parametrize("n", range(3, 10))
def test_up_step_closure_and_order(n):
    tr = transitive_sequence(n)
    for s in enumerate_landau_sequences(n):
        if s == tr:
            continue
        step = up_step(s)
        assert first_violation(step.after.scores) is None
        assert compare_order(step.after, s) is Order.GREATER


@pytest.mark.parametrize("n", range(3, 10))
def test_gr_down_step_from_transitive(n):
    tr = transitive_sequence(n)
    for s in enumerate_landau_sequences(n):
        if s == tr:
            continue
        step = gr_down_step(tr, s)
        assert first_violation(step.after.scores) is None
        assert compare_order(step.after, tr) is Order.LESS


@pytest.mark.parametrize("n", range(1, 11))
def test_strong_tail_of_down_trace(n):
    for s in enumerate_landau_sequences(n):
        for step in down_trace(s).steps:
            assert validate_strong_landau(step.after)


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


def test_landau_validation_agrees_with_oracle_small():
    from itertools import combinations_with_replacement

    from landau.oracle import realizable_by_brute_force

    for n in range(1, 6):
        for v in combinations_with_replacement(range(n), n):
            valid = isinstance(validate_landau(v), LandauSequence)
            assert valid == realizable_by_brute_force(v)
