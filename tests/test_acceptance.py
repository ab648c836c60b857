"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line on success (visible with pytest -s).
"""

import hashlib
import random
import time
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from landau.oracle import (
    enumerate_landau_sequences,
    enumerate_tournaments,
    reachability,
    realizable_by_brute_force,
    three_cycles,
)
from landau.sequences import (
    LandauSequence,
    c_value,
    distance,
    down_trace,
    first_violation,
    gr_down_trace,
    max_c_value,
    max_down_jumps,
    regular_sequence,
    transitive_sequence,
    up_trace,
    validate_landau,
    validate_strong_landau,
)
from landau.tournaments import (
    count_3cycles,
    is_strong,
    realize,
    realize_stages,
    score_sequence,
)


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_exhaustive_landau_equivalence():
    for n in range(1, 7):
        total = comb(n, 2)
        for v in combinations_with_replacement(range(n), n):
            if sum(v) != total:
                continue
            valid = isinstance(validate_landau(v), LandauSequence)
            assert valid == realizable_by_brute_force(v), v
    _passed("criterion 1 (Landau equivalence, n<=6)")


def test_criterion_2_realization_with_strong_intermediates():
    for n in range(1, 11):
        for s in enumerate_landau_sequences(n):
            stages = list(realize_stages(s))
            assert score_sequence(stages[-1]) == s
            for t in stages[:-1]:
                assert reachability(t).all()
    _passed("criterion 2 (realization, n<=10)")


def test_criterion_3_jump_count_formulas():
    for n in range(1, 11):
        bound = max_down_jumps(n)
        r = regular_sequence(n)
        for s in enumerate_landau_sequences(n):
            length = len(down_trace(s))
            assert length == distance(s, r) // 2
            assert length <= bound
        assert len(down_trace(transitive_sequence(n))) == bound
    assert max_down_jumps(7) == 6
    assert max_down_jumps(8) == 6
    _passed("criterion 3 (jump-count formulas, n<=10)")


def test_criterion_4_paper_worked_examples():
    trace = down_trace(LandauSequence((1, 1, 2, 3, 4, 5, 6, 6)))
    assert [(st.low, st.high) for st in trace.steps] == [
        (2, 7),
        (1, 8),
        (3, 6),
        (2, 7),
        (1, 8),
    ]
    assert [s.scores for s in trace.sequences()] == [
        (1, 1, 2, 3, 4, 5, 6, 6),
        (1, 2, 2, 3, 4, 5, 5, 6),
        (2, 2, 2, 3, 4, 5, 5, 5),
        (2, 2, 3, 3, 4, 4, 5, 5),
        (2, 3, 3, 3, 4, 4, 4, 5),
        (3, 3, 3, 3, 4, 4, 4, 4),
    ]

    gr = gr_down_trace(LandauSequence((2, 2, 2, 3, 3, 3)))
    assert [(st.low, st.high) for st in gr.steps] == [(1, 5), (2, 6), (1, 6)]
    assert [s.scores for s in gr.sequences()] == [
        (0, 1, 2, 3, 4, 5),
        (1, 1, 2, 3, 3, 5),
        (1, 2, 2, 3, 3, 4),
        (2, 2, 2, 3, 3, 3),
    ]

    up = up_trace(LandauSequence((1, 1, 3, 3, 3, 4)))
    assert [(st.low, st.high) for st in up.steps] == [
        (1, 2),
        (3, 5),
        (2, 3),
        (3, 4),
        (4, 6),
    ]
    assert [s.scores for s in up.sequences()] == [
        (1, 1, 3, 3, 3, 4),
        (0, 2, 3, 3, 3, 4),
        (0, 2, 2, 3, 4, 4),
        (0, 1, 3, 3, 4, 4),
        (0, 1, 2, 4, 4, 4),
        (0, 1, 2, 3, 4, 5),
    ]
    _passed("criterion 4 (worked examples byte-for-byte)")


def test_criterion_5_three_cycle_identities():
    for n in range(1, 11):
        seqs = enumerate_landau_sequences(n)
        for s in seqs:
            assert len(up_trace(s)) == c_value(s)
            assert three_cycles(realize(s)) == c_value(s)
        assert max(c_value(s) for s in seqs) == max_c_value(n)
    for n in range(1, 7):
        for t in enumerate_tournaments(n):
            # 3-cycles counted on the arcs against the score formula
            assert three_cycles(t) == count_3cycles(t) == c_value(score_sequence(t))
    assert c_value(LandauSequence((3, 3, 3, 3, 4, 4, 4, 4))) == 20
    _passed("criterion 5 (c(S) identities)")


def test_criterion_6_lemma_suite():
    # equality gap: prefix sum at C(k,2) forces a strict step
    for n in range(1, 11):
        for s in enumerate_landau_sequences(n):
            prefix = 0
            for k in range(1, n):
                prefix += s[k - 1]
                if prefix == comb(k, 2):
                    assert s[k - 1] < s[k]

    # two-value rigidity over all a, m, n <= 20
    for n in range(1, 21):
        for m in range(2, n):
            for a in range(0, 21):
                scores = (a,) * m + (a + 1,) * (n - m)
                if sum(scores) == comb(n, 2):
                    assert n % 2 == 0
                    assert scores == regular_sequence(n).scores

    # distance parity on 10^4 random equal-sum integer pairs
    rng = random.Random(20260823)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        a = [rng.randint(-30, 30) for _ in range(n)]
        b = [rng.randint(-30, 30) for _ in range(n)]
        b[-1] += sum(a) - sum(b)
        assert distance(a, b) % 2 == 0

    # closure and distance decrement on every down step taken in criterion 2
    for n in range(1, 11):
        r = regular_sequence(n)
        for s in enumerate_landau_sequences(n):
            for step in down_trace(s).steps:
                assert first_violation(step.after.scores) is None
                assert distance(step.after, r) == distance(step.before, r) - 2

    # strongness criterion on every tournament of order <= 6, against
    # reachability computed from the arcs alone
    for n in range(1, 7):
        for t in enumerate_tournaments(n):
            strong = bool(reachability(t).all())
            assert validate_strong_landau(score_sequence(t)) == strong
            assert is_strong(t) == strong
    _passed("criterion 6 (lemma suite)")


def test_criterion_7_comparison_numbers():
    def counts(scores):
        s = LandauSequence(scores)
        return len(down_trace(s)), len(gr_down_trace(s)), len(up_trace(s))

    down, gr_down, _ = counts((1, 1, 1, 4, 4, 4))
    assert (gr_down, down) == (2, 3)
    down, gr_down, _ = counts((1, 2, 3, 3, 3, 3))
    assert (gr_down, down) == (3, 1)
    down, gr_down, _ = counts((2, 2, 2, 3, 4, 4, 4))
    assert down == gr_down == 3
    _, gr_down, gr_up = counts((3, 3, 3, 3, 4, 4, 4, 4))
    assert (gr_up, gr_down) == (20, 6)
    _passed("criterion 7 (comparison numbers)")


def _criterion_8_sequence():
    n = 2000
    rng = np.random.default_rng(7)
    upper = rng.random((n, n)) < 0.5
    upper = np.triu(upper, k=1)
    adj = upper | (~(upper | upper.T) & np.tri(n, n, -1, dtype=bool))
    scores = tuple(sorted(int(x) for x in adj.sum(axis=1)))
    s = validate_landau(scores)
    assert isinstance(s, LandauSequence)
    return s


def test_criterion_8_performance_at_n_2000():
    s = _criterion_8_sequence()
    start = time.monotonic()
    t = realize(s)
    elapsed = time.monotonic() - start
    assert score_sequence(t) == s
    assert elapsed < 300, f"realize(n=2000) took {elapsed:.1f}s"
    _passed(f"criterion 8 (realize n=2000 in {elapsed:.1f}s)")


def test_criterion_8_output_is_byte_identical():
    # pins which tournament realize returns, not just its scores
    t = realize(_criterion_8_sequence())
    digest = hashlib.sha256(t.adjacency.tobytes()).hexdigest()
    assert digest == "92f1f33c50acf2f5830685567db31a26a3f96f82e62a22d3cbeb76a8e28a13f9"
