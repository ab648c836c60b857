import tracemalloc
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest

from landau.oracle import (
    CapExceededError,
    EnumerationStats,
    enumerate_landau_sequences,
    enumerate_tournaments,
    reachability,
    realizable_by_brute_force,
    stats,
    three_cycles,
)
from landau.sequences import (
    Order,
    c_value,
    compare_order,
    distance,
    down_trace,
    first_violation,
    regular_sequence,
)
from landau.tournaments import Tournament, from_arcs, realize
from test_sequences import _random_tournament


def brute_sequences(n):
    """Independent generation: filter all bounded non-decreasing tuples."""
    total = comb(n, 2)
    out = []
    for t in combinations_with_replacement(range(n), n):
        if sum(t) != total:
            continue
        if all(sum(t[:k]) >= comb(k, 2) for k in range(1, n + 1)):
            out.append(t)
    return sorted(out, key=lambda t: t[::-1])


class TestEnumerateSequences:
    def test_n3(self):
        assert [s.scores for s in enumerate_landau_sequences(3)] == [
            (1, 1, 1),
            (0, 1, 2),
        ]

    def test_n4(self):
        assert [s.scores for s in enumerate_landau_sequences(4)] == [
            (1, 1, 2, 2),
            (0, 2, 2, 2),
            (1, 1, 1, 3),
            (0, 1, 2, 3),
        ]

    def test_n1(self):
        assert [s.scores for s in enumerate_landau_sequences(1)] == [(0,)]

    @pytest.mark.parametrize(
        "n,count",
        list(enumerate([1, 1, 2, 4, 9, 22, 59, 167, 490, 1486, 4639, 14805], start=1)),
    )
    def test_cardinalities(self, n, count):
        assert len(enumerate_landau_sequences(n)) == count

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_independent_filter(self, n):
        assert [s.scores for s in enumerate_landau_sequences(n)] == brute_sequences(n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_strictly_increasing_in_total_order(self, n):
        seqs = enumerate_landau_sequences(n)
        for a, b in zip(seqs, seqs[1:]):
            assert compare_order(a, b) is Order.LESS

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_enumerated_tuple_is_valid(self, n):
        # the enumeration builds its sequences without re-checking them
        for s in enumerate_landau_sequences(n):
            assert first_violation(s.scores) is None, s

    def test_extremes_first_and_last(self):
        from landau.sequences import regular_sequence, transitive_sequence

        for n in range(1, 10):
            seqs = enumerate_landau_sequences(n)
            assert seqs[0] == regular_sequence(n)
            assert seqs[-1] == transitive_sequence(n)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_landau_sequences(13)


class TestEnumerateTournaments:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_tournaments(n)) == count

    def test_n3_cycle_split(self):
        cyclic = sum(1 for t in enumerate_tournaments(3) if three_cycles(t) == 1)
        assert cyclic == 2

    def test_each_exactly_once(self):
        seen = {t.adjacency.tobytes() for t in enumerate_tournaments(4)}
        assert len(seen) == 64

    def test_cap(self):
        with pytest.raises(CapExceededError):
            next(enumerate_tournaments(7))


class TestRealizableByBruteForce:
    def test_three_cycle(self):
        assert realizable_by_brute_force((1, 1, 1))

    def test_two_zero_scores_impossible(self):
        assert not realizable_by_brute_force((0, 0, 3))

    def test_n4(self):
        assert realizable_by_brute_force((1, 1, 2, 2))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            realizable_by_brute_force((0, 1, 2, 3, 4, 5, 6))


class TestStats:
    def test_n4(self):
        st = stats(4)
        assert st.sequence_count == 4
        assert st.realizable_count == 4
        assert st.max_trace_length == 1
        assert st.max_c == 2

    def test_n7_pin(self):
        assert stats(7) == EnumerationStats(7, 59, None, 6, 14)

    def test_n1(self):
        st = stats(1)
        assert st.sequence_count == 1
        assert st.max_trace_length == 0
        assert st.max_c == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_max_trace_length_is_the_longest_down_trace(self, n):
        longest = max(len(down_trace(s)) for s in enumerate_landau_sequences(n))
        assert stats(n).max_trace_length == longest

    @pytest.mark.parametrize("n", range(1, 7))
    def test_landau_theorem_counts_agree(self, n):
        st = stats(n)
        assert st.sequence_count == st.realizable_count

    @pytest.mark.parametrize("n", range(1, 11))
    def test_max_c_is_the_most_3_cycles_counted_on_arcs(self, n):
        # the arc count of each realization, not the score formula of c_value
        most = max(three_cycles(realize(s)) for s in enumerate_landau_sequences(n))
        assert stats(n).max_c == most

    def test_n12_pin(self):
        assert stats(12) == EnumerationStats(12, 14805, None, 15, 70)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_aggregates_over_the_listed_sequences(self, n):
        # the reference lists every sequence and reads each one's distance
        # and c value; stats(n) counts over the branching without them and
        # reads its maxima off max_down_jumps and max_c_value
        seqs = enumerate_landau_sequences(n)
        r = regular_sequence(n)
        st = stats(n)
        assert st.sequence_count == len(seqs)
        assert st.max_trace_length == max(distance(s, r) for s in seqs) // 2
        assert st.max_c == max(c_value(s) for s in seqs)

    def test_n12_lists_no_sequences(self):
        # listing the 14,805 sequences peaks at about 2.85 MB
        tracemalloc.start()
        try:
            stats(12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestReachability:
    def test_transitive_reaches_only_downward(self):
        t = from_arcs(4, {(i, j) for i in range(4) for j in range(i)})
        assert (reachability(t) == np.tri(4, dtype=bool)).all()

    def test_three_cycle_reaches_everything(self):
        assert reachability(from_arcs(3, {(0, 1), (1, 2), (2, 0)})).all()

    def test_long_path_is_followed(self):
        # 0 -> 1 -> ... -> 5 is the only way from 0 to 5; everything else
        # points backward
        arcs = {(i, i + 1) for i in range(5)}
        arcs |= {(j, i) for i in range(6) for j in range(i + 2, 6)}
        reach = reachability(from_arcs(6, arcs))
        assert reach.all()

    @staticmethod
    def matrix_warshall(adj):
        reach = adj | np.eye(adj.shape[0], dtype=bool)
        for k in range(adj.shape[0]):
            reach |= np.outer(reach[:, k], reach[k])
        return reach

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_matrix_warshall_on_every_small_tournament(self, n):
        for t in enumerate_tournaments(n):
            reach = reachability(t)
            assert reach.dtype == bool and reach.shape == (n, n)
            assert (reach == self.matrix_warshall(t.adjacency)).all()

    @pytest.mark.parametrize("n", [9, 40, 70])
    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_matches_matrix_warshall_on_random_tournaments(self, n, p):
        adj = _random_tournament(n, p, np.random.default_rng(n + int(100 * p)))
        assert (reachability(Tournament(adj)) == self.matrix_warshall(adj)).all()


class TestEnumeratedRows:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_mask_bits_orient_pairs_in_lexicographic_order(self, n):
        pairs = list(combinations(range(n), 2))
        for mask, t in enumerate(enumerate_tournaments(n)):
            for bit, (i, j) in enumerate(pairs):
                assert t.beats(i, j) == bool(mask >> bit & 1) != t.beats(j, i)
