import tracemalloc
from collections import Counter
from itertools import combinations, compress, count
from operator import ne
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings

from landau import tournaments
from landau.oracle import (
    enumerate_landau_sequences,
    enumerate_tournaments,
    reachability,
    three_cycles,
)
from landau.sequences import (
    LandauSequence,
    c_value,
    down_trace,
    first_equality_index,
    regular_sequence,
    transitive_sequence,
)
from landau.tournaments import (
    DoublePairError,
    InvalidPathError,
    MissingPairError,
    SelfLoopError,
    Tournament,
    TournamentError,
    UnreachableError,
    VertexPath,
    count_3cycles,
    find_path,
    from_arcs,
    is_strong,
    nearly_regular,
    realize,
    realize_stages,
    reverse_path,
    rotational_regular,
    score_sequence,
    strong_components,
)
from test_sequences import _complete, _random_tournament, valid_sequences


def three_cycle():
    return from_arcs(3, {(0, 1), (1, 2), (2, 0)})


def transitive(n):
    return from_arcs(n, {(i, j) for i in range(n) for j in range(i)})


class TestFromArcs:
    def test_transitive_3(self):
        t = from_arcs(3, {(2, 1), (2, 0), (1, 0)})
        assert score_sequence(t).scores == (0, 1, 2)

    def test_three_cycle(self):
        assert score_sequence(three_cycle()).scores == (1, 1, 1)

    def test_double_pair(self):
        with pytest.raises(DoublePairError):
            from_arcs(2, {(0, 1), (1, 0)})

    def test_missing_pair(self):
        with pytest.raises(MissingPairError):
            from_arcs(3, {(0, 1)})

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            from_arcs(2, {(0, 0), (0, 1)})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_arcs(2, {(0, 2)})

    @pytest.mark.parametrize(
        "n, arcs, pair",
        [
            (10**6, [], "{0, 1}"),
            (2**40, [(0, 1)], "{0, 2}"),
            (2**40, [(0, 2**40 - 1)], "{0, 1}"),
            (2**40, [(2**39, 2**40 - 1), (1, 0)], "{0, 2}"),
        ],
    )
    def test_memory_follows_the_arcs_not_n(self, n, arcs, pair):
        tracemalloc.start()
        try:
            with pytest.raises(MissingPairError, match=f"pair {pair} has no"):
                from_arcs(n, arcs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pairs_past_the_row_width_keep_their_errors(self):
        with pytest.raises(DoublePairError, match=r"pair \{549755813888, 5\}"):
            from_arcs(2**40, [(5, 2**39), (2**39, 5)])
        with pytest.raises(SelfLoopError):
            from_arcs(2**40, [(5, 2**39), (2**39, 2**39)])


class TestTournamentInvariants:
    def test_adjacency_is_read_only(self):
        t = three_cycle()
        with pytest.raises(ValueError):
            t.adjacency[0, 1] = False

    def test_constructor_rejects_incomplete_matrix(self):
        with pytest.raises(MissingPairError):
            Tournament(np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 2], [0, 0]],
            [[0, 0.5], [0, 0]],
            [[0, -1], [0, 0]],
            [[0, 1], [np.nan, 0]],
            np.array([[0, 3], [0, 0]], dtype=np.uint8),
        ],
    )
    def test_constructor_rejects_entries_other_than_0_and_1(self, entries):
        with pytest.raises(ValueError, match="0, 1, False or True"):
            Tournament(entries)

    @pytest.mark.parametrize(
        "entries",
        [[[0, 1], [0, 0]], [[False, True], [False, False]], np.array([[0, 1], [0, 0]])],
    )
    def test_constructor_accepts_0_1_and_bool_entries(self, entries):
        assert Tournament(entries) == from_arcs(2, {(0, 1)})

    def test_out_and_in_sets(self):
        t = three_cycle()
        assert t.out_set(0) == (1,)
        assert t.in_set(0) == (2,)

    def test_total_score_is_arc_count(self):
        t = rotational_regular(9)
        assert int(t.scores().sum()) == 9 * 8 // 2


class TestRegularConstructions:
    def test_rotational_3_is_cycle(self):
        assert count_3cycles(rotational_regular(3)) == 1

    def test_rotational_5_regular_and_strong(self):
        t = rotational_regular(5)
        assert score_sequence(t).scores == (2, 2, 2, 2, 2)
        assert is_strong(t)

    def test_rotational_1(self):
        t = rotational_regular(1)
        assert t.n == 1 and list(t.arcs()) == []

    def test_rotational_rejects_even(self):
        with pytest.raises(ValueError):
            rotational_regular(6)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_nearly_regular_scores(self, n):
        assert score_sequence(nearly_regular(n)) == regular_sequence(n)

    def test_nearly_regular_slot_alignment(self):
        # vertex i carries the i-th sorted score
        t = nearly_regular(8)
        assert [int(x) for x in t.scores()] == [3, 3, 3, 3, 4, 4, 4, 4]

    def test_nearly_regular_strong_from_4(self):
        for n in (4, 6, 8, 10):
            assert is_strong(nearly_regular(n))
            assert reachability(nearly_regular(n)).all()

    def test_nearly_regular_rejects_odd(self):
        with pytest.raises(ValueError):
            nearly_regular(5)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_base_matches_its_definition(self, n):
        # rotational(m): i beats i+1..i+(m-1)/2 mod m; for even n, delete the
        # last vertex of rotational(n+1) and stably sort the rest by score
        m = n if n % 2 else n + 1
        adj = np.zeros((m, m), dtype=bool)
        for x in range(1, (m - 1) // 2 + 1):
            adj[np.arange(m), (np.arange(m) + x) % m] = True
        if n % 2:
            assert (rotational_regular(n).adjacency == adj).all()
        else:
            perm = np.argsort(adj[:n, :n].sum(axis=1), kind="stable")
            expected = adj[:n, :n][np.ix_(perm, perm)]
            assert (nearly_regular(n).adjacency == expected).all()

    @staticmethod
    def reference_rows(n):
        """The bit rows as built before they were read off the scores."""

        def rotational(m):
            # i beats i+1, ..., i+(m-1)/2 (mod m)
            full, block = (1 << m) - 1, (1 << (m - 1) // 2) - 1
            wins = [block << (i + 1) for i in range(m)]
            return [(w | w >> m) & full for w in wins]

        if n % 2:
            return rotational(n)
        # the rotational (n+1)-tournament less its last vertex, relabeled
        # i -> (i + n/2) mod n: a rotation of every row by n/2
        full, h = (1 << n) - 1, n // 2
        old = [row & full for row in rotational(n + 1)[:n]]
        rows = [old[(i + h) % n] for i in range(n)]
        return [(row >> h | row << (n - h)) & full for row in rows]

    def test_rows_match_the_reference_construction(self):
        for n in range(1, 301):
            expected = self.reference_rows(n)
            t = rotational_regular(n) if n % 2 else nearly_regular(n)
            assert list(t._rows) == expected, n
            # the replay starts from the same rows
            assert list(realize(regular_sequence(n))._rows) == expected, n
            assert t._popcounts() == list(regular_sequence(n).scores), n

    def test_rotational_strong_for_odd_n_at_least_3(self):
        for n in (3, 5, 7, 9, 11):
            assert is_strong(rotational_regular(n))
            assert reachability(rotational_regular(n)).all()


class TestStrongComponents:
    def test_transitive_gives_singletons_lowest_score_first(self):
        comps = strong_components(transitive(4)).components
        assert comps == ((0,), (1,), (2,), (3,))

    def test_three_cycle_single_component(self):
        assert strong_components(three_cycle()).components == ((0, 1, 2),)

    def test_realize_0222_splits(self):
        t = realize(LandauSequence((0, 2, 2, 2)))
        comps = strong_components(t).components
        assert len(comps) == 2
        assert comps[0] == (0,)  # the score-0 vertex is terminal
        assert set(comps[1]) == {1, 2, 3}

    def test_later_components_dominate_earlier(self):
        t = realize(LandauSequence((0, 1, 3, 3, 3)))
        comps = strong_components(t).components
        for a in range(len(comps)):
            for b in range(a + 1, len(comps)):
                for u in comps[b]:
                    for v in comps[a]:
                        assert t.beats(u, v)

    def test_is_strong_examples(self):
        assert is_strong(three_cycle())
        assert not is_strong(transitive(3))
        assert is_strong(rotational_regular(7))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reachability_on_every_small_tournament(self, n):
        for t in enumerate_tournaments(n):
            assert strong_components(t).components == _components_by_reachability(t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_equality_index_is_the_terminal_component_size(self, n):
        # the terminal component's vertices reach the fewest vertices
        for t in enumerate_tournaments(n):
            least = int(reachability(t).sum(axis=1).min())
            expected = None if least == n else least
            assert first_equality_index(score_sequence(t)) == expected

    @pytest.mark.parametrize("n", [7, 10, 20, 40])
    @pytest.mark.parametrize("p", [0.03, 0.15, 0.5, 0.85, 0.97])
    def test_matches_reachability_on_relabeled_tournaments(self, n, p):
        rng = np.random.default_rng(7000 + 100 * n + int(100 * p))
        sizes = set()
        for _ in range(5):
            adj = _random_tournament(n, p, rng)
            perm = rng.permutation(n)
            for t in (Tournament(adj), Tournament(adj[np.ix_(perm, perm)])):
                comps = strong_components(t).components
                assert comps == _components_by_reachability(t)
                sizes.update(len(c) for c in comps)
        assert max(sizes) > 1 or p in (0.03, 0.97)


def _components_by_reachability(t: Tournament):
    """Mutual-reachability classes, ids ascending, terminal class first.

    A class that reaches fewer vertices comes earlier; in a tournament the
    condensation is a total order, so this is the condensation order.
    """
    reach = reachability(t)
    mutual = reach & reach.T
    classes = {tuple(int(v) for v in np.flatnonzero(row)) for row in mutual}
    return tuple(sorted(classes, key=lambda c: int(reach[c[0]].sum())))


class TestFindPath:
    def test_around_three_cycle(self):
        path = find_path(three_cycle(), 0, 2)
        assert path.vertices == (0, 1, 2)

    def test_direct_arc(self):
        path = find_path(transitive(4), 3, 0)
        assert path.vertices == (3, 0)

    def test_unreachable(self):
        with pytest.raises(UnreachableError):
            find_path(transitive(3), 0, 2)

    def test_same_endpoints_is_usage_error(self):
        with pytest.raises(ValueError):
            find_path(three_cycle(), 1, 1)

    def test_deterministic(self):
        t = rotational_regular(9)
        assert find_path(t, 0, 5).vertices == find_path(t, 0, 5).vertices


class TestReversePath:
    def test_three_cycle_becomes_transitive(self):
        t2 = reverse_path(three_cycle(), VertexPath((0, 1, 2)))
        assert score_sequence(t2).scores == (0, 1, 2)
        assert count_3cycles(t2) == 0

    def test_single_arc_shifts_two_scores(self):
        t = rotational_regular(5)
        path = find_path(t, 0, 1)
        t2 = reverse_path(t, path)
        before, after = t.scores(), t2.scores()
        assert after[0] == before[0] - 1
        assert after[1] == before[1] + 1
        changed = np.flatnonzero(before != after)
        assert set(int(x) for x in changed) == {0, 1}

    def test_involution(self):
        t = rotational_regular(7)
        path = find_path(t, 2, 6)
        back = VertexPath(tuple(reversed(path.vertices)))
        assert reverse_path(reverse_path(t, path), back) == t

    def test_arc_count_changed(self):
        t = rotational_regular(7)
        path = find_path(t, 0, 4)
        t2 = reverse_path(t, path)
        assert int((t.adjacency != t2.adjacency).sum()) == 2 * (len(path) - 1)

    def test_invalid_path(self):
        t = transitive(3)  # arcs point from high to low
        with pytest.raises(InvalidPathError):
            reverse_path(t, VertexPath((0, 1)))

    @pytest.mark.parametrize("vertices", [(0, 3), (3, 0), (0, -1), (-1, 0)])
    def test_vertex_out_of_range(self, vertices):
        with pytest.raises(ValueError, match="out of range"):
            reverse_path(three_cycle(), VertexPath(vertices))

    def test_path_type_rejects_repeats(self):
        with pytest.raises(ValueError):
            VertexPath((0, 1, 0))


class TestRealize:
    def test_unique_transitive_3(self):
        t = realize(LandauSequence((0, 1, 2)))
        assert sorted(t.arcs()) == [(1, 0), (2, 0), (2, 1)]

    def test_paper_example_scores_recompute(self):
        s = LandauSequence((1, 1, 2, 3, 4, 5, 6, 6))
        assert score_sequence(realize(s)) == s

    def test_regular_input_is_base_tournament(self):
        s = LandauSequence((3, 3, 3, 3, 4, 4, 4, 4))
        assert realize(s) == nearly_regular(8)

    def test_vertex_slots_carry_sorted_scores(self):
        s = LandauSequence((0, 1, 3, 3, 3))
        t = realize(s)
        assert [int(x) for x in t.scores()] == list(s.scores)

    def test_stages_all_strong_except_possibly_last(self):
        s = LandauSequence((0, 1, 2, 3, 4, 5, 6, 7))
        stages = list(realize_stages(s))
        assert len(stages) == 7  # max_down_jumps(8) + 1
        for t in stages[:-1]:
            assert is_strong(t)
            assert reachability(t).all()
        assert score_sequence(stages[-1]) == s

    def test_single_vertex(self):
        assert realize(LandauSequence((0,))).n == 1


class TestCount3Cycles:
    def test_transitive_has_none(self):
        assert count_3cycles(transitive(5)) == 0

    def test_three_cycle(self):
        assert count_3cycles(three_cycle()) == 1

    def test_matches_c_value_on_realization(self):
        # the arcs, counted by the oracle, against the score formula
        s = LandauSequence((3, 3, 3, 3, 4, 4, 4, 4))
        t = realize(s)
        assert three_cycles(t) == count_3cycles(t) == 20
        assert three_cycles(t) == c_value(s)


def _reference_shortest_path(
    adj: np.ndarray, src: int, dst: int
) -> Optional[List[int]]:
    """Shortest src -> dst path by BFS; smallest-id parents break ties.

    The per-vertex BFS on the boolean matrix, kept as an independent
    reference for the bit-row search in ``tournaments._shortest_path``.
    """
    if adj[src, dst]:
        return [src, dst]
    n = adj.shape[0]
    mid = np.flatnonzero(adj[src] & adj[:, dst])
    if mid.size:
        return [src, int(mid[0]), dst]
    parent = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[src] = True
    frontier = [src]
    while True:
        new = np.zeros(n, dtype=bool)
        for f in frontier:
            fresh = adj[f] & ~visited & ~new
            if fresh.any():
                parent[fresh] = f
                new |= fresh
        if not new.any():
            return None
        visited |= new
        if new[dst]:
            break
        frontier = [int(v) for v in np.flatnonzero(new)]
    path = [dst]
    while path[-1] != src:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


def _forced_long_path(n: int) -> np.ndarray:
    """i beats i+1, otherwise the higher id wins: 0 -> n-1 takes n-1 arcs."""
    return _complete(np.eye(n, k=1, dtype=bool))


def _descending_long_path(n: int) -> np.ndarray:
    """``_forced_long_path`` relabelled i -> n-1-i: n-1 -> 0 takes n-1 arcs,
    through levels that start at the highest ids and step down."""
    return _forced_long_path(n)[::-1, ::-1]


def _mismatches(adj: np.ndarray, sources=None):
    """Ordered pairs where the two searches disagree, and the None count,
    over every source or the ones given."""
    n = adj.shape[0]
    rows = tournaments._rows(adj)
    bad, unreachable = [], 0
    for src in range(n) if sources is None else sources:
        for dst in range(n):
            if src == dst:
                continue
            expected = _reference_shortest_path(adj, src, dst)
            unreachable += expected is None
            if tournaments._shortest_path(rows, src, dst) != expected:
                bad.append((src, dst))
    return bad, unreachable


def _realize_with_reference(s: LandauSequence):
    """``realize`` and ``realize_stages`` of ``s``, rebuilt without the
    library's replay: from the regular rows, each pair of the down trace, last
    first, reverses the reference search's path through ``reverse_path``,
    which checks every arc it reverses.  The search reads a matrix made for
    it, not the stage's cached ``adjacency``, so the kept stages hold only
    their rows (at n=140, 3.4 MB rather than 52 MB)."""
    t = Tournament._trusted(tournaments._regular_rows(s.n))
    stages = [t]
    for p, q in reversed(list(down_trace(s).pairs())):
        path = _reference_shortest_path(tournaments._matrix(t._rows), p - 1, q - 1)
        t = reverse_path(t, VertexPath(tuple(path)))
        stages.append(t)
    return t, stages


class TestShortestPathAgainstReference:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_pair_of_every_small_tournament(self, n):
        unreachable = 0
        for t in enumerate_tournaments(n):
            bad, none_count = _mismatches(t.adjacency)
            assert not bad, (t, bad)
            unreachable += none_count
        assert unreachable > 0

    @pytest.mark.parametrize("n", [6, 10, 20, 40])
    @pytest.mark.parametrize("p", [0.03, 0.15, 0.5, 0.85, 0.97])
    def test_random_tournaments(self, n, p):
        rng = np.random.default_rng(1000 * n + int(100 * p))
        for _ in range(3):
            adj = _random_tournament(n, p, rng)
            bad, _ = _mismatches(adj)
            assert not bad, bad

    @pytest.mark.parametrize("n", [10, 40, 70])
    def test_forced_long_paths(self, n):
        adj = _forced_long_path(n)
        assert find_path(Tournament(adj), 0, n - 1).vertices == tuple(range(n))
        bad, unreachable = _mismatches(adj)
        assert not bad, bad
        assert unreachable == 0

    # each BFS level is decoded from its lowest id up to its highest: on the
    # descending long path the levels sit at high ids and their windows
    # start and end on either side of the 30-bit digits and of bit 64 (and,
    # at n=130, of bit 128)
    def test_descending_long_paths_every_pair(self):
        n = 70
        adj = _descending_long_path(n)
        path = find_path(Tournament(adj), n - 1, 0).vertices
        assert path == tuple(range(n - 1, -1, -1))
        bad, unreachable = _mismatches(adj)
        assert not bad, bad
        assert unreachable == 0

    def test_descending_long_paths_past_bit_128(self):
        adj = _descending_long_path(130)
        bad, unreachable = _mismatches(adj, sources=[129, 128, 127, 65, 64, 63, 30, 0])
        assert not bad, bad
        assert unreachable == 0

    @pytest.mark.parametrize("n", [31, 60, 80])
    def test_realize_transitive_matches_reference_replay(self, n):
        s = transitive_sequence(n)
        expected, expected_stages = _realize_with_reference(s)
        assert realize(s) == expected
        assert list(realize_stages(s)) == expected_stages

    @pytest.mark.parametrize("n", [40, 60, 80, 140])
    def test_realize_near_transitive_matches_reference_replay(self, n):
        # (1, 1, 2, ..., n-3, n-2, n-2): strong, with paths as long as Tr_n's
        s = LandauSequence((1, 1, *range(2, n - 2), n - 2, n - 2))
        expected, expected_stages = _realize_with_reference(s)
        assert realize(s) == expected
        assert list(realize_stages(s)) == expected_stages

    def test_level_beats_a_higher_in_neighbour_than_the_probe(self):
        # 5 -> 0 has no path of 1 or 2 arcs.  0's in-neighbours are 1, 2, 3;
        # level {4} does not beat the smallest, 1, but beats 2 and 3, so the
        # path ends 4 -> 2 -> 0: the lowest in-neighbour in the next level
        arcs = {(1, 0), (2, 0), (3, 0), (0, 4), (0, 5), (5, 4), (1, 5), (2, 5),
                (3, 5), (4, 2), (4, 3), (1, 4), (1, 2), (1, 3), (2, 3)}
        t = from_arcs(6, arcs)
        expected = _reference_shortest_path(t.adjacency, 5, 0)
        assert expected == [5, 4, 2, 0]
        assert tournaments._shortest_path(t._rows, 5, 0) == expected
        assert find_path(t, 5, 0).vertices == tuple(expected)
        bad, _ = _mismatches(t.adjacency)
        assert not bad, bad

    @settings(max_examples=60, deadline=None)
    @given(valid_sequences(max_n=30))
    def test_realize_matches_reference_replay(self, s):
        expected, expected_stages = _realize_with_reference(s)
        assert realize(s) == expected
        assert list(realize_stages(s)) == expected_stages


class TestRows:
    @staticmethod
    def check_round_trip(adj: np.ndarray):
        rows = tournaments._rows(adj)
        assert rows == [sum(1 << int(j) for j in np.flatnonzero(r)) for r in adj]
        assert (tournaments._matrix(rows) == adj).all()
        assert tournaments._rows(tournaments._matrix(rows)) == rows

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_on_every_small_tournament(self, n):
        for t in enumerate_tournaments(n):
            self.check_round_trip(t.adjacency)

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 63, 64, 65])
    def test_round_trip_across_byte_boundaries(self, n):
        self.check_round_trip(_random_tournament(n, 0.5, np.random.default_rng(n)))


class TestReplayErrors:
    def test_missing_path_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(tournaments, "_shortest_path", lambda *a: None)
        with pytest.raises(UnreachableError):
            realize(LandauSequence((0, 1, 2)))

    def test_score_sequence_rejects_non_landau_scores(self):
        # rows past the constructor's checks: vertex 0 beats all three
        # vertices, itself included, so the out-degrees are 3, 0, 0
        corrupt = Tournament._trusted([0b111, 0, 0])
        with pytest.raises(TournamentError):
            score_sequence(corrupt)


def _stream_lengths(s: LandauSequence) -> Counter:
    """Check every yield of ``tournaments._replay(s)`` against the rows it
    changed, and count its paths by their arcs.

    Reads only the rows and the trace's pairs, never the search: the first
    path is empty; each later one runs from p-1 to q-1 of its pair, visits
    exactly the rows that changed, and turns each of its arcs around; the
    changed rows differ in two bits an arc.
    """
    stream = tournaments._replay(s)
    rows, path = next(stream)
    assert path == []
    before = list(rows)
    lengths = Counter()
    pairs = reversed(list(down_trace(s).pairs()))
    for (p, q), (rows, path) in zip(pairs, stream, strict=True):
        assert (path[0], path[-1]) == (p - 1, q - 1)
        changed = list(compress(count(), map(ne, before, rows)))
        assert changed == sorted(path)
        for a, b in zip(path, path[1:]):
            assert before[a] >> b & 1 and not before[b] >> a & 1
            assert rows[b] >> a & 1 and not rows[a] >> b & 1
        flipped = sum((before[v] ^ rows[v]).bit_count() for v in changed)
        assert flipped == 2 * (len(path) - 1)
        lengths[len(path) - 1] += 1
        for v in changed:
            before[v] = rows[v]
    assert [row.bit_count() for row in before] == list(s.scores)
    return lengths


class TestReplayStream:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_sequence_is_its_stage_differences(self, n):
        for s in enumerate_landau_sequences(n):
            _stream_lengths(s)

    # the counts a path-length report of realize would give
    @pytest.mark.parametrize(
        "n, jumps, arcs, short, longest",
        [
            (300, 11_175, 37_193, [74, 5_476, 3_361, 1_151, 309], 252),
            (500, 31_125, 103_733, [124, 15_376, 9_351, 3_202, 855], 428),
        ],
    )
    def test_transitive_counts(self, n, jumps, arcs, short, longest):
        lengths = _stream_lengths(transitive_sequence(n))
        assert sum(lengths.values()) == jumps
        assert sum(k * m for k, m in lengths.items()) == arcs
        assert [lengths[k] for k in range(1, 6)] == short
        assert max(lengths) == longest


class TestRowsAgreeWithAdjacency:
    @staticmethod
    def check(t: Tournament):
        adj = t.adjacency
        n = t.n
        assert adj.shape == (n, n) and adj.dtype == bool
        assert t._rows == tuple(sum(1 << int(j) for j in np.flatnonzero(r)) for r in adj)
        for i in range(n):
            assert [t.beats(i, j) for j in range(n)] == adj[i].tolist()
            assert t.out_set(i) == tuple(int(j) for j in np.flatnonzero(adj[i]))
            assert t.in_set(i) == tuple(int(j) for j in np.flatnonzero(adj[:, i]))
            assert t.score(i) == int(adj[i].sum())
        assert list(t.arcs()) == [tuple(int(x) for x in a) for a in np.argwhere(adj)]
        again = Tournament(adj)
        assert again == t and hash(again) == hash(t)
        # what the matrix-backed tournament reported
        sums = adj.sum(axis=1)
        assert repr(t) == repr(again) == f"Tournament(n={n}, scores={sums.tolist()})"
        scores = t.scores()
        assert scores.dtype == sums.dtype and scores.tolist() == sums.tolist()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_tournament(self, n):
        for t in enumerate_tournaments(n):
            self.check(t)

    @pytest.mark.parametrize(
        "s",
        [
            transitive_sequence(40),
            regular_sequence(41),
            regular_sequence(40),
            LandauSequence((1, 1, 2, 3, 4, 5, 6, 6)),
        ],
    )
    def test_realize_outputs(self, s):
        for t in (realize(s), *list(realize_stages(s))[::7]):
            self.check(t)

    # 64, 65 and 127..129 put rows across word and byte boundaries
    @pytest.mark.parametrize("n", [7, 8, 9, 64, 65, 127, 128, 129])
    def test_random_tournaments(self, n):
        adj = _random_tournament(n, 0.5, np.random.default_rng(n))
        t = Tournament(adj)
        assert (t.adjacency == adj).all()
        assert t == from_arcs(n, map(tuple, np.argwhere(adj)))
        self.check(t)
        self.check(from_arcs(n, map(tuple, np.argwhere(adj))))

    def test_indices_wrap_and_range_as_a_matrix_does(self):
        t = three_cycle()
        assert t.beats(-1, 0) and not t.beats(0, -1)
        assert t.in_set(-1) == (1,)
        with pytest.raises(IndexError):
            t.beats(0, 3)
        with pytest.raises(IndexError):
            t.out_set(3)

    def test_unequal_sizes_and_other_types_are_not_equal(self):
        assert rotational_regular(3) != rotational_regular(5)
        assert rotational_regular(3) != rotational_regular(3).adjacency.tolist()


class TestAdjacencyCache:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: realize(LandauSequence((0, 1, 3, 3, 3))),
            lambda: rotational_regular(7),
            lambda: nearly_regular(8),
            lambda: three_cycle(),
            lambda: reverse_path(rotational_regular(5), VertexPath((0, 1))),
            lambda: Tournament([[0, 1], [0, 0]]),
        ],
    )
    def test_read_only_and_built_once(self, make):
        t = make()
        adj = t.adjacency
        assert adj is t.adjacency
        with pytest.raises(ValueError):
            adj[0, 1] = not adj[0, 1]
        assert t == Tournament(adj)

    def test_constructor_copies_its_argument(self):
        adj = np.array([[0, 1], [0, 0]], dtype=bool)
        t = Tournament(adj)
        adj[0, 1], adj[1, 0] = False, True
        assert t.beats(0, 1) and t.adjacency[0, 1]


class TestRealizeStagesAreSnapshots:
    @pytest.mark.parametrize(
        "s", [transitive_sequence(12), LandauSequence((1, 1, 2, 3, 4, 5, 6, 6))]
    )
    def test_each_stage_keeps_its_own_scores(self, s):
        # the replay moves one list of rows; a stage that shared it would
        # show the last scores instead of its own
        steps = down_trace(s).steps
        expected = [steps[-1].after] + [st.before for st in reversed(steps)]
        stages = list(realize_stages(s))
        assert [t._popcounts() for t in stages] == [list(e.scores) for e in expected]
        assert len(set(stages)) == len(stages)
        assert stages[-1] == realize(s)

    def test_stages_read_one_at_a_time_hold_one_at_a_time(self):
        # the 11,176 stages of Tr_300 held in one list peak near 30.7 MB
        s = transitive_sequence(300)
        expected = realize(s)
        tracemalloc.start()
        try:
            for last in realize_stages(s):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert last == expected


class TestCount3CyclesAgainstScores:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Tournament(_random_tournament(300, 0.5, np.random.default_rng(300))),
            lambda: transitive(300),
            lambda: realize(transitive_sequence(300)),
            lambda: rotational_regular(301),
            lambda: nearly_regular(300),
        ],
    )
    def test_matches_c_value_at_n_300(self, make):
        t = make()
        assert three_cycles(t) == count_3cycles(t) == c_value(score_sequence(t))

    def test_every_small_tournament_against_triples(self):
        for n in range(3, 6):
            for t in enumerate_tournaments(n):
                cyclic = sum(
                    t.beats(a, b) == t.beats(b, c) == t.beats(c, a)
                    for a, b, c in combinations(range(n), 3)
                )
                assert count_3cycles(t) == three_cycles(t) == cyclic
