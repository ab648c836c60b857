"""Junk input for the public constructors, path functions and sequence readers.

Junk is floats, bools, None, text, huge ints, empty input, wrong lengths and
matrices that are not square or not 0/1.  Each input must get a result that
is right, a ``ViolationReport``, or a typed error (``TypeError``,
``ValueError``, ``OverflowError`` or a ``TournamentError``): never a bare
``IndexError``, ``KeyError``, ``AttributeError`` or ``AssertionError``, and
never a result built from junk.  Scores reject bools; vertex ids and step
positions are indices, read by ``operator.index`` as Python's own indexing
reads them, so a bool there is the 0 or 1 it equals.
"""

import dataclasses
import re
import tracemalloc
from collections import defaultdict
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau.oracle import (
    enumerate_landau_sequences,
    enumerate_tournaments,
    reachability,
    stats,
    three_cycles,
)
from landau.sequences import (
    JumpAlgorithm,
    JumpTrace,
    LandauSequence,
    ViolationReport,
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
from landau import tournaments
from landau.tournaments import (
    DoublePairError,
    InvalidPathError,
    MissingPairError,
    SelfLoopError,
    Tournament,
    TournamentError,
    VertexPath,
    count_3cycles,
    find_path,
    from_arcs,
    is_strong,
    nearly_regular,
    reverse_path,
    rotational_regular,
    score_sequence,
    strong_components,
)

TYPED = (TypeError, ValueError, OverflowError, TournamentError)

#: Ints past 64 bits, either sign.
huge = st.integers(min_value=2**63, max_value=10**40) | st.integers(
    min_value=-(10**40), max_value=-(2**63)
)
#: Entries that are not ints (integral floats among them), bools included.
non_ints = st.one_of(
    st.floats(allow_nan=True), st.booleans(), st.none(), st.text(max_size=2)
)
#: The same without bools, which an index reads as 0 or 1.
non_indices = st.one_of(st.floats(allow_nan=True), st.none(), st.text(max_size=2))

junk_settings = settings(max_examples=150, deadline=None)


def _outcome(build, *args):
    """(result, None) or (None, the typed error); anything else propagates."""
    try:
        return build(*args), None
    except TYPED as exc:
        return None, exc


class TestScoreVectors:
    @junk_settings
    @given(v=st.lists(st.one_of(st.integers(-2, 12), huge, non_ints), max_size=12))
    def test_entries(self, v):
        if not all(type(x) is int for x in v):
            for build in (LandauSequence, validate_landau):
                with pytest.raises(TypeError):
                    build(v)
            return
        if not v:
            for build in (LandauSequence, validate_landau):
                with pytest.raises(ValueError):
                    build(v)
            return
        expected = first_violation(v)
        result = validate_landau(v)
        if expected is None:
            assert result == LandauSequence(v) and result.scores == tuple(v)
        else:
            assert isinstance(result, ViolationReport) and result == expected
            with pytest.raises(ValueError, match=expected.message):
                LandauSequence(v)

    @pytest.mark.parametrize("v", [None, 5, 1.5, "012", "", (), [[0]], [(0, 1)]])
    def test_whole_argument(self, v):
        for build in (LandauSequence, validate_landau):
            result, error = _outcome(build, v)
            assert result is None and isinstance(error, (TypeError, ValueError))


def _is_tournament_matrix(m) -> bool:
    if not (isinstance(m, list) and m and all(isinstance(r, list) for r in m)):
        return False
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    for row in m:
        for x in row:
            if not (isinstance(x, (int, float)) and x in (0, 1)):
                return False
    return all(m[i][i] == 0 for i in range(n)) and all(
        m[i][j] + m[j][i] == 1 for i, j in combinations(range(n), 2)
    )


def _square(entries):
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


zero_one = st.sampled_from([0, 1, False, True, 0.0, 1.0])
matrix_entries = st.one_of(
    st.integers(-2, 3),
    huge,
    st.floats(allow_nan=True),
    st.none(),
    st.text(max_size=1),
)
matrices = st.one_of(
    _square(zero_one),
    _square(st.one_of(zero_one, matrix_entries)),
    # ragged, empty, of the wrong width, of one dimension, of three
    st.lists(st.lists(zero_one, max_size=5), max_size=5),
    st.lists(zero_one, max_size=5),
    st.lists(st.lists(st.lists(zero_one, max_size=2), max_size=2), max_size=2),
)


class TestTournamentMatrix:
    @junk_settings
    @given(m=matrices)
    @example(m=np.zeros((0, 0), bool))
    def test_built_only_from_a_tournament(self, m):
        t, error = _outcome(Tournament, m)
        if error is not None:
            assert isinstance(error, (ValueError, TournamentError)), error
            assert not _is_tournament_matrix(m)
        else:
            assert _is_tournament_matrix(m)
            assert t.adjacency.tolist() == [[x == 1 for x in row] for row in m]


@st.composite
def arc_lists(draw):
    """The arcs of a tournament on 1..5 vertices, maybe with one arc dropped,
    repeated, reversed, turned into a self-loop or moved out of range."""
    n = draw(st.integers(1, 5))
    arcs = [
        (i, j) if draw(st.booleans()) else (j, i)
        for i, j in combinations(range(n), 2)
    ]
    k = draw(st.integers(0, max(len(arcs) - 1, 0)))
    faults = ["none", "drop", "repeat", "reverse", "loop", "range"]
    fault = draw(st.sampled_from(faults))
    if arcs and fault == "drop":
        del arcs[k]
    elif arcs and fault == "repeat":
        arcs.append(arcs[k])
    elif arcs and fault == "reverse":
        arcs.append(arcs[k][::-1])
    elif fault == "loop":
        arcs.append((n - 1, n - 1))
    elif fault == "range":
        arcs.append(draw(st.sampled_from([(0, n), (n, 0), (-1, 0), (0, -1)])))
    return n, draw(st.permutations(arcs))


def _orients_every_pair(n, arcs) -> bool:
    if not all(0 <= v < n for arc in arcs for v in arc):
        return False
    if any(i == j for i, j in arcs):
        return False
    pairs = [frozenset(arc) for arc in arcs]
    return len(set(pairs)) == len(pairs) == comb(n, 2)


def _first_fault(n, arcs):
    """The error class and message for in-range arcs that miss some pair."""
    partners = defaultdict(set)
    for i, j in arcs:
        if i == j:
            return SelfLoopError, f"self-loop at vertex {i}"
        if j in partners[i]:
            return DoublePairError, f"pair {{{i}, {j}}} oriented twice"
        partners[i].add(j)
        partners[j].add(i)
    for i in range(n):
        j = min(set(range(len(partners[i]) + 2)) - partners[i] - {i})
        if j < n:
            return MissingPairError, f"pair {{{i}, {j}}} has no orientation"


class TestFromArcs:
    @junk_settings
    @given(case=arc_lists())
    def test_built_only_when_every_pair_is_oriented_once(self, case):
        n, arcs = case
        t, error = _outcome(from_arcs, n, arcs)
        if error is not None:
            assert not _orients_every_pair(n, arcs)
        else:
            assert _orients_every_pair(n, arcs)
            assert t.n == n and sorted(t.arcs()) == sorted(arcs)

    @junk_settings
    @given(case=arc_lists(), width=st.integers(0, 5))
    def test_pairs_past_the_row_width_get_the_same_outcome(self, case, width):
        # pairs with an id at or past the width are held in a dict, not rows
        n, arcs = case
        expected, expected_error = _outcome(from_arcs, n, arcs)
        with mock.patch.object(tournaments, "_ARC_ROW_WIDTH", width):
            t, error = _outcome(from_arcs, n, arcs)
        assert t == expected
        assert repr(error) == repr(expected_error)

    @junk_settings
    @given(n=st.integers(5, 2**70), data=st.data())
    def test_few_arcs_on_huge_n(self, n, data):
        ids = st.integers(0, 4) | st.integers(0, n - 1)
        arcs = data.draw(st.lists(st.tuples(ids, ids), max_size=6))
        cls, message = _first_fault(n, arcs)
        tracemalloc.start()
        try:
            with pytest.raises(cls, match=re.escape(message)):
                from_arcs(n, arcs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @junk_settings
    @given(
        n=st.one_of(st.integers(1, 4), st.integers(5, 2**70), huge, non_indices),
        arc=st.tuples(
            st.one_of(st.integers(0, 3), st.integers(0, 2**70), huge, non_indices),
            st.one_of(st.integers(0, 3), st.integers(0, 2**70), huge, non_indices),
        ),
    )
    def test_junk_order_and_vertex_ids(self, n, arc):
        t, error = _outcome(from_arcs, n, [arc])
        if error is None:
            # one arc orients every pair only on two vertices
            assert n == 2 and set(arc) == {0, 1}
            assert {type(n), *map(type, arc)} == {int}

    @pytest.mark.parametrize("arcs", [None, 5, [5], [(0, 1, 2)], [(0,)], ["01"]])
    def test_junk_arc_iterables(self, arcs):
        result, error = _outcome(from_arcs, 2, arcs)
        assert result is None and error is not None


T5 = rotational_regular(5)
vertex_ids = st.one_of(st.integers(-2, 6), huge, non_ints)


class TestPaths:
    @junk_settings
    @given(v=st.lists(vertex_ids, max_size=5))
    @example(v=[0.7, 1.2])  # once truncated to the arc (0, 1)
    def test_vertex_path(self, v):
        path, error = _outcome(VertexPath, v)
        indices = all(isinstance(x, int) for x in v)  # bools too
        if error is not None:
            assert isinstance(error, TypeError) != indices
        else:
            assert indices and len(set(v)) == len(v) >= 2
            assert path.vertices == tuple(map(int, v))
            assert all(type(x) is int for x in path.vertices)

    @junk_settings
    @given(src=vertex_ids, dst=vertex_ids)
    def test_find_path(self, src, dst):
        path, error = _outcome(find_path, T5, src, dst)
        if error is not None:
            indices = isinstance(src, int) and isinstance(dst, int)
            assert indices <= isinstance(error, ValueError)
            assert not indices or not (0 <= src < 5 and 0 <= dst < 5) or src == dst
        else:
            assert isinstance(src, int) and isinstance(dst, int)
            assert path.vertices[0] == src and path.vertices[-1] == dst
            assert all(T5.beats(a, b) for a, b in zip(path, path.vertices[1:]))

    @junk_settings
    @given(path=st.one_of(st.lists(vertex_ids, max_size=4), st.none(), st.integers()))
    def test_reverse_path(self, path):
        # a raw sequence is not a path, even one that would be valid
        result, error = _outcome(reverse_path, T5, path)
        assert result is None and isinstance(error, TypeError)
        try:
            vp = VertexPath(path)
        except TYPED:
            return
        result, error = _outcome(reverse_path, T5, vp)
        if error is not None:
            assert isinstance(error, (ValueError, InvalidPathError))
        else:
            assert all(T5.beats(a, b) for a, b in zip(vp, vp.vertices[1:]))
            first, last = vp.vertices[0], vp.vertices[-1]
            assert result.score(first) == 1 and result.score(last) == 3


#: Each function that reads an order n or a vertex id, as a function of it.
INDEX_READERS = {
    "regular_sequence": regular_sequence,
    "transitive_sequence": transitive_sequence,
    "max_c_value": max_c_value,
    "max_down_jumps": max_down_jumps,
    "rotational_regular": rotational_regular,
    "nearly_regular": nearly_regular,
    "from_arcs order": lambda x: from_arcs(x, []),
    "from_arcs winner": lambda x: from_arcs(2, [(x, 1)]),
    "from_arcs loser": lambda x: from_arcs(2, [(0, x)]),
    "find_path src": lambda x: find_path(T5, x, 1),
    "find_path dst": lambda x: find_path(T5, 0, x),
    "enumerate_landau_sequences": enumerate_landau_sequences,
    "enumerate_tournaments": lambda x: next(enumerate_tournaments(x)),
    "stats": stats,
}


class TestIndices:
    # a float is read by operator.index before any range check: 3.0 is not
    # taken for 3, nor are 0.5 and -0.5 reported as out of range
    @pytest.mark.parametrize("x", [0.5, -0.5, 3.0])
    @pytest.mark.parametrize("name", sorted(INDEX_READERS))
    def test_float_is_a_type_error(self, name, x):
        with pytest.raises(TypeError):
            INDEX_READERS[name](x)

    @pytest.mark.parametrize("name", sorted(INDEX_READERS))
    def test_bool_is_the_int_it_equals(self, name):
        for b in (False, True):
            result, error = _outcome(INDEX_READERS[name], b)
            expected, expected_error = _outcome(INDEX_READERS[name], int(b))
            assert result == expected and repr(error) == repr(expected_error)


S = LandauSequence((2, 2, 2, 2, 2))
TRACES = [down_trace(LandauSequence((0, 1, 3, 3, 3))), gr_down_trace(S), up_trace(S)]
sequence_junk = st.one_of(
    st.sampled_from([None, 5, (2, 2, 2, 2, 2), [2, 2, 2, 2, 2], "22222"]),
    st.lists(st.integers(0, 4), max_size=5),
)
field_junk = {
    "before": st.one_of(sequence_junk, st.just(LandauSequence((1, 1, 1)))),
    "after": st.one_of(sequence_junk, st.just(S)),
    "low": st.one_of(st.integers(-1, 7), huge, non_ints),
    "high": st.one_of(st.integers(-1, 7), huge, non_ints),
    "algorithm": st.one_of(
        st.sampled_from(list(JumpAlgorithm)),
        st.sampled_from(["down", "gr-up", None, 0]),
    ),
}


class TestJumpTrace:
    @junk_settings
    @given(start=sequence_junk, end=sequence_junk, steps=st.sampled_from([(), [1, 2]]))
    def test_sequences_must_be_landau_sequences(self, start, end, steps):
        result, error = _outcome(JumpTrace, start, end, steps)
        assert result is None and isinstance(error, TypeError)

    @junk_settings
    @given(
        trace=st.sampled_from(TRACES),
        field=st.sampled_from(sorted(field_junk)),
        data=st.data(),
    )
    def test_one_junk_field(self, trace, field, data):
        steps = list(trace.steps)
        k = data.draw(st.integers(0, len(steps) - 1))
        value = data.draw(field_junk[field])
        steps[k] = dataclasses.replace(steps[k], **{field: value})
        result, error = _outcome(JumpTrace, trace.start, trace.end, steps)
        if error is None:
            # only a value equal to the one replaced (a bool position among
            # them) leaves the trace as it was
            assert result == trace and result.steps == trace.steps
            assert getattr(trace.steps[k], field) == value

    @pytest.mark.parametrize("steps", [None, 5, [None], [1, 2], "ab", [TRACES[0]]])
    def test_steps_must_be_jump_steps(self, steps):
        t = TRACES[0]
        result, error = _outcome(JumpTrace, t.start, t.end, steps)
        assert result is None and isinstance(error, TypeError)


def _trace_with_first_step(**fields):
    t = TRACES[0]
    steps = list(t.steps)
    steps[0] = dataclasses.replace(steps[0], **fields)
    return JumpTrace(t.start, t.end, steps)


#: Each check that no other test pins by its message (the property tests above
#: reach most of them only by chance), as (build, the exact error type, a
#: pattern its whole message matches).
CHECKED_ERRORS = {
    "not square": (
        lambda: Tournament([[0, 1, 0]]),
        ValueError,
        "adjacency must be a square matrix",
    ),
    "no vertex": (
        lambda: Tournament(np.zeros((0, 0), bool)),
        ValueError,
        "tournament needs at least one vertex",
    ),
    "self-loop": (
        lambda: Tournament([[1, 1], [0, 0]]),
        SelfLoopError,
        "vertex beats itself",
    ),
    "double pair": (
        lambda: Tournament([[0, 1], [1, 0]]),
        DoublePairError,
        "some pair is oriented both ways",
    ),
    "self-loop before double pair": (
        lambda: Tournament([[1, 1, 1], [1, 0, 0], [0, 0, 0]]),
        SelfLoopError,
        "vertex beats itself",
    ),
    "double pair before missing pair": (
        lambda: Tournament([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        DoublePairError,
        "some pair is oriented both ways",
    ),
    "one-vertex path": (
        lambda: VertexPath((0,)),
        ValueError,
        "path needs at least two vertices",
    ),
    "find_path out of range": (
        lambda: find_path(rotational_regular(3), 0, 3),
        ValueError,
        "vertex out of range",
    ),
    "reverse_path of a tuple": (
        lambda: reverse_path(rotational_regular(3), (0, 1)),
        TypeError,
        "path must be a VertexPath",
    ),
    "trace from a tuple": (
        lambda: JumpTrace((0, 1, 2), regular_sequence(3), ()),
        TypeError,
        "start and end must be LandauSequences",
    ),
    "step algorithm as text": (
        lambda: _trace_with_first_step(algorithm="down"),
        TypeError,
        "step algorithms must be JumpAlgorithms",
    ),
    "negative step position": (
        lambda: _trace_with_first_step(low=-1),
        ValueError,
        "step positions must be positive ints: .+",
    ),
    "float step position": (
        lambda: _trace_with_first_step(low=1.0),
        ValueError,
        "step positions must be positive ints: .+",
    ),
    "compare_order of unequal lengths": (
        lambda: compare_order((0, 1, 2), regular_sequence(4)),
        ValueError,
        "sequences must have equal length",
    ),
    "distance of unequal lengths": (
        lambda: distance(transitive_sequence(3), [1, 1, 2, 2]),
        ValueError,
        "sequences must have equal length",
    ),
    "gr_down_step of unequal lengths": (
        lambda: gr_down_step(regular_sequence(3), transitive_sequence(4)),
        ValueError,
        "sequences must have equal length",
    ),
}


@pytest.mark.parametrize("case", list(CHECKED_ERRORS))
def test_checked_error_type_and_message(case):
    build, kind, message = CHECKED_ERRORS[case]
    with pytest.raises(TYPED) as info:
        build()
    assert type(info.value) is kind
    assert re.fullmatch(message, str(info.value)), str(info.value)


#: Each function that reads a LandauSequence, as a function of it.
SEQUENCE_READERS = {
    "down_trace": down_trace,
    "gr_down_trace": gr_down_trace,
    "up_trace": up_trace,
    "down_jump_step": down_jump_step,
    "gr_down_step start": lambda x: gr_down_step(x, S),
    "gr_down_step target": lambda x: gr_down_step(transitive_sequence(5), x),
    "up_step": up_step,
    "realize": tournaments.realize,
    "realize_stages": tournaments.realize_stages,
    "c_value": c_value,
    "validate_strong_landau": validate_strong_landau,
    "first_equality_index": first_equality_index,
}


class TestSequenceReaders:
    # raw scores, even valid ones, are not a LandauSequence: validating them
    # is the caller's step, and skipping it is a TypeError, not a bare
    # AttributeError from deep inside the function
    @pytest.mark.parametrize("x", [(2, 2, 2, 2, 2), [2, 2, 2, 2, 2], None, "22222", 5])
    @pytest.mark.parametrize("name", sorted(SEQUENCE_READERS))
    def test_raw_input_is_a_type_error(self, name, x):
        with pytest.raises(TypeError, match="expected a LandauSequence"):
            SEQUENCE_READERS[name](x)


#: Each function that reads a Tournament, as a function of it.
TOURNAMENT_READERS = {
    "score_sequence": score_sequence,
    "strong_components": strong_components,
    "is_strong": is_strong,
    "count_3cycles": count_3cycles,
    "find_path": lambda x: find_path(x, 0, 1),
    "reverse_path": lambda x: reverse_path(x, VertexPath((0, 1))),
    "oracle.three_cycles": three_cycles,
    "oracle.reachability": reachability,
}


class TestTournamentReaders:
    # rows, a matrix or nothing are not a Tournament: building one is the
    # caller's step, and skipping it is a TypeError, not a bare
    # AttributeError from deep inside the function
    @pytest.mark.parametrize(
        "x",
        [None, (1, 2), [1, 2], T5.adjacency, T5._rows, S],
        ids=["none", "tuple", "list", "matrix", "rows", "sequence"],
    )
    @pytest.mark.parametrize("name", sorted(TOURNAMENT_READERS))
    def test_other_types_are_a_type_error(self, name, x):
        with pytest.raises(TypeError, match="expected a Tournament"):
            TOURNAMENT_READERS[name](x)
