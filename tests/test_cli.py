import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import landau
from landau.cli import (
    REALIZE_CAP,
    REALIZE_JUMP_CAP,
    TOURNAMENT_FORMATS,
    TRACE_CAP,
    main,
)
from landau.oracle import enumerate_landau_sequences
from landau.sequences import (
    JumpAlgorithm,
    ViolationKind,
    _trace,
    c_value,
    distance,
    down_jump_step,
    down_trace,
    first_violation,
    gr_down_trace,
    max_c_value,
    max_down_jumps,
    regular_sequence,
    transitive_sequence,
    up_trace,
    validate_landau,
)
from landau.tournaments import from_arcs, score_sequence
from test_sequences import _drawn_scores


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, args, catch_exceptions=False, standalone_mode=False)


def invoke(runner, *args):
    return runner.invoke(main, args)


def raw_writes(args):
    """Each write that reaches the raw stream under stdout while the CLI runs
    ``args``, through the buffered text layers a terminal or pipe has."""
    writes = []

    class Recorder(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            writes.append(bytes(data))
            return len(data)

    stdout = io.TextIOWrapper(io.BufferedWriter(Recorder()), encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        main.main(args, standalone_mode=False)
    stdout.flush()
    return writes


class TestValidate:
    def test_valid_sequence_exit_0(self, runner):
        result = invoke(runner, "validate", "1,1,2,3,4,5,6,6")
        assert result.exit_code == 0
        assert "valid" in result.output

    def test_invalid_sequence_exit_1(self, runner):
        result = invoke(runner, "validate", "0,0,3")
        assert result.exit_code == 1
        assert "prefix sum 0 < 1 at k=2" in result.output

    def test_strong_failure(self, runner):
        result = invoke(runner, "validate", "--strong", "0,1,2")
        assert result.exit_code == 1
        assert "equality at k=1" in result.output

    def test_strong_success(self, runner):
        assert invoke(runner, "validate", "--strong", "1,1,1").exit_code == 0

    def test_parse_failure_exit_2(self, runner):
        assert invoke(runner, "validate", "1,x,2").exit_code == 2

    def test_no_sequence_exit_2(self, runner):
        assert invoke(runner, "validate").exit_code == 2

    def test_json_format(self, runner):
        result = invoke(runner, "validate", "--format", "json", "0,1,2")
        payload = json.loads(result.output)
        assert payload == {"sequence": [0, 1, 2], "valid": True, "reason": None}

    def test_batch_file(self, runner, tmp_path):
        f = tmp_path / "seqs.txt"
        f.write_text("1,1,1\n0 1 2\n")
        result = invoke(runner, "validate", "--file", str(f))
        assert result.exit_code == 0
        assert result.output.count("valid") == 2

    def test_batch_file_with_invalid_exit_1(self, runner, tmp_path):
        f = tmp_path / "seqs.txt"
        f.write_text("1,1,1\n0,0,3\n")
        assert invoke(runner, "validate", "--file", str(f)).exit_code == 1


    # sha256 of the output for every sequence up to n=8, then one invalid
    # vector per ViolationKind, taken when --strong also called
    # validate_strong_landau
    BATCH_DIGESTS = {
        ("text", False): "a86a91b8a50f99755c42bf66bc6f62f3f246e5dcaadfbe1c1a5598ab5e47f4c0",
        ("text", True): "9ddf50c61bec66841c2ddd2879640cef554216dec1613ae234b1fd23d0daa514",
        ("json", False): "ff05b012cecae66998ffd5e1088378340fad5c7b5672fc3b549ea2bd75f6aee3",
        ("json", True): "d7988786c38671b50bfea16a64f53cec1fda7dce88815ed9a35bbc6446a0a7e8",
    }
    INVALID = ["-1,1,3", "2,1,0", "0,0,3", "1,1,2"]

    @pytest.mark.parametrize("strong", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_batch_output_digest(self, runner, tmp_path, fmt, strong):
        seqs = [str(s) for n in range(1, 9) for s in enumerate_landau_sequences(n)]
        kinds = {first_violation(map(int, v.split(","))).kind for v in self.INVALID}
        assert kinds == set(ViolationKind)
        path = tmp_path / "seqs.txt"
        path.write_text("".join(f"{s}\n" for s in seqs + self.INVALID))
        args = ["validate", "--file", str(path), "--format", fmt]
        result = invoke(runner, *args, *(["--strong"] if strong else []))
        assert result.exit_code == 1
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.BATCH_DIGESTS[fmt, strong]


class TestRealize:
    def test_transitive_arclist_bytes(self, runner):
        result = invoke(runner, "realize", "0,1,2", "--format", "arclist")
        assert result.exit_code == 0
        assert result.output == "1 0\n2 0\n2 1\n"

    def test_rotational_matrix(self, runner):
        result = invoke(runner, "realize", "2,2,2,2,2", "--format", "matrix")
        rows = result.output.splitlines()
        assert rows == ["01100", "00110", "00011", "10001", "11000"]

    def test_recomputed_scores_match(self, runner):
        result = invoke(runner, "realize", "1,1,2,3,4,5,6,6", "--format", "json")
        payload = json.loads(result.output)
        assert sorted(payload["scores"]) == [1, 1, 2, 3, 4, 5, 6, 6]

    @pytest.fixture
    def pinned(self, tmp_path):
        # Tr_40, R_41, R_40 and the scores of a seeded random tournament, n=200
        seqs = [range(40), [20] * 41, [19] * 20 + [20] * 20, _drawn_scores(200, 200)]
        path = tmp_path / "seqs.txt"
        path.write_text("".join(",".join(map(str, s)) + "\n" for s in seqs))
        return str(path)

    # sha256 of the output for the pinned sequences, taken when every
    # format was rendered one arc (or one matrix entry) at a time
    FORMAT_DIGESTS = {
        "text": "cc3adbf20c4cba2582c6313281eded395bac8dc9e46cc19570b0c95fcca5aeff",
        "json": "f589f5ca2ece6f910dbcf81dcac93c1a34f3002cb441cb27f68e1f7039d007b0",
        "dot": "ce64483d48587aef1229b69569c5a064e727099b1650a34946435bc9ddb490d4",
        "matrix": "5eef9101be9a19a73052057e7447ca6000aa5dd986523b84aa9c1876136942a7",
        "arclist": "0fae14887123c1b83960f1802f3a36fdd05ae3c5133682c67faddbb01316526f",
    }

    @pytest.mark.parametrize("fmt", list(FORMAT_DIGESTS))
    def test_batch_output_digest(self, runner, pinned, fmt):
        result = invoke(runner, "realize", "--file", pinned, "--format", fmt)
        assert result.exit_code == 0
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.FORMAT_DIGESTS[fmt]

    @pytest.mark.parametrize("fmt", TOURNAMENT_FORMATS)
    def test_writes_hold_a_buffer_plus_one_row(self, runner, pinned, fmt):
        # realize hands its rows to stdout as they are made; stdout's buffer,
        # not the output's size, bounds each write that reaches the stream
        args = ["realize", "--file", pinned, "--format", fmt]
        writes = raw_writes(args)
        assert b"".join(writes).decode() == invoke(runner, *args).output
        n = max(len(line.split(",")) for line in Path(pinned).read_text().split())
        # one row of n - 1 arcs in the widest format, dot's "  i -> j;\n"; it
        # also covers the text and json heads, n scores of len(str(n)) digits
        row = n * (2 * len(str(n)) + 8)
        assert max(map(len, writes)) <= io.DEFAULT_BUFFER_SIZE + row

    @pytest.mark.parametrize("fmt", TOURNAMENT_FORMATS)
    def test_single_vertex(self, runner, fmt):
        expected = {
            "text": "n=1\nscores: 0\n",
            "json": '{"n": 1, "scores": [0], "arcs": []}\n',
            "dot": "digraph {\n}\n",
            "matrix": "0\n",
            "arclist": "",
        }
        assert invoke(runner, "realize", "0", "--format", fmt).output == expected[fmt]

    def test_over_the_cap_exits_1_before_building(self, runner):
        literal = ",".join(["0"] * (REALIZE_CAP + 1))
        with mock.patch("landau.cli.validate_landau") as validate, mock.patch(
            "landau.cli.realize_tournament"
        ) as build:
            result = invoke(runner, "realize", literal)
        assert result.exit_code == 1
        assert f"exceeds the realize cap of {REALIZE_CAP}" in result.output
        validate.assert_not_called()
        build.assert_not_called()

    @staticmethod
    def with_jumps(jumps):
        """A sequence d(R,S)/2 = jumps from R_n: each down jump from Tr_n
        brings it one jump closer."""
        n = 1
        while max_down_jumps(n) < jumps:
            n += 1
        s = transitive_sequence(n)
        for _ in range(max_down_jumps(n) - jumps):
            s = down_jump_step(s).after
        assert distance(s, regular_sequence(n)) == 2 * jumps
        return s

    def test_at_the_jump_cap_goes_on_to_build(self, runner):
        literal = str(self.with_jumps(REALIZE_JUMP_CAP))

        class Built(Exception):
            pass

        with mock.patch("landau.cli.realize_tournament", side_effect=Built) as build:
            result = invoke(runner, "realize", literal)
        build.assert_called_once()
        assert isinstance(result.exception, Built)

    def test_over_the_jump_cap_exits_1_before_any_walk(self, runner):
        literal = str(self.with_jumps(REALIZE_JUMP_CAP + 1))
        with mock.patch("landau.cli.realize_tournament") as build:
            result = invoke(runner, "realize", literal)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: sequence needs {REALIZE_JUMP_CAP + 1} jumps, over the "
            f"realize jump cap of {REALIZE_JUMP_CAP}\n"
        )
        build.assert_not_called()

    @staticmethod
    def drawn_by_rows(n, seed):
        """``_drawn_scores(n, seed).scores``, drawn one row of the matrix at a time."""
        rng = np.random.default_rng(seed)
        scores = np.zeros(n, dtype=np.int64)
        for i in range(n):
            wins = rng.random(n)[i + 1 :] < 0.5
            scores[i] += wins.sum()
            scores[i + 1 :] += ~wins
        return tuple(sorted(scores.tolist()))

    def test_drawn_by_rows_is_the_matrix_draw(self):
        for n in [*range(1, 41), 500]:
            for seed in (7, n):
                assert self.drawn_by_rows(n, seed) == _drawn_scores(n, seed).scores

    def test_random_10000_is_under_the_jump_cap(self):
        # criterion 8's draw (seed 7) at n=10,000, by rows, since the whole
        # matrix would take 800 MB of floats: 197,164 jumps
        s = validate_landau(self.drawn_by_rows(10_000, 7))
        assert distance(s, regular_sequence(10_000)) // 2 == 197_164 <= REALIZE_JUMP_CAP

    @pytest.mark.parametrize("fmt", TOURNAMENT_FORMATS)
    def test_wrong_realization_exits_1_before_output(self, runner, fmt):
        # the transitive tournament has scores 0, 1, 2, not 1, 1, 1
        wrong = from_arcs(3, {(1, 0), (2, 0), (2, 1)})
        with mock.patch("landau.cli.realize_tournament", return_value=wrong):
            result = invoke(runner, "realize", "1,1,1", "--format", fmt)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: realized tournament does not have the given scores\n"

    # sha256 of the near-transitive (1, 1, 2, ..., 397, 398, 398) realized in
    # each format: arclist, matrix and dot pinned when the rows were decoded
    # bit by bit, json and text when each format had a renderer of its own;
    # TestNoNumpyOnTheCliPath checks that a fresh process writes the arclist's
    # bytes too
    NEAR_TRANSITIVE_400_DIGESTS = {
        "arclist": "bb774456b7b9e8f637ea49f46dadec1fa7bcea9934d5965e51248edaf0b2f7a8",
        "matrix": "89e1a00e941050d37c41eccbe8654f7357bac12268ad9edbff75be6772ecd14b",
        "dot": "360b321207189f3e9a5b178b8dc4b37b1eaa69844d8828dcf15c5002908fe84e",
        "json": "dfcbc24c9e64ed03251489ee87dbf31b9556d2653c9c8cbd6fa5168782b32e67",
        "text": "d249157a621201f0be9a0672da7b0797a6a3c5579f2499c54fa1e5c66e943de7",
    }

    @pytest.mark.parametrize("fmt", list(NEAR_TRANSITIVE_400_DIGESTS))
    def test_near_transitive_400_digest(self, runner, fmt):
        literal = ",".join(map(str, [1, 1, *range(2, 398), 398, 398]))
        result = run(runner, "realize", "--format", fmt, literal)
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.NEAR_TRANSITIVE_400_DIGESTS[fmt]

    # sha256 of the transitive 0..299 realized as an arclist: the worst case's
    # 11,175 jumps through paths of up to 252 arcs, and the bench's reference
    # output for it, which no seed changes
    TRANSITIVE_300_ARCLIST_DIGEST = (
        "168a318d98e555c89a8492cfacf68ef2a10e41c99eef6ff1165cdcf746415081"
    )

    def test_transitive_300_digest(self, runner):
        literal = ",".join(map(str, range(300)))
        result = run(runner, "realize", "--format", "arclist", literal)
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.TRANSITIVE_300_ARCLIST_DIGEST

    def test_dot_format(self, runner):
        result = invoke(runner, "realize", "0,1,2", "--format", "dot")
        assert result.output == "digraph {\n  1 -> 0;\n  2 -> 0;\n  2 -> 1;\n}\n"

    def test_invalid_sequence_exit_1(self, runner):
        assert invoke(runner, "realize", "0,0,3").exit_code == 1

    def test_round_trip_through_from_arcs(self, runner):
        for n in range(1, 7):
            for s in enumerate_landau_sequences(n):
                literal = ",".join(str(x) for x in s)
                result = invoke(runner, "realize", literal, "--format", "arclist")
                arcs = {
                    tuple(int(v) for v in line.split())
                    for line in result.output.splitlines()
                }
                assert score_sequence(from_arcs(n, arcs)) == s

    def test_format_stability(self, runner):
        a = invoke(runner, "realize", "1,1,2,3,4,5,6,6", "--format", "arclist")
        b = invoke(runner, "realize", "1,1,2,3,4,5,6,6", "--format", "arclist")
        assert a.output == b.output


class TestTrace:
    def test_down_paper_example(self, runner):
        result = invoke(
            runner, "trace", "1,1,2,3,4,5,6,6", "--algorithm", "down", "--format", "json"
        )
        payload = json.loads(result.output)
        assert len(payload["steps"]) == 5
        assert payload["end"] == [3, 3, 3, 3, 4, 4, 4, 4]

    def test_gr_down_paper_example(self, runner):
        result = invoke(
            runner, "trace", "2,2,2,3,3,3", "--algorithm", "gr-down", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["start"] == [0, 1, 2, 3, 4, 5]
        assert len(payload["steps"]) == 3

    def test_gr_up_paper_example(self, runner):
        result = invoke(
            runner, "trace", "1,1,3,3,3,4", "--algorithm", "gr-up", "--format", "json"
        )
        payload = json.loads(result.output)
        assert len(payload["steps"]) == 5
        assert payload["steps"][0] == {"seq": [0, 2, 3, 3, 3, 4], "low": 1, "high": 2}

    def test_text_format(self, runner):
        result = invoke(runner, "trace", "0,1,2", "--algorithm", "down")
        assert result.output == (
            "start: 0,1,2\nstep 1: low=1 high=3 -> 1,1,1\nend: 1,1,1\n"
        )

    def test_invalid_sequence_exit_1(self, runner):
        assert invoke(runner, "trace", "0,0,3").exit_code == 1

    @pytest.fixture
    def batch(self, tmp_path):
        seqs = [str(s) for n in range(1, 8) for s in enumerate_landau_sequences(n)]
        seqs += [
            ",".join(map(str, range(40))),
            ",".join(["20"] * 41),
            ",".join(["19"] * 20 + ["20"] * 20),
        ]
        path = tmp_path / "seqs.txt"
        path.write_text("".join(f"{s}\n" for s in seqs))
        return str(path)

    # sha256 of the output for every sequence up to n=7, then Tr_40, R_41 and
    # R_40, taken when the whole trace was built before it was printed
    BATCH_DIGESTS = {
        ("down", "text"): "b1b3f5d66102348a65b3d2f66ce6db89cf48d8819c8c912ebe2e5f21d6efa8c6",
        ("down", "json"): "fac4667190d22bb43a46d06b02283591feade8ba667e31d3b71195d8b00916cd",
        ("gr-down", "text"): "d27358c48b7ad96bb4bcdf664bc199ded19076457c37c241679a93c55286050b",
        ("gr-down", "json"): "c8891f8617b4cd12807aec52e8a0efa2d086f7603535e44108e2f00cfbe9e0c9",
        ("gr-up", "text"): "a6455d421fc7b6101c7f4fea509c04dbee416804152e4174c213cdd813b5c15a",
        ("gr-up", "json"): "2ffab9926320165e45b02dd3c4d7951f12e6ce6c96b8840509250cececf8e478",
    }

    @pytest.mark.parametrize("algorithm,fmt", list(BATCH_DIGESTS))
    def test_batch_output_digest(self, runner, batch, algorithm, fmt):
        result = invoke(
            runner, "trace", "--file", batch, "--algorithm", algorithm, "--format", fmt
        )
        assert result.exit_code == 0
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.BATCH_DIGESTS[algorithm, fmt]

    @pytest.mark.parametrize(
        "algorithm,walk",
        [("down", down_trace), ("gr-down", gr_down_trace), ("gr-up", up_trace)],
    )
    def test_json_steps_equal_the_library_trace(self, runner, algorithm, walk):
        s = validate_landau((5,) * 11)
        result = invoke(
            runner, "trace", str(s), "--algorithm", algorithm, "--format", "json"
        )
        payload = json.loads(result.output)
        tr = walk(s)
        assert payload["start"] == list(tr.start.scores)
        assert payload["end"] == list(tr.end.scores)
        assert payload["steps"] == [
            {"seq": list(st.after.scores), "low": st.low, "high": st.high}
            for st in tr.steps
        ]

    @staticmethod
    def with_steps(algorithm, n, steps):
        """A sequence of order n whose trace under ``algorithm`` takes ``steps``.

        The down walk from Tr_n to R_n takes d(Tr,R)/2 jumps, each two units
        of distance, so its k-th sequence is k jumps from Tr_n and
        d(Tr,R)/2 - k from R_n; each step of the up walk from R_n takes one
        from c.
        """
        if algorithm == "gr-up":
            walk, index = up_trace(regular_sequence(n)), max_c_value(n) - steps
        else:
            walk = down_trace(transitive_sequence(n))
            index = max_down_jumps(n) - steps if algorithm == "down" else steps
        s = next(islice(walk.sequences(), index, None))
        counted = {
            "down": distance(s, regular_sequence(n)) // 2,
            "gr-down": distance(s, transitive_sequence(n)) // 2,
            "gr-up": c_value(s),
        }
        assert counted[algorithm] == steps
        return s

    @staticmethod
    def at_the_cap(algorithm, over):
        """At the least order n that divides TRACE_CAP and where ``algorithm``
        can take TRACE_CAP / n + 1 steps, a sequence with TRACE_CAP / n + over
        steps: exactly the cap, or one step more."""
        most = max_c_value if algorithm == "gr-up" else max_down_jumps
        n = 1
        while TRACE_CAP % n or most(n) <= TRACE_CAP // n:
            n += 1
        steps = TRACE_CAP // n + over
        return TestTrace.with_steps(algorithm, n, steps), steps

    @pytest.mark.parametrize("algorithm", ["down", "gr-down", "gr-up"])
    def test_at_the_trace_cap_goes_on_to_walk(self, runner, algorithm):
        s, steps = self.at_the_cap(algorithm, over=False)
        assert steps * s.n == TRACE_CAP

        class Walked(Exception):
            pass

        with mock.patch("landau.cli._trace", side_effect=Walked) as walk:
            result = invoke(runner, "trace", str(s), "--algorithm", algorithm)
        walk.assert_called_once()
        assert isinstance(result.exception, Walked)

    @pytest.mark.parametrize("algorithm", ["down", "gr-down", "gr-up"])
    def test_over_the_trace_cap_exits_1_before_any_walk(self, runner, algorithm):
        s, steps = self.at_the_cap(algorithm, over=True)
        assert (steps - 1) * s.n == TRACE_CAP
        with mock.patch("landau.cli._trace") as walk:
            result = invoke(runner, "trace", str(s), "--algorithm", algorithm)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"error: trace needs {steps} steps of {s.n} scores, over the trace "
            f"cap of {TRACE_CAP} scores\n"
        )
        walk.assert_not_called()

    def test_the_longest_walks_under_the_cap_hold_only_their_pairs(self):
        # trace holds a walk's pairs, 8 bytes a step.  The longest walks the
        # cap lets through are gr-up walks: R_221's c(R_221) = 449,735 steps,
        # the most at n <= 221, and TRACE_CAP // 222 = 450,450 steps at
        # n = 222, the most at any n >= 222.  Each holds 3.6 MB of pairs; a
        # second copy of them would take the peak past 7 MB
        n = 1
        while max_c_value(n) <= TRACE_CAP // n:
            n += 1
        assert (n, max_c_value(n - 1), TRACE_CAP // n) == (222, 449_735, 450_450)
        longest = [
            (regular_sequence(n - 1), max_c_value(n - 1)),
            (self.with_steps("gr-up", n, TRACE_CAP // n), TRACE_CAP // n),
        ]
        for s, steps in longest:
            tracemalloc.start()
            try:
                walk = _trace(JumpAlgorithm.GR_UP, s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(walk) == steps
            assert peak < 5e6

    # sha256 of the gr-up trace of R_101, whose cascades of up to 100 steps
    # follow each big step; TestNoNumpyOnTheCliPath checks that a fresh
    # process writes a gr-up trace as the in-process call does
    R101_DIGESTS = {
        "json": "4f8c3c6d26ae3a39be101da7e1273ab415e2e1bfba628484e12f307a965af98b",
        "text": "dabe2aa788e55e89ce04f78f2150c8c89caa0a2bd32f57fca702ce76a1fa3065",
    }

    @pytest.mark.parametrize("fmt", list(R101_DIGESTS))
    def test_gr_up_r101_digest(self, runner, fmt):
        literal = ",".join(["50"] * 101)
        result = run(runner, "trace", "--algorithm", "gr-up", "--format", fmt, literal)
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.R101_DIGESTS[fmt]
        if fmt == "text":
            assert result.output.count("\n") == 42927

    # sha256 of the down trace of Tr_200 and the gr-down trace of R_200,
    # 4,950 steps each, taken while each down walk yielded its first step
    # apart from the closed form of its rest; TestNoNumpyOnTheCliPath checks
    # that a fresh process writes the down json bytes too
    DOWN_WALK_200_DIGESTS = {
        ("down", "json"): "352ff78e0fd089e05bc7ca3f2c82f98de8b52429574ed7db7567783fe250e39a",
        ("down", "text"): "f682651fb0896c8c13b2ce82a076bae3712d3ff8457f399f69d3eb150f4fc7f3",
        ("gr-down", "json"): "279e0a546309e0ab6cf28e1ca7f46f380ec19619647819752833a4eb93dac5f3",
        ("gr-down", "text"): "65f0f08fb96fb5f321e2b4d8b4b51357f8cdd22a9014261e674ef88ef44537e2",
    }

    @pytest.mark.parametrize("algorithm, fmt", list(DOWN_WALK_200_DIGESTS))
    def test_down_walks_200_digest(self, runner, algorithm, fmt):
        s = transitive_sequence(200) if algorithm == "down" else regular_sequence(200)
        result = run(runner, "trace", "--algorithm", algorithm, "--format", fmt, str(s))
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.DOWN_WALK_200_DIGESTS[algorithm, fmt]
        if fmt == "text":
            assert result.output.count("\n") == 4952

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_writes_hold_a_buffer_plus_one_step(self, runner, fmt):
        # trace hands each step to stdout as it is replayed: the 4,950 steps
        # of the down walk from Tr_200 are 3.6 MB of text, 4.6 MB of json,
        # but stdout's buffer bounds each write that reaches the stream
        n = 200
        args = ["trace", "--algorithm", "down", "--format", fmt, str(transitive_sequence(n))]
        writes = raw_writes(args)
        assert b"".join(writes).decode() == run(runner, *args).output
        # one json step, {"seq": [n scores], "low": l, "high": h}, the longer
        # of the two formats' steps
        step = n * (len(str(n)) + 2) + 2 * len(str(n)) + 30
        assert max(map(len, writes)) <= io.DEFAULT_BUFFER_SIZE + step


class TestEnumerate:
    def test_n4_listing(self, runner):
        result = invoke(runner, "enumerate", "4")
        assert result.output == "1,1,2,2\n0,2,2,2\n1,1,1,3\n0,1,2,3\n"

    def test_n1(self, runner):
        assert invoke(runner, "enumerate", "1").output == "0\n"

    def test_stats_n7(self, runner):
        result = invoke(runner, "enumerate", "7", "--stats")
        assert "max_trace_length=6" in result.output

    def test_cap_exit_1(self, runner):
        assert invoke(runner, "enumerate", "13").exit_code == 1

    def test_json(self, runner):
        payload = json.loads(invoke(runner, "enumerate", "3", "--format", "json").output)
        assert payload == [[1, 1, 1], [0, 1, 2]]

    # sha256 of the order-12 output, taken when the enumeration sorted its
    # tuples after generating them in lexicographic order
    N12_DIGESTS = {
        (): "4b690f60d7ef87d8db8a4001edac4203ce2bae84cfe10374d564ce29ec692f4e",
        ("--format", "json"): "9be547b9b3e7eaecfc5c30600c0987c7f1ab4177ae99f61d02c51ac67e0bb577",
    }

    @pytest.mark.parametrize("extra", list(N12_DIGESTS))
    def test_n12_digest(self, runner, extra):
        result = run(runner, "enumerate", "12", *extra)
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.N12_DIGESTS[extra]

    def test_stats_n12_json_pin(self, runner):
        result = run(runner, "enumerate", "12", "--stats", "--format", "json")
        assert result.output == (
            '{"n": 12, "sequence_count": 14805, "realizable_count": null, '
            '"max_trace_length": 15, "max_c": 70}\n'
        )

    def test_stats_1_to_12_digest(self, runner):
        # the stats of every order, text then json, pinned while stats listed
        # every sequence; TestNoNumpyOnTheCliPath checks that a fresh process
        # writes stats as the in-process call does
        output = "".join(
            run(runner, "enumerate", str(n), "--stats", *extra).output
            for n in range(1, 13)
            for extra in [(), ("--format", "json")]
        )
        digest = hashlib.sha256(output.encode()).hexdigest()
        assert digest == "d4b83bd1e9017909177b551cd527dca2a40c89b7da2fa66c4cc410b1b97aefa6"


class TestCompare:
    def get(self, runner, literal):
        result = invoke(runner, "compare", literal, "--format", "json")
        return json.loads(result.output)

    def test_closer_to_transitive(self, runner):
        payload = self.get(runner, "1,1,1,4,4,4")
        assert payload["gr_down"] == 2
        assert payload["down"] == 3

    def test_closer_to_regular(self, runner):
        payload = self.get(runner, "1,2,3,3,3,3")
        assert payload["gr_down"] == 3
        assert payload["down"] == 1

    def test_equal_counts(self, runner):
        payload = self.get(runner, "2,2,2,3,4,4,4")
        assert payload["down"] == payload["gr_down"] == 3

    def test_up_jump_count_dominates(self, runner):
        payload = self.get(runner, "3,3,3,3,4,4,4,4")
        assert payload["gr_up"] == 20
        assert payload["gr_down"] == 6

    def test_text_output(self, runner):
        out = invoke(runner, "compare", "1,1,1,4,4,4").output
        assert "down 3" in out and "gr-down 2" in out

    @pytest.fixture
    def all_up_to_8(self, tmp_path):
        seqs = [s for n in range(1, 9) for s in enumerate_landau_sequences(n)]
        path = tmp_path / "seqs.txt"
        path.write_text("".join(f"{s}\n" for s in seqs))
        return seqs, str(path)

    def test_counts_equal_walked_traces(self, runner, all_up_to_8):
        seqs, path = all_up_to_8
        result = invoke(runner, "compare", "--file", path, "--format", "json")
        payloads = [json.loads(line) for line in result.output.splitlines()]
        assert len(payloads) == len(seqs)
        for s, payload in zip(seqs, payloads):
            walked = len(down_trace(s)), len(gr_down_trace(s)), len(up_trace(s))
            assert (payload["down"], payload["gr_down"], payload["gr_up"]) == walked

    # sha256 of the output for every sequence up to n=8, taken when the
    # counts were still read off walked traces
    BATCH_DIGESTS = {
        "text": "bfe13536969f0c72588171a80a75e53dfdf84e61b92fddd6b1a2730806346908",
        "json": "80b2b3c368414a6f1b1b546cf13bbab7065279478a76346448364e9687343972",
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_batch_output_digest(self, runner, all_up_to_8, fmt):
        _, path = all_up_to_8
        out = invoke(runner, "compare", "--file", path, "--format", fmt).output
        assert hashlib.sha256(out.encode()).hexdigest() == self.BATCH_DIGESTS[fmt]


class TestFileInput:
    @pytest.mark.parametrize("command", ["validate", "realize", "trace", "compare"])
    def test_non_utf8_file_is_a_parse_error(self, runner, tmp_path, command):
        path = tmp_path / "seqs.txt"
        path.write_bytes(b"\xff\xfe1,2\n")
        result = invoke(runner, command, "--file", str(path))
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "not UTF-8" in result.output

    @pytest.mark.parametrize("command", ["validate", "realize", "trace", "compare"])
    def test_byte_order_mark_is_not_part_of_the_first_literal(
        self, runner, tmp_path, command
    ):
        text = "1,1,1\n0,1,2\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        expected = invoke(runner, command, "--file", str(plain))
        result = invoke(runner, command, "--file", str(marked))
        assert expected.exit_code == 0 and expected.stdout
        assert (result.exit_code, result.stdout) == (expected.exit_code, expected.stdout)
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\xef", "can't decode byte 0xef in position 0: unexpected end of data"),
            (b"\xef\xbb", "can't decode bytes in position 0-1: unexpected end of data"),
        ],
    )
    def test_a_cut_byte_order_mark_is_not_utf8(self, runner, tmp_path, data, reason):
        # the first bytes of a mark, with nothing after them, are not text
        path = tmp_path / "seqs.txt"
        path.write_bytes(data)
        result = invoke(runner, "validate", "--file", str(path))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {path} is not UTF-8 text: 'utf-8' codec {reason}\n"


class TestFailureOutput:
    """Every failure's exact stderr and exit code, with nothing on stdout."""

    #: Failures that every sequence command reports the same way: arguments,
    #: exit code and stderr, where a name in FILES stands for that file.
    INPUT_FAILURES = {
        "both": (
            ("1,1,1", "--file", "ok"), 2, "error: give a sequence literal or --file, not both"
        ),
        "neither": ((), 2, "error: give a sequence literal or --file, not both"),
        "not-utf8": (
            ("--file", "bad"),
            2,
            "error: {bad} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte",
        ),
        "empty-file": (("--file", "empty"), 2, "error: no sequences in {empty}"),
        "empty-literal": ((" , ",), 2, "error: empty sequence literal ' , '"),
        "unparsable": (("1,x",), 2, "error: cannot parse sequence literal '1,x'"),
    }
    FILES = {"ok": b"1,1,1\n", "bad": b"\xff\xfe1,2\n", "empty": b"\n \n"}

    @pytest.mark.parametrize("case", list(INPUT_FAILURES))
    @pytest.mark.parametrize("command", ["validate", "realize", "trace", "compare"])
    def test_input_failure(self, runner, tmp_path, command, case):
        args, code, message = self.INPUT_FAILURES[case]
        paths = {name: str(tmp_path / name) for name in self.FILES}
        for name, data in self.FILES.items():
            Path(paths[name]).write_bytes(data)
        result = invoke(runner, command, *(paths.get(a, a) for a in args))
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr == message.format(**paths) + "\n"

    #: Failures of one command: arguments, exit code and stderr.
    COMMAND_FAILURES = {
        "realize-invalid": (
            ("realize", "0,0,3"), 1, "invalid sequence: prefix sum 0 < 1 at k=2"
        ),
        "trace-invalid": (
            ("trace", "0,0,3"), 1, "invalid sequence: prefix sum 0 < 1 at k=2"
        ),
        "compare-invalid": (
            ("compare", "0,0,3"), 1, "invalid sequence: prefix sum 0 < 1 at k=2"
        ),
        "realize-length-cap": (
            ("realize", ",".join(["0"] * (REALIZE_CAP + 1))),
            1,
            f"error: sequence of length {REALIZE_CAP + 1} exceeds the realize cap "
            f"of {REALIZE_CAP}",
        ),
        "realize-jump-cap": (
            ("realize", ",".join(map(str, range(1500)))),
            1,
            "error: sequence needs 280875 jumps, over the realize jump cap of "
            f"{REALIZE_JUMP_CAP}",
        ),
        "trace-cap": (
            ("trace", ",".join(map(str, range(1000)))),
            1,
            "error: trace needs 124750 steps of 1000 scores, over the trace cap of "
            f"{TRACE_CAP} scores",
        ),
        "enumerate-13": (("enumerate", "13"), 1, "error: n=13 exceeds sequence cap 12"),
        "enumerate-0": (("enumerate", "0"), 1, "error: n must be >= 1"),
    }

    @pytest.mark.parametrize("case", list(COMMAND_FAILURES))
    def test_command_failure(self, runner, case):
        args, code, message = self.COMMAND_FAILURES[case]
        result = invoke(runner, *args)
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr == message + "\n"


class TestHelp:
    # sha256 of each --help at 80 columns, taken under click 8.4.0
    DIGESTS = {
        (): "a7253ecaadaf0721f704a73531b16e84bb11e29bcac8191f692427874600dcf3",
        ("validate",): "05aa3d57159ccf94c4b91fa7583708d06c43b43e616b143d5a43bf297abfd789",
        ("realize",): "68fbc41aa0d6c101a371469de01638f501e8d7abcfb7a8e7db77b0f1d7ecaf23",
        ("trace",): "637b3ff844800baa5972acc876589c96682f787388f0b0fe51768688728eda16",
        ("enumerate",): "90a6e593b6f07b9c19e56ea9770de59b7bc3e28ec20d753599c6e89db7c98177",
        ("compare",): "b2204a1b459ac044bb12a5b5d899bb4ec374405ca3ab46e53f77ef7b3bd7d811",
    }

    @pytest.mark.parametrize("command", list(DIGESTS), ids=lambda c: c[0] if c else "landau")
    def test_help_digest(self, runner, command):
        result = runner.invoke(
            main, [*command, "--help"], prog_name="landau", env={"COLUMNS": "80"}
        )
        assert result.exit_code == 0
        assert result.stderr == ""
        digest = hashlib.sha256(result.output.encode()).hexdigest()
        assert digest == self.DIGESTS[command]


def _ints_literal(ints) -> str:
    return ",".join(map(str, ints))


#: Sequence literals that are not score sequences: floats, bools, huge ints,
#: empty literals, text without digits, and unsorted, negative or wrong-total
#: integer scores.
junk_literals = st.one_of(
    st.lists(st.floats(allow_nan=True), min_size=1, max_size=6).map(_ints_literal),
    st.lists(st.booleans(), min_size=1, max_size=6).map(_ints_literal),
    st.lists(
        st.integers(min_value=2**63, max_value=10**40), min_size=1, max_size=6
    ).map(_ints_literal),
    st.just(",".join(["9" * 5000, "1"])),
    st.sampled_from(["", " ", ",", " , ,", "\t\n"]),
    st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=12),
    st.lists(st.integers(min_value=-5, max_value=40), min_size=1, max_size=12)
    .filter(lambda v: first_violation(v) is not None)
    .map(_ints_literal),
)


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


#: ``--file`` contents that hold no score sequence: bytes that are not UTF-8,
#: or lines of junk literals (an empty file among them).
junk_files = st.one_of(
    st.binary(min_size=1, max_size=64).filter(lambda b: not _is_utf8(b)),
    st.lists(junk_literals, max_size=3).map(lambda ls: "\n".join(ls).encode()),
)

#: ``enumerate`` orders that are not in 1..12: floats, bools, empty, text,
#: and zero, negative or huge integers.
junk_orders = st.one_of(
    st.floats(allow_nan=True).map(str),
    st.sampled_from(["True", "False", "", " ", "1.0", "1e3", "0x5", "twelve"]),
    st.integers(max_value=0).map(str),
    st.integers(min_value=13, max_value=10**40).map(str),
    st.just("9" * 5000),
)


def _assert_clean_failure(result) -> None:
    """Exit 1 or 2 with a message, and no exception other than the exit."""
    assert result.exit_code in (1, 2), (result.exit_code, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception
    )
    assert result.output.strip()
    assert "Traceback" not in result.output


class TestJunkInput:
    @pytest.mark.parametrize("algorithm", ["down", "gr-down", "gr-up"])
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(literal=junk_literals)
    def test_trace_literal(self, runner, algorithm, literal):
        result = invoke(runner, "trace", "--algorithm", algorithm, "--", literal)
        _assert_clean_failure(result)

    @pytest.mark.parametrize("algorithm", ["down", "gr-down", "gr-up"])
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=junk_files, fmt=st.sampled_from(["text", "json"]))
    def test_trace_file(self, runner, algorithm, data, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seqs.txt"
            path.write_bytes(data)
            result = invoke(
                runner, "trace", "--file", str(path), "--algorithm", algorithm,
                "--format", fmt,
            )
        _assert_clean_failure(result)
        if not _is_utf8(data):
            assert result.exit_code == 2 and "not UTF-8" in result.output

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        order=junk_orders,
        extra=st.sampled_from([(), ("--stats",), ("--format", "json")]),
    )
    def test_enumerate_order(self, runner, order, extra):
        result = invoke(runner, "enumerate", *extra, "--", order)
        _assert_clean_failure(result)

    @pytest.mark.parametrize("command", ["validate", "realize", "compare"])
    @pytest.mark.parametrize("separated", [True, False], ids=["dashdash", "bare"])
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(literal=junk_literals)
    def test_sequence_command_literal(self, runner, command, separated, literal):
        # without "--" a literal that names an option is that option, and
        # "--help" is the one that succeeds
        assume(separated or literal != "--help")
        result = invoke(runner, command, *(["--"] if separated else []), literal)
        _assert_clean_failure(result)

    @pytest.mark.parametrize("command", ["validate", "realize", "compare"])
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=junk_files)
    def test_sequence_command_file(self, runner, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seqs.txt"
            path.write_bytes(data)
            result = invoke(runner, command, "--file", str(path))
        _assert_clean_failure(result)
        if not _is_utf8(data):
            assert result.exit_code == 2 and "not UTF-8" in result.output


class TestLeadingMinus:
    """A literal that starts with a minus sign is a literal, not an option."""

    @pytest.mark.parametrize("command", ["validate", "realize", "trace", "compare"])
    def test_negative_score_is_reported(self, runner, command):
        result = invoke(runner, command, "-1,1,3")
        assert result.exit_code == 1
        assert "negative score -1 at k=1" in result.output
        assert "No such option" not in result.output

    def test_negative_order_is_reported(self, runner):
        result = invoke(runner, "enumerate", "-3")
        assert result.exit_code == 1
        assert "n must be >= 1" in result.output

    @pytest.mark.parametrize(
        "command", ["validate", "realize", "trace", "compare", "enumerate"]
    )
    def test_unknown_option_still_exits_2(self, runner, command):
        result = invoke(runner, command, "--bogus")
        assert result.exit_code == 2
        assert "--bogus" in result.output

    @pytest.mark.parametrize(
        "args, name",
        [
            (("trace", "--formt", "json", "1,1,1"), "--formt"),
            (("trace", "--formt=json", "1,1,1"), "--formt"),
            (("validate", "--strng", "1,1,1"), "--strng"),
            (("realize", "1,1,1", "--fromat", "json"), "--fromat"),
            (("compare", "-1,x"), "-1,x"),
            (("enumerate", "--stat", "5"), "--stat"),
        ],
    )
    def test_misspelled_option_is_named(self, runner, args, name):
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert f"No such option '{name}'" in result.output

    def test_option_values_and_dashdash_are_not_options(self, runner):
        result = invoke(runner, "trace", "--format", "json", "-1,1,3")
        assert result.exit_code == 1
        assert "negative score -1 at k=1" in result.output
        # the value of --file is a path, even one that looks like an option
        result = invoke(runner, "validate", "--file", "-x")
        assert result.exit_code == 2
        assert "'-x' does not exist" in result.output
        result = invoke(runner, "validate", "--", "--strng")
        assert result.exit_code == 2
        assert "cannot parse sequence literal '--strng'" in result.output


#: Runs the CLI in a fresh interpreter, then reports on stderr whether numpy
#: was ever imported, also when the command ends by exiting.
_NUMPY_PROBE = """
import sys
from landau.cli import main
try:
    main.main(sys.argv[1:], prog_name="landau")
finally:
    sys.stderr.write("numpy imported: %s\\n" % ("numpy" in sys.modules))
"""

#: The same report for a library call: 3-cycles read off the scores.
_LIBRARY_PROBE = """
import sys
from landau.sequences import regular_sequence
from landau.tournaments import count_3cycles, realize
print(count_3cycles(realize(regular_sequence(9))))
sys.stderr.write("numpy imported: %s\\n" % ("numpy" in sys.modules))
"""


def _run_probe(probe, *args):
    src = str(Path(landau.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


class TestNoNumpyOnTheCliPath:
    @pytest.mark.parametrize(
        "args",
        [
            *(["realize", "1,1,2,3,4,5,6,6", "--format", f] for f in TOURNAMENT_FORMATS),
            ["validate", "--strong", "1,1,2,3,4,5,6,6"],
            ["validate", "--strong", "1,1,2,3,4,5,6,6", "--format", "json"],
            ["validate", "--file", "batch.txt"],
            *(
                ["trace", "1,1,2,3,4,5,6,6", "--algorithm", a]
                for a in ("down", "gr-down", "gr-up")
            ),
            ["trace", "1,1,2,3,4,5,6,6", "--algorithm", "gr-up", "--format", "json"],
            ["compare", "1,1,2,3,4,5,6,6"],
            ["compare", "1,1,2,3,4,5,6,6", "--format", "json"],
            ["enumerate", "5"],
            ["enumerate", "5", "--format", "json"],
            ["enumerate", "5", "--stats"],
            ["enumerate", "5", "--stats", "--format", "json"],
            pytest.param(
                [
                    "realize",
                    "--format",
                    "arclist",
                    _ints_literal([1, 1, *range(2, 398), 398, 398]),
                ],
                id="realize --format arclist near-transitive-400",
            ),
            pytest.param(
                ["trace", "--format", "json", str(transitive_sequence(200))],
                id="trace --format json Tr_200",
            ),
        ],
        ids=" ".join,
    )
    def test_command_runs_without_numpy(self, runner, tmp_path, monkeypatch, args):
        # the fresh interpreter must also write what the in-process call
        # writes, byte for byte, with the same exit code; the batch holds a
        # valid literal and one of each violation, so it exits 1
        monkeypatch.chdir(tmp_path)
        Path("batch.txt").write_text("1,1,2,3,4,5,6,6\n-1,1,3\n2,1,0\n0,0,3\n1,1,2\n")
        expected = invoke(runner, *args)
        result = _run_probe(_NUMPY_PROBE, *args)
        assert result.returncode == expected.exit_code, result.stderr
        assert result.stdout
        assert result.stdout == expected.stdout
        assert result.stderr == expected.stderr + "numpy imported: False\n"

    def test_count_3cycles_runs_without_numpy(self):
        result = _run_probe(_LIBRARY_PROBE)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "30\n"  # max_c_value(9)
        assert result.stderr == "numpy imported: False\n"


@pytest.mark.parametrize("command", ["realize", "trace"])
def test_output_comes_before_a_later_literals_error(tmp_path, command):
    # each literal's output is flushed before the next literal is read, so on
    # one shared stream it precedes that literal's error
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0,1,2\n0,0,5\n")
    src = str(Path(landau.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(
        [sys.executable, "-m", "landau.cli", command, "--file", str(seqs)],
        env={**env, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert result.returncode == 1
    first, error = result.stdout.rsplit("\n", 2)[:2]
    assert first.endswith("2 1" if command == "realize" else "end: 1,1,1")
    assert error == "invalid sequence: prefix sum 0 < 1 at k=2"
