"""Tests of the benchmark itself: seeded inputs and output checks.

Run from the root of the repository with ``python -m pytest bench/tests``.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from landau import (  # noqa: E402
    count_3cycles,
    down_trace,
    from_arcs,
    gr_down_trace,
    realize,
    score_sequence,
    strong_components,
    up_trace,
    validate_landau,
)
from landau import tournaments  # noqa: E402
from landau.sequences import distance, regular_sequence  # noqa: E402
import hostspeed  # noqa: E402
from run import END_TO_END, NAMES, PER_LAYER, THREAD_VARS, cap_threads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE,
    WORKLOADS,
    PassResult,
    RealizeWorkload,
    WalksWorkload,
    _call_cli,
    _sha,
    check_job,
    check_tournament_output,
    random_scores,
    settle,
)


def test_generator_reproduces_criterion_8_at_seed_7():
    # The draw written out exactly as tests/test_acceptance.py makes it.
    n = 2000
    rng = np.random.default_rng(7)
    upper = rng.random((n, n)) < 0.5
    upper = np.triu(upper, k=1)
    adj = upper | (~(upper | upper.T) & np.tri(n, n, -1, dtype=bool))
    criterion_8 = sorted(int(x) for x in adj.sum(axis=1))

    workload = WORKLOADS["realize-random-2000"]
    scores = workload.inputs(7)
    assert scores == criterion_8
    assert workload.input_digest(scores) == REFERENCE["realize-random-2000"]["input"]
    s = validate_landau(scores)
    assert distance(s, regular_sequence(n)) // 2 == 17055


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_seed_gives_the_same_inputs(name):
    workload = WORKLOADS[name]
    assert workload.inputs(11) == workload.inputs(11)
    digest = workload.input_digest(workload.inputs(7))
    assert digest == REFERENCE[name]["input"]
    if name == "realize-transitive-300":
        assert workload.inputs(11) == list(range(300))
    else:
        assert workload.inputs(11) != workload.inputs(12)


def test_walks_batch_sizes_are_uniform_over_8_to_32():
    jobs = WORKLOADS["walks-batch"].inputs(3)
    sizes = [len(scores) for scores in jobs]
    assert len(jobs) == 1000
    assert sorted(set(sizes)) == list(range(8, 33))
    assert all(sizes.count(n) == 40 for n in range(8, 33))
    assert all(validate_landau(scores).scores == tuple(scores) for scores in jobs)


def _flip_first_arc(output: bytes, fmt: str) -> bytes:
    text = output.decode()
    if fmt == "arclist":
        first, rest = text.split("\n", 1)
        i, j = first.split()
        return f"{j} {i}\n{rest}".encode()
    head, tail = text.split('"arcs": [[', 1)
    i, rest = tail.split(", ", 1)
    j, rest = rest.split("]", 1)
    return f'{head}"arcs": [[{j}, {i}]{rest}'.encode()


@pytest.mark.parametrize("fmt", ["arclist", "json"])
def test_one_flipped_arc_is_a_failed_operation(fmt):
    scores = random_scores(9, np.random.default_rng(5))
    args = ["realize", "--format", fmt, ",".join(map(str, scores))]
    output, error, _ = _call_cli(args, None)
    assert error is None
    assert check_tournament_output(fmt, output, scores) is None
    flipped = _flip_first_arc(output, fmt)
    assert flipped != output
    assert check_tournament_output(fmt, flipped, scores) is not None

    passes = [PassResult(digest=_sha(out), attempted=1) for out in (output, flipped)]
    verdicts = {_sha(out): check_tournament_output(fmt, out, scores) for out in (output, flipped)}
    settle(passes, verdicts, expected=None)
    assert [len(p.failures) for p in passes] == [0, 1]


def test_digest_mismatch_is_a_failed_operation():
    good = PassResult(digest="a" * 64, attempted=1)
    other = PassResult(digest="b" * 64, attempted=1)
    settle([good, other], {}, expected="a" * 64)
    assert (len(good.failures), len(other.failures)) == (0, 1)


def test_walks_job_check_catches_a_flipped_arc():
    scores = random_scores(10, np.random.default_rng(2))
    s = validate_landau(scores)
    t = realize(s)
    facts = (
        score_sequence(t),
        strong_components(t),
        count_3cycles(t),
        down_trace(s),
        gr_down_trace(s),
        up_trace(s),
    )
    assert check_job(scores, s, t, *facts) is None
    arcs = list(t.arcs())
    arcs[0] = arcs[0][::-1]
    bad = from_arcs(t.n, arcs)
    assert check_job(scores, s, bad, *facts) is not None


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(NAMES) == list(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_traced_pass_counts_the_jumps_realize_replays():
    workload = RealizeWorkload("small", "arclist", 40, random=True)
    scores = workload.inputs(3)
    search = tournaments._shortest_path
    result = workload.run_pass(scores, Tracer())
    assert tournaments._shortest_path is search
    jumps = distance(validate_landau(scores), regular_sequence(40)) // 2
    assert jumps > 0
    assert result.counts["tournaments.realize_jumps"] == jumps
    assert workload.check_output(result.output, scores) is None


def test_thread_caps_are_nproc_whatever_the_environment(monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    nproc = str(len(os.sched_getaffinity(0)))
    assert cap_threads() == dict.fromkeys(THREAD_VARS, nproc)
    assert all(os.environ[var] == nproc for var in THREAD_VARS)


def test_host_speed_scales_by_the_two_kernel_runs_around_a_part(monkeypatch):
    times = iter([0.5, 0.25, 0.125])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(times))
    host = hostspeed.HostSpeed()
    assert host.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.375)
    assert host.scale() == pytest.approx(hostspeed.REFERENCE_S / 0.1875)
    assert host.kernel_s == [0.5, 0.25, 0.125]


class _FixedSpeed:
    """A HostSpeed stand-in whose parts all scale by the same factor."""

    def __init__(self, factor):
        self.factor = factor
        self.calls = 0

    def scale(self):
        self.calls += 1
        return self.factor


def test_untraced_passes_scale_every_timed_part():
    workload = RealizeWorkload("small", "arclist", 12, random=True)
    host = _FixedSpeed(2.0)
    result = workload.run_pass(workload.inputs(1), None, host)
    assert host.calls == 1
    assert result.scaled_wall_s == pytest.approx(2 * result.wall_s)
    assert result.scaled_job_ms == pytest.approx([2 * ms for ms in result.job_ms])

    walks = WalksWorkload()
    walks.chunk = 2
    jobs = walks.inputs(1)[:5]
    host = _FixedSpeed(3.0)
    result = walks.run_pass(jobs, None, host)
    assert result.failures == []
    assert host.calls == 3 + 1  # chunks of 2, 2 and 1 jobs, then stats(12)
    assert result.scaled_wall_s == pytest.approx(3 * result.wall_s)
    assert result.scaled_job_ms == pytest.approx([3 * ms for ms in result.job_ms])
