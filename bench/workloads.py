"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one client: the next call starts only
after the previous one has returned.  Inputs are made from the seed before
any timing starts, and checks run outside the timed regions.

- ``realize-random-2000``: one in-process ``landau realize --format json``
  call on the scores of a random tournament at n=2000, drawn as acceptance
  criterion 8 draws them.  Paths in the replay are short, so the cost is
  the per-jump shortcut reads plus the JSON renderer.
- ``realize-transitive-300``: one ``landau realize --format arclist`` call
  on the transitive sequence 0..299, the worst case of the walk (n^2/8
  jumps, BFS paths up to 252 arcs).  The input does not depend on the seed.
- ``walks-batch``: 1000 jobs on small random sequences through the library
  (validation, realize, analysis, the three jump walks), then ``stats(12)``.
  The walks, not the replay, do most of the work here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from landau import cli, oracle, sequences, tournaments

from hostspeed import HostSpeed
from tracing import Tracer, patched

#: ``stats(12)`` as (sequence_count, realizable_count, max_trace_length, max_c).
STATS_12 = (14805, None, 15, 70)

#: sha256 of the input and of the output of one pass at the default seed.
#: An output digest is checked whenever the generated input matches.
REFERENCE = {
    "realize-random-2000": {
        "input": "a48bab73c6e2112998889af0e7d34f2714916c34576f9680417dc7c7760d7b32",
        "output": "054e4cfa24587c3308d43b85d23ad81298011c65ebbdc41d975a1c4b79b7a90b",
    },
    "realize-transitive-300": {
        "input": "98d7b89a470bad05fe314fd0bd8069aac7359b8b48620f341df40e4975227ef9",
        "output": "168a318d98e555c89a8492cfacf68ef2a10e41c99eef6ff1165cdcf746415081",
    },
    "walks-batch": {
        "input": "f393c0fdc84c94273b3ff958a6b2813323afab7398899986423fc316deda43e9",
        "output": "ed8b55f244f417d2a825a3e6a09858fd246a7f9ead6125fda067846966543087",
    },
}


def random_scores(n: int, rng: np.random.Generator) -> List[int]:
    """Sorted scores of a random tournament on n vertices.

    The draw is the one acceptance criterion 8 makes: each pair i < j is
    oriented i -> j with probability 1/2 from one (n, n) uniform matrix.
    """
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    adj = upper | (~(upper | upper.T) & np.tri(n, n, -1, dtype=bool))
    return sorted(int(x) for x in adj.sum(axis=1))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _traced(tracer: Tracer, fn):
    return tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)


@contextlib.contextmanager
def _counting_jumps(counts: Dict[str, int]):
    """Count the path searches ``realize`` makes: one per jump it replays.

    The private BFS helper is rebound in ``tournaments``, where ``realize``
    looks it up.  Calls are counted, not timed, and only in traced passes.
    """
    search = tournaments._shortest_path

    def counted(*args, **kwargs):
        counts["tournaments.realize_jumps"] += 1
        return search(*args, **kwargs)

    with patched(tournaments, {search: counted}):
        yield


@dataclass
class PassResult:
    """One pass: its timed wall time, per-operation times and checks."""

    wall_s: float = 0.0
    #: Latency of each job: a CLI call, or one walks-batch job.
    job_ms: List[float] = field(default_factory=list)
    #: The same times scaled to the host's reference speed (equal to the
    #: measured ones when the pass ran without a HostSpeed).
    scaled_wall_s: float = 0.0
    scaled_job_ms: List[float] = field(default_factory=list)
    #: Operations run: the jobs, plus ``stats(12)`` in walks-batch.
    attempted: int = 0
    #: One entry per failed operation.
    failures: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    #: Output bytes of a CLI pass, kept so they can be checked after timing.
    output: Optional[bytes] = None


class RealizeWorkload:
    """One ``landau realize`` call per pass, through the click group in-process."""

    def __init__(self, name: str, fmt: str, n: int, random: bool):
        self.name = name
        self.fmt = fmt
        self.n = n
        self.random = random

    def inputs(self, seed: int) -> List[int]:
        if self.random:
            return random_scores(self.n, np.random.default_rng(seed))
        return list(range(self.n))

    def input_digest(self, scores: List[int]) -> str:
        return _sha(",".join(map(str, scores)).encode())

    def run_pass(self, scores: List[int], tracer: Optional[Tracer],
                 host: Optional[HostSpeed] = None) -> PassResult:
        args = ["realize", "--format", self.fmt, ",".join(map(str, scores))]
        result = PassResult()
        counts = {"tournaments.realize_jumps": 0}
        with contextlib.ExitStack() as layers:
            if tracer is not None:
                layers.enter_context(patched(
                    cli,
                    {
                        sequences.validate_landau: _traced(tracer, sequences.validate_landau),
                        tournaments.realize: _traced(tracer, tournaments.realize),
                    },
                ))
                layers.enter_context(_counting_jumps(counts))
            output, error, elapsed = _call_cli(args, tracer)
        scale = host.scale() if host is not None else 1.0
        result.wall_s = elapsed
        result.job_ms.append(elapsed * 1e3)
        result.scaled_wall_s = elapsed * scale
        result.scaled_job_ms.append(elapsed * 1e3 * scale)
        result.attempted = 1
        if error is not None:
            result.failures.append(error)
        result.output = output
        result.digest = _sha(output)
        result.counts = {"cli.output_bytes": len(output), **counts}
        return result

    def check_output(self, output: bytes, scores: List[int]) -> Optional[str]:
        return check_tournament_output(self.fmt, output, scores)


def _call_cli(args: List[str], tracer: Optional[Tracer]):
    """Run the click group in-process; return (stdout bytes, error, seconds)."""
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), _span(tracer, "cli"):
            cli.main.main(args, prog_name="landau", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"landau exited with code {exc.code}"
    except Exception as exc:  # the call is the unit of failure; keep going
        error = f"landau raised {exc!r}"
    stdout.flush()
    elapsed = time.perf_counter() - start
    return raw.getvalue(), error, elapsed


def settle(passes: List[PassResult], verdicts: Dict[str, Optional[str]],
           expected: Optional[str]) -> None:
    """Record output-check failures on passes that have none yet.

    ``verdicts`` maps an output digest to the reason its check failed (or
    None); ``expected`` is the reference output digest, or None when the
    input is not the reference input.  Each pass gains at most one failure.
    """
    for result in passes:
        if result.failures:
            continue
        error = verdicts.get(result.digest)
        if error is None and expected is not None and result.digest != expected:
            error = f"output digest {result.digest} differs from the reference"
        if error is not None:
            result.failures.append(error)


def check_tournament_output(fmt: str, output: bytes, scores: List[int]) -> Optional[str]:
    """Rebuild the tournament from CLI output; None if vertex i scores s_i."""
    try:
        text = output.decode("utf-8")
        if fmt == "json":
            doc = json.loads(text)
            if doc["n"] != len(scores) or doc["scores"] != list(scores):
                return "json header disagrees with the input"
            arcs = [tuple(arc) for arc in doc["arcs"]]
        elif fmt == "arclist":
            arcs = [tuple(int(x) for x in line.split()) for line in text.splitlines()]
        else:
            raise ValueError(f"no check for format {fmt!r}")
        t = tournaments.from_arcs(len(scores), arcs)
    except (ValueError, KeyError, TypeError, tournaments.TournamentError) as exc:
        return f"output is not a tournament: {exc}"
    if t.scores().tolist() != list(scores):
        return "vertex scores differ from the input sequence"
    return None


class WalksWorkload:
    """1000 small library jobs, then one ``stats(12)``, per pass."""

    name = "walks-batch"
    jobs = 1000
    n_range = (8, 32)
    #: Jobs between two runs of the host-speed kernel.
    chunk = 100

    LIBRARY = (
        sequences.validate_landau,
        tournaments.realize,
        tournaments.score_sequence,
        tournaments.strong_components,
        tournaments.count_3cycles,
        sequences.down_trace,
        sequences.gr_down_trace,
        sequences.up_trace,
        oracle.stats,
    )

    def inputs(self, seed: int) -> List[List[int]]:
        # Every n in the range occurs equally often, in a seeded order, so
        # each job's n is uniform but the batch's mix of sizes is fixed.
        rng = np.random.default_rng(seed)
        lo, hi = self.n_range
        sizes = np.repeat(np.arange(lo, hi + 1), self.jobs // (hi - lo + 1))
        return [random_scores(int(n), rng) for n in rng.permutation(sizes)]

    def input_digest(self, jobs: List[List[int]]) -> str:
        return _sha(repr(jobs).encode())

    def run_pass(self, jobs: List[List[int]], tracer: Optional[Tracer],
                 host: Optional[HostSpeed] = None) -> PassResult:
        lib = SimpleNamespace(**{fn.__name__: fn for fn in self.LIBRARY})
        if tracer is not None:
            lib = SimpleNamespace(
                **{fn.__name__: _traced(tracer, fn) for fn in self.LIBRARY}
            )
        result = PassResult()
        counts = dict.fromkeys(
            (
                "sequences.down_steps",
                "sequences.gr_down_steps",
                "sequences.up_steps",
                "tournaments.realize_jumps",
            ),
            0,
        )
        digest = hashlib.sha256()
        with contextlib.ExitStack() as layers:
            if tracer is not None:
                layers.enter_context(_counting_jumps(counts))
            for index, raw in enumerate(jobs):
                if index and index % self.chunk == 0:
                    self._scale_chunk(result, host)
                start = time.perf_counter()
                try:
                    with _span(tracer, "job"):
                        s = lib.validate_landau(raw)
                        t = lib.realize(s)
                        facts = (
                            lib.score_sequence(t),
                            lib.strong_components(t),
                            lib.count_3cycles(t),
                            lib.down_trace(s),
                            lib.gr_down_trace(s),
                            lib.up_trace(s),
                        )
                except Exception as exc:  # the job is the unit of failure
                    result.job_ms.append((time.perf_counter() - start) * 1e3)
                    result.failures.append(f"job {raw} raised {exc!r}")
                    continue
                result.job_ms.append((time.perf_counter() - start) * 1e3)
                error = check_job(raw, s, t, *facts)
                if error is not None:
                    result.failures.append(f"job {raw}: {error}")
                    continue
                _, comps, c3, down, gr, up = facts
                counts["sequences.down_steps"] += len(down)
                counts["sequences.gr_down_steps"] += len(gr)
                counts["sequences.up_steps"] += len(up)
                digest.update(np.packbits(t.adjacency).tobytes())
                digest.update(
                    repr(
                        (
                            comps.components,
                            c3,
                            [(st.low, st.high) for st in down.steps],
                            [(st.low, st.high) for st in gr.steps],
                            [(st.low, st.high) for st in up.steps],
                        )
                    ).encode()
                )
                del s, t, facts, comps, down, gr, up
        self._scale_chunk(result, host)

        start = time.perf_counter()
        try:
            st = lib.stats(12)
            error = None
        except Exception as exc:
            st, error = None, f"stats(12) raised {exc!r}"
        stats_s = time.perf_counter() - start
        stats_scale = host.scale() if host is not None else 1.0
        if st is not None:
            got = (st.sequence_count, st.realizable_count, st.max_trace_length, st.max_c)
            if got != STATS_12:
                error = f"stats(12) gave {got}, expected {STATS_12}"
            counts["oracle.sequence_count"] = st.sequence_count
            digest.update(repr(got).encode())
        if error is not None:
            result.failures.append(error)
        result.wall_s = sum(result.job_ms) / 1e3 + stats_s
        result.scaled_wall_s = sum(result.scaled_job_ms) / 1e3 + stats_s * stats_scale
        result.attempted = len(jobs) + 1
        result.counts = counts
        result.digest = digest.hexdigest()
        return result

    @staticmethod
    def _scale_chunk(result: PassResult, host: Optional[HostSpeed]) -> None:
        """Scale the jobs timed since the last call by the host's speed."""
        scale = host.scale() if host is not None else 1.0
        done = len(result.scaled_job_ms)
        result.scaled_job_ms += [ms * scale for ms in result.job_ms[done:]]


def check_job(raw, s, t, ss, comps, c3, down, gr, up) -> Optional[str]:
    """Check one walks-batch job against the certified identities."""
    if not isinstance(s, sequences.LandauSequence) or list(s.scores) != list(raw):
        return "validate_landau rejected a tournament score sequence"
    n = s.n
    if t.scores().tolist() != list(s.scores) or ss != s:
        return "realized tournament has the wrong scores"
    c = sequences.c_value(s)
    if not c3 == c == len(up):
        return f"3-cycles {c3}, c(S) {c}, up steps {len(up)} disagree"
    if 2 * len(down) != sequences.distance(s, sequences.regular_sequence(n)):
        return "down trace length is not d(R,S)/2"
    if 2 * len(gr) != sequences.distance(sequences.transitive_sequence(n), s):
        return "gr-down trace length is not d(Tr,S)/2"
    if (len(comps.components) == 1) != sequences.validate_strong_landau(s):
        return "strong components disagree with the strict prefix-sum test"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        RealizeWorkload("realize-random-2000", "json", 2000, random=True),
        RealizeWorkload("realize-transitive-300", "arclist", 300, random=False),
        WalksWorkload(),
    )
}
