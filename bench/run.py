"""Benchmark of the landau package: CLI realize, the worst case, and walk jobs.

Run from the root of a checkout:

    python3 bench/run.py --workload realize-transitive-300 --seed 7 --seconds 55 --trace 0

measures one workload in as many passes as fit in ``--seconds`` (at least
one) and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, with every time scaled to the host's reference speed
(see ``hostspeed.py``); ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead, unscaled.
Without ``--workload`` every workload runs, each in a process of its own,
and a table of all metrics is printed.

The package is imported from ``src/`` of the checkout; it is not installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("realize-random-2000", "realize-transitive-300", "walks-batch")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-interpreter imports timed after each untraced pass.
SETUP_PER_PASS = 5

#: Metric name -> unit, in the order they are printed.
END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "sequences.validate_s": "s",
    "sequences.down_trace_s": "s",
    "sequences.gr_down_trace_s": "s",
    "sequences.up_trace_s": "s",
    "sequences.down_steps": "count",
    "sequences.gr_down_steps": "count",
    "sequences.up_steps": "count",
    "sequences.us_per_step": "us",
    "tournaments.realize_s": "s",
    "tournaments.realize_jumps": "count",
    "tournaments.us_per_jump": "us",
    "tournaments.score_sequence_s": "s",
    "tournaments.strong_components_s": "s",
    "tournaments.count_3cycles_s": "s",
    "oracle.stats_s": "s",
    "oracle.sequence_count": "count",
    "trace.overhead_s": "s",
}
#: Per-layer time metric -> span name recorded around that call.
SPAN_OF = {
    "sequences.validate_s": "sequences.validate_landau",
    "sequences.down_trace_s": "sequences.down_trace",
    "sequences.gr_down_trace_s": "sequences.gr_down_trace",
    "sequences.up_trace_s": "sequences.up_trace",
    "tournaments.realize_s": "tournaments.realize",
    "tournaments.score_sequence_s": "tournaments.score_sequence",
    "tournaments.strong_components_s": "tournaments.strong_components",
    "tournaments.count_3cycles_s": "tournaments.count_3cycles",
    "oracle.stats_s": "oracle.stats",
}
WALKS = ("sequences.down_trace", "sequences.gr_down_trace", "sequences.up_trace")
STEPS = ("sequences.down_steps", "sequences.gr_down_steps", "sequences.up_steps")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the usable CPU count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        os.environ[var] = caps[var] = str(nproc)
    return caps


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def time_setup() -> list:
    """Seconds each of SETUP_PER_PASS fresh interpreters takes to import landau.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_PER_PASS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import landau.cli"], env=env, cwd=ROOT, check=True
        )
        times.append(perf_counter() - start)
    return times


def tail_percentile(samples: int) -> float:
    """99, or the highest percentile with ten samples beyond it if lower.

    Below 20 samples no percentile above the median has ten beyond it, so
    the median is the highest that can be estimated.
    """
    return max(50.0, min(99.0, 100.0 * (1 - 10 / samples)))


def layer_metrics(totals: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass from its span totals and counts."""
    def total(span):
        return totals.get(span, {}).get("total_s", 0.0)

    out = {name: total(span) for name, span in SPAN_OF.items()}
    out["cli.self_s"] = totals.get("cli", {}).get("self_s", 0.0)
    for name in ("cli.output_bytes", "tournaments.realize_jumps", "oracle.sequence_count", *STEPS):
        out[name] = counts.get(name, 0)
    steps = sum(out[name] for name in STEPS)
    jumps = out["tournaments.realize_jumps"]
    out["sequences.us_per_step"] = sum(map(total, WALKS)) / steps * 1e6 if steps else 0.0
    out["tournaments.us_per_jump"] = out["tournaments.realize_s"] / jumps * 1e6 if jumps else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, caps: dict) -> dict:
    # Imported here, after cap_threads, so that numpy sees the caps.
    import numpy as np
    from hostspeed import REFERENCE_S, HostSpeed
    from tracing import Tracer
    from workloads import REFERENCE, WORKLOADS, settle

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    check_digest = REFERENCE[name]["input"] == workload.input_digest(inputs)
    tracer = Tracer() if trace else None

    untraced, traced, layers, outputs = [], [], [], {}
    #: Per untraced pass: its import times (measured, scaled) and kernel times.
    setup_times, setup_scaled, kernel_times = [], [], []
    peak_rss_mb = None
    started = perf_counter()
    while True:
        cycle_start = perf_counter()
        use_trace = trace and len(traced) < len(untraced)
        mark = len(tracer.spans) if use_trace else 0
        # Each timed part of an untraced pass, and then its imports, sit
        # between two kernel runs, which give the host's speed at that time.
        host = None if trace else HostSpeed()
        result = workload.run_pass(inputs, tracer if use_trace else None, host)
        if host is not None:
            # A kernel run just after the imports is slowed by them, so it
            # closes only their bracket, never that of a pass.
            setup_times.append(time_setup())
            scale = host.scale()
            setup_scaled += [t * scale for t in setup_times[-1]]
            kernel_times.append(host.kernel_s)
        if result.output is not None:
            outputs.setdefault(result.digest, result.output)
            result.output = None
        if use_trace:
            traced.append(result)
            layers.append(layer_metrics(tracer.totals(mark), result.counts))
        else:
            untraced.append(result)
        if peak_rss_mb is None:
            # The first pass runs in a fresh process, as a user runs it;
            # later passes would only add allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Start another pass only if at least half of it fits in --seconds,
        # so that a run of a few long passes ends near --seconds on average.
        cycle = perf_counter() - cycle_start
        if (traced or not trace) and perf_counter() - started + cycle / 2 > seconds:
            break

    # Output checks, after timing and after the peak RSS reading.
    verdicts = {d: workload.check_output(out, inputs) for d, out in outputs.items()}
    passes = untraced + traced
    settle(passes, verdicts, REFERENCE[name]["output"] if check_digest else None)
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)
    for result in passes:
        for failure in result.failures[:5]:
            print(f"FAILED: {failure}", file=sys.stderr)

    walls = [r.wall_s for r in untraced]
    if trace:
        metrics = {
            key: statistics.median(layer[key] for layer in layers)
            for key in PER_LAYER
            if key != "trace.overhead_s"
        }
        for key, unit in PER_LAYER.items():
            if unit in ("count", "bytes"):  # equal in every pass of one input
                metrics[key] = int(metrics[key])
        metrics["trace.overhead_s"] = statistics.median(
            r.wall_s for r in traced
        ) - statistics.median(walls)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        jobs = [ms for r in untraced for ms in r.scaled_job_ms]
        metrics = {
            "wall_s": statistics.median(r.scaled_wall_s for r in untraced),
            "job_p50_ms": float(np.percentile(jobs, 50)),
            "job_p99_ms": float(np.percentile(jobs, tail_percentile(len(jobs)))),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_scaled),
        }
        units = END_TO_END

    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "thread_caps": caps,
        "passes_untraced": walls,
        "setup_untraced": setup_times,
        "kernel_s": kernel_times,
        "reference_s": REFERENCE_S,
        "passes_traced": [r.wall_s for r in traced],
        "job_samples": sum(len(r.job_ms) for r in untraced),
        "failed_frac": failed / attempted,
        "digest_checked": check_digest,
        "digests": sorted({r.digest for r in passes}),
    }
    print(json.dumps(env))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(f"{name}: failed_frac {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "landau" / "__init__.py").is_file():
        print(f"error: no landau package under {SRC}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))
    import landau

    if not Path(landau.__file__).resolve().is_relative_to(SRC):
        print(f"error: landau imported from {landau.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), caps)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
