"""Benchmark of ``weaktri``: run one workload through the public API for a
fixed time, check every answer, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); the library is
imported from ``src/`` beside this directory.  Each run is a fresh process,
as a command-line user pays import and table building on every invocation.

The timed phase repeats passes over the workload's ops until ``--seconds``
have elapsed, at least one pass.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics, measured with no tracing installed and scaled
to the reference host speed (see speed.py).  With ``--trace 1`` untraced and
traced passes alternate; the traced ones give the per-layer metrics and the
pair gives the tracing overhead.  The line before the result records the
machine, the pass count, the tail percentile and the raw times.

Every op whose call raises or whose answer misses its reference counts as
failed; the process then exits 1 after printing its result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# child processes timed for setup_s; their median is reported
SETUP_SAMPLES = 5


def _use_checkout_source():
    """Import ``weaktri`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "weaktri" / "__init__.py").is_file():
        print(f"error: no weaktri package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import weaktri

    if Path(weaktri.__file__).resolve().parent != SRC / "weaktri":
        print(f"error: imported weaktri from {weaktri.__file__}", file=sys.stderr)
        sys.exit(2)


# -- running passes -------------------------------------------------------------------


def run_pass(ops, speed, tracer=None):
    """Run every op once; returns (op durations, failure descriptions).
    An op's duration leaves out the probe samples taken while it ran."""
    durations, failures = [], []
    for op in ops:
        start = time.perf_counter()
        spent = speed.spent
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span(op.name):
                    out = op.run()
            durations.append(time.perf_counter() - start - (speed.spent - spent))
            problem = op.check(out)
        except Exception:
            durations.append(time.perf_counter() - start - (speed.spent - spent))
            problem = "raised:\n" + traceback.format_exc()
        if problem:
            failures.append(f"{op.name}: {problem}")
    return durations, failures


def run_passes(ops, seconds, tracer=None):
    """Passes until ``seconds`` have elapsed.  With a tracer, untraced and
    traced passes alternate, starting untraced, with at least one of each.

    The host speed is sampled at both ends of every pass and, in untraced
    passes, every half second while the ops run (see speed.py); traced
    passes skip the latter so that no sample lands inside a traced call.

    Returns a list of dicts with keys ``traced``, ``wall``, ``ops``,
    ``failures`` and ``slowdown`` (the host's slowdown during the pass).
    """
    passes = []
    speed = Speedometer()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first_sample = len(speed.samples)
        speed.sample()
        if traced:
            with tracer.installed(), tracer.traced_pass():
                durations, failures = run_pass(ops, speed, tracer)
        else:
            with speed.sampling():
                durations, failures = run_pass(ops, speed)
        speed.sample()
        passes.append({"traced": traced, "wall": sum(durations), "ops": durations,
                       "failures": failures, "slowdown": speed.slowdown(first_sample)})
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes


# -- metrics --------------------------------------------------------------------------


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; (100, max) when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def peak_rss_mb():
    """Peak resident set of this process or of any child it waited for:
    the set-up processes, and a campaign's shard workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pass_summary(passes, normalized=True):
    """Medians over passes of the pass time and of each pass's op median and
    op tail, so every pass contributes one value of fixed meaning; each is
    divided by the pass's slowdown when ``normalized``."""

    def median(value):
        return statistics.median(
            value(p) / (p["slowdown"] if normalized else 1.0) for p in passes
        )

    return {
        "wall_s": median(lambda p: p["wall"]),
        "op_p50_ms": 1000 * median(lambda p: statistics.median(p["ops"])),
        "op_tail_ms": 1000 * median(lambda p: tail(p["ops"])[1]),
    }


def end_to_end(passes, setups):
    """The end-to-end metrics at the reference host speed; ``setups`` holds
    (seconds, slowdown) pairs from time_setups."""
    summary = pass_summary(passes)
    return {
        "wall_s": {"value": summary["wall_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(s / slow for s, slow in setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "op_p50_ms": {"value": summary["op_p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": summary["op_tail_ms"], "unit": "ms"},
    }


def overhead_share(passes):
    """Traced pass time over untraced pass time, minus 1 (medians at the
    reference speed)."""
    plain = statistics.median(p["wall"] / p["slowdown"] for p in passes if not p["traced"])
    traced = statistics.median(p["wall"] / p["slowdown"] for p in passes if p["traced"])
    return traced / plain - 1


def stamp():
    """Where the numbers were measured; runs from different machines are not
    comparable."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def result_line(passes, metrics):
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- entry point ----------------------------------------------------------------------


def time_setups(workload, seed):
    """(seconds, slowdown) for fresh processes that import the library and
    build this workload's inputs: the seconds from spawn to the point where
    the inputs are built, which the child stamps with the system clock, and
    the host's slowdown, which the child samples right after on its own
    core."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE, text=True,
        )
        ready, slowdown = json.loads(child.stdout)
        setups.append((ready - spawned, slowdown))
    return setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the time and the host's slowdown, and exit")
    args = parser.parse_args(argv)

    _use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        ready = time.time()
        print(json.dumps([ready, Speedometer().sample()]))
        return 0

    setups = [] if args.trace else time_setups(args.workload, args.seed)
    ops = WORKLOADS[args.workload](args.seed)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        passes = run_passes(ops, args.seconds, tracer)
        metrics = tracer.layer_metrics(overhead_share(passes))
        dump = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "stamp": stamp(), "spans": tracer.spans}))
    else:
        passes = run_passes(ops, args.seconds)
        metrics = end_to_end(passes, setups)

    percentile, _ = tail(passes[0]["ops"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "ops_per_pass": len(ops),
        "op_tail_percentile": percentile,
        "op_tail_samples": len(ops),
        "setups": setups,
        "slowdowns": [p["slowdown"] for p in passes],
        "pass_walls": [p["wall"] for p in passes],
        "raw": pass_summary(passes, normalized=False),
        "stamp": stamp(),
    }
    print(json.dumps({"info": info}))
    result = result_line(passes, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
