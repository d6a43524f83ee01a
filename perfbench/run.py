"""Repository benchmark: modular exponentiation served inline vs sharded.

Run from the repository root::

    python3 perfbench/run.py --workload rsa-f4 --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the separate traced pass that gives the per-layer
metrics (see ``layers.py``).  Every result of every run is checked against
``pow()`` and the Eq. (10) cycle model.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, the metric definitions and what is out of
scope.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Calls that must lie beyond the tail percentile.
TAIL_BEYOND = 10
#: Busy seconds per throughput window; ``*_rps`` is the median window.
WINDOW_S = 0.5


def _import_program() -> None:
    """Put the checkout's ``src`` on the path, or fail before measuring."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` at the highest percentile with 10 calls beyond.

    The value is the sample with exactly ``TAIL_BEYOND`` samples above it in
    sorted order; its percentile is the share of samples at or below it.
    When that percentile is at or below the median (20 samples or fewer)
    the sample supports no tail, and the median is returned as the 50th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def window_rates(calls: List[Tuple[float, int]]) -> List[float]:
    """Verified requests per second over windows of ``WINDOW_S`` busy time.

    ``calls`` holds ``(seconds, verified requests)`` per call, in order; a
    window closes once its calls add up to ``WINDOW_S``, and a last
    partial window is dropped unless it is the only one.
    """
    rates, busy, good = [], 0.0, 0
    for seconds, verified in calls:
        busy += seconds
        good += verified
        if busy >= WINDOW_S:
            rates.append(good / busy)
            busy, good = 0.0, 0
    if not rates:
        rates.append(good / busy)
    return rates


def measure(spec, inputs, planes, seconds, tally) -> Dict[str, Dict[str, float]]:
    """Closed loop, one client: each plane serves the same calls in turn."""
    from planes import rounds, timed_call

    order = list(planes)
    calls: Dict[str, List[Tuple[float, int]]] = {kind: [] for kind in order}
    for index, block in rounds(spec, inputs, seconds):
        for kind in order if index % 2 == 0 else order[::-1]:
            for call in block:
                elapsed, results = timed_call(planes[kind], call)
                calls[kind].append((elapsed, tally.results(call, results)))
    stats = {}
    for kind in order:
        # A failed request counts as infinite latency.
        latencies = [
            elapsed if good == spec.call_size else math.inf
            for elapsed, good in calls[kind]
        ]
        rates = window_rates(calls[kind])
        value, pct = tail(latencies)
        stats[kind] = {
            "rps": statistics.median(rates),
            "rps_windows": rates,
            "p50_ms": statistics.median(latencies) * 1e3,
            "tail_ms": value * 1e3,
            "tail_pct": pct,
            "calls": len(latencies),
        }
    return stats


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "n/a (one window)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g} / {q2:.4g} / {q3:.4g}"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the shard workers, in MiB.

    ``getrusage`` reports the largest finished child, so the workers count
    as ``SHARDS`` times that peak (an upper bound on their sum).
    """
    from workloads import SHARDS

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + SHARDS * child) / 1024.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or "unknown"


def record(spec, seed: int, inputs) -> Dict[str, object]:
    """What a reader needs to reproduce the run."""
    from repro.serving.shard import ShardMap, placement_key
    from workloads import SHARDS

    ring = ShardMap(SHARDS)
    return {
        "workload": spec.name,
        "seed": seed,
        "config": dataclasses.asdict(spec.config),
        "backend": spec.backend,
        "call_size": spec.call_size,
        "keyring_label": spec.name,
        "key_bits_and_home_shard": [
            [n.bit_length(), ring.home(placement_key(n, 0))] for n in inputs.keyring
        ],
        "cores_available": len(os.sched_getaffinity(0)),
        "shards": SHARDS,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def end_to_end(spec, inputs, seconds, tally) -> Dict[str, Tuple[float, str]]:
    from planes import close, set_up

    setups = []
    planes = {}
    try:
        for rep in range(SETUP_REPS):
            seconds_taken, planes = set_up(spec, inputs, tally)
            setups.append(seconds_taken)
            if rep < SETUP_REPS - 1:
                close(planes)
                planes = {}
        stats = measure(spec, inputs, planes, seconds, tally)
    finally:
        close(planes)
    for kind, row in stats.items():
        print(
            f"# {kind}: {row['calls']} calls; tail is p{row['tail_pct']:.2f} "
            f"of {row['calls']} calls; rps quartiles over "
            f"{len(row['rps_windows'])} windows: {quartiles(row['rps_windows'])}"
        )
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# failed_frac: {tally.failed_frac:.6f} ({tally.failed}/{tally.attempted})")
    metrics = {}
    for kind in ("inline", "shard"):
        metrics[f"{kind}_rps"] = (stats[kind]["rps"], "1/s")
        metrics[f"{kind}_p50_ms"] = (stats[kind]["p50_ms"], "ms")
        metrics[f"{kind}_tail_ms"] = (stats[kind]["tail_ms"], "ms")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["verified_frac"] = (1.0 - tally.failed_frac, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import SPECS, Tally, make_inputs

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(SPECS)}")
    spec = SPECS[args.workload]
    inputs = make_inputs(spec, args.seed)
    tally = Tally()
    if args.trace:
        from layers import traced_run

        metrics = traced_run(spec, inputs, args.seed, args.seconds, tally)
    else:
        metrics = end_to_end(spec, inputs, args.seconds, tally)
    print("# record: " + json.dumps(record(spec, args.seed, inputs), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
