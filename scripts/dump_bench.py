#!/usr/bin/env python3
"""Dump microbenchmark timings to ``BENCH_<n>.json`` for trend tracking.

Runs the microbenchmark suites (``benchmarks/bench_micro.py``, the
campaign cost-model-dispatch bench (uniform + skewed grids)
``benchmarks/bench_campaign.py``, the layer-walk cached-vs-uncached
bench ``benchmarks/bench_executor.py``, the scheduler-scale compile
bench ``benchmarks/bench_sched_scale.py``, and the serve daemon
warm-vs-cold bench ``benchmarks/bench_serve.py``) through
pytest-benchmark, extracts
per-benchmark statistics, and writes them (plus environment metadata) to
the first free ``BENCH_<n>.json`` in the repo root — so each snapshot
lands in a new numbered file and the trajectory is diffable.

A run restricted with ``--bench-file`` to part of the suite is written to
the first free ``BENCH_partial_<n>.json`` instead: a numbered snapshot
always holds the whole suite, so consecutive ones compare series for
series.

Usage::

    PYTHONPATH=src python scripts/dump_bench.py [--output BENCH_3.json]
    PYTHONPATH=src python scripts/dump_bench.py --bench-file benchmarks/bench_micro.py
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = (
    "benchmarks/bench_micro.py",
    "benchmarks/bench_campaign.py",
    "benchmarks/bench_executor.py",
    "benchmarks/bench_sched_scale.py",
    "benchmarks/bench_telemetry_overhead.py",
    "benchmarks/bench_serve.py",
)
NUMBERED = re.compile(r"BENCH_\d+\.json")


def next_bench_path(prefix: str = "BENCH_") -> Path:
    n = 0
    while (ROOT / f"{prefix}{n}.json").exists():
        n += 1
    return ROOT / f"{prefix}{n}.json"


def is_partial(bench_files: list[str]) -> bool:
    """Whether ``bench_files`` leaves out part of the fixed suite."""
    chosen = {(ROOT / path).resolve() for path in bench_files}
    return not {(ROOT / path).resolve() for path in SUITE} <= chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--bench-file",
        action="append",
        default=None,
        help="benchmark module(s) to run; repeatable (default: the whole "
        "suite); a partial run writes BENCH_partial_<n>.json",
    )
    args = parser.parse_args(argv)
    bench_files = args.bench_file or list(SUITE)
    partial = is_partial(bench_files)
    if partial and args.output and NUMBERED.fullmatch(args.output.name):
        parser.error(
            f"{args.output.name} is a numbered snapshot name, but "
            "--bench-file runs only part of the suite"
        )

    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *bench_files,
            "-q",
            "--benchmark-min-rounds=3",
            "--benchmark-warmup=off",
            f"--benchmark-json={raw}",
        ]
        proc = subprocess.run(cmd, cwd=ROOT)
        if proc.returncode != 0:
            print("benchmark run failed", file=sys.stderr)
            return proc.returncode
        data = json.loads(raw.read_text())

    git_rev = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    ).stdout.strip()

    summary = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": git_rev or None,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": {
            b["name"]: {
                "mean_s": b["stats"]["mean"],
                "median_s": b["stats"]["median"],
                "min_s": b["stats"]["min"],
                "stddev_s": b["stats"]["stddev"],
                "rounds": b["stats"]["rounds"],
                # Host-dependent context a benchmark chose to record —
                # e.g. the campaign bench stores its dispatch decision,
                # so a "slow" snapshot on a 1-core runner is legible.
                **(
                    {"extra_info": b["extra_info"]}
                    if b.get("extra_info")
                    else {}
                ),
            }
            for b in data.get("benchmarks", [])
        },
    }

    out = args.output or next_bench_path(
        "BENCH_partial_" if partial else "BENCH_"
    )
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {len(summary['benchmarks'])} benchmark timings to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
