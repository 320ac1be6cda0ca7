"""Benchmark entry point: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``, from the root of a checkout.

Runs the workload in a fresh interpreter (``worker.py``) and prints, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
holds the run's context (cores, load, versions, calibration time).

Set-up time is sampled ``SETUP_SAMPLES`` times per untraced run (extra
workers that only set up, plus the measuring worker) and reported as the
median.  Exits non-zero without a result when the checkout has no
``src/repro`` package, a worker fails, or time runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("compile-heavyhex", "sweep-fig20-23", "serve-mixed")
SETUP_SAMPLES = 3
#: Wall-clock budget of one benchmark run, all workers included.
DEADLINE_S = 175.0


class WorkerFailed(RuntimeError):
    pass


def reap_group(pgid: int) -> None:
    """Kill whatever is left of a worker's process group; wait (bounded)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(40):
        time.sleep(0.05)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run ``worker.py args``; returns (set-up seconds, result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    spawned = time.monotonic()
    # A session of its own, so every process the worker starts (pool
    # workers, a serve daemon) can be killed with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} ran out of time") from None
    finally:
        proc.kill()
        proc.wait()
        reap_group(proc.pid)
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    setup = next((x["setup_done"] for x in lines if "setup_done" in x), None)
    if setup is None:
        raise WorkerFailed(f"worker {args} exited {proc.returncode} before set-up")
    result = next((x for x in lines if "attempted" in x or "mismatch" in x), None)
    if proc.returncode not in (0, 1) or (result is None and args[-1] != "setup"):
        raise WorkerFailed(f"worker {args} exited {proc.returncode}")
    return setup - spawned, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = [args.workload, str(args.seed), str(args.seconds), args.trace]
    try:
        setups = []
        if args.trace == "0":
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(base + ["setup"], deadline)[0])
        setup_s, result = run_worker(base, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if "mismatch" in result:
        print(json.dumps({"mismatch": result["mismatch"]}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setups.append(setup_s)
    print(json.dumps({"context": result["context"]}))
    metrics = dict(result["metrics"])
    if args.trace == "0":
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        names = END_TO_END
    else:
        # A layer the workload does not exercise did no work there: 0.
        names = PER_LAYER
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in names.items()
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
