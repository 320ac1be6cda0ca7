"""One workload in a fresh interpreter; started by ``run.py``.

Usage: ``python3 perfbench/worker.py <workload> <seed> <seconds> <trace>
[setup]`` with ``src`` on ``PYTHONPATH``.  Prints one JSON line after
set-up (``{"setup_done": <monotonic time>}``) and, unless ``setup`` was
given, one JSON line with the run's result.  The runner times set-up from
its own monotonic clock reading at spawn to ``setup_done``.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time

from harness import OutputMismatch, Tracer, emit, environment, peak_rss_mb

MODULES = {
    "compile-heavyhex": "compile_heavyhex",
    "sweep-fig20-23": "sweep_fig20_23",
    "serve-mixed": "serve_mixed",
}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[:4]
    setup_only = argv[4:] == ["setup"]
    module = importlib.import_module(MODULES[workload])
    tracer = Tracer()
    contexts = module.setup(tracer)
    emit({"setup_done": time.monotonic()})
    if setup_only:
        if hasattr(module, "teardown"):
            module.teardown(contexts)
        return 0
    try:
        result = module.run(int(seed), float(seconds), trace == "1", contexts, tracer)
    except OutputMismatch as exc:
        emit({"mismatch": str(exc)})
        return 1
    finally:
        if hasattr(module, "teardown"):
            module.teardown(contexts)
    # Pool workers are reaped by now; count the largest one per slot.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rss = result.pop("rss_mb", None)
    if rss is None:
        rss = peak_rss_mb() + getattr(module, "WORKERS", 0) * children
    context = environment()
    context.update(result.pop("context", {}))
    emit({**result, "peak_rss_mb": rss, "context": context})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
