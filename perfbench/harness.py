"""Shared pieces of the benchmark: statistics, tracing probes, context.

The traced run never edits the program.  It hands timing wrappers to the
public parameters the program already exposes:

- :class:`PlanCacheProbe` goes in ``zzx_schedule(plan_cache=...)`` and
  times every Algorithm-1 solve (a plan-cache miss) as ``graphs``;
- :func:`backend_probe` wraps a ``SimBackend`` for ``execute(backend=...)``;
  it times the backend's layer walk as ``runtime`` and hands the backend
  an :class:`EngineProbe` around the ``TrotterEngine`` it receives, which
  times every Trotter kernel call as ``sim``.

Every other layer is timed by a :meth:`Tracer.span` around the call into
its public function.  A span's *self time* is its duration minus that of
the spans nested in it, so layer self times add up to the covered wall.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload does not exercise reports 0 (it did no work there).
PER_LAYER = {
    "device.topology_s": "s",
    "circuits.compile_s": "s",
    "circuits.calls": "count",
    "circuits.gates_out": "count",
    "scheduling.zzx_s": "s",
    "scheduling.par_s": "s",
    "scheduling.calls": "count",
    "scheduling.layers": "count",
    "scheduling.plan_cache.hits": "count",
    "scheduling.plan_cache.misses": "count",
    "scheduling.plan_cache.hit_ratio": "ratio",
    "graphs.algorithm1_s": "s",
    "graphs.algorithm1.calls": "count",
    "pulses.build_library_s": "s",
    "pulses.calls": "count",
    "runtime.execute_s.statevector": "s",
    "runtime.execute_s.density": "s",
    "runtime.execute_s.trajectories": "s",
    "runtime.evolve_layer_s": "s",
    "runtime.evolve_layer.calls": "count",
    "runtime.apply_virtual_s": "s",
    "runtime.prop_cache.hit_ratio": "ratio",
    "sim.trotter_s": "s",
    "sim.trotter.steps": "count",
    "sim.bytes_moved_computed": "B",
    "campaigns.wall_s": "s",
    "campaigns.cell_s_sum": "s",
    "campaigns.overhead_s": "s",
    "campaigns.parallel_inflation": "ratio",
    "serve.server_s.p50": "s",
    "serve.front_s.p50": "s",
    "serve.front_s.p90": "s",
    "serve.generator_late_s.p90": "s",
    "serve.high.p50_s": "s",
    "serve.high.p90_s": "s",
    "serve.store_hit_ratio": "ratio",
    "serve.plan_cache.hit_ratio": "ratio",
    "serve.worker_respawns": "count",
    "serve.status_non200": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: Every end-to-end metric an untraced run reports, with its unit.  The
#: p90 latency rides in the run's context instead: over ten seeds its
#: interquartile range reached 0.21-0.25 of its median (Python GC pauses
#: and 2-core contention land on a few tail items), too wide to gate on.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
}


class OutputMismatch(AssertionError):
    """A program output differs from its reference (fails the run)."""


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of a sequence."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- tracing ----------------------------------------------------------------


class Tracer:
    """Span recorder keyed by ``<layer>.<what>`` names (single thread).

    ``time[name]`` is the inclusive time of every span of that name,
    ``self_time[layer]`` the layer's self time, ``counts`` plain counters
    and ``covered`` the summed duration of outermost spans.
    """

    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered = 0.0
        self._children: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self.record(name, duration, self._children.pop())

    def record(self, name: str, duration: float, child: float = 0.0) -> None:
        """Account one finished span, ``child`` seconds of it nested spans'."""
        self.time[name] += duration
        self.counts[name + ".calls"] += 1
        self.self_time[name.split(".", 1)[0]] += duration - child
        if self._children:
            self._children[-1] += duration
        else:
            self.covered += duration

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount


class NullTracer:
    """Stands in for a :class:`Tracer` in untraced passes (records nothing)."""

    @contextmanager
    def span(self, name: str):
        yield

    def add(self, name: str, amount: float = 1.0) -> None:
        pass


class PlanCacheProbe:
    """Times Algorithm-1 solves behind any plan cache ``zzx_schedule`` uses.

    Delegates to ``inner`` (whatever cache class the caller built); a
    call that raised the inner cache's miss count solved Algorithm 1 and
    is recorded as a ``graphs.algorithm1`` span.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def plan(self, *args, **kwargs):
        misses = self.inner.misses
        start = time.perf_counter()
        plan = self.inner.plan(*args, **kwargs)
        if self.inner.misses != misses:
            self.tracer.record("graphs.algorithm1", time.perf_counter() - start)
        return plan

    @property
    def stats(self) -> dict:
        return self.inner.stats


class EngineProbe:
    """Wraps the ``TrotterEngine`` a backend receives; times its kernels.

    Also counts Trotter steps and the bytes the kernels move, computed
    from the array sizes (read + write of the state per local apply,
    read of state and phase + write per diagonal multiply).
    """

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def _account(self, duration: float, drives, elements: int) -> None:
        steps = self._engine.num_steps(duration)
        applies = sum(min(len(d.step_ops), steps) for d in drives)
        self._tracer.add("sim.trotter.steps", steps)
        # 16 bytes per complex128; +1 diagonal multiply for the half step.
        moved = 16 * elements * (2 * applies + 3 * (steps + 1))
        self._tracer.add("sim.bytes_moved_computed", moved)

    def evolve_layer(self, state, duration, drives):
        self._account(duration, drives, state.size)
        with self._tracer.span("sim.trotter"):
            return self._engine.evolve_layer(state, duration, drives)

    def layer_unitary(self, duration, drives):
        self._account(duration, drives, 4**self._engine.num_qubits)
        with self._tracer.span("sim.trotter"):
            return self._engine.layer_unitary(duration, drives)


def backend_probe(inner, tracer: Tracer):
    """A ``SimBackend`` that delegates to ``inner`` and times the walk."""
    from repro.runtime.backends import SimBackend

    class BackendProbe(SimBackend):
        name = inner.name
        uses_propagator_cache = inner.uses_propagator_cache

        def validate(self, num_qubits):
            inner.validate(num_qubits)

        def initial_state(self, num_qubits):
            return inner.initial_state(num_qubits)

        def apply_virtual(self, state, op, qubits, num_qubits):
            with tracer.span("runtime.apply_virtual"):
                return inner.apply_virtual(state, op, qubits, num_qubits)

        def evolve_layer(self, state, engine, step, cache):
            with tracer.span("runtime.evolve_layer"):
                return inner.evolve_layer(
                    state, EngineProbe(engine, tracer), step, cache
                )

        def outcome(self, walk, ideal):
            return inner.outcome(walk, ideal)

        def score(self, state, ideal):
            return inner.score(state, ideal)

    return BackendProbe()


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics an in-process traced pass measured."""
    t, c = tracer.time, tracer.counts
    out = {
        "device.topology_s": t["device.topology"],
        "circuits.compile_s": t["circuits.compile"],
        "circuits.calls": c["circuits.compile.calls"],
        "circuits.gates_out": c["circuits.gates_out"],
        "scheduling.zzx_s": t["scheduling.zzx"],
        "scheduling.par_s": t["scheduling.par"],
        "scheduling.calls": c["scheduling.zzx.calls"] + c["scheduling.par.calls"],
        "scheduling.layers": c["scheduling.layers"],
        "scheduling.plan_cache.hits": c["scheduling.plan_cache.hits"],
        "scheduling.plan_cache.misses": c["scheduling.plan_cache.misses"],
        "graphs.algorithm1_s": t["graphs.algorithm1"],
        "graphs.algorithm1.calls": c["graphs.algorithm1.calls"],
        "pulses.build_library_s": t["pulses.build_library"],
        "pulses.calls": c["pulses.build_library.calls"],
        "runtime.execute_s.statevector": t["runtime.execute.statevector"],
        "runtime.execute_s.density": t["runtime.execute.density"],
        "runtime.execute_s.trajectories": t["runtime.execute.trajectories"],
        "runtime.evolve_layer_s": t["runtime.evolve_layer"],
        "runtime.evolve_layer.calls": c["runtime.evolve_layer.calls"],
        "runtime.apply_virtual_s": t["runtime.apply_virtual"],
        "runtime.prop_cache.hit_ratio": ratio(
            c["runtime.prop_cache.hits"],
            c["runtime.prop_cache.hits"] + c["runtime.prop_cache.misses"],
        ),
        "sim.trotter_s": t["sim.trotter"],
        "sim.trotter.steps": c["sim.trotter.steps"],
        "sim.bytes_moved_computed": c["sim.bytes_moved_computed"],
        "trace.unattributed_frac": ratio(wall_s - tracer.covered, wall_s),
    }
    out["scheduling.plan_cache.hit_ratio"] = ratio(
        out["scheduling.plan_cache.hits"],
        out["scheduling.plan_cache.hits"] + out["scheduling.plan_cache.misses"],
    )
    return out


def note_plan_cache(tracer: Tracer, cache) -> None:
    """Fold one plan cache's public hit/miss stats into the trace."""
    stats = cache.stats
    tracer.add("scheduling.plan_cache.hits", stats["hits"])
    tracer.add("scheduling.plan_cache.misses", stats["misses"])


# -- resources and context ---------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (from /proc), for reaping and RSS."""
    found: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found += [int(x) for x in (task / "children").read_text().split()]
        except OSError:
            continue
    return found


def calibration_s() -> float:
    """Median time of a fixed numpy kernel: machine speed, as context.

    Sort, transcendental and cumulative-sum passes run single-threaded in
    numpy, so the kernel tracks the core's speed rather than how BLAS
    threads fare against other processes.
    """
    data = np.random.default_rng(0).random(100_000)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(5):
            np.cumsum(np.exp(np.sort(data)))
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def environment() -> dict:
    """Run context (not compared): cores, load, versions, revision, speed."""
    import scipy

    rev = None
    # Only a checkout's own .git: never walk up out of the checkout.
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "env.calib_s": calibration_s(),
    }


def emit(obj: dict) -> None:
    """Print one JSON line (the worker-to-runner channel) and flush."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()
