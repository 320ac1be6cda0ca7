"""Workload ``sweep-fig20-23``: campaigns over the paper's fidelity grids.

Runs ``campaigns.run_campaign(cells, <file store in a fresh directory>,
workers=2)``, the way ``repro sweep --workers 2 --store`` runs it.  The
runtime layer walk and the Trotter kernels (``runtime``, ``sim``) do
about 95% of the work; ``campaigns`` adds dispatch, the process pool and
store writes.  Scheduling is a few percent, and pulse libraries load in
set-up.

Each campaign is one batch of 20 cells with a fixed mix:

- 6 statevector cells on the 12-qubit paper grid: QAOA-4 and Ising-4
  under gau+par, optctrl+zzx and pert+zzx (Fig. 20);
- 5 more such cells on another crosstalk sample of the grid: QAOA-4 and
  Ising-4 under gau+par and pert+zzx, and QAOA-4 under optctrl+zzx;
- 4 density cells on the 2x3 grid: QAOA-6 under gau+par and pert+zzx
  at two T1 = T2 values (Fig. 23);
- 5 trajectories cells (3 samples each): QAOA-6 pert+zzx on the 2x3
  grid, one per crosstalk sample.

In a 2-worker campaign these take about 0.2 s (gau+par statevector),
1-1.5 s (ZZXSched statevector), 1.3-1.8 s (density) and 2 s
(trajectories), so the per-cell p50 falls in the middle of the ZZXSched
statevector band and p90 in the middle of the trajectories band, not on
the edge between two kinds of cell.
Batch 0 holds the golden cells: device seed 7 and T1 = 100 and 500 us,
the cells pinned in ``verify/data/golden.json``.  Every other crosstalk
sample (device seed) and T1 value is drawn from the workload seed, which
changes the numbers but not the amount of work.  A run makes
``round(seconds / BATCH_S)`` campaigns (at least one), about ``seconds``
of work on a 2-core reference box.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import replace

import numpy as np

from harness import (
    ROOT,
    NullTracer,
    OutputMismatch,
    PlanCacheProbe,
    Tracer,
    backend_probe,
    layer_metrics,
    note_plan_cache,
    percentile,
    ratio,
)

METHODS = ("gaussian", "optctrl", "pert")
FIG20_CONFIGS = ("gau+par", "optctrl+zzx", "pert+zzx")
FIG23_CONFIGS = ("gau+par", "pert+zzx")
T1_CHOICES_US = (100.0, 200.0, 500.0, 1000.0)
TRAJECTORIES = 3
TRAJECTORY_CELLS = 5
WORKERS = 2
#: Nominal seconds one batch's campaign takes on the reference box.
BATCH_S = 9.0
#: Cells of batch 0 replayed untraced and traced to measure the overhead.
OVERHEAD_CELLS = 6


def setup(tracer: Tracer) -> None:
    """Load the pulse libraries into the runner's per-process cache.

    Forked pool workers inherit them, as in a ``repro sweep`` process.
    """
    from repro.campaigns import runner

    for method in METHODS:
        with tracer.span("pulses.build_library"):
            runner.cached_library(method)


def make_batch(seed: int, index: int) -> list:
    from repro.campaigns.spec import FIG23_DEVICE, PAPER_DEVICE, Cell

    rng = np.random.default_rng([seed, index])
    extra_seed = int(rng.integers(100, 10_000))
    if index == 0:
        grid_seeds, small_seeds, t1s = (7, 7), (7, 7), (100.0, 500.0)
    else:
        grid_seeds = tuple(int(s) for s in rng.integers(100, 10_000, 2))
        small_seeds = tuple(int(s) for s in rng.integers(100, 10_000, 2))
        t1s = tuple(float(t) for t in rng.choice(T1_CHOICES_US, 2, replace=False))
    cells = []
    for benchmark, device_seed in zip(("QAOA", "Ising"), grid_seeds):
        device = replace(PAPER_DEVICE, seed=device_seed)
        cells += [Cell(benchmark, 4, config, device=device) for config in FIG20_CONFIGS]
    extra = replace(PAPER_DEVICE, seed=extra_seed)
    cells += [
        Cell(benchmark, 4, config, device=extra)
        for benchmark in ("QAOA", "Ising")
        for config in ("gau+par", "pert+zzx")
    ]
    cells.append(Cell("QAOA", 4, "optctrl+zzx", device=extra))
    for t1, device_seed in zip(t1s, small_seeds):
        device = replace(FIG23_DEVICE, seed=device_seed)
        cells += [
            Cell("QAOA", 6, config, kind="density", device=device, t1_us=t1, t2_us=t1)
            for config in FIG23_CONFIGS
        ]
    for device_seed in rng.integers(100, 10_000, TRAJECTORY_CELLS):
        cells.append(
            Cell(
                "QAOA", 6, "pert+zzx", backend="trajectories",
                device=replace(FIG23_DEVICE, seed=int(device_seed)),
                t1_us=t1s[0], t2_us=t1s[0], trajectories=TRAJECTORIES,
            )
        )
    return cells


def run_batch(cells):
    """One campaign into a file store in a fresh directory (untraced)."""
    from repro.campaigns.runner import run_campaign
    from repro.campaigns.store import ResultStore

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="sweep-", dir=scratch)
    try:
        store = ResultStore(f"{directory}/store.jsonl")
        return run_campaign(cells, store, workers=WORKERS)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def golden_failures(result) -> int:
    """Batch-0 cells that miss their ``golden.json`` value (close tier)."""
    from repro.campaigns.spec import FIG23_DEVICE, PAPER_DEVICE, Cell
    from repro.verify.golden import CLOSE_TOL, load_fixtures

    entries = load_fixtures()["entries"]
    if not entries["fig20"]["tier"] == entries["fig23"]["tier"] == "close":
        raise OutputMismatch("fig20/fig23 goldens are no longer 'close'-tier")

    def off(stored: float, fresh: float) -> bool:
        return abs(stored - fresh) > CLOSE_TOL * max(1.0, abs(stored), abs(fresh))

    failed = 0
    for key, value in entries["fig20"]["values"].items():
        label, config = key.split("/")
        if config == "improvement":
            continue
        benchmark, size = label.split("-")
        cell = Cell(benchmark, int(size), config, device=PAPER_DEVICE)
        got = result[cell]["fidelity"]
        failed += off(value, got)
    for key, value in entries["fig23"]["values"].items():
        _, t1_text, config = key.split("/")
        if config == "improvement":
            continue
        t1 = float(t1_text.removeprefix("t1=").removesuffix("us"))
        cell = Cell(
            "QAOA", 6, config, kind="density", device=FIG23_DEVICE,
            t1_us=t1, t2_us=t1,
        )
        got = result[cell]["fidelity"]
        failed += off(value, got)
    return failed


def measure(seed: int, seconds: float):
    batches = [make_batch(seed, i) for i in range(max(1, round(seconds / BATCH_S)))]
    return batches, [run_batch(cells) for cells in batches]


class Replay:
    """Evaluates cells serially, the way ``evaluate_cell`` does.

    Memoizes topologies, devices, compiled circuits and schedules per
    process like the runner's warm caches, so it does the same work.
    """

    def __init__(self, tracer: Tracer | None):
        from repro.scheduling import plan_cache

        self.traced = tracer is not None
        self.tracer = tracer if self.traced else NullTracer()
        self.plan_cache = plan_cache.SuppressionPlanCache()
        if self.traced:
            self.plan_cache = PlanCacheProbe(self.plan_cache, tracer)
        self.topologies, self.devices, self.compiled, self.schedules = {}, {}, {}, {}

    def topology(self, spec):
        shape = (spec.family, spec.rows, spec.cols)
        if shape not in self.topologies:
            with self.tracer.span("device.topology"):
                self.topologies[shape] = spec.topology()
        return self.topologies[shape]

    def device(self, spec):
        from repro.device.device import make_device

        if spec not in self.devices:
            topology = self.topology(spec)
            with self.tracer.span("device.topology"):
                self.devices[spec] = make_device(
                    topology, mean_khz=spec.mean_khz, std_khz=spec.std_khz,
                    seed=spec.seed,
                )
        return self.devices[spec]

    def schedule(self, cell):
        from repro.circuits.compile import compile_circuit
        from repro.circuits.library import BENCHMARKS
        from repro.scheduling.parsched import par_schedule
        from repro.scheduling.zzxsched import ZZXConfig, zzx_schedule

        tracer = self.tracer
        spec = cell.device
        source = (cell.benchmark, cell.num_qubits, cell.circuit_seed,
                  spec.family, spec.rows, spec.cols)
        topology = self.topology(spec)
        if source not in self.compiled:
            logical = BENCHMARKS[cell.benchmark](cell.num_qubits, seed=cell.circuit_seed)
            with tracer.span("circuits.compile"):
                self.compiled[source] = compile_circuit(logical, topology)
            tracer.add("circuits.gates_out", len(self.compiled[source].circuit.gates))
        key = source + (cell.scheduler, cell.zzx)
        if key not in self.schedules:
            circuit = self.compiled[source].circuit
            if cell.scheduler == "par":
                with tracer.span("scheduling.par"):
                    schedule = par_schedule(circuit)
            else:
                config = ZZXConfig(**dict(cell.zzx)) if cell.zzx else None
                with tracer.span("scheduling.zzx"):
                    schedule = zzx_schedule(
                        circuit, topology, config=config, plan_cache=self.plan_cache
                    )
            tracer.add("scheduling.layers", schedule.num_layers)
            self.schedules[key] = schedule
        return self.schedules[key]

    def evaluate(self, cell) -> dict:
        from repro.campaigns.runner import cached_library
        from repro.runtime.backends import LayerPropagatorCache, resolve_backend
        from repro.runtime.executor import execute
        from repro.sim.density import DecoherenceModel
        from repro.units import US

        tracer = self.tracer
        schedule = self.schedule(cell)
        device = self.device(cell.device)
        library = cached_library(cell.method)
        decoherence = None
        if cell.t1_us is not None:
            decoherence = DecoherenceModel(t1_ns=cell.t1_us * US, t2_ns=cell.t2_us * US)
        inner = resolve_backend(
            cell.backend, decoherence=decoherence,
            num_trajectories=cell.trajectories,
        )
        # The same cache policy as execute(cache=True), with a cache we
        # can read the hit counts of.
        cache = LayerPropagatorCache() if inner.uses_propagator_cache else False
        backend = backend_probe(inner, tracer) if self.traced else inner
        with tracer.span(f"runtime.execute.{cell.backend}"):
            out = execute(schedule, device, library, backend, cache=cache)
        if cache:
            tracer.add("runtime.prop_cache.hits", cache.hits)
            tracer.add("runtime.prop_cache.misses", cache.misses)
        record = {
            "fidelity": out.fidelity,
            "execution_time_ns": out.execution_time_ns,
            "num_layers": out.num_layers,
        }
        if out.stderr is not None:
            record["stderr"] = out.stderr
            record["num_trajectories"] = out.num_trajectories
        return record


def replay(batches, results, tracer: Tracer | None) -> float:
    """Evaluate ``batches`` serially; every record must match the campaign's.

    Returns the summed cell time.
    """
    replayer = Replay(tracer)
    cell_s = 0.0
    for cells, result in zip(batches, results):
        for cell in cells:
            t0 = time.perf_counter()
            record = replayer.evaluate(cell)
            cell_s += time.perf_counter() - t0
            if record != result[cell]:
                raise OutputMismatch(
                    f"serial replay of {cell.label}/{cell.config} gave {record}, "
                    f"the campaign {result[cell]}"
                )
    if tracer is not None:
        note_plan_cache(tracer, replayer.plan_cache)
    return cell_s


def run(seed: int, seconds: float, trace: bool, contexts, tracer: Tracer) -> dict:
    batches, results = measure(seed, seconds)
    failed = sum(result.failed for result in results)
    failed += golden_failures(results[0])
    cell_times = [r.get("elapsed_s") or 0.0 for res in results for r in res.records]
    wall = sum(result.elapsed_s for result in results)
    out = {"attempted": len(cell_times), "failed": failed}
    if not trace:
        out["metrics"] = {
            "throughput_per_s": len(cell_times) / wall,
            "latency_p50_s": percentile(cell_times, 0.50),
        }
        out["context"] = {
            "latency_p90_s": percentile(cell_times, 0.90),
            "dispatch": sorted({r.dispatch for r in results}),
        }
        return out
    setup_s = tracer.covered
    # Tracing overhead: the first cells serially, untraced then traced.
    first = [batches[0][:OVERHEAD_CELLS]]
    plain_s = replay(first, results[:1], None)
    probed_s = replay(first, results[:1], Tracer())
    start = time.perf_counter()
    cell_s = replay(batches, results, tracer)
    traced_wall = time.perf_counter() - start
    metrics = layer_metrics(tracer, setup_s + traced_wall)
    untraced_cell_s = sum(result.cell_seconds for result in results)
    metrics.update(
        {
            "campaigns.wall_s": wall,
            "campaigns.cell_s_sum": untraced_cell_s,
            "campaigns.overhead_s": sum(result.overhead_s for result in results),
            "campaigns.parallel_inflation": ratio(untraced_cell_s, cell_s),
            "trace.overhead_frac": ratio(probed_s - plain_s, plain_s),
        }
    )
    out["metrics"] = metrics
    return out
