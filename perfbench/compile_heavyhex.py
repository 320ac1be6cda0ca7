"""Workload ``compile-heavyhex``: a closed-loop stream of distinct compiles.

One thread compiles device-native circuits back to back, each through
``circuits.compile_circuit(layout="trivial")`` and then
``scheduling.zzx_schedule`` with one plan cache for the whole process,
the way a user scripting many compiles runs them.  Scheduling and its
Algorithm-1 solves (``graphs``) do almost all the work here.

The stream is made of blocks with a fixed mix, chosen so that p50 and
p90 each fall inside a band of circuits of similar cost rather than on
the edge between two bands (falcon-23 / hummingbird-65 / eagle-127):

====================  =====  ======================================
circuit               count  role
====================  =====  ======================================
falcon qaoa             15   cheap (~15 ms)
hummingbird qaoa        20   p50 band (~50 ms)
falcon qv                6   (~90 ms)
eagle qaoa               6   p90 band (~130 ms, warm plans)
hummingbird qv           1   tail (cold QV plans, ~0.9 s)
eagle qv                 1   tail (cold QV plans, ~3.5 s)
====================  =====  ======================================

The two QV tail circuits of block ``b`` always use generator seed ``b``
(block 0's eagle QV is the ``sched-scale`` golden): they dominate the
block's cost, so fixing them keeps runs with different seeds comparable.
The seed draws every other circuit's generator seed and the order within
each block.  A run compiles ``round(seconds / BLOCK_S)`` blocks (at least
one), about ``seconds`` of work on a 2-core reference box: the plan cache
warms from block to block, so a fixed amount of work, not a fixed time,
keeps runs comparable.  Osprey is left out: one cold osprey QV compile
takes about 96 s.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    OutputMismatch,
    PlanCacheProbe,
    Tracer,
    layer_metrics,
    note_plan_cache,
    percentile,
    ratio,
)

DEVICES = ("falcon", "hummingbird", "eagle")

BLOCK = (
    ("falcon", "qaoa", 15),
    ("hummingbird", "qaoa", 20),
    ("falcon", "qv", 6),
    ("eagle", "qaoa", 6),
    ("hummingbird", "qv", 1),
    ("eagle", "qv", 1),
)

#: Nominal seconds one block takes on the reference box.
BLOCK_S = 7.0

#: Circuits whose generator seed is the block index, not drawn.
FIXED_SEED = {("hummingbird", "qv"), ("eagle", "qv")}


def setup(tracer: Tracer) -> dict:
    """Build each device's topology and its one-time structures."""
    from repro.scheduling.requirement import SuppressionRequirement
    from repro.verify.generators import scale_topology

    contexts = {}
    for name in DEVICES:
        with tracer.span("device.topology"):
            topology = scale_topology(name)
            requirement = SuppressionRequirement.from_topology(topology)
            topology.distance_matrix
            topology.dual_simple
        contexts[name] = (topology, requirement)
    return contexts


def make_block(seed: int, index: int, contexts: dict) -> list[tuple]:
    """Block ``index`` of the stream: (device, kind, seed, logical circuit)."""
    from repro.verify.generators import SCALE_CIRCUITS

    rng = np.random.default_rng([seed, index])
    items = []
    for device, kind, count in BLOCK:
        for _ in range(count):
            if (device, kind) in FIXED_SEED:
                circuit_seed = index
            else:
                circuit_seed = int(rng.integers(1_000, 2**31))
            logical = SCALE_CIRCUITS[kind](contexts[device][0], seed=circuit_seed)
            items.append((device, kind, circuit_seed, logical))
    return [items[i] for i in rng.permutation(len(items))]


def new_plan_cache():
    # Looked up on the module at call time, so a test can swap the class.
    from repro.scheduling import plan_cache

    return plan_cache.SuppressionPlanCache()


def compile_one(item, contexts, cache, tracer: Tracer | None):
    """Compile and schedule one stream item; returns (circuit, schedule)."""
    from repro.circuits.compile import compile_circuit
    from repro.scheduling.zzxsched import zzx_schedule

    device, _, _, logical = item
    topology, requirement = contexts[device]
    if tracer is None:
        circuit = compile_circuit(logical, topology, layout="trivial").circuit
        return circuit, zzx_schedule(circuit, topology, requirement, None, cache)
    with tracer.span("circuits.compile"):
        circuit = compile_circuit(logical, topology, layout="trivial").circuit
    tracer.add("circuits.gates_out", len(circuit.gates))
    with tracer.span("scheduling.zzx"):
        schedule = zzx_schedule(circuit, topology, requirement, None, cache)
    tracer.add("scheduling.layers", schedule.num_layers)
    return circuit, schedule


def measure(seed: int, seconds: float, contexts: dict):
    """Compile the run's blocks untraced, one plan cache throughout.

    Returns the blocks, per-circuit latencies, schedule digests and the
    number of outputs that failed their checks.  Each output is checked
    (untimed) and dropped as soon as it is made: holding every schedule
    would grow the heap, and the cyclic GC's pauses with it.  Making a
    block's inputs is not timed either.
    """
    checker = Checker(contexts)
    cache = new_plan_cache()
    blocks, latencies, digests = [], [], []
    for index in range(max(1, round(seconds / BLOCK_S))):
        block = make_block(seed, index, contexts)
        blocks.append(block)
        for item in block:
            t0 = time.perf_counter()
            circuit, schedule = compile_one(item, contexts, cache, None)
            latencies.append(time.perf_counter() - t0)
            digests.append(checker.check(item, circuit, schedule))
    return blocks, latencies, digests, checker.failed


def replay_traced(blocks, contexts, tracer: Tracer) -> tuple[list, float]:
    """The same circuits again, traced, on a fresh plan cache.

    Returns the schedule digests and the summed compile time.
    """
    from repro.serve.protocol import schedule_digest

    cache = PlanCacheProbe(new_plan_cache(), tracer)
    digests, busy = [], 0.0
    for block in blocks:
        for item in block:
            t0 = time.perf_counter()
            _, schedule = compile_one(item, contexts, cache, tracer)
            busy += time.perf_counter() - t0
            digests.append(schedule_digest(schedule))
    note_plan_cache(tracer, cache)
    return digests, busy


class Checker:
    """Oracle checks of compiled outputs; counts the ones that fail.

    Every schedule must pass ``check_legality`` and ``check_suppression``;
    eagle circuits with generator seed 0 must also match the
    ``sched-scale`` golden structure exactly.
    """

    def __init__(self, contexts: dict):
        from repro.verify.golden import load_fixtures

        self.contexts = contexts
        self.golden = load_fixtures()["entries"]["sched-scale"]["values"]
        self.failed = 0

    def check(self, item, circuit, schedule) -> str:
        """Check one output; returns its schedule digest."""
        from repro.serve.protocol import schedule_digest
        from repro.verify.oracles import check_legality, check_suppression

        device, kind, circuit_seed, _ = item
        topology, requirement = self.contexts[device]
        problems = check_legality(schedule, circuit, topology)
        problems += check_suppression(schedule, topology, requirement)
        if device == "eagle" and circuit_seed == 0:
            got = (
                len(circuit.gates),
                schedule.num_layers,
                sum(len(layer.identities) for layer in schedule.layers),
            )
            expected = tuple(
                self.golden[f"eagle/{kind}/{key}"]
                for key in ("gates", "layers", "identities")
            )
            if got != expected:
                problems.append(f"eagle/{kind} {got} != golden {expected}")
        self.failed += bool(problems)
        return schedule_digest(schedule)


def run(seed: int, seconds: float, trace: bool, contexts: dict, tracer: Tracer) -> dict:
    blocks, latencies, digests, failed = measure(seed, seconds, contexts)
    result = {"attempted": len(latencies), "failed": failed}
    busy = sum(latencies)
    if not trace:
        result["metrics"] = {
            "throughput_per_s": len(latencies) / busy,
            "latency_p50_s": percentile(latencies, 0.50),
        }
        result["context"] = {"latency_p90_s": percentile(latencies, 0.90)}
        return result
    setup_s = tracer.covered
    traced_digests, traced_busy = replay_traced(blocks, contexts, tracer)
    if traced_digests != digests:
        raise OutputMismatch("the traced replay scheduled differently")
    metrics = layer_metrics(tracer, setup_s + traced_busy)
    metrics["trace.overhead_frac"] = ratio(traced_busy - busy, busy)
    result["metrics"] = metrics
    return result
