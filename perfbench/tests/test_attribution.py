"""Self-checks of the benchmark: its tracer adds up, and an injected
slowdown is flagged end to end and attributed to the right layer.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compile_heavyhex  # noqa: E402
import sweep_fig20_23  # noqa: E402
from harness import Tracer  # noqa: E402

from repro.scheduling import plan_cache  # noqa: E402


def bound(name: str) -> float:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def test_tracer_self_time_adds_up():
    tracer = Tracer()
    with tracer.span("runtime.execute"):
        time.sleep(0.02)
        with tracer.span("sim.trotter"):
            time.sleep(0.03)
    total = tracer.time["runtime.execute"]
    assert tracer.covered == pytest.approx(total)
    assert tracer.self_time["sim"] == pytest.approx(tracer.time["sim.trotter"])
    assert tracer.self_time["runtime"] + tracer.self_time["sim"] == pytest.approx(total)


def compile_block():
    """One compile-heavyhex block: untraced throughput, then a traced replay."""
    contexts = compile_heavyhex.setup(Tracer())
    blocks, latencies, _, failed = compile_heavyhex.measure(0, 0.0, contexts)
    assert failed == 0
    tracer = Tracer()
    compile_heavyhex.replay_traced(blocks, contexts, tracer)
    return len(latencies) / sum(latencies), tracer


def sweep_steps() -> float:
    """Trotter steps of a serial traced evaluation of the Fig. 20 cells."""
    tracer = Tracer()
    sweep_fig20_23.setup(tracer)
    replay = sweep_fig20_23.Replay(tracer)
    for cell in sweep_fig20_23.make_batch(0, 0)[:6]:
        replay.evaluate(cell)
    return tracer.counts["sim.trotter.steps"]


def test_disabled_plan_cache_is_flagged_and_attributed(monkeypatch):
    base_rate, base = compile_block()
    base_steps = sweep_steps()
    monkeypatch.setattr(plan_cache, "SuppressionPlanCache", plan_cache.NullPlanCache)
    slow_rate, slow = compile_block()
    slow_steps = sweep_steps()

    # Flagged: the end-to-end drop is beyond the benchmark's own bound.
    assert slow_rate < base_rate * (1.0 - bound("throughput_per_s"))

    # Attributed: graphs (Algorithm 1) gained the most self time, and
    # most of the added time; it ran more often.
    gained = {
        layer: slow.self_time[layer] - base.self_time[layer]
        for layer in set(base.self_time) | set(slow.self_time)
    }
    assert max(gained, key=gained.get) == "graphs"
    assert gained["graphs"] > 0.5 * sum(gained.values())
    assert (
        slow.counts["graphs.algorithm1.calls"]
        > base.counts["graphs.algorithm1.calls"]
    )
    assert slow.time["graphs.algorithm1"] > base.time["graphs.algorithm1"]

    # The sweep's simulation work is untouched.
    assert slow_steps == base_steps > 0
