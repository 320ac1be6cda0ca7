"""Tests for the ``repro serve`` worker pool (fork-warm processes).

The contract: ``--serve-workers`` changes *where* batches execute —
never *what* they answer.  Responses are digest-identical between the
pool, in-process serving (``workers=0``) and one-shot compiles, a killed
worker is replaced with its in-flight batch re-dispatched (zero failed
client requests), /stats aggregates across workers, and the daemon
parent alone reads and writes the result store.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro import telemetry
from repro.campaigns import ResultStore, run_campaign
from repro.campaigns.spec import Cell, DeviceSpec
from repro.campaigns.store import semantic_record
from repro.serve import (
    ProcessWorkerPool,
    ProtocolError,
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    parse_request,
)
from repro.serve.loadtest import one_shot
from repro.serve.procpool import MAX_REDISPATCH
from repro.serve.protocol import CompileRequest, SimulateRequest

DEVICE = "grid:2x3"
SIM_CELL = Cell("QAOA", 4, "pert+zzx", device=DeviceSpec(rows=2, cols=3))


def _cell_payload(**changes) -> dict:
    payload = SIM_CELL.payload()
    device = {**payload["device"], **changes.pop("device", {})}
    return {**payload, **changes, "device": device}


#: Cell payloads outside the device/simulator bounds (all constructed
#: without complaint before those bounds were checked).
OUT_OF_BOUNDS = {
    "zero-qubit-device": _cell_payload(device={"rows": 0, "cols": -1}),
    "negative-size": _cell_payload(num_qubits=-3),
    "oversized-density": _cell_payload(
        num_qubits=40,
        kind="density",
        t1_us=100.0,
        t2_us=100.0,
        device={"rows": 7, "cols": 7},
    ),
    # A small circuit, but the density register is the 12-qubit device.
    "density-on-paper-device": _cell_payload(
        kind="density", t1_us=100.0, t2_us=100.0, device={"rows": 3, "cols": 4}
    ),
}

#: Statevector/trajectories cells whose register (the whole 49-qubit
#: device) is over the simulator cap: accepted before the cap existed.
OVERSIZED_REGISTERS = {
    "oversized-statevector": _cell_payload(
        num_qubits=40, device={"rows": 7, "cols": 7}
    ),
    "oversized-trajectories": _cell_payload(
        num_qubits=40,
        backend="trajectories",
        t1_us=100.0,
        t2_us=100.0,
        device={"rows": 7, "cols": 7},
    ),
    "small-cell-oversized-device": _cell_payload(
        device={"rows": 7, "cols": 7}
    ),
}
OUT_OF_BOUNDS.update(OVERSIZED_REGISTERS)


def _serve(config: ServeConfig):
    """Start a daemon; returns (server, thread, ready client)."""
    server = ReproServer(config)
    thread = server.start_background()
    client = ServeClient(port=server.port)
    client.wait_ready()
    return server, thread, client


def _stop(server, thread, client) -> None:
    try:
        client.shutdown()
    except ServeError:
        server.request_stop()
    client.close()
    thread.join(timeout=15.0)


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def proc_daemon():
    server, thread, client = _serve(ServeConfig(port=0, workers=2))
    yield server, client
    _stop(server, thread, client)


class TestProcessBackend:
    def test_health_reports_workers(self, proc_daemon):
        _, client = proc_daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_digest_identical_to_one_shot_and_in_process(self, proc_daemon):
        """The equivalence pin across all three execution modes."""
        _, client = proc_daemon
        served = client.compile(DEVICE, "qaoa")
        assert served["status"] == "ok"
        assert served["digest"] == one_shot(DEVICE, "qaoa")["digest"]
        in_process = _serve(ServeConfig(port=0, workers=0))
        try:
            mine = in_process[2]
            assert mine.compile(DEVICE, "qaoa")["digest"] == served["digest"]
        finally:
            _stop(*in_process)

    def test_out_of_bounds_cells_are_400_without_respawn(self, proc_daemon):
        _, client = proc_daemon
        respawns = client.stats()["respawns"]
        for payload in OUT_OF_BOUNDS.values():
            with pytest.raises(ServeError) as info:
                client.request({"kind": "simulate", "cell": payload})
            assert info.value.status == 400
            assert info.value.payload["error"]["type"] == "ProtocolError"
        assert client.stats()["respawns"] == respawns

    def test_oversized_registers_are_400_without_respawn(self, proc_daemon):
        _, client = proc_daemon
        respawns = client.stats()["respawns"]
        for payload in OVERSIZED_REGISTERS.values():
            with pytest.raises(ServeError) as info:
                client.request({"kind": "simulate", "cell": payload})
            assert info.value.status == 400
            assert "capped at" in info.value.payload["error"]["message"]
        assert client.stats()["respawns"] == respawns
        assert client.health()["status"] == "ok"

    def test_mixed_compile_and_simulate_batches(self, proc_daemon):
        _, client = proc_daemon
        compiled = client.compile(DEVICE, "qv", seed=1)
        simulated = client.simulate(SIM_CELL)
        assert compiled["status"] == "ok"
        assert simulated["status"] == "ok"
        assert compiled["digest"] == one_shot(DEVICE, "qv", 1)["digest"]
        assert "fidelity" in str(simulated["result"]) or simulated["result"]

    def test_handler_failure_is_500(self, proc_daemon):
        _, client = proc_daemon
        with pytest.raises(ServeError) as info:
            client.compile("tarantula", "qaoa")
        assert info.value.status == 500
        assert info.value.payload["status"] == "error"

    def test_killed_idle_worker_is_respawned_under_load(self, proc_daemon):
        """SIGKILL one worker, then run concurrent load: zero failed
        requests, and the pool reports the respawn."""
        server, client = proc_daemon
        victim = server.procpool.pids()[0]
        os.kill(victim, signal.SIGKILL)
        digests, errors = [], []
        lock = threading.Lock()

        def body():
            mine = ServeClient(port=server.port)
            try:
                for seed in range(4):
                    response = mine.compile(DEVICE, "qaoa", seed=seed)
                    with lock:
                        digests.append(response["digest"])
            except ServeError as exc:  # pragma: no cover - must not happen
                with lock:
                    errors.append(exc)
            finally:
                mine.close()

        pool = [threading.Thread(target=body) for _ in range(2)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []
        assert len(digests) == 8
        assert server.procpool.respawns >= 1
        assert victim not in server.procpool.pids()
        # Respawn restored full capacity.
        assert len(server.procpool.pids()) == 2

    def test_stats_aggregates_across_workers(self, proc_daemon):
        _, client = proc_daemon
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["worker_processes"] == 2
        assert stats["requests"] >= 1
        assert stats["batches"] >= 1
        assert set(stats["plan_cache"]) >= {"hits", "misses", "size"}
        assert "respawns" in stats
        assert "queue_depth" in stats


class TestProcessWorkerPool:
    def test_kill_mid_batch_redispatches_and_answers_ok(self):
        """A worker SIGKILLed while computing a batch: the replacement
        re-runs it and the caller still gets a success response."""
        pool = ProcessWorkerPool(1)
        pool.start()
        box = {}
        # Several cells so the batch computes for long enough (each
        # ~0.1s; workers keep no store) that the kill below lands
        # mid-batch, not between batches.
        batch = [
            SimulateRequest(
                Cell(bench, size, "pert+zzx", device=SIM_CELL.device)
            )
            for bench in ("QAOA", "Ising")
            for size in (4, 5, 6)
        ]
        try:
            runner = threading.Thread(
                target=lambda: box.update(responses=pool.run_batch(batch))
            )
            runner.start()
            time.sleep(0.2)  # batch dispatched; evaluation takes longer
            os.kill(pool.pids()[0], signal.SIGKILL)
            runner.join(timeout=120.0)
            assert not runner.is_alive()
            assert [r["status"] for r in box["responses"]] == ["ok"] * len(batch)
            assert pool.respawns == 1
        finally:
            pool.shutdown()

    def test_batch_order_preserved(self):
        pool = ProcessWorkerPool(1)
        pool.start()
        try:
            requests = [
                CompileRequest(DEVICE, "qaoa", 0),
                CompileRequest(DEVICE, "qv", 0),
                CompileRequest(DEVICE, "qaoa", 1),
            ]
            responses = pool.run_batch(requests)
            assert [r["status"] for r in responses] == ["ok"] * 3
            assert [(r["circuit"], r["seed"]) for r in responses] == [
                ("qaoa", 0), ("qv", 0), ("qaoa", 1),
            ]
        finally:
            pool.shutdown()

    def test_redispatch_budget_is_bounded(self):
        assert MAX_REDISPATCH >= 1


@pytest.mark.parametrize("name", sorted(OUT_OF_BOUNDS))
def test_out_of_bounds_cell_payload_is_a_protocol_error(name):
    with pytest.raises(ProtocolError):
        parse_request({"kind": "simulate", "cell": OUT_OF_BOUNDS[name]})


class TestParentOwnedStore:
    """Workers compute; the daemon parent reads and writes the store."""

    def test_repeat_cell_is_stored_once_and_survives_restart(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        config = ServeConfig(port=0, workers=2, store=str(path))
        server, thread, client = _serve(config)
        try:
            first = client.simulate(SIM_CELL)
            hits = client.stats()["store_hits"]
            again = client.simulate(SIM_CELL)
            stats = client.stats()
        finally:
            _stop(server, thread, client)
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["result"] == first["result"]
        assert set(again) == set(first)
        assert stats["worker_processes"] == 2
        assert stats["store_hits"] == hits + 1
        assert stats["store"]["records"] == 1

        served = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["key"] for r in served] == [first["key"]]
        campaign_path = tmp_path / "campaign.jsonl"
        run_campaign([SIM_CELL], ResultStore(campaign_path))
        campaign = [
            json.loads(line) for line in campaign_path.read_text().splitlines()
        ]
        assert semantic_record(served[0]) == semantic_record(campaign[0])

        server, thread, client = _serve(config)
        try:
            restarted = client.simulate(SIM_CELL)
            stats = client.stats()
        finally:
            _stop(server, thread, client)
        assert restarted["cached"] is True
        assert restarted["result"] == first["result"]
        assert stats["store_hits"] == 1
        assert stats["requests"] == 0  # no worker evaluated anything
        assert len(path.read_text().splitlines()) == 1
