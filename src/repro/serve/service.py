"""The serve daemon's request engine: warm caches + thread-safe handlers.

One :class:`CompileService` serves compile and simulate requests on the
process's warm caches, every shared one a :class:`~repro.cache.Memo`:

- the process's one plan cache,
  :data:`~repro.scheduling.plan_cache.SHARED_PLAN_CACHE`, re-bounded to
  the daemon's ``--plan-cache-size`` — compile requests and the
  schedules of simulate requests both plan through it, so ``/stats``
  counts every Algorithm-1 solve the process makes;
- the pulse-library cache (via the campaign runner's per-process
  ``cached_library``, which itself sits on the warm pulse-cache file);
- a memo of :class:`~repro.runtime.backends.LayerPropagatorCache`
  instances keyed by ``(method, device, T1, T2)`` for density simulate
  requests — *keyed* instances, because a propagator cache must not
  outlive one (library, device couplings, noise) validity domain.

Each serve worker process runs one service; with ``--serve-workers 0``
the daemon process runs it on its dispatcher thread while the event
loop reads :meth:`CompileService.stats`, so the request counters stay
lock-guarded.  The service never touches a
:class:`~repro.campaigns.store.ResultStore`: a simulate response carries
its supervised outcome under :data:`OUTCOME_KEY`, and the daemon parent
— the store's only reader and writer — persists and strips it.

Results are bit-identical to one-shot CLI runs: compile responses digest
the same schedule a fresh ``repro sched-bench`` process would emit,
simulate responses reuse the exact campaign evaluation path (same store
records).
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache

from repro.cache import Memo
from repro.campaigns.fingerprint import library_fingerprint
from repro.campaigns.runner import (
    WARM_MEMO_SIZE,
    cached_topology,
    supervised_evaluate,
)
from repro.campaigns.spec import DEFAULT_POLICY, Cell, RetryPolicy, cell_key
from repro.runtime.backends import LayerPropagatorCache
from repro.scheduling.plan_cache import SHARED_PLAN_CACHE
from repro.scheduling.requirement import SuppressionRequirement
from repro.scheduling.scalebench import bench_circuit
from repro.scheduling.zzxsched import zzx_schedule
from repro.serve.protocol import (
    CompileRequest,
    SimulateRequest,
    schedule_digest,
)
from repro.telemetry import counter, span
from repro.verify.generators import scale_topology

#: Default bound on the suppression-plan cache (entries, FIFO-evicted).
DEFAULT_PLAN_CACHE_SIZE = 4096

#: Bound on each layer-propagator cache (FIFO): the drive list and the
#: unitary of 512 distinct layers.
PROP_CACHE_SIZE = 1024

#: Response field holding a simulate request's
#: :class:`~repro.campaigns.runner.CellOutcome` for the daemon to persist;
#: never part of what a client receives.
OUTCOME_KEY = "outcome"


def stored_response(record: dict) -> dict:
    """The simulate response answering from a stored ``ok`` record."""
    return {
        "status": "ok",
        "kind": "simulate",
        "key": record["key"],
        "result": record["result"],
        "elapsed_s": 0.0,
        "cached": True,
    }


@lru_cache(maxsize=WARM_MEMO_SIZE)
def _scale_context(device: str):
    """(topology, requirement) for a scale-device name, built once.

    Also pre-warms the topology's one-time structures (distance matrix,
    planar dual) so the first compile request doesn't pay for them — the
    same split ``sched-bench`` uses, keeping serve latencies comparable.
    """
    topology = scale_topology(device)
    requirement = SuppressionRequirement.from_topology(topology)
    topology.distance_matrix
    topology.dual_simple
    return topology, requirement


@lru_cache(maxsize=WARM_MEMO_SIZE)
def _scale_circuit(device: str, circuit: str, seed: int):
    topology, _ = _scale_context(device)
    return bench_circuit(topology, circuit, seed=seed)


class CompileService:
    """Thread-safe request engine behind the ``repro serve`` daemon."""

    def __init__(
        self,
        *,
        plan_cache_size: int | None = DEFAULT_PLAN_CACHE_SIZE,
        policy: RetryPolicy | None = None,
    ):
        SHARED_PLAN_CACHE.resize(plan_cache_size)
        self.plan_cache = SHARED_PLAN_CACHE
        self._prop_caches = Memo("serve.prop_caches")
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._fingerprint = library_fingerprint()
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0

    # -- batching support ---------------------------------------------------

    def batch_key(self, request) -> str:
        """The topology fingerprint a request compiles/simulates against.

        Requests sharing a key can share one Algorithm-1 plan, so the
        daemon coalesces them into one batch.  Cached after the first
        resolution per device, so this is cheap on the event loop.
        """
        if isinstance(request, CompileRequest):
            topology, _ = _scale_context(request.device)
            return topology.fingerprint
        device = request.cell.device
        return cached_topology(
            device.family, device.rows, device.cols
        ).fingerprint

    # -- request handlers ---------------------------------------------------

    def handle(self, request) -> dict:
        """Serve one request; never raises — errors become responses."""
        with self._lock:
            self.requests += 1
        counter("serve.requests")
        with span("serve.request", group=request.kind):
            try:
                if isinstance(request, CompileRequest):
                    response = self._handle_compile(request)
                elif isinstance(request, SimulateRequest):
                    response = self._handle_simulate(request)
                else:  # pragma: no cover - parse_request prevents this
                    raise TypeError(f"unknown request type {type(request)!r}")
            except Exception as exc:
                with self._lock:
                    self.errors += 1
                counter("serve.errors")
                return {
                    "status": "error",
                    "kind": request.kind,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
        if response.get("status") != "ok":
            with self._lock:
                self.errors += 1
            counter("serve.errors")
        return response

    def _handle_compile(self, request: CompileRequest) -> dict:
        topology, requirement = _scale_context(request.device)
        circuit = _scale_circuit(request.device, request.circuit, request.seed)
        t0 = time.perf_counter()
        with span("serve.compile", group=f"{request.device}/{request.circuit}"):
            schedule = zzx_schedule(
                circuit, topology, requirement, None, self.plan_cache
            )
        return {
            "status": "ok",
            "kind": "compile",
            "device": request.device,
            "circuit": request.circuit,
            "seed": request.seed,
            "num_qubits": topology.num_qubits,
            "num_gates": len(circuit.gates),
            "num_layers": schedule.num_layers,
            "digest": schedule_digest(schedule),
            "elapsed_s": time.perf_counter() - t0,
        }

    def _prop_cache_for(self, cell: Cell) -> LayerPropagatorCache | None:
        """The shared propagator cache of this cell's validity domain.

        Keyed by (pulse method, device spec, T1, T2) — exactly the
        (library, device couplings, noise) combination a
        ``LayerPropagatorCache`` may serve — so sharing across requests
        can never cross domains.  Only density-backend cells get one;
        the statevector walk is faster without (per-backend policy).
        """
        if cell.backend != "density":
            return None
        return self._prop_caches.get(
            (cell.method, cell.device, cell.t1_us, cell.t2_us),
            lambda: LayerPropagatorCache(PROP_CACHE_SIZE),
        )

    def _handle_simulate(self, request: SimulateRequest) -> dict:
        cell = request.cell
        outcome = supervised_evaluate(
            cell, self.policy, prop_cache=self._prop_cache_for(cell)
        )
        response = {
            "status": "ok" if outcome.ok else "error",
            "kind": "simulate",
            "key": cell_key(cell, self._fingerprint),
            "elapsed_s": outcome.elapsed_s,
            OUTCOME_KEY: outcome,
        }
        if outcome.ok:
            response.update(result=outcome.result, cached=False)
        else:
            response["error"] = outcome.error
        return response

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able cache/request statistics for the /stats endpoint."""
        caches = [cache for _, cache in self._prop_caches.export()]
        with self._lock:
            stats = {"requests": self.requests, "errors": self.errors}
        stats["plan_cache"] = self.plan_cache.stats
        stats["prop_caches"] = {
            "instances": len(caches),
            "hits": sum(cache.hits for cache in caches),
            "misses": sum(cache.misses for cache in caches),
            "evictions": sum(cache.evictions for cache in caches),
        }
        return stats
