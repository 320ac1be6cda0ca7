"""Compilation-as-a-service: the ``repro serve`` daemon and its clients.

A long-lived asyncio process serves concurrent compile/simulate requests
over a local HTTP/JSON protocol with keep-alive connections.  Batches run
on ``--serve-workers`` fork-warm worker processes
(:class:`~repro.serve.procpool.ProcessWorkerPool`); with
``--serve-workers 0`` the daemon process runs them itself.  Either way
each serving process keeps its warm caches hot: its one plan cache
(:data:`~repro.scheduling.plan_cache.SHARED_PLAN_CACHE`, bounded by
``--plan-cache-size``), the pulse library cache, and per-(library,
device, noise) :class:`~repro.runtime.backends.LayerPropagatorCache`
instances — the plan and propagator caches are all
:class:`~repro.cache.Memo` instances.  The daemon process alone reads
and writes the campaign :class:`~repro.campaigns.store.ResultStore` that
answers repeat simulate requests — see EXPERIMENTS.md "Serving
compiles".
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ReproServer, ServeConfig, run_server
from repro.serve.procpool import ProcessWorkerPool
from repro.serve.protocol import (
    CompileRequest,
    ProtocolError,
    SimulateRequest,
    parse_request,
    schedule_digest,
)
from repro.serve.service import CompileService

__all__ = [
    "CompileRequest",
    "CompileService",
    "ProcessWorkerPool",
    "ProtocolError",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SimulateRequest",
    "parse_request",
    "run_server",
    "schedule_digest",
]
