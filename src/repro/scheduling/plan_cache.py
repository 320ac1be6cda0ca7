"""Memoization of Algorithm 1 plans across a scheduling run.

``_two_q_schedule`` re-solves :func:`~repro.graphs.suppression.alpha_optimal_suppression`
for every candidate gate group it grows, and near-identical qubit sets
recur dozens of times per layer and across layers (the leftover pool of
one layer re-enters the next layer's ready set).  Algorithm 1 is a pure
function of ``(topology, Q, alpha, top_k)``, so its plans can be cached
without changing a single emitted schedule — the cache key uses
:attr:`~repro.device.topology.Topology.fingerprint`, which hashes the
coupling structure, so one cache instance may safely serve several
topology objects.

:class:`SuppressionPlanCache` is a :class:`~repro.cache.Memo` named
``plan_cache`` that adds only the key construction: thread safety,
exactly-once solves, the FIFO ``maxsize`` bound, export/absorb and the
counters all come from the one primitive.  :data:`SHARED_PLAN_CACHE` is
the one plan cache of a process: campaign cells and every ``repro
serve`` request schedule through it, a serve process re-bounding it to
the daemon's ``--plan-cache-size``.

``NullPlanCache`` recomputes every plan; the differential oracles run the
scheduler through it to pin cache-on == cache-off bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cache import Memo
from repro.device.topology import Topology
from repro.graphs.suppression import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    SuppressionPlan,
    alpha_optimal_suppression,
)
from repro.telemetry import counter


class SuppressionPlanCache(Memo):
    """Cache of alpha-optimal suppression plans, keyed by problem content.

    Keys are ``(topology fingerprint, frozenset(Q), alpha, top_k)``.  Plans
    are immutable (frozen dataclasses), so returning the cached instance is
    safe; hit/miss/eviction counters feed the ``sched-bench`` reports and
    the ``repro serve`` stats endpoint.
    """

    def __init__(self, maxsize: int | None = None):
        super().__init__("plan_cache", maxsize)

    def plan(
        self,
        topology: Topology,
        gate_qubits: Iterable[int] = (),
        alpha: float = DEFAULT_ALPHA,
        top_k: int = DEFAULT_TOP_K,
    ) -> SuppressionPlan:
        """The plan for one Algorithm-1 problem, computed at most once."""
        key = (topology.fingerprint, frozenset(gate_qubits), alpha, top_k)
        return self.get(
            key,
            lambda: alpha_optimal_suppression(
                topology, key[1], alpha=alpha, top_k=top_k
            ),
        )


class NullPlanCache(SuppressionPlanCache):
    """A pass-through cache: every request recomputes (the uncached path)."""

    def plan(
        self,
        topology: Topology,
        gate_qubits: Iterable[int] = (),
        alpha: float = DEFAULT_ALPHA,
        top_k: int = DEFAULT_TOP_K,
    ) -> SuppressionPlan:
        with self._lock:
            self.misses += 1
        counter("plan_cache.miss")
        return alpha_optimal_suppression(
            topology, frozenset(gate_qubits), alpha=alpha, top_k=top_k
        )


#: The process-wide plan cache: campaign workers and serve requests share
#: it (cleared with the other warm caches only when a process goes cold);
#: safe because plans are pure functions of the key.
SHARED_PLAN_CACHE = SuppressionPlanCache()
