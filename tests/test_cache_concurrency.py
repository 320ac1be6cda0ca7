"""Concurrency hammers for the warm caches and the telemetry collector.

In ``repro serve`` each cache is written by one thread only — a worker
process's main thread, or the dispatcher thread of a ``--serve-workers
0`` daemon — while the event loop reads the counters for ``/stats``.
The caches stay thread-safe anyway because they are shared objects:
``SHARED_PLAN_CACHE`` is module-global, so any in-process caller that
threads its own compiles or evaluations (a workers=0 daemon next to the
caller's thread included) shares it.  The contracts under test are the
multi-threaded ones: N threads x M keys must compute each key exactly
once (waiters block on the in-flight computation and count as hits),
statistics must stay consistent (no lost updates), and FIFO eviction
must respect the size bound.  The plan-cache hammers run on the bare
:class:`~repro.cache.Memo` too, the one primitive every shared cache is
built on.  The telemetry collector is hammered too,
because the daemon's dispatcher threads merge worker snapshots into it.
"""

import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.cache import Memo
from repro.device.presets import grid
from repro.runtime.backends import LayerPropagatorCache
from repro.scheduling import plan_cache as plan_cache_mod
from repro.scheduling.plan_cache import SuppressionPlanCache

THREADS = 8
ROUNDS = 5


@pytest.fixture(autouse=True)
def _telemetry_off():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _hammer(worker, threads=THREADS):
    """Run ``worker(i)`` on N threads with a common start barrier."""
    barrier = threading.Barrier(threads)
    errors = []

    def body(i):
        barrier.wait()
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert errors == []


class TestPlanCacheConcurrency:
    """Memo hammers, run on the plan cache; subclasses swap the cache.

    ``make`` builds a cache, ``fetch`` asks it for key ``k`` (a small
    int), and every computation lands in ``self.computed``, slowed down
    to widen the window for duplicate builds.
    """

    @pytest.fixture(autouse=True)
    def _record_builds(self, monkeypatch):
        self.computed = []
        self.topology = grid(2, 4)
        real = plan_cache_mod.alpha_optimal_suppression

        def counting(topo, gate_qubits, alpha, top_k):
            self.computed.append(min(gate_qubits))
            time.sleep(0.01)
            return real(topo, gate_qubits, alpha=alpha, top_k=top_k)

        monkeypatch.setattr(
            plan_cache_mod, "alpha_optimal_suppression", counting
        )

    def make(self, maxsize=None):
        return SuppressionPlanCache(maxsize=maxsize)

    def fetch(self, cache, k):
        return cache.plan(self.topology, (k,))

    def test_each_key_computed_exactly_once(self):
        cache = self.make()
        keys = range(4)
        results: dict[int, list] = {k: [] for k in keys}
        lock = threading.Lock()

        def worker(i):
            for _ in range(ROUNDS):
                for k in keys:
                    value = self.fetch(cache, k)
                    with lock:
                        results[k].append(value)

        _hammer(worker)
        total = THREADS * ROUNDS * len(keys)
        assert sorted(self.computed) == list(keys), (
            f"expected one compute per key, got {self.computed}"
        )
        assert cache.misses == len(keys)
        assert cache.hits == total - len(keys)
        assert cache.evictions == 0
        # Every caller of one key got the identical value object.
        for k in keys:
            assert len({id(v) for v in results[k]}) == 1

    def test_bounded_cache_evicts_fifo_under_threads(self):
        cache = self.make(maxsize=3)
        keys = range(6)

        def worker(i):
            for k in keys:
                self.fetch(cache, k)

        _hammer(worker)
        assert len(cache.export()) == 3
        assert cache.evictions >= len(keys) - 3
        stats = cache.stats
        assert stats["size"] == 3
        assert stats["hits"] + stats["misses"] == THREADS * len(keys)

    def test_absorb_respects_bound(self):
        donor = self.make()
        for k in range(6):
            self.fetch(donor, k)
        bounded = self.make(maxsize=2)
        bounded.absorb(donor.export())
        assert len(bounded.export()) == 2
        assert bounded.evictions == 4

    def test_resize_evicts_fifo_and_bounds_later_absorbs(self):
        donor = self.make()
        for k in range(8):
            self.fetch(donor, k)
        keys = [key for key, _ in donor.export()]
        cache = self.make()
        for k in range(5):
            self.fetch(cache, k)
        cache.resize(3)
        # Shrinking drops the two oldest entries, FIFO, and counts them.
        assert [key for key, _ in cache.export()] == keys[2:5]
        assert cache.evictions == 2
        cache.resize(10)
        # Growing keeps every entry.
        assert [key for key, _ in cache.export()] == keys[2:5]
        assert cache.evictions == 2
        cache.resize(4)
        # A later absorb honours the new bound: 3 adds, 2 more evictions.
        assert cache.absorb(donor.export()[5:]) == 3
        assert [key for key, _ in cache.export()] == keys[4:]
        assert cache.evictions == 4
        assert cache.stats["size"] == 4


class TestMemoConcurrency(TestPlanCacheConcurrency):
    """The same hammers on the bare primitive the caches are built on."""

    @pytest.fixture(autouse=True)
    def _record_builds(self):
        self.computed = []

    def make(self, maxsize=None):
        return Memo("test_memo", maxsize)

    def fetch(self, cache, k):
        def build():
            self.computed.append(k)
            time.sleep(0.01)
            return ("value", k)

        return cache.get(k, build)


class TestPropagatorCacheConcurrency:
    def test_each_key_computed_exactly_once(self):
        cache = LayerPropagatorCache()
        builds = []
        lock = threading.Lock()

        def build_for(key):
            def build():
                with lock:
                    builds.append(key)
                time.sleep(0.01)
                return np.full((2, 2), float(key[0]))

            return build

        keys = [(k, 0.5, 0.01) for k in range(4)]

        def worker(i):
            for _ in range(ROUNDS):
                for key in keys:
                    value = cache.unitary(key, build_for(key))
                    assert value[0, 0] == float(key[0])

        _hammer(worker)
        total = THREADS * ROUNDS * len(keys)
        assert sorted(builds) == sorted(keys), "a key was built twice"
        assert cache.misses == len(keys)
        assert cache.hits == total - len(keys)
        assert cache.stats["evictions"] == 0

    def test_bounded_maps_evict_fifo_under_threads(self):
        cache = LayerPropagatorCache(maxsize=2)
        keys = [(k, 1.0, 0.01) for k in range(5)]

        def worker(i):
            for key in keys:
                cache.unitary(key, lambda key=key: np.eye(2) * key[0])

        _hammer(worker)
        stats = cache.stats
        assert stats["size"] == 2
        assert stats["evictions"] >= len(keys) - 2
        assert stats["hits"] + stats["misses"] == THREADS * len(keys)

    def test_drives_and_unitary_maps_are_independent(self):
        cache = LayerPropagatorCache(maxsize=2)
        key = (7, 1.0, 0.01)
        drives = cache.drives(key, lambda: [np.zeros(3)])
        unitary = cache.unitary(key, lambda: np.eye(2))
        assert isinstance(drives, tuple)
        assert cache.drives(key, lambda: pytest.fail("rebuilt")) is drives
        assert cache.unitary(key, lambda: pytest.fail("rebuilt")) is unitary


class TestTelemetryConcurrency:
    def test_counters_and_spans_lose_no_updates(self):
        telemetry.enable()
        per_thread = 200

        def worker(i):
            for _ in range(per_thread):
                telemetry.counter("hammer.count")
                with telemetry.span("hammer.span", group=f"t{i}"):
                    pass
                telemetry.gauge_max("hammer.max", i)

        _hammer(worker)
        snap = telemetry.snapshot()
        assert snap["counters"]["hammer.count"] == THREADS * per_thread
        span_calls = sum(
            s["count"] for s in snap["spans"] if s["path"] == "hammer.span"
        )
        assert span_calls == THREADS * per_thread
        assert snap["gauges"]["hammer.max"] == THREADS - 1

    def test_nested_spans_stay_per_thread(self):
        telemetry.enable()

        def worker(i):
            for _ in range(50):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        pass

        _hammer(worker, threads=4)
        paths = {s["path"] for s in telemetry.snapshot()["spans"]}
        # Span nesting is thread-local: no cross-thread path pollution
        # like outer/outer or outer/inner/inner can appear.
        assert paths == {"outer", "outer/inner"}
