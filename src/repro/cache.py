"""The one thread-safe, exactly-once, FIFO-bounded memo.

Every cache that is shared across threads — the Algorithm-1
:class:`~repro.scheduling.plan_cache.SuppressionPlanCache`, the
:class:`~repro.runtime.backends.LayerPropagatorCache` and the serve
daemon's map of propagator caches — is a :class:`Memo` that adds only
its key construction.  Single-threaded context memos (the campaign
runner's and the service's) stay stdlib ``lru_cache``: they need neither
exactly-once builds nor export.

A memo maps a key to the value ``build()`` returned for it.  Values must
be pure functions of their key (a hit returns the very object a miss
built), and never ``None``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable

from repro.telemetry import counter


class Memo:
    """Thread-safe memo that builds each key exactly once.

    All state lives behind one lock, held only for dict access and
    bookkeeping — never while ``build()`` runs.  A miss registers an
    in-flight event; concurrent requests for the same key wait on it and
    count as hits (they built nothing).  A hit costs one uncontended
    lock acquire plus one dict lookup.

    ``maxsize`` bounds the entry count: a full memo evicts its oldest
    entry FIFO (callers revisit keys in order, so the oldest is the
    least likely to recur); ``None`` keeps every entry.  Hits, misses
    and evictions are counted on the instance and as the
    ``<name>.hit`` / ``.miss`` / ``.evict`` telemetry counters.
    """

    def __init__(self, name: str, maxsize: int | None = None):
        self.maxsize = maxsize
        self._entries: dict = {}
        self._inflight: dict[Hashable, threading.Event] = {}
        self._lock = threading.Lock()
        self._hit, self._miss, self._evict = (
            f"{name}.hit", f"{name}.miss", f"{name}.evict"
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _trim(self) -> None:
        """Evict oldest entries down to ``maxsize`` (lock held)."""
        while self.maxsize is not None and len(self._entries) > self.maxsize:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
            counter(self._evict)

    def get(self, key: Hashable, build: Callable[[], object]):
        """The value for ``key``, built at most once across threads."""
        while True:
            with self._lock:
                found = self._entries.get(key)
                if found is not None:
                    self.hits += 1
                    counter(self._hit)
                    return found
                pending = self._inflight.get(key)
                if pending is None:
                    event = self._inflight[key] = threading.Event()
                    self.misses += 1
                    counter(self._miss)
                    break
            # Another thread is building this key: wait, then re-check (a
            # FIFO eviction may have raced the insert — loop and rebuild).
            pending.wait()
        try:
            built = build()
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = built
                    self._trim()
        finally:
            with self._lock:
                del self._inflight[key]
            event.set()
        return built

    def export(self) -> tuple:
        """Picklable ``(key, value)`` snapshot of every entry.

        Values are pure functions of their keys, so a snapshot taken in
        one process can seed another's memo without coherence concerns.
        """
        with self._lock:
            return tuple(self._entries.items())

    def absorb(self, items: Iterable[tuple]) -> int:
        """Seed from an :meth:`export` snapshot; returns the adds.

        Existing entries win (they are identical by construction), and
        absorbed entries count as neither hits nor misses.  ``maxsize``
        applies as on :meth:`get`: a full memo evicts its oldest entry.
        """
        added = 0
        with self._lock:
            for key, value in items:
                if key not in self._entries:
                    self._entries[key] = value
                    self._trim()
                    added += 1
        return added

    def resize(self, maxsize: int | None) -> None:
        """Re-bound the memo, evicting oldest entries FIFO if shrinking."""
        with self._lock:
            self.maxsize = maxsize
            self._trim()

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self),
        }
