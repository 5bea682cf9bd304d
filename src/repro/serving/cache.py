"""A sharded, lock-striped, LRU plan cache for the optimizer service.

One optimizer service fields planning requests from many tenants at
once; repeats are common (dashboards, retried jobs, fleet-wide
templates), so finished :class:`~repro.planner.cost_interface.
PlanningResult` objects are cached *across tenants* -- a plan depends
only on the query and the session's planner configuration, never on who
asked.  To keep the cache off the serving hot path's critical section,
entries are spread over independently locked shards: a request for one
key only ever contends with requests whose keys hash to the same shard.

Shard selection is a stable SHA-256 prefix of the key (``hash()`` on
strings is salted per process and would break cross-run determinism),
each shard runs LRU eviction against a per-shard capacity knob, and all
traffic series (hits, misses, inserts, evictions, live entries) land on
a :class:`~repro.obs.telemetry.TelemetryPlane`'s wall clock -- the
serving session shares its own plane so cache behaviour shows up
directly in :meth:`RaqoSession.metrics_snapshot`.

The counters reconcile exactly, even under concurrent hammering:

- every :meth:`lookup` increments exactly one of hits or misses;
- ``entries`` (a gauge read from ``len(cache)`` when exported) always
  equals ``inserts - evictions`` at a quiescent point.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, TypeVar

from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import AttrValue

__all__ = [
    "ShardedPlanCache",
]

V = TypeVar("V")


class _Shard:
    """One independently locked LRU segment of the cache."""

    __slots__ = ("lock", "entries")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: "OrderedDict[str, object]" = OrderedDict()


class ShardedPlanCache:
    """A cross-tenant LRU plan cache striped over ``shards`` locks.

    ``shard_capacity`` bounds each shard independently (total capacity
    is ``shards * shard_capacity``); when a shard overflows, its least
    recently used entry is evicted.  ``telemetry`` (a fresh plane when
    omitted) receives the wall-clock traffic counters under
    ``<prefix>.hits`` / ``.misses`` / ``.inserts`` / ``.evictions``,
    the live-entry gauge ``<prefix>.entries`` (``len(cache)`` at read
    time), and a ``cache_evict`` event per eviction.
    """

    def __init__(
        self,
        *,
        shards: int = 8,
        shard_capacity: int = 64,
        telemetry: Optional[TelemetryPlane] = None,
        prefix: str = "serving.cache",
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_capacity < 1:
            raise ValueError(
                f"shard_capacity must be >= 1, got {shard_capacity}"
            )
        self.shard_capacity = shard_capacity
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryPlane()
        )
        self._now = self.telemetry.wall_now
        self._shards: List[_Shard] = [_Shard() for _ in range(shards)]
        counter = self.telemetry.windowed_counter
        self._hits = counter(f"{prefix}.hits")
        self._misses = counter(f"{prefix}.misses")
        self._inserts = counter(f"{prefix}.inserts")
        self._evictions = counter(f"{prefix}.evictions")
        self.telemetry.windowed_gauge(f"{prefix}.entries").set_function(
            self.__len__
        )

    # -- shard routing -----------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of independently locked shards."""
        return len(self._shards)

    def shard_index(self, key: str) -> int:
        """The deterministic shard a key routes to.

        A SHA-256 prefix, not ``hash()``: string hashing is salted per
        process, and shard routing must be identical across runs and
        worker processes for determinism tests to mean anything.
        """
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % len(self._shards)

    def _shard(self, key: str) -> _Shard:
        return self._shards[self.shard_index(key)]

    # -- traffic -----------------------------------------------------------

    def lookup(self, key: str) -> Optional[object]:
        """The cached value for ``key`` (refreshing its LRU position),
        or ``None``; counts exactly one hit or miss."""
        shard = self._shard(key)
        with shard.lock:
            value = shard.entries.get(key)
            if value is not None:
                shard.entries.move_to_end(key)
        if value is None:
            self._misses.inc(ts_s=self._now())
            return None
        self._hits.inc(ts_s=self._now())
        return value

    def peek(self, key: str) -> Optional[object]:
        """Like :meth:`lookup` but silent: no counters, no LRU refresh.

        The service's single-flight double-check uses this so the
        re-check under the service lock never distorts hit/miss
        accounting (each request records exactly one of the two).
        """
        shard = self._shard(key)
        with shard.lock:
            return shard.entries.get(key)

    def insert(self, key: str, value: object) -> bool:
        """Insert (or refresh) ``key``; returns True for new entries.

        A new key that overflows its shard evicts that shard's least
        recently used entry first, so ``entries`` never exceeds
        ``shards * shard_capacity``.
        """
        if value is None:
            raise ValueError("cannot cache None (it encodes a miss)")
        shard = self._shard(key)
        evicted = 0
        with shard.lock:
            if key in shard.entries:
                shard.entries[key] = value
                shard.entries.move_to_end(key)
                fresh = False
            else:
                while len(shard.entries) >= self.shard_capacity:
                    shard.entries.popitem(last=False)
                    evicted += 1
                shard.entries[key] = value
                fresh = True
        if fresh:
            now = self._now()
            self._inserts.inc(ts_s=now)
            if evicted:
                self._evictions.inc(evicted, ts_s=now)
                self._emit_evict(evicted, "capacity", key, now)
        return fresh

    def clear(self) -> None:
        """Drop every entry (counts each as an eviction)."""
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                dropped += len(shard.entries)
                shard.entries.clear()
        if dropped:
            now = self._now()
            self._evictions.inc(dropped, ts_s=now)
            self._emit_evict(dropped, "clear", "", now)

    def _emit_evict(
        self, count: int, reason: str, key: str, now: float
    ) -> None:
        attributes: Dict[str, AttrValue] = {
            "count": count,
            "reason": reason,
        }
        if key:
            # The key whose insert forced the eviction, not the victim:
            # enough to find the hot shard without dumping plan keys.
            attributes["inserted_key"] = key
        self.telemetry.events.emit(
            "cache_evict", now, attributes=attributes
        )

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(
            len(shard.entries) for shard in self._shards
        )

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), or 0.0 before any traffic."""
        hits = self._hits.total
        lookups = hits + self._misses.total
        if lookups == 0:
            return 0.0
        return hits / lookups

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready dump of configuration plus traffic counters."""
        return {
            "shards": self.shards,
            "shard_capacity": self.shard_capacity,
            "hits": self._hits.total,
            "misses": self._misses.total,
            "inserts": self._inserts.total,
            "evictions": self._evictions.total,
            "entries": len(self),
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedPlanCache(shards={self.shards}, "
            f"shard_capacity={self.shard_capacity}, "
            f"entries={len(self)})"
        )
