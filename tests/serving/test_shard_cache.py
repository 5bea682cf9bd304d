"""The sharded plan cache: LRU semantics and exact counter reconciliation.

The cache's contract (``repro/serving/cache.py``) is that its traffic
counters reconcile *exactly*, even under concurrent hammering:

- every ``lookup`` counts exactly one hit or one miss (``peek`` counts
  nothing);
- ``entries == inserts - evictions == len(cache)`` at every quiescent
  point.

The stress test here aims every thread at a single shard -- the worst
possible lock contention -- and then checks the books balance to the
last count, mirroring ``tests/workloads/test_thread_safety.py``'s
approach to the parallel runner.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.telemetry import TelemetryPlane
from repro.serving.cache import ShardedPlanCache


class _Series:
    """Reads a plane's cache series by name."""

    def __init__(self, plane):
        self.plane = plane

    def count(self, name):
        return self.plane.windowed_counter(f"serving.cache.{name}").total

    def entries(self):
        """The exported live-entry gauge, as the exposition reads it."""
        return self.plane.lifetime()["gauges"]["serving.cache.entries"]


def make_cache(**kwargs):
    plane = TelemetryPlane()
    cache = ShardedPlanCache(telemetry=plane, **kwargs)
    return cache, _Series(plane)


def same_shard_keys(cache, count, shard=0):
    """The first ``count`` keys whose SHA-256 routing lands on ``shard``."""
    keys = []
    index = 0
    while len(keys) < count:
        key = f"key-{index}"
        if cache.shard_index(key) == shard:
            keys.append(key)
        index += 1
    return keys


class TestBasics:
    def test_miss_then_hit(self):
        cache, metrics = make_cache()
        assert cache.lookup("a") is None
        cache.insert("a", "plan-a")
        assert cache.lookup("a") == "plan-a"
        assert metrics.count("hits") == 1
        assert metrics.count("misses") == 1

    def test_insert_refresh_is_not_a_new_entry(self):
        cache, metrics = make_cache()
        assert cache.insert("a", "v1") is True
        assert cache.insert("a", "v2") is False
        assert cache.lookup("a") == "v2"
        assert metrics.count("inserts") == 1
        assert len(cache) == 1

    def test_entries_gauge_exports_the_live_count(self):
        """Inserts and a clear within one wall-clock window: the
        exported gauge is the count now, not a mean of samples."""
        cache, metrics = make_cache()
        assert metrics.entries() == 0.0
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.insert("a", 3)
        assert metrics.entries() == 2.0
        cache.clear()
        assert metrics.entries() == 0.0

    def test_none_values_are_rejected(self):
        cache, _ = make_cache()
        with pytest.raises(ValueError):
            cache.insert("a", None)

    def test_contains_and_len(self):
        cache, _ = make_cache()
        cache.insert("a", 1)
        cache.insert("b", 2)
        assert "a" in cache and "b" in cache and "c" not in cache
        assert len(cache) == 2

    def test_peek_counts_nothing(self):
        cache, metrics = make_cache()
        cache.insert("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert metrics.count("hits") == 0
        assert metrics.count("misses") == 0

    def test_hit_rate(self):
        cache, _ = make_cache()
        assert cache.hit_rate == 0.0
        cache.insert("a", 1)
        cache.lookup("a")
        cache.lookup("missing")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedPlanCache(shards=0)
        with pytest.raises(ValueError):
            ShardedPlanCache(shard_capacity=0)


class TestShardRouting:
    def test_routing_is_stable_and_in_range(self):
        cache, _ = make_cache(shards=8)
        for index in range(200):
            key = f"q{index}"
            first = cache.shard_index(key)
            assert 0 <= first < 8
            assert cache.shard_index(key) == first

    def test_routing_spreads_keys(self):
        """SHA-256 routing must not funnel everything into one shard."""
        cache, _ = make_cache(shards=8)
        used = {cache.shard_index(f"q{index}") for index in range(200)}
        assert len(used) == 8


class TestLruEviction:
    def test_capacity_is_per_shard(self):
        cache, metrics = make_cache(shards=4, shard_capacity=2)
        keys = same_shard_keys(cache, 3)
        for key in keys:
            cache.insert(key, key)
        assert len(cache) == 2
        assert metrics.count("evictions") == 1
        # The victim was the least recently used (the first inserted).
        assert keys[0] not in cache
        assert keys[1] in cache and keys[2] in cache

    def test_lookup_refreshes_lru_position(self):
        cache, _ = make_cache(shards=4, shard_capacity=2)
        old, mid, new = same_shard_keys(cache, 3)
        cache.insert(old, 1)
        cache.insert(mid, 2)
        cache.lookup(old)  # refresh: ``mid`` becomes the LRU victim
        cache.insert(new, 3)
        assert old in cache and new in cache and mid not in cache

    def test_entries_never_exceed_total_capacity(self):
        cache, _ = make_cache(shards=4, shard_capacity=4)
        for index in range(200):
            cache.insert(f"q{index}", index)
        assert len(cache) <= 16

    def test_clear_counts_every_entry_as_evicted(self):
        cache, metrics = make_cache()
        for index in range(5):
            cache.insert(f"q{index}", index)
        cache.clear()
        assert len(cache) == 0
        assert metrics.count("evictions") == 5
        assert metrics.entries() == 0.0


class TestSnapshotReconciliation:
    def test_snapshot_reconciles_after_mixed_traffic(self):
        cache, metrics = make_cache(shards=2, shard_capacity=4)
        for index in range(20):
            cache.lookup(f"q{index % 12}")
            cache.insert(f"q{index % 12}", index)
        snap = cache.snapshot()
        assert snap["hits"] + snap["misses"] == 20
        assert snap["entries"] == snap["inserts"] - snap["evictions"]
        assert snap["entries"] == len(cache)
        assert metrics.entries() == float(len(cache))


@pytest.mark.stress
class TestSingleShardHammer:
    """Many threads, one shard: counters must reconcile exactly."""

    THREADS = 8
    OPS_PER_THREAD = 400

    def test_counters_reconcile_exactly(self):
        cache, metrics = make_cache(shards=4, shard_capacity=8)
        keys = same_shard_keys(cache, 24)
        barrier = threading.Barrier(self.THREADS)

        def hammer(thread_id):
            barrier.wait()
            lookups = 0
            for op in range(self.OPS_PER_THREAD):
                key = keys[(thread_id * 7 + op) % len(keys)]
                if op % 3 == 0:
                    cache.insert(key, (thread_id, op))
                else:
                    cache.lookup(key)
                    lookups += 1
            return lookups

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            lookups = sum(pool.map(hammer, range(self.THREADS)))

        hits = metrics.count("hits")
        misses = metrics.count("misses")
        inserts = metrics.count("inserts")
        evictions = metrics.count("evictions")
        entries = metrics.entries()

        # Every lookup recorded exactly one of hit/miss -- no drops, no
        # double counts -- and the entry ledger balances to the count.
        assert hits + misses == lookups
        assert inserts - evictions == len(cache)
        assert entries == float(len(cache))
        # All keys target one 8-slot shard: it must sit exactly at
        # capacity after thousands of inserts, and evictions must have
        # happened (the test is not vacuous).
        assert len(cache) == 8
        assert evictions > 0

    def test_concurrent_single_key_insert_storm(self):
        """All threads fighting over one key: one insert, no evictions."""
        cache, metrics = make_cache(shards=4, shard_capacity=8)
        (key,) = same_shard_keys(cache, 1)
        barrier = threading.Barrier(self.THREADS)

        def storm(thread_id):
            barrier.wait()
            fresh = 0
            for op in range(self.OPS_PER_THREAD):
                fresh += cache.insert(key, (thread_id, op))
            return fresh

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            fresh_total = sum(pool.map(storm, range(self.THREADS)))

        assert fresh_total == 1
        assert metrics.count("inserts") == 1
        assert metrics.count("evictions") == 0
        assert metrics.entries() == 1.0
        assert len(cache) == 1
