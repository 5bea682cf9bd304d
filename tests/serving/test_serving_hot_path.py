"""The served path's bookkeeping is resolved once, not per request.

A tenant's ``serving.tenant.*`` series are looked up on the telemetry
plane the first time the service uses each of them for that tenant;
after that, serving cache hits, misses, coalesced and rejected requests
makes no plane lookups.  A query's cache key is fingerprinted once per
service, in a memo bounded by the plan cache's capacity.
"""

import sys
import threading
from collections import Counter

import pytest

from repro.api import RaqoSession
from repro.catalog.queries import make_query
from repro.core.pareto import PlanObjective
from repro.obs.prometheus import parse_exposition
from repro.obs.telemetry import TelemetryPlane
from repro.serving import (
    OptimizerService,
    Overloaded,
    PlanRequest,
    ServiceConfig,
)


@pytest.fixture()
def session(tpch_catalog_sf100):
    return RaqoSession(tpch_catalog_sf100)


@pytest.fixture()
def fast_switching():
    """Switch threads every microsecond, so races show up."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture()
def plane_lookups(monkeypatch):
    """Counts every ``TelemetryPlane._get`` call."""
    calls = Counter()
    original = TelemetryPlane._get

    def counting(self, kind, name, labels, clock, window_s):
        calls["lookups"] += 1
        return original(self, kind, name, labels, clock, window_s)

    monkeypatch.setattr(TelemetryPlane, "_get", counting)
    return calls


@pytest.fixture()
def fingerprints(monkeypatch):
    """Counts every ``OptimizerService._query_fingerprint`` call."""
    calls = Counter()
    original = OptimizerService._query_fingerprint

    def counting(query):
        calls[query] += 1
        return original(query)

    monkeypatch.setattr(
        OptimizerService, "_query_fingerprint", staticmethod(counting)
    )
    return calls


def _two_way(index):
    """A cheap two-table query; each index is a distinct structure."""
    return make_query(
        f"m{index}", ("orders", "lineitem"), {"orders": 1.0 / (index + 2)}
    )


class _HeldWorker:
    """Holds a one-worker service's next batch until :meth:`release`.

    While the worker waits here the admission queue fills
    deterministically: whatever is submitted then is drained as one
    batch, and a submit to a full queue is rejected.
    """

    def __init__(self, service):
        self._handle = service._handle_batch
        self._entered = threading.Event()
        self._go = threading.Event()
        service._handle_batch = self._hold

    def _hold(self, planner, batch):
        if not self._go.is_set():
            self._entered.set()
            self._go.wait()
        self._handle(planner, batch)

    def hold(self):
        self._go.clear()
        self._entered.clear()

    def wait_held(self):
        assert self._entered.wait(timeout=30)

    def release(self):
        self._go.set()


def _round(service, worker, first_id, miss):
    """One held batch: cache hits, a coalesced hit, a coalesced miss
    and two rejections, spread over two tenants."""
    worker.hold()
    blocker = service.submit(PlanRequest(first_id, "Q12", tenant="t0"))
    worker.wait_held()
    queued = [
        service.submit(PlanRequest(first_id + 1, "Q12", tenant="t0")),
        service.submit(PlanRequest(first_id + 2, "Q12", tenant="t1")),
        service.submit(PlanRequest(first_id + 3, miss, tenant="t1")),
        service.submit(PlanRequest(first_id + 4, miss, tenant="t0")),
    ]
    for offset, tenant in ((5, "t0"), (6, "t1")):
        with pytest.raises(Overloaded):
            service.submit(
                PlanRequest(first_id + offset, "Q12", tenant=tenant)
            )
    worker.release()
    responses = [future.result(timeout=60) for future in [blocker] + queued]
    assert [r.cache_hit for r in responses] == [
        True, True, True, False, False,
    ]
    assert [r.coalesced for r in responses] == [
        False, False, True, False, True,
    ]


class TestNoPerRequestLookups:
    def test_served_and_rejected_requests_make_no_plane_lookups(
        self, session, plane_lookups
    ):
        service = session.serve(workers=1, max_queue=4, max_batch=4)
        service.cache.insert(
            service.cache_key(session.resolve_query("Q12")),
            session.plan("Q12"),
        )
        worker = _HeldWorker(service)
        with service:
            # Each tenant's first admitted, rejected, completed and
            # cache-hit request resolves its five series: ten lookups.
            before = plane_lookups["lookups"]
            _round(service, worker, 0, _two_way(0))
            assert plane_lookups["lookups"] - before == 10
            before = plane_lookups["lookups"]
            for index in range(1, 4):
                _round(service, worker, 10 * index, _two_way(index))
            assert plane_lookups["lookups"] == before
        counters = session.telemetry_snapshot()["counters"]
        for tenant in ("t0", "t1"):
            series = f'{{tenant="{tenant}"}}'
            assert counters["serving.tenant.rejected" + series][
                "total"
            ] == 4
            assert counters["serving.tenant.admitted" + series][
                "total"
            ] == counters["serving.tenant.completed" + series]["total"]

    def test_tenant_without_cache_hits_exports_no_hit_series(
        self, session
    ):
        service = session.serve(workers=1)
        with service:
            service.plan(_two_way(0), tenant="cold")
        counters = session.telemetry_snapshot()["counters"]
        assert 'serving.tenant.completed{tenant="cold"}' in counters
        assert 'serving.tenant.cache_hits{tenant="cold"}' not in counters
        assert 'serving.tenant.rejected{tenant="cold"}' not in counters


class TestCacheKeyMemo:
    def test_each_distinct_query_is_fingerprinted_once(
        self, session, fingerprints
    ):
        service = session.serve(workers=1, max_queue=64)
        names = ["Q3", "Q12", "Q3", "Q2", "Q12", "Q3"] * 3
        for index, name in enumerate(names):
            service.submit(PlanRequest(index, name, tenant="t0"))
        service.stop()
        assert sorted(q.name for q in fingerprints) == ["Q12", "Q2", "Q3"]
        assert set(fingerprints.values()) == {1}

    def test_equal_but_distinct_queries_share_one_key(
        self, session, fingerprints
    ):
        service = session.serve()
        first, second = _two_way(7), _two_way(7)
        assert first == second and first is not second
        assert service.cache_key(first) == service.cache_key(second)
        assert sum(fingerprints.values()) == 1

    def test_services_with_different_objectives_never_share_a_key(
        self, session
    ):
        query = session.resolve_query("Q3")
        keys = {
            session.serve(objective=objective).cache_key(query)
            for objective in (
                PlanObjective.fastest(),
                PlanObjective.cheapest(),
                PlanObjective.weighted(0.5),
            )
        }
        assert len(keys) == 3

    def test_memo_never_exceeds_the_plan_cache_capacity(
        self, session, fingerprints
    ):
        service = session.serve(
            ServiceConfig(cache_shards=2, cache_shard_capacity=2)
        )
        queries = [_two_way(index) for index in range(10)]
        for query in queries:
            service.cache_key(query)
            assert len(service._keys) <= 4
        assert len(service._keys) == 4
        # The newest keys are still memoized; the oldest was dropped
        # and costs one more fingerprint.
        service.cache_key(queries[-1])
        assert fingerprints[queries[-1]] == 1
        service.cache_key(queries[0])
        assert fingerprints[queries[0]] == 2
        assert len(service._keys) == 4


def _run_threads(target, count):
    threads = [
        threading.Thread(target=target, args=(slot,))
        for slot in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()


class TestConcurrentFirstUse:
    def test_racing_first_requests_resolve_one_series_each(
        self, session, fast_switching
    ):
        tenants = [f"tenant-{index}" for index in range(8)]
        per_tenant = 5
        service = session.serve(workers=2, max_queue=256)
        start = threading.Barrier(len(tenants))
        failures = []

        def client(slot):
            tenant = tenants[slot]
            try:
                start.wait(timeout=30)
                futures = [
                    service.submit(
                        PlanRequest(
                            slot * per_tenant + index,
                            ("Q12", "Q2")[index % 2],
                            tenant=tenant,
                        )
                    )
                    for index in range(per_tenant)
                ]
                for future in futures:
                    future.result(timeout=120)
            except BaseException as exc:  # surfaced below
                failures.append(exc)

        with service:
            _run_threads(client, len(tenants))
        assert failures == []

        parsed = parse_exposition(session.exposition())
        per_series = Counter(
            (sample.name, dict(sample.labels)["tenant"])
            for sample in parsed.samples
            if sample.name.startswith("raqo_serving_tenant_")
            and "quantile" not in dict(sample.labels)
        )
        for tenant in tenants:
            for name in ("admitted", "completed"):
                assert per_series[
                    (f"raqo_serving_tenant_{name}_total", tenant)
                ] == 1
        counters = session.telemetry_snapshot()["counters"]
        for tenant in tenants:
            series = f'{{tenant="{tenant}"}}'
            admitted = counters["serving.tenant.admitted" + series]
            completed = counters["serving.tenant.completed" + series]
            assert admitted["total"] == per_tenant
            assert completed["total"] == per_tenant

    def test_racing_key_lookups_stay_bounded_and_exact(
        self, session, fast_switching
    ):
        service = session.serve(
            ServiceConfig(cache_shards=2, cache_shard_capacity=2)
        )
        queries = [_two_way(index) for index in range(12)]
        expected = {
            query: f"{query.name}"
            f"|{OptimizerService._query_fingerprint(query)}"
            f"|{service._config_fingerprint}"
            for query in queries
        }
        wrong = []

        def client(slot):
            for round_ in range(20):
                query = queries[(slot + round_) % len(queries)]
                if service.cache_key(query) != expected[query]:
                    wrong.append(query)

        _run_threads(client, 8)
        assert wrong == []
        assert len(service._keys) <= 4
