"""The optimizer service frontend: admission, lifecycle, and batching.

Covers the serving contract that is *not* about determinism (the
property suite pins that): typed backpressure, rejected requests never
being planned, lifecycle rules, the asyncio frontend, cache-path
metadata on responses, and the session-facing metrics wiring.
"""

import asyncio

import pytest

from repro.api import RaqoSession
from repro.planner.plan import plan_signature
from repro.serving import (
    Overloaded,
    PlanRequest,
    ServiceConfig,
)


@pytest.fixture(scope="module")
def session(tpch_catalog_sf100):
    return RaqoSession(tpch_catalog_sf100)


def make_service(session, **knobs):
    return session.serve(**knobs)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(workers=0),
            dict(max_queue=0),
            dict(max_inflight=-1),
            dict(max_batch=0),
        ],
    )
    def test_bad_knobs_raise(self, knobs):
        with pytest.raises(ValueError):
            ServiceConfig(**knobs)

    def test_max_inflight_defaults_to_workers(self):
        assert ServiceConfig(workers=5).effective_max_inflight == 5
        assert (
            ServiceConfig(workers=5, max_inflight=2).effective_max_inflight
            == 2
        )

    def test_serve_rejects_config_plus_knobs(self, session):
        with pytest.raises(ValueError):
            session.serve(ServiceConfig(), workers=3)


class TestAdmissionControl:
    def test_overflow_raises_typed_overloaded(self, session):
        # Submitting before start() exercises admission with the pool
        # stalled: the queue fills deterministically.
        service = make_service(session, max_queue=3)
        for index in range(3):
            service.submit(PlanRequest(request_id=index, query="Q3"))
        with pytest.raises(Overloaded) as excinfo:
            service.submit(PlanRequest(request_id=99, query="Q3"))
        assert excinfo.value.queue_depth == 3
        assert excinfo.value.max_queue == 3
        # Drain cleanly so module-scoped session state stays tidy.
        with service:
            pass

    def test_rejected_request_is_never_planned(self, session):
        service = make_service(session, max_queue=1)
        admitted = service.submit(PlanRequest(request_id=0, query="Q3"))
        with pytest.raises(Overloaded):
            service.submit(PlanRequest(request_id=1, query="Q2"))
        planned_before = session.telemetry.windowed_counter(
            "planning.queries"
        ).total
        with service:
            admitted.result(timeout=30)
        # Exactly the admitted request got planned; Q2 never entered
        # the pipeline (no future exists for it at all).
        assert (
            session.telemetry.windowed_counter("planning.queries").total
            == planned_before + 1
        )

    def test_rejections_are_counted(self, session):
        service = make_service(session, max_queue=1)
        before = session.telemetry.windowed_counter("serving.rejected").total
        service.submit(PlanRequest(request_id=0, query="Q3"))
        for _ in range(3):
            with pytest.raises(Overloaded):
                service.submit(PlanRequest(request_id=1, query="Q3"))
        assert (
            session.telemetry.windowed_counter("serving.rejected").total
            == before + 3
        )
        with service:
            pass

    def test_unknown_query_rejected_before_admission(self, session):
        service = make_service(session, max_queue=1)
        with pytest.raises(KeyError):
            service.submit(PlanRequest(request_id=0, query="Q99"))
        # The malformed request consumed no queue space.
        service.submit(PlanRequest(request_id=1, query="Q3"))
        with service:
            pass


class TestLifecycle:
    def test_start_is_idempotent_and_stop_is_final(self, session):
        service = make_service(session, workers=1)
        assert service.start() is service
        assert service.start() is service
        service.stop()
        service.stop()  # also idempotent
        with pytest.raises(RuntimeError):
            service.start()
        with pytest.raises(RuntimeError):
            service.submit(PlanRequest(request_id=0, query="Q3"))

    def test_stop_drains_the_backlog_first(self, session):
        service = make_service(session, workers=2)
        futures = [
            service.submit(PlanRequest(request_id=index, query="Q3"))
            for index in range(6)
        ]
        with service:
            pass  # __exit__ -> stop(): sentinels queue behind the backlog
        for future in futures:
            assert future.result(timeout=0).result is not None

    def test_stop_before_start_fails_pending_futures(self, session):
        # submit-before-start is supported, so stop-before-start must
        # not strand the queued futures: no pool will ever drain them.
        service = make_service(session, workers=1)
        future = service.submit(PlanRequest(request_id=0, query="Q3"))
        service.stop()
        with pytest.raises(RuntimeError, match="before start"):
            future.result(timeout=0)
        with pytest.raises(RuntimeError):
            service.submit(PlanRequest(request_id=1, query="Q3"))
        with pytest.raises(RuntimeError):
            service.start()

    def test_context_manager_roundtrip(self, session):
        with make_service(session, workers=2) as service:
            response = service.plan("Q12", tenant="analytics")
        assert response.request.tenant == "analytics"
        assert response.result.query.name == "Q12"


class TestServingPaths:
    def test_plan_matches_direct_session_plan(self, session):
        direct = session.plan("Q3")
        with make_service(session, workers=2) as service:
            served = service.plan("Q3").result
        assert plan_signature(served.plan) == plan_signature(direct.plan)
        assert served.cost == direct.cost

    def test_repeat_requests_hit_the_cross_tenant_cache(self, session):
        with make_service(session, workers=1) as service:
            first = service.plan("Q2", tenant="tenant-a")
            second = service.plan("Q2", tenant="tenant-b")
        assert not first.cache_hit
        assert second.cache_hit
        # Cross-tenant: the hit came from another tenant's plan.
        assert second.result is first.result

    def test_batched_duplicates_coalesce_to_one_plan(self, session):
        service = make_service(session, workers=1, max_batch=8)
        planned_before = session.telemetry.windowed_counter(
            "planning.queries"
        ).total
        futures = [
            service.submit(
                PlanRequest(request_id=index, query="All")
            )
            for index in range(5)
        ]
        with service:
            responses = [f.result(timeout=30) for f in futures]
        assert (
            session.telemetry.windowed_counter("planning.queries").total
            == planned_before + 1
        )
        assert sum(1 for r in responses if r.coalesced) == 4
        signatures = {
            plan_signature(r.result.plan) for r in responses
        }
        assert len(signatures) == 1

    def test_cache_disabled_plans_every_time(self, session):
        planned_before = session.telemetry.windowed_counter(
            "planning.queries"
        ).total
        with make_service(
            session, workers=1, cache_enabled=False
        ) as service:
            assert service.cache is None
            first = service.plan("Q3")
            second = service.plan("Q3")
        assert not first.cache_hit and not second.cache_hit
        assert (
            session.telemetry.windowed_counter("planning.queries").total
            == planned_before + 2
        )

    def test_response_metadata_is_populated(self, session):
        with make_service(session, workers=1) as service:
            response = service.plan("Q12")
        assert response.batch_size >= 1
        assert response.latency_ms >= response.queue_ms >= 0.0

    def test_coalesced_counter_matches_responses(self, session):
        # serving.coalesced must count batch-dedup riders too, not just
        # single-flight attachers, so it reconciles with the responses.
        service = make_service(session, workers=1, max_batch=8)
        before = session.telemetry.windowed_counter("serving.coalesced").total
        futures = [
            service.submit(PlanRequest(request_id=index, query="Q12"))
            for index in range(5)
        ]
        with service:
            responses = [f.result(timeout=30) for f in futures]
        coalesced = sum(1 for r in responses if r.coalesced)
        assert coalesced == 4
        assert (
            session.telemetry.windowed_counter("serving.coalesced").total
            == before + coalesced
        )

    def test_cache_key_excludes_tenant(self, session):
        service = make_service(session)
        query = session.resolve_query("Q3")
        key = service.cache_key(query)
        assert "Q3" in key
        assert "tenant" not in key
        service.stop()

    def test_same_name_different_structure_do_not_collide(self, session):
        from repro.catalog.queries import Query

        # Generated workloads name everything q000..qNNN, so two
        # tenants easily submit *different* queries under one name; the
        # structural fingerprint in the cache key keeps them apart.
        join_a = Query(name="dup", tables=("orders", "lineitem"))
        join_b = Query(name="dup", tables=("customer", "orders"))
        with make_service(session, workers=1) as service:
            assert service.cache_key(join_a) != service.cache_key(join_b)
            first = service.plan(join_a, tenant="tenant-a")
            second = service.plan(join_b, tenant="tenant-b")
        assert not second.cache_hit
        assert first.result.query.tables == ("orders", "lineitem")
        assert second.result.query.tables == ("customer", "orders")

    def test_same_name_different_filters_do_not_collide(self, session):
        query = session.resolve_query("Q12")
        filtered = query.with_filter("orders", 0.3)
        service = make_service(session)
        assert service.cache_key(query) != service.cache_key(filtered)
        service.stop()


class TestErrorPropagation:
    def test_planner_failure_reaches_every_waiter(self, session):
        from repro.catalog.queries import Query, QueryError

        # A Query object passes submit-time resolution but references
        # tables the catalog does not have, so the optimizer run itself
        # fails; the exception must land on every attached future and
        # be counted, without wedging the worker pool.
        bad = Query(name="bogus", tables=("no_such_a", "no_such_b"))
        service = make_service(session, workers=1, max_batch=8)
        errors = session.telemetry.windowed_counter("serving.errors")
        errors_before = errors.total
        futures = [
            service.submit(PlanRequest(request_id=index, query=bad))
            for index in range(3)
        ]
        with service:
            for future in futures:
                with pytest.raises(QueryError):
                    future.result(timeout=30)
            # The pool survived the failure and still serves plans.
            assert service.plan("Q3").result is not None
        assert errors.total == errors_before + 3

    def test_failed_key_is_not_cached(self, session):
        from repro.catalog.queries import Query, QueryError

        bad = Query(name="bogus2", tables=("no_such_a", "no_such_b"))
        with make_service(session, workers=1) as service:
            with pytest.raises(QueryError):
                service.submit(
                    PlanRequest(request_id=0, query=bad)
                ).result(timeout=30)
            key = service.cache_key(bad)
            assert key not in service.cache


class TestAsyncFrontend:
    def test_plan_async_roundtrip(self, session):
        async def drive(service):
            return await service.plan_async(
                PlanRequest(request_id=0, query="Q3", tenant="aio")
            )

        with make_service(session, workers=2) as service:
            response = asyncio.run(drive(service))
        assert response.result.query.name == "Q3"
        assert response.request.tenant == "aio"

    def test_concurrent_async_requests(self, session):
        async def drive(service):
            requests = [
                PlanRequest(request_id=index, query=name)
                for index, name in enumerate(
                    ["Q3", "Q2", "Q12", "All", "Q3", "Q2"]
                )
            ]
            return await asyncio.gather(
                *(service.plan_async(r) for r in requests)
            )

        with make_service(session, workers=4) as service:
            responses = asyncio.run(drive(service))
        assert [r.result.query.name for r in responses] == [
            "Q3",
            "Q2",
            "Q12",
            "All",
            "Q3",
            "Q2",
        ]


class TestMetricsWiring:
    def test_serving_metrics_land_in_session_snapshot(
        self, tpch_catalog_sf100
    ):
        session = RaqoSession(tpch_catalog_sf100)
        with session.serve(workers=2) as service:
            service.plan("Q3")
            service.plan("Q3")
        snapshot = session.metrics_snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert counters["serving.completed"] == 2
        assert counters["serving.admitted"] == 2
        assert counters["serving.cache.misses"] == 1
        assert counters["serving.cache.hits"] == 1
        assert counters["serving.cache.inserts"] == 1
        assert gauges["serving.cache.entries"] == 1.0
        assert "serving.latency_ms" in snapshot["histograms"]
