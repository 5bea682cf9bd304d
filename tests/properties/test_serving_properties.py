"""Serving determinism properties: worker counts must not be observable.

The service's contract (``repro/serving/service.py``) is that pool
sizing is a deployment knob, not a semantic one: the same seed and the
same request trace produce

1. identical plans (signature and exact Cost floats) for every request
   at 1, 2, and 8 workers, with the cache enabled;
2. a byte-identical canonical span tree across those worker counts
   (request spans keyed by request id, plan spans by cache key, all
   scheduling-dependent facts quarantined on ``wall_`` attributes);
3. the same plans with the cache disabled entirely (the cache is a
   latency feature, never a semantic one);

and that admission control enforces its two invariants: concurrent
optimizer runs never exceed ``max_inflight``, and a rejected request is
never planned -- not even partially.
"""

import pytest

from repro.api import RaqoSession
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.planner.plan import plan_signature
from repro.serving import (
    Overloaded,
    ReplayConfig,
    build_requests,
    replay,
)

pytestmark = pytest.mark.slow

WORKER_COUNTS = (1, 2, 8)

#: The shared trace all worker-count sweeps replay: bursty arrivals
#: (the adversarial case for batching nondeterminism), several tenants,
#: enough requests that every evaluation query repeats many times.
TRACE = ReplayConfig(
    num_requests=60, arrival="bursty", num_tenants=4, seed=17
)


def replay_once(catalog, workers, *, cache_enabled=True, config=TRACE):
    """One full service lifecycle over the shared trace.

    Fresh session + tracer per run: nothing can leak between worker
    counts except what the test means to compare.
    """
    tracer = Tracer(seed=0)
    session = RaqoSession(catalog, tracer=tracer)
    service = session.serve(
        workers=workers,
        max_queue=4096,  # ample: determinism holds only without rejections
        cache_enabled=cache_enabled,
    )
    requests = build_requests(config, catalog=catalog)
    with service:
        report = replay(service, requests, label=f"w{workers}")
    assert report.rejected == 0
    plans = {
        response.request.request_id: (
            plan_signature(response.result.plan),
            response.result.cost.time_s,
            response.result.cost.money,
        )
        for response in report.responses
    }
    assert len(plans) == config.num_requests
    return plans, canonical_span_tree_json(tracer), report


class TestWorkerCountBitIdentity:
    @pytest.fixture(scope="class")
    def runs(self, tpch_catalog_sf100):
        return {
            workers: replay_once(tpch_catalog_sf100, workers)
            for workers in WORKER_COUNTS
        }

    def test_plans_identical_across_worker_counts(self, runs):
        reference_plans, _, _ = runs[WORKER_COUNTS[0]]
        for workers in WORKER_COUNTS[1:]:
            plans, _, _ = runs[workers]
            assert plans == reference_plans

    def test_span_trees_byte_identical_across_worker_counts(self, runs):
        reference_tree = runs[WORKER_COUNTS[0]][1]
        assert reference_tree  # the tracer really recorded something
        for workers in WORKER_COUNTS[1:]:
            assert runs[workers][1] == reference_tree

    def test_every_key_planned_exactly_once(self, runs):
        """With ample cache capacity nothing is evicted, so the trace's
        distinct queries each cost exactly one optimizer run."""
        for workers in WORKER_COUNTS:
            report = runs[workers][2]
            planned = sum(
                1
                for response in report.responses
                if not response.cache_hit and not response.coalesced
            )
            distinct = len(
                {r.result.query.name for r in report.responses}
            )
            assert planned == distinct

    def test_same_trace_replayed_twice_is_identical(
        self, tpch_catalog_sf100, runs
    ):
        plans, tree, _ = replay_once(tpch_catalog_sf100, 2)
        assert plans == runs[2][0]
        assert tree == runs[2][1]


class TestCacheTransparency:
    def test_cache_off_produces_the_same_plans(self, tpch_catalog_sf100):
        config = ReplayConfig(num_requests=25, seed=23)
        cached, _, _ = replay_once(
            tpch_catalog_sf100, 2, cache_enabled=True, config=config
        )
        uncached, _, report = replay_once(
            tpch_catalog_sf100, 2, cache_enabled=False, config=config
        )
        assert cached == uncached
        assert all(
            not response.cache_hit for response in report.responses
        )


class TestAdmissionInvariants:
    def test_planning_concurrency_never_exceeds_max_inflight(
        self, tpch_catalog_sf100
    ):
        # Many distinct queries (low cache traffic) over many workers,
        # but a cap of 2 concurrent optimizer runs.
        session = RaqoSession(tpch_catalog_sf100)
        service = session.serve(
            workers=8, max_inflight=2, max_queue=4096
        )
        config = ReplayConfig(
            num_requests=30, unique_queries=16, seed=29
        )
        requests = build_requests(config, catalog=session.catalog)
        with service:
            report = replay(service, requests, label="capped")
        assert report.completed == 30
        assert 1 <= service.planning_high_water <= 2

    def test_rejected_requests_are_never_planned(
        self, tpch_catalog_sf100
    ):
        # Submit against a stalled pool: the 4-deep queue fills
        # deterministically and everything else bounces.
        session = RaqoSession(tpch_catalog_sf100)
        service = session.serve(workers=2, max_queue=4)
        requests = build_requests(
            ReplayConfig(num_requests=20, seed=31),
            catalog=session.catalog,
        )
        admitted = []
        rejected = 0
        for request in requests:
            try:
                future = service.submit(request)
            except Overloaded:
                rejected += 1
            else:
                admitted.append((request, future))
        assert len(admitted) == 4
        assert rejected == 16
        queries = session.telemetry.windowed_counter("planning.queries")
        assert queries.total == 0
        with service:
            pass
        # Draining planned exactly the admitted requests' distinct
        # cache keys -- the rejected 16 never touched the optimizer.
        distinct_admitted = {
            service.cache_key(session.resolve_query(request.query))
            for request, _ in admitted
        }
        assert (
            session.telemetry.windowed_counter("planning.queries").total
            == len(distinct_admitted)
        )
        for _, future in admitted:
            assert future.result(timeout=0).result is not None
