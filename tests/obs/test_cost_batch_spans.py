"""The RAQO coster traces planning one ``cost-batch`` span per
``cost_batch`` call, and nothing per candidate.

The checks read counters and span attributes only, never a clock: the
number of spans follows the number of calls, and the spans' counter
deltas add up to the plan's counters.
"""

import pytest

from repro.catalog import tpch
from repro.core.raqo import (
    DEFAULT_CLUSTER,
    RaqoPlanner,
    ResourcePlanningMethod,
)
from repro.engine.joins import JoinAlgorithm
from repro.obs.tracing import Tracer
from repro.planner.cost_interface import PlanningContext

#: Span names the per-candidate tracing emitted; none may come back.
PER_CANDIDATE_SPANS = {"resource-planning", "grid-costing", "hill-climb"}

#: Counters a ``cost-batch`` span carries as its call's deltas.
DELTAS = ("memo_hits", "cache_hits", "cache_misses", "resource_iterations")


def _traced_plan(catalog, query, method):
    tracer = Tracer(seed=5)
    planner = RaqoPlanner(catalog, tracer=tracer, resource_method=method)
    result = planner.optimize(query)
    return result, tracer.spans()


@pytest.mark.parametrize(
    "method",
    [ResourcePlanningMethod.HILL_CLIMB, ResourcePlanningMethod.BRUTE_FORCE],
)
@pytest.mark.parametrize("query", [tpch.QUERY_Q3, tpch.QUERY_ALL])
class TestOneSpanPerBatch:
    def test_one_span_per_batched_call(
        self, tpch_catalog_sf100, query, method
    ):
        result, spans = _traced_plan(tpch_catalog_sf100, query, method)
        batches = [span for span in spans if span.name == "cost-batch"]
        assert result.counters.batched_calls > 0
        assert len(batches) == result.counters.batched_calls
        assert [span.attributes["candidates"] for span in batches] == list(
            result.batch_sizes
        )
        (plan_span,) = [span for span in spans if span.name == "plan"]
        assert all(span.parent_id == plan_span.span_id for span in batches)
        assert all(span.kind == "planner" for span in batches)

    def test_deltas_sum_to_the_plan_counters(
        self, tpch_catalog_sf100, query, method
    ):
        result, spans = _traced_plan(tpch_catalog_sf100, query, method)
        batches = [span for span in spans if span.name == "cost-batch"]
        for name in DELTAS:
            assert sum(span.attributes[name] for span in batches) == getattr(
                result.counters, name
            ), name
        assert result.counters.resource_iterations > 0
        assert "batch_memo_hits" not in batches[0].attributes
        for span in batches:
            assert 0 <= span.attributes["feasible"] <= (
                span.attributes["candidates"]
            )

    def test_no_per_candidate_spans(self, tpch_catalog_sf100, query, method):
        _, spans = _traced_plan(tpch_catalog_sf100, query, method)
        assert not PER_CANDIDATE_SPANS & {span.name for span in spans}


def test_direct_join_cost_emits_no_span(tpch_catalog_sf100):
    """A re-plan's direct ``join_cost`` call, as the engine makes it,
    traces nothing: the stage span's ``replan`` event carries it."""
    tracer = Tracer(seed=5)
    planner = RaqoPlanner(tpch_catalog_sf100, tracer=tracer)
    context = PlanningContext(
        estimator=planner.estimator, cluster=DEFAULT_CLUSTER, tracer=tracer
    )
    cost, config = planner.coster.join_cost(
        frozenset({"orders"}),
        frozenset({"lineitem"}),
        JoinAlgorithm.SORT_MERGE,
        context,
    )
    assert cost.is_finite and config is not None
    assert context.counters.resource_iterations > 0
    assert len(tracer) == 0

