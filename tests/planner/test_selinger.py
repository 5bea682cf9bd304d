"""Tests for repro.planner.selinger."""

import dataclasses
import itertools
import math

import pytest

from repro.catalog.queries import Query
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.engine.joins import JoinAlgorithm
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.planner.cost_interface import (
    Cost,
    PlanningContext,
    get_plan_cost,
)
from repro.planner.plan import join_order, left_deep_plan, plan_signature
from repro.planner.selinger import PlanningError, SelingerPlanner
from scalar_reference import PerCandidateCoster, as_reference


class SizeCoster(PerCandidateCoster):
    """Cost = output size of the join (classic Cout metric)."""

    def join_cost(self, left_tables, right_tables, algorithm, context):
        stats = context.estimator.join_stats(left_tables, right_tables)
        return Cost(time_s=stats.size_gb, money=0.0), None


def make_context(catalog):
    return PlanningContext(
        estimator=StatisticsEstimator(catalog),
        cluster=ClusterConditions(max_containers=10, max_container_gb=4.0),
    )


class TestSelinger:
    def test_single_join_query(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(Query("q", ("orders", "lineitem")), context)
        assert result.plan.num_joins == 1
        assert result.cost.is_finite

    def test_left_deep_shape(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(
            Query("q", ("customer", "orders", "lineitem")), context
        )
        # Left-deep: every right child is a scan.
        for join in result.plan.joins_postorder():
            assert not join.right.is_join

    def test_optimal_vs_exhaustive_left_deep(self, tpch_catalog_sf100):
        """DP must match brute-force enumeration of left-deep orders."""
        tables = ("customer", "orders", "lineitem", "supplier")
        coster = SizeCoster()
        planner = SelingerPlanner(coster)
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(Query("q", tables), context)

        graph = tpch_catalog_sf100.join_graph
        best = None
        for perm in itertools.permutations(tables):
            # Skip orders that create cross joins.
            valid = all(
                graph.edges_between(perm[: i + 1], [perm[i + 1]])
                for i in range(len(perm) - 1)
            )
            if not valid:
                continue
            plan = left_deep_plan(perm)
            _, cost = get_plan_cost(plan, coster, context)
            if best is None or cost.time_s < best:
                best = cost.time_s
        assert result.cost.time_s == pytest.approx(best)

    def test_no_cross_products(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(
            Query("q", ("region", "nation", "supplier", "partsupp")),
            context,
        )
        graph = tpch_catalog_sf100.join_graph
        for join in result.plan.joins_postorder():
            assert graph.edges_between(
                join.left.tables, join.right.tables
            )

    def test_counts_join_costings(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(
            Query("q", ("customer", "orders", "lineitem")), context
        )
        assert result.counters.join_costings > 0
        assert context.counters.join_costings == (
            result.counters.join_costings
        )

    def test_counter_deltas_accumulate_in_context(
        self, tpch_catalog_sf100
    ):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        first = planner.plan(Query("q", ("orders", "lineitem")), context)
        second = planner.plan(
            Query("q", ("orders", "lineitem")), context
        )
        assert context.counters.join_costings == (
            first.counters.join_costings + second.counters.join_costings
        )

    def test_invalid_query_rejected(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        from repro.catalog.queries import QueryError

        with pytest.raises(QueryError):
            planner.plan(Query("q", ("customer", "part")), context)

    def test_plan_covers_all_tables(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        tables = (
            "region",
            "nation",
            "supplier",
            "customer",
            "orders",
            "lineitem",
        )
        result = planner.plan(Query("q", tables), context)
        assert result.plan.tables == frozenset(tables)

    def test_result_metadata(self, tpch_catalog_sf100):
        planner = SelingerPlanner(SizeCoster())
        context = make_context(tpch_catalog_sf100)
        query = Query("named", ("orders", "lineitem"))
        result = planner.plan(query, context)
        assert result.planner_name == "selinger"
        assert result.query is query
        assert result.wall_time_s >= 0


class TieCoster(PerCandidateCoster):
    """Small-integer costs, so that candidates tie exactly.

    A BHJ costs the SMJ vector with time and money swapped, so under
    equal weights the two implementations of a join always tie, and
    integer sums tie across extensions too. Every candidate building
    ``dead`` is infeasible: an SMJ is infinite in both objectives, a
    BHJ has a finite time and an infinite price (a ``0 * inf`` lane
    under a time-only objective). Each costing records a span naming
    its candidate, and its configuration does too.
    """

    def __init__(self, dead):
        self.dead = frozenset(dead)

    def join_cost(self, left_tables, right_tables, algorithm, context):
        (table,) = right_tables
        smj = algorithm is JoinAlgorithm.SORT_MERGE
        with context.tracer.span(
            "stub-cost",
            kind="planner",
            attributes={
                "left": ",".join(sorted(left_tables)),
                "right": table,
                "algorithm": algorithm.value,
            },
        ):
            if left_tables | right_tables == self.dead:
                cost = Cost(
                    time_s=math.inf if smj else 1.0, money=math.inf
                )
            else:
                time_s = float(len(left_tables) + len(table) % 3)
                money = float(ord(table[0]) % 4)
                if not smj:
                    time_s, money = money, time_s
                cost = Cost(time_s=time_s, money=money)
        config = ResourceConfiguration(
            num_containers=len(table), container_gb=1.0 if smj else 2.0
        )
        return cost, config


class TestBatchedChampionScan:
    """Batched levels pick champions from float arrays; they must pick
    the per-candidate reference's champions, ties and infeasible lanes
    included."""

    TABLES = ("customer", "lineitem", "nation", "orders", "supplier")

    def _run(self, catalog, batched, weights):
        tracer = Tracer(seed=3)
        context = make_context(catalog)
        context.tracer = tracer
        planner = SelingerPlanner(
            TieCoster(dead=("customer", "orders")),
            time_weight=weights[0],
            money_weight=weights[1],
        )
        if not batched:
            planner = as_reference(planner)
        result = planner.plan(Query("q", self.TABLES), context)
        counters = dataclasses.replace(result.counters, batched_calls=0)
        return (
            result.plan,
            plan_signature(result.plan),
            result.cost.time_s.hex(),
            result.cost.money.hex(),
            counters,
            canonical_span_tree_json(tracer),
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "weights", [(1.0, 0.0), (0.5, 0.5), (0.25, 0.75)]
    )
    def test_batched_matches_scalar(self, tpch_catalog_sf100, weights):
        batched = self._run(tpch_catalog_sf100, True, weights)
        scalar = self._run(tpch_catalog_sf100, False, weights)
        assert batched == scalar
        # The infeasible subset is never a sub-plan of the result.
        assert not any(
            join.tables == frozenset(("customer", "orders"))
            for join in batched[0].joins_postorder()
        )
