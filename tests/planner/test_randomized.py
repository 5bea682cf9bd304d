"""Tests for repro.planner.randomized."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.queries import Query
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.planner.cost_interface import Cost, PlanningContext
from repro.planner.plan import plan_signature
from repro.planner.randomized import (
    FastRandomizedPlanner,
    ParetoFrontier,
    mutate,
    plan_is_valid,
    random_join_tree,
)
from repro.planner.selinger import SelingerPlanner
from scalar_reference import PerCandidateCoster


class SizeCoster(PerCandidateCoster):
    def join_cost(self, left_tables, right_tables, algorithm, context):
        stats = context.estimator.join_stats(left_tables, right_tables)
        return Cost(time_s=stats.size_gb, money=stats.size_gb * 0.1), None


def make_context(catalog):
    return PlanningContext(
        estimator=StatisticsEstimator(catalog),
        cluster=ClusterConditions(max_containers=10, max_container_gb=4.0),
    )


class TestParetoFrontier:
    def test_insert_and_dominance(self):
        frontier = ParetoFrontier(alpha=0.0)
        assert frontier.offer("p1", Cost(10.0, 10.0))
        assert frontier.offer("p2", Cost(5.0, 20.0))
        assert len(frontier) == 2
        # Dominates p1 -> p1 evicted.
        assert frontier.offer("p3", Cost(9.0, 9.0))
        entries = frontier.entries()
        assert len(entries) == 2
        assert all(c != Cost(10.0, 10.0) for _, c in entries)

    def test_alpha_approximation_rejects_near_duplicates(self):
        frontier = ParetoFrontier(alpha=0.10)
        frontier.offer("p1", Cost(10.0, 10.0))
        # Within 10% in both objectives: rejected.
        assert not frontier.offer("p2", Cost(9.5, 9.5))
        # Clearly better in one objective: accepted.
        assert frontier.offer("p3", Cost(5.0, 12.0))

    def test_infinite_cost_rejected(self):
        frontier = ParetoFrontier()
        assert not frontier.offer("p", Cost(float("inf"), 1.0))
        assert len(frontier) == 0

    def test_entries_sorted_by_time(self):
        frontier = ParetoFrontier(alpha=0.0)
        frontier.offer("a", Cost(10.0, 1.0))
        frontier.offer("b", Cost(1.0, 10.0))
        times = [c.time_s for _, c in frontier.entries()]
        assert times == sorted(times)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            ParetoFrontier(alpha=-0.1)


class TestRandomJoinTree:
    def test_covers_tables_and_valid(self, tpch_catalog_sf100, rng):
        tables = ("customer", "orders", "lineitem", "supplier")
        graph = tpch_catalog_sf100.join_graph
        tree = random_join_tree(tables, graph, rng)
        assert tree.tables == frozenset(tables)
        assert plan_is_valid(tree, graph)

    def test_single_table(self, tpch_catalog_sf100, rng):
        tree = random_join_tree(
            ("orders",), tpch_catalog_sf100.join_graph, rng
        )
        assert tree.tables == frozenset(("orders",))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_trees_always_valid(self, seed):
        from repro.catalog import tpch

        catalog = tpch.tpch_catalog(1)
        rng = np.random.default_rng(seed)
        tree = random_join_tree(
            tpch.TABLE_NAMES, catalog.join_graph, rng
        )
        assert tree.tables == frozenset(tpch.TABLE_NAMES)
        assert plan_is_valid(tree, catalog.join_graph)


class TestMutations:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_property_mutations_preserve_tables_and_validity(self, seed):
        from repro.catalog import tpch

        catalog = tpch.tpch_catalog(1)
        rng = np.random.default_rng(seed)
        plan = random_join_tree(
            tpch.TABLE_NAMES, catalog.join_graph, rng
        )
        for _ in range(20):
            candidate = mutate(plan, catalog.join_graph, rng)
            if candidate is None:
                continue
            assert candidate.tables == plan.tables
            assert plan_is_valid(candidate, catalog.join_graph)
            plan = candidate

    def test_mutation_changes_something_eventually(
        self, tpch_catalog_sf100, rng
    ):
        tables = ("customer", "orders", "lineitem")
        plan = random_join_tree(
            tables, tpch_catalog_sf100.join_graph, rng
        )
        signatures = {plan_signature(plan)}
        for _ in range(50):
            candidate = mutate(
                plan, tpch_catalog_sf100.join_graph, rng
            )
            if candidate is not None:
                signatures.add(plan_signature(candidate))
        assert len(signatures) > 1


class TestFastRandomizedPlanner:
    def test_finds_plan(self, tpch_catalog_sf100):
        planner = FastRandomizedPlanner(SizeCoster(), iterations=3)
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(
            Query("q", ("customer", "orders", "lineitem")), context
        )
        assert result.plan.tables == frozenset(
            ("customer", "orders", "lineitem")
        )
        assert result.cost.is_finite
        assert len(result.frontier) >= 1

    def test_deterministic_given_seed(self, tpch_catalog_sf100):
        query = Query("q", ("customer", "orders", "lineitem", "nation"))
        results = []
        for _ in range(2):
            planner = FastRandomizedPlanner(
                SizeCoster(), iterations=3, seed=11
            )
            context = make_context(tpch_catalog_sf100)
            results.append(planner.plan(query, context))
        assert plan_signature(results[0].plan) == plan_signature(
            results[1].plan
        )
        assert results[0].cost == results[1].cost

    def test_matches_selinger_on_small_query(self, tpch_catalog_sf100):
        """With enough iterations the randomized planner should find a
        plan at least as good as the left-deep DP optimum (bushy plans
        are a superset of left-deep ones for this cost metric)."""
        query = Query("q", ("customer", "orders", "lineitem"))
        selinger = SelingerPlanner(SizeCoster()).plan(
            query, make_context(tpch_catalog_sf100)
        )
        randomized = FastRandomizedPlanner(
            SizeCoster(), iterations=10, seed=0
        ).plan(query, make_context(tpch_catalog_sf100))
        assert randomized.cost.time_s <= selinger.cost.time_s * 1.001

    def test_plan_valid_no_cross_products(self, tpch_catalog_sf100):
        planner = FastRandomizedPlanner(SizeCoster(), iterations=2)
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(
            Query(
                "q", ("region", "nation", "supplier", "partsupp", "part")
            ),
            context,
        )
        assert plan_is_valid(
            result.plan, tpch_catalog_sf100.join_graph
        )

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            FastRandomizedPlanner(SizeCoster(), iterations=0)

    def test_frontier_is_pareto(self, tpch_catalog_sf100):
        planner = FastRandomizedPlanner(
            SizeCoster(), iterations=5, alpha=0.0
        )
        context = make_context(tpch_catalog_sf100)
        result = planner.plan(
            Query("q", ("customer", "orders", "lineitem", "supplier")),
            context,
        )
        entries = result.frontier
        for i, (_, a) in enumerate(entries):
            for j, (_, b) in enumerate(entries):
                if i != j:
                    assert not a.dominates(b)
