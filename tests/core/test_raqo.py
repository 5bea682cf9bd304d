"""Tests for repro.core.raqo: the joint planner and its costers."""

import collections
import contextlib
import functools
import math

import pytest

from repro.catalog import tpch
from repro.catalog.queries import Query
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.core.cost_model import SimulatorCostModel
from repro.core.plan_cache import LookupMode
from repro.core.raqo import (
    DEFAULT_CLUSTER,
    DEFAULT_QO_RESOURCES,
    PlannerKind,
    QueryOptimizerCoster,
    RaqoCoster,
    RaqoPlanner,
    ResourcePlanningMethod,
    default_cost_model,
)
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import HIVE_PROFILE
from repro.planner.cost_interface import PlanningContext
from repro.planner.plan import CandidateBatch
from scalar_reference import cost_batch_per_candidate


@pytest.fixture(scope="module")
def catalog():
    return tpch.tpch_catalog(100)


@pytest.fixture()
def context(catalog):
    from repro.catalog.statistics import StatisticsEstimator

    return PlanningContext(
        estimator=StatisticsEstimator(catalog), cluster=DEFAULT_CLUSTER
    )


class TestQueryOptimizerCoster:
    def test_costs_at_fixed_resources(self, context):
        coster = QueryOptimizerCoster(model=default_cost_model())
        cost, resources = coster.join_cost(
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        assert cost.is_finite
        assert resources is None  # two-step: no per-operator resources

    def test_no_resource_iterations(self, context):
        coster = QueryOptimizerCoster(model=default_cost_model())
        coster.join_cost(
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        assert context.counters.resource_iterations == 0

    def test_infeasible_bhj(self, context):
        coster = QueryOptimizerCoster(
            model=SimulatorCostModel(HIVE_PROFILE),
            default_resources=ResourceConfiguration(num_containers=10, container_gb=3.0),
        )
        cost, _ = coster.join_cost(
            frozenset(("orders",)),  # ~17 GB at SF-100: no broadcast
            frozenset(("lineitem",)),
            JoinAlgorithm.BROADCAST_HASH,
            context,
        )
        assert not cost.is_finite

    def test_default_resources_clamped_to_cluster(self, catalog):
        from repro.catalog.statistics import StatisticsEstimator

        tiny = ClusterConditions(max_containers=4, max_container_gb=2.0)
        context = PlanningContext(
            estimator=StatisticsEstimator(catalog), cluster=tiny
        )
        coster = QueryOptimizerCoster(
            model=SimulatorCostModel(HIVE_PROFILE),
            default_resources=ResourceConfiguration(num_containers=100, container_gb=10.0),
        )
        cost, _ = coster.join_cost(
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        # Must match costing at the clamped (4 x 2 GB) configuration.
        oracle = SimulatorCostModel(HIVE_PROFILE)
        expected = oracle.predict_time(
            JoinAlgorithm.SORT_MERGE,
            *context.join_io_gb(["orders"], ["lineitem"]),
            ResourceConfiguration(num_containers=4, container_gb=2.0),
        )
        assert cost.time_s == pytest.approx(expected)

    @pytest.mark.parametrize("estimator", ["learned", "simulator"])
    @pytest.mark.parametrize(
        "cluster",
        [
            DEFAULT_CLUSTER,
            ClusterConditions(max_containers=4, max_container_gb=3.0),
        ],
        ids=["paper", "tiny"],
    )
    def test_cost_batch_matches_join_cost(self, catalog, estimator, cluster):
        """The batch, one scalar predict_time per candidate, equals
        join_cost per candidate bit for bit, infeasible broadcasts
        included."""
        from repro.catalog.statistics import StatisticsEstimator

        model = (
            default_cost_model()
            if estimator == "learned"
            else SimulatorCostModel(HIVE_PROFILE)
        )
        coster = QueryOptimizerCoster(model=model)
        tables = ["nation", "supplier", "orders", "lineitem", "customer"]
        candidates = [
            (frozenset((left,)), frozenset((right,)), algorithm)
            for left in tables
            for right in tables
            if left != right
            for algorithm in JoinAlgorithm
        ]
        per_candidate = functools.partial(cost_batch_per_candidate, coster)
        observed = []
        for cost_batch in (coster.cost_batch, per_candidate):
            context = PlanningContext(
                estimator=StatisticsEstimator(catalog), cluster=cluster
            )
            batch = CandidateBatch.build(candidates, context.join_io_gb)
            result = cost_batch(batch, context)
            observed.append(
                (
                    [t.hex() for t in result.time_s.tolist()],
                    [m.hex() for m in result.money.tolist()],
                    result.feasible.tolist(),
                    result.configs,
                    context.counters,
                    context.batch_sizes,
                )
            )
        assert observed[0] == observed[1]
        assert not all(observed[0][2])


class TestRaqoCoster:
    def test_returns_planned_resources(self, context):
        coster = RaqoCoster(model=default_cost_model())
        cost, resources = coster.join_cost(
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        assert cost.is_finite
        assert resources is not None
        assert context.cluster.contains(resources)

    def test_counts_resource_iterations(self, context):
        coster = RaqoCoster(model=default_cost_model())
        coster.join_cost(
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        assert context.counters.resource_iterations > 0

    def test_brute_force_explores_whole_grid(self, context):
        coster = RaqoCoster(
            model=default_cost_model(),
            method=ResourcePlanningMethod.BRUTE_FORCE,
        )
        coster.join_cost(
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        assert context.counters.resource_iterations == (
            context.cluster.grid_size
        )

    def test_hill_climb_beats_brute_force_iterations(self, catalog):
        from repro.catalog.statistics import StatisticsEstimator

        results = {}
        for method in ResourcePlanningMethod:
            context = PlanningContext(
                estimator=StatisticsEstimator(catalog),
                cluster=DEFAULT_CLUSTER,
            )
            coster = RaqoCoster(
                model=default_cost_model(), method=method
            )
            coster.join_cost(
                frozenset(("orders",)),
                frozenset(("lineitem",)),
                JoinAlgorithm.SORT_MERGE,
                context,
            )
            results[method] = context.counters.resource_iterations
        assert (
            results[ResourcePlanningMethod.HILL_CLIMB]
            < results[ResourcePlanningMethod.BRUTE_FORCE]
        )

    def test_bhj_gets_feasible_start(self, context):
        coster = RaqoCoster(model=SimulatorCostModel(HIVE_PROFILE))
        cost, resources = coster.join_cost(
            frozenset(("orders",)),  # ~17 GB: needs large containers
            frozenset(("lineitem",)),
            JoinAlgorithm.BROADCAST_HASH,
            context,
        )
        if cost.is_finite:
            assert resources.container_gb * 1.15 >= 16.0
        else:
            # orders exceeds even the biggest container: OK too.
            assert (
                17.0
                > context.cluster.max_container_gb
                * HIVE_PROFILE.hash_memory_fraction
            )

    def test_impossible_bhj_is_infeasible(self, context):
        coster = RaqoCoster(model=SimulatorCostModel(HIVE_PROFILE))
        cost, resources = coster.join_cost(
            frozenset(("lineitem",)),  # 72 GB broadcast: impossible
            frozenset(("orders", "customer")),
            JoinAlgorithm.BROADCAST_HASH,
            context,
        )
        assert not cost.is_finite
        assert resources is None

    def test_cache_hits_counted(self, context):
        from repro.core.plan_cache import ResourcePlanCache

        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        # memoize=False so the repeat actually reaches the cache layer
        # (the within-run memo would otherwise absorb it first).
        coster = RaqoCoster(
            model=default_cost_model(), cache=cache, memoize=False
        )
        args = (
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        coster.join_cost(*args)
        iterations_after_first = context.counters.resource_iterations
        coster.join_cost(*args)
        assert context.counters.cache_hits == 1
        assert context.counters.cache_misses == 1
        # No extra hill climbing on the hit.
        assert context.counters.resource_iterations == (
            iterations_after_first
        )

    def test_memo_short_circuits_repeat_costings(self, context):
        coster = RaqoCoster(model=default_cost_model())
        args = (
            frozenset(("orders",)),
            frozenset(("lineitem",)),
            JoinAlgorithm.SORT_MERGE,
            context,
        )
        first = coster.join_cost(*args)
        iterations_after_first = context.counters.resource_iterations
        second = coster.join_cost(*args)
        assert second == first
        assert context.counters.memo_hits == 1
        # The repeat never reaches the planner or the cache layer.
        assert context.counters.resource_iterations == (
            iterations_after_first
        )
        assert context.counters.cache_hits == 0

    def test_memo_distinguishes_algorithms(self, context):
        coster = RaqoCoster(model=default_cost_model())
        for algorithm in (
            JoinAlgorithm.SORT_MERGE,
            JoinAlgorithm.BROADCAST_HASH,
        ):
            coster.join_cost(
                frozenset(("customer",)),
                frozenset(("orders",)),
                algorithm,
                context,
            )
        assert context.counters.memo_hits == 0

    def test_memo_caches_infeasible_results(self, context):
        coster = RaqoCoster(model=SimulatorCostModel(HIVE_PROFILE))
        args = (
            frozenset(("lineitem",)),  # 72 GB broadcast: impossible
            frozenset(("orders", "customer")),
            JoinAlgorithm.BROADCAST_HASH,
            context,
        )
        first, _ = coster.join_cost(*args)
        second, _ = coster.join_cost(*args)
        assert not first.is_finite and not second.is_finite
        assert context.counters.memo_hits == 1

    def test_memo_scoped_to_context(self, catalog):
        from repro.catalog.statistics import StatisticsEstimator

        coster = RaqoCoster(model=default_cost_model())
        for _ in range(2):
            fresh = PlanningContext(
                estimator=StatisticsEstimator(catalog),
                cluster=DEFAULT_CLUSTER,
            )
            coster.join_cost(
                frozenset(("orders",)),
                frozenset(("lineitem",)),
                JoinAlgorithm.SORT_MERGE,
                fresh,
            )
            # A fresh context starts with an empty memo every time.
            assert fresh.counters.memo_hits == 0

    def test_vectorized_brute_force_matches_scalar(self, catalog):
        from repro.catalog.statistics import StatisticsEstimator

        from scalar_reference import scalar_resource_search

        results = {}
        for vectorized in (False, True):
            context = PlanningContext(
                estimator=StatisticsEstimator(catalog),
                cluster=DEFAULT_CLUSTER,
            )
            coster = RaqoCoster(
                model=default_cost_model(),
                method=ResourcePlanningMethod.BRUTE_FORCE,
            )
            search = (
                contextlib.nullcontext()
                if vectorized
                else scalar_resource_search()
            )
            with search:
                results[vectorized] = (
                    coster.join_cost(
                        frozenset(("orders",)),
                        frozenset(("lineitem",)),
                        JoinAlgorithm.SORT_MERGE,
                        context,
                    ),
                    context.counters.resource_iterations,
                )
        assert results[True] == results[False]

    def test_money_weight_changes_objective(self, catalog):
        from repro.catalog.statistics import StatisticsEstimator

        configs = {}
        for weight in (0.0, 50.0):
            context = PlanningContext(
                estimator=StatisticsEstimator(catalog),
                cluster=DEFAULT_CLUSTER,
            )
            coster = RaqoCoster(
                model=default_cost_model(), money_weight=weight
            )
            _, resources = coster.join_cost(
                frozenset(("orders",)),
                frozenset(("lineitem",)),
                JoinAlgorithm.SORT_MERGE,
                context,
            )
            configs[weight] = resources
        # A strong money weight must not pick more total memory.
        assert (
            configs[50.0].total_memory_gb
            <= configs[0.0].total_memory_gb
        )


class TestRaqoPlanner:
    def test_selinger_plans_all_queries(self, catalog):
        planner = RaqoPlanner.default(catalog)
        for query in tpch.EVALUATION_QUERIES:
            result = planner.optimize(query)
            assert result.cost.is_finite
            assert result.plan.tables == frozenset(query.tables)

    def test_raqo_plans_carry_resources(self, catalog):
        planner = RaqoPlanner.default(catalog)
        result = planner.optimize(tpch.QUERY_Q3)
        for join in result.plan.joins_postorder():
            assert join.resources is not None

    def test_baseline_plans_have_no_resources(self, catalog):
        planner = RaqoPlanner.two_step_baseline(catalog)
        result = planner.optimize(tpch.QUERY_Q3)
        for join in result.plan.joins_postorder():
            assert join.resources is None
        assert result.resource_iterations == 0

    def test_fast_randomized_planner_kind(self, catalog):
        planner = RaqoPlanner(
            catalog, planner_kind=PlannerKind.FAST_RANDOMIZED
        )
        result = planner.optimize(tpch.QUERY_Q2)
        assert result.planner_name == "fast_randomized"
        assert result.cost.is_finite

    def test_cache_cleared_between_queries_by_default(self, catalog):
        planner = RaqoPlanner.default(catalog)
        planner.optimize(tpch.QUERY_Q12)
        size_after_first = planner.cache.size()
        planner.optimize(tpch.QUERY_Q12)
        assert planner.cache.size() == size_after_first

    def test_across_query_cache_accumulates(self, catalog):
        planner = RaqoPlanner(
            catalog, clear_cache_between_queries=False
        )
        planner.optimize(tpch.QUERY_Q12)
        first = planner.optimize(tpch.QUERY_Q3)
        assert first.counters.cache_hits > 0

    def test_replan_under_new_cluster(self, catalog):
        planner = RaqoPlanner.default(catalog)
        wide = planner.optimize(tpch.QUERY_Q2)
        narrow = planner.replan(
            tpch.QUERY_Q2,
            ClusterConditions(max_containers=8, max_container_gb=2.0),
        )
        assert narrow.cost.is_finite
        for join in narrow.plan.joins_postorder():
            assert join.resources.num_containers <= 8
            assert join.resources.container_gb <= 2.0
        # Less resources cannot make the predicted plan faster.
        assert narrow.cost.time_s >= wide.cost.time_s * 0.99

    def test_simulator_model_option(self, catalog):
        planner = RaqoPlanner(
            catalog, cost_model=SimulatorCostModel(HIVE_PROFILE)
        )
        result = planner.optimize(tpch.QUERY_Q3)
        assert result.cost.is_finite

    def test_default_cost_model_memoised(self):
        assert default_cost_model() is default_cost_model()

    def test_default_qo_resources_shape(self):
        assert DEFAULT_QO_RESOURCES.num_containers == 10
        assert DEFAULT_QO_RESOURCES.container_gb == 4.0


class _CountingEstimator:
    """Delegates to a real estimator, counting the reads of each
    relation's statistics."""

    def __init__(self, inner):
        self._inner = inner
        self.reads = collections.Counter()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def stats_for(self, tables):
        self.reads[frozenset(tables)] += 1
        return self._inner.stats_for(tables)

    def join_io_gb(self, left_tables, right_tables):
        left_gb = self.stats_for(left_tables).size_gb
        right_gb = self.stats_for(right_tables).size_gb
        return (min(left_gb, right_gb), max(left_gb, right_gb))


class TestRelationSizeTable:
    """The planning context reads each relation's size from the
    estimator once per planning run, whatever the search method."""

    @pytest.mark.parametrize("planner_kind", list(PlannerKind))
    @pytest.mark.parametrize("method", list(ResourcePlanningMethod))
    def test_each_relation_read_at_most_once_per_run(
        self, catalog, method, planner_kind
    ):
        counted = RaqoPlanner(
            catalog, resource_method=method, planner_kind=planner_kind
        )
        counting = _CountingEstimator(counted.estimator)
        counted.estimator = counting
        plain = RaqoPlanner(
            catalog, resource_method=method, planner_kind=planner_kind
        )
        for query in tpch.EVALUATION_QUERIES:
            counting.reads.clear()
            result = counted.optimize(query)
            assert counting.reads
            assert max(counting.reads.values()) == 1, query.name
            expected = plain.optimize(query)
            assert result.plan == expected.plan
            assert result.cost.time_s.hex() == expected.cost.time_s.hex()
            assert result.counters == expected.counters
