"""Unit tests for the Pareto frontier engine and the objective API.

The property suite (``tests/properties/test_pareto_properties.py``)
pins determinism and the weighted-migration safety net; this file
covers the pieces in isolation: strict dominance semantics, the shared
``frontier()`` reference helper, the vectorized skyline against an
O(n^2) brute force, :func:`repro.core.pareto.compute_frontier` against
exhaustive per-stage enumeration on a tiny grid, the
:class:`~repro.core.pareto.PlanObjective` value type, the deprecation
shims, and the serving-layer objective fingerprint.
"""

import math
import warnings

import numpy as np
import pytest

from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import (
    ParetoPlanningResult,
    PlanObjective,
    _weak_skyline_candidates,
    compute_frontier,
)
from repro.core.raqo import (
    RaqoCoster,
    RaqoPlanner,
    ResourcePlanningMethod,
)
from repro.planner.cost_interface import (
    Cost,
    PlanningContext,
    frontier,
)

#: Tiny grid: 4 x 3 = 12 configurations, so exhaustive cross products
#: over two stages stay at 144 candidates.
TINY_CLUSTER = ClusterConditions(max_containers=4, max_container_gb=3.0)


class TestDominanceBoundary:
    """The strict/weak boundary of ``Cost.dominates``."""

    def test_equal_in_both_does_not_dominate(self):
        cost = Cost(time_s=3.0, money=0.5)
        assert not cost.dominates(Cost(time_s=3.0, money=0.5))

    def test_dominance_is_irreflexive(self):
        cost = Cost(time_s=3.0, money=0.5)
        assert not cost.dominates(cost)

    def test_equal_in_one_strictly_better_in_other_dominates(self):
        better_time = Cost(time_s=2.0, money=0.5)
        better_money = Cost(time_s=3.0, money=0.2)
        base = Cost(time_s=3.0, money=0.5)
        assert better_time.dominates(base)
        assert better_money.dominates(base)
        assert not base.dominates(better_time)
        assert not base.dominates(better_money)

    def test_tradeoff_points_do_not_dominate_each_other(self):
        fast = Cost(time_s=1.0, money=9.0)
        cheap = Cost(time_s=9.0, money=1.0)
        assert not fast.dominates(cheap)
        assert not cheap.dominates(fast)


def _brute_force_frontier(entries):
    """O(n^2) reference: keep non-dominated, first-occurrence dedup."""
    kept = []
    seen = set()
    for item, cost in entries:
        if not cost.is_finite:
            continue
        if (cost.time_s, cost.money) in seen:
            continue
        if any(
            other.dominates(cost) for _, other in entries
        ):
            continue
        seen.add((cost.time_s, cost.money))
        kept.append((item, cost))
    kept.sort(key=lambda entry: entry[1].time_s)
    return kept


class TestFrontierHelper:
    def test_matches_brute_force_on_random_entries(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            times = rng.integers(1, 8, size=n).astype(float)
            money = rng.integers(1, 8, size=n).astype(float)
            entries = [
                (i, Cost(time_s=float(times[i]), money=float(money[i])))
                for i in range(n)
            ]
            assert frontier(entries) == _brute_force_frontier(entries)

    def test_drops_infeasible_and_dedups_exact_ties(self):
        entries = [
            ("inf", Cost(time_s=math.inf, money=1.0)),
            ("a", Cost(time_s=2.0, money=2.0)),
            ("b", Cost(time_s=2.0, money=2.0)),  # exact duplicate
            ("c", Cost(time_s=1.0, money=3.0)),
        ]
        kept = frontier(entries)
        assert [item for item, _ in kept] == ["c", "a"]

    def test_first_occurrence_wins_on_ties(self):
        entries = [
            ("second", Cost(time_s=5.0, money=1.0)),
            ("first", Cost(time_s=5.0, money=1.0)),
        ]
        assert [item for item, _ in frontier(entries)] == ["second"]

    def test_empty(self):
        assert frontier([]) == []


class TestVectorizedSkyline:
    def test_admits_a_superset_of_the_exact_frontier(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            times = rng.integers(1, 10, size=n).astype(float)
            money = rng.integers(1, 10, size=n).astype(float)
            admitted = set(
                int(i)
                for i in _weak_skyline_candidates(times, money)
            )
            entries = [
                (i, Cost(time_s=float(times[i]), money=float(money[i])))
                for i in range(n)
            ]
            exact = {item for item, _ in frontier(entries)}
            assert exact <= admitted
            # And the scalar tail over the admitted set recovers the
            # exact frontier -- the two-pass composition is lossless.
            tail = frontier(
                [entries[i] for i in sorted(admitted)]
            )
            assert tail == _brute_force_frontier(entries)


class TestComputeFrontier:
    def _frontier(self, catalog, query):
        planner = RaqoPlanner(
            catalog,
            cluster=TINY_CLUSTER,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
            objective=PlanObjective.pareto(),
        )
        result = planner.optimize(query)
        assert isinstance(result, ParetoPlanningResult)
        return planner, result

    def test_matches_exhaustive_stage_enumeration(
        self, tpch_catalog_sf100
    ):
        """The Minkowski fold equals brute force over all config tuples."""
        planner, result = self._frontier(tpch_catalog_sf100, tpch.QUERY_Q3)
        model = planner.cost_model
        rate = planner.price_model.dollars_per_gb_hour
        context = planner.make_context(
            TINY_CLUSTER, query=tpch.QUERY_Q3
        )
        grid = TINY_CLUSTER.config_grid()
        stage_costs = []
        for join in result.plan.joins_postorder():
            small, large = context.join_io_gb(
                join.left.tables, join.right.tables
            )
            costs = []
            for index in range(grid.num_configs):
                config = grid.config_at(index)
                time_s = model.predict_time(
                    join.algorithm, small, large, config
                )
                if not math.isfinite(time_s):
                    costs.append(None)
                    continue
                money = (
                    config.num_containers
                    * config.container_gb
                    * time_s
                    / 3600.0
                    * rate
                )
                costs.append(Cost(time_s=time_s, money=money))
            stage_costs.append(costs)

        combos = [((), Cost(time_s=0.0, money=0.0))]
        for costs in stage_costs:
            combos = [
                (indexes + (i,), total + cost)
                for indexes, total in combos
                for i, cost in enumerate(costs)
                if cost is not None
            ]
        expected = frontier(combos)
        got = [
            ((point.time_s, point.money), point.configs)
            for point in result.frontier.points
        ]
        assert [(cost.time_s, cost.money) for _, cost in expected] == [
            pair for pair, _ in got
        ]
        # The chosen per-stage allocations match the enumeration too.
        for (indexes, _), (_, configs) in zip(expected, got):
            assert tuple(
                grid.config_at(i) for i in indexes
            ) == configs

    def test_counters_account_for_grid_and_pruning(
        self, tpch_catalog_sf100
    ):
        planner, result = self._frontier(tpch_catalog_sf100, tpch.QUERY_Q3)
        context = planner.make_context(
            TINY_CLUSTER, query=tpch.QUERY_Q3
        )
        resource_frontier = compute_frontier(
            result.plan, context, planner.cost_model, planner.price_model
        )
        grid = TINY_CLUSTER.config_grid()
        distinct = {
            (
                planner.cost_model.model_key(stage.algorithm),
                stage.small_gb,
                stage.large_gb,
            )
            for stage in resource_frontier.stages
        }
        assert context.counters.resource_iterations == (
            grid.num_configs * len(distinct)
        )
        assert (
            context.counters.dominated_pruned
            == resource_frontier.dominated_pruned
        )
        assert context.counters.frontier_points == len(
            resource_frontier
        )
        # The planning result merged the frontier pass's counters.
        assert result.counters.dominated_pruned > 0
        assert result.counters.frontier_points == len(result.frontier)

    def test_search_cost_preserved_and_plan_annotated(
        self, tpch_catalog_sf100
    ):
        _, result = self._frontier(tpch_catalog_sf100, tpch.QUERY_Q3)
        assert result.search_cost is not None
        # pareto executes the fastest point, whose cost leads the
        # frontier and is what the plan is annotated for.
        assert result.cost == result.frontier.points[0].cost
        joins = list(result.plan.joins_postorder())
        assert [j.resources for j in joins] == list(
            result.selected.configs
        )


class TestPlanObjective:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("fastest", PlanObjective.fastest()),
            ("cheapest", PlanObjective.cheapest()),
            ("pareto", PlanObjective.pareto()),
            ("weighted:2.5", PlanObjective.weighted(2.5)),
            ("latency-bound:30", PlanObjective.latency_bounded(30.0)),
            ("latency_bound:30", PlanObjective.latency_bounded(30.0)),
            ("  FASTEST  ", PlanObjective.fastest()),
        ],
    )
    def test_parse_accepts(self, spec, expected):
        assert PlanObjective.parse(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "bogus",
            "weighted",
            "weighted:",
            "weighted:nan",
            "weighted:-1",
            "weighted:inf",
            "latency-bound:0",
            "latency-bound:x",
            "pareto:1",
        ],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            PlanObjective.parse(spec)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PlanObjective(kind="nonsense")
        with pytest.raises(ValueError):
            PlanObjective.weighted(-2.0)
        with pytest.raises(ValueError):
            PlanObjective.latency_bounded(0.0)

    def test_fingerprints_distinguish_objectives(self):
        objectives = [
            PlanObjective.fastest(),
            PlanObjective.cheapest(),
            PlanObjective.pareto(),
            PlanObjective.weighted(1.0),
            PlanObjective.weighted(2.0),
            PlanObjective.latency_bounded(30.0),
            PlanObjective.latency_bounded(60.0),
        ]
        fingerprints = [o.fingerprint() for o in objectives]
        assert len(set(fingerprints)) == len(fingerprints)
        # parse() round-trips every CLI-expressible fingerprint.
        for objective in objectives:
            assert PlanObjective.parse(str(objective)) == objective

    def test_search_weights(self):
        assert PlanObjective.fastest().money_weight == 0.0
        assert PlanObjective.fastest().time_weight == 1.0
        assert PlanObjective.weighted(3.0).money_weight == 3.0
        assert PlanObjective.cheapest().time_weight == 0.0
        assert PlanObjective.cheapest().money_weight == 1.0
        assert not PlanObjective.fastest().needs_frontier
        assert not PlanObjective.weighted(3.0).needs_frontier
        assert PlanObjective.cheapest().needs_frontier
        assert PlanObjective.pareto().needs_frontier
        assert PlanObjective.latency_bounded(5.0).needs_frontier


class TestDeprecationShims:
    """The ``money_weight=`` shim is retired: ``objective=`` is the only
    spelling on the planner and the session."""

    def test_planner_money_weight_raises(self, tpch_catalog_sf100):
        with pytest.raises(TypeError, match="money_weight"):
            RaqoPlanner(tpch_catalog_sf100, money_weight=4.0)

    def test_planner_rejects_both_spellings(self, tpch_catalog_sf100):
        with pytest.raises(TypeError):
            RaqoPlanner(
                tpch_catalog_sf100,
                objective=PlanObjective.fastest(),
                money_weight=1.0,
            )

    def test_clone_does_not_rewarn(self, tpch_catalog_sf100):
        planner = RaqoPlanner(
            tpch_catalog_sf100, objective=PlanObjective.weighted(4.0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = planner.clone()
        assert clone.objective == PlanObjective.weighted(4.0)

    def test_session_money_weight_raises(self, tpch_catalog_sf100):
        from repro.api import RaqoSession

        with pytest.raises(TypeError, match="money_weight"):
            RaqoSession(tpch_catalog_sf100, money_weight=2.0)

    def test_coster_money_weight_is_not_deprecated(
        self, tpch_catalog_sf100
    ):
        from repro.core.raqo import default_cost_model

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RaqoCoster(model=default_cost_model(), money_weight=2.0)


class TestSessionObjectives:
    def test_per_call_objective_override(self, tpch_catalog_sf100):
        from repro.api import RaqoSession

        session = RaqoSession(
            tpch_catalog_sf100,
            cluster=TINY_CLUSTER,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        )
        default = session.plan("Q3")
        cheapest = session.plan(
            "Q3", objective=PlanObjective.cheapest()
        )
        assert not isinstance(default, ParetoPlanningResult)
        assert isinstance(cheapest, ParetoPlanningResult)
        assert cheapest.cost.money <= default.cost.money
        # The override planner is cached and reused.
        again = session.plan("Q3", objective=PlanObjective.cheapest())
        assert again.cost == cheapest.cost

    def test_frontier_metrics_recorded(self, tpch_catalog_sf100):
        from repro.api import RaqoSession

        session = RaqoSession(
            tpch_catalog_sf100,
            cluster=TINY_CLUSTER,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
            objective=PlanObjective.pareto(),
        )
        result = session.plan("Q3")
        snapshot = session.metrics_snapshot()
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]
        assert counters["planner.dominated_pruned"] == (
            result.frontier.dominated_pruned
        )
        assert histograms["planner.frontier_size"]["count"] == 1


class TestServingObjectiveFingerprint:
    def test_objective_splits_cache_keys(self, tpch_catalog_sf100):
        from repro.api import RaqoSession

        session = RaqoSession(tpch_catalog_sf100)
        fast = session.serve()
        cheap = session.serve(objective=PlanObjective.cheapest())
        query = session.resolve_query("Q3")
        assert fast.cache_key(query) != cheap.cache_key(query)
        assert "cheapest" in cheap.cache_key(query)

    def test_service_plans_with_its_objective(self, tpch_catalog_sf100):
        from repro.api import RaqoSession

        session = RaqoSession(
            tpch_catalog_sf100,
            cluster=TINY_CLUSTER,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        )
        with session.serve(
            workers=1, objective=PlanObjective.cheapest()
        ) as service:
            response = service.plan("Q3")
        assert isinstance(response.result, ParetoPlanningResult)
        assert response.result.objective == PlanObjective.cheapest()
