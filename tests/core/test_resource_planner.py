"""Tests for repro.core.resource_planner (Algorithm 1)."""

import contextlib
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_checks import validate_plan
from repro.catalog import tpch
from repro.catalog.queries import Query
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.core.raqo import (
    RaqoCoster,
    RaqoPlanner,
    ResourcePlanningMethod,
    default_cost_model,
)
from repro.core.resource_planner import (
    ResourcePlanningError,
    brute_force_resource_plan,
    feasible_bhj_start,
    hill_climb_resource_plan,
)
from repro.engine.joins import JoinAlgorithm
from repro.planner.cost_interface import PlanningContext
from repro.planner.plan import CandidateBatch
from scalar_reference import cost_batch_per_candidate, scalar_resource_search


def quadratic_bowl(optimum_nc, optimum_cs):
    """A convex cost with a unique interior optimum."""

    def cost(config):
        return (config.num_containers - optimum_nc) ** 2 + (
            config.container_gb - optimum_cs
        ) ** 2

    return cost


class TestBruteForce:
    def test_finds_global_optimum(self, small_cluster):
        outcome = brute_force_resource_plan(
            quadratic_bowl(5, 3.0), small_cluster
        )
        assert outcome.config == ResourceConfiguration(num_containers=5, container_gb=3.0)
        assert outcome.cost == 0.0

    def test_explores_entire_grid(self, small_cluster):
        outcome = brute_force_resource_plan(
            quadratic_bowl(5, 3.0), small_cluster
        )
        assert outcome.iterations == small_cluster.grid_size

    def test_tie_breaks_toward_smaller(self, small_cluster):
        outcome = brute_force_resource_plan(
            lambda config: 1.0, small_cluster
        )
        assert outcome.config == small_cluster.minimum_configuration


def grid_of(cost_fn):
    """``cost_fn`` lifted to a grid cost function, lane by lane."""
    import numpy as np

    return lambda grid: np.array(
        [cost_fn(config) for config in grid.configurations()]
    )


class TestVectorizedBruteForce:
    def test_matches_scalar_on_bowl(self, small_cluster):
        scalar = brute_force_resource_plan(
            quadratic_bowl(5, 3.0), small_cluster
        )
        fast = brute_force_resource_plan(
            quadratic_bowl(5, 3.0),
            small_cluster,
            grid_cost_fn=grid_of(quadratic_bowl(5, 3.0)),
        )
        assert fast == scalar

    def test_grid_cost_fn_used(self, small_cluster):
        import numpy as np

        calls = []

        def grid_cost_fn(grid):
            calls.append(grid.num_configs)
            return np.asarray(grid.counts, dtype=float)

        outcome = brute_force_resource_plan(
            lambda c: float(c.num_containers),
            small_cluster,
            grid_cost_fn=grid_cost_fn,
        )
        assert calls == [small_cluster.grid_size]
        assert outcome.config.num_containers == 1
        assert outcome.iterations == small_cluster.grid_size

    def test_bad_grid_shape_rejected(self, small_cluster):
        import numpy as np

        with pytest.raises(ResourcePlanningError, match="shape"):
            brute_force_resource_plan(
                lambda c: 1.0,
                small_cluster,
                grid_cost_fn=lambda grid: np.zeros(3),
            )


class TestHillClimb:
    def test_finds_interior_optimum(self, small_cluster):
        outcome = hill_climb_resource_plan(
            quadratic_bowl(5, 3.0), small_cluster
        )
        assert outcome.config == ResourceConfiguration(num_containers=5, container_gb=3.0)

    def test_memo_skips_repeat_evaluations(self, paper_cluster):
        cost = quadratic_bowl(60, 7.0)
        evaluations = []

        def counting_cost(config):
            evaluations.append(config)
            return cost(config)

        outcome = hill_climb_resource_plan(counting_cost, paper_cluster)
        # Every invocation was for a distinct configuration...
        assert len(evaluations) == len(set(evaluations))
        # ...and the reported iterations count exactly those.
        assert outcome.iterations == len(evaluations)

    def test_explores_fewer_than_brute_force(self, paper_cluster):
        cost = quadratic_bowl(60, 7.0)
        brute = brute_force_resource_plan(cost, paper_cluster)
        climb = hill_climb_resource_plan(cost, paper_cluster)
        assert climb.config == brute.config
        assert climb.iterations < brute.iterations

    def test_starts_from_minimum_by_default(self, small_cluster):
        # With a monotone increasing cost, the climb stays at the start.
        outcome = hill_climb_resource_plan(
            lambda c: c.total_memory_gb, small_cluster
        )
        assert outcome.config == small_cluster.minimum_configuration

    def test_climbs_to_maximum_on_decreasing_cost(self, small_cluster):
        outcome = hill_climb_resource_plan(
            lambda c: -c.total_memory_gb, small_cluster
        )
        assert outcome.config == small_cluster.maximum_configuration

    def test_custom_start(self, paper_cluster):
        start = ResourceConfiguration(num_containers=50, container_gb=5.0)
        outcome = hill_climb_resource_plan(
            quadratic_bowl(52, 6.0), paper_cluster, start=start
        )
        assert outcome.config == ResourceConfiguration(num_containers=52, container_gb=6.0)

    def test_start_outside_cluster_rejected(self, small_cluster):
        with pytest.raises(ResourcePlanningError):
            hill_climb_resource_plan(
                quadratic_bowl(2, 2.0),
                small_cluster,
                start=ResourceConfiguration(num_containers=1000, container_gb=1.0),
            )

    def test_respects_bounds(self, small_cluster):
        seen = []

        def cost(config):
            seen.append(config)
            return -config.total_memory_gb

        hill_climb_resource_plan(cost, small_cluster)
        for config in seen:
            assert small_cluster.contains(config)

    def test_stuck_on_infinite_plateau_returns_start(
        self, small_cluster
    ):
        outcome = hill_climb_resource_plan(
            lambda c: math.inf, small_cluster
        )
        assert outcome.config == small_cluster.minimum_configuration
        assert outcome.cost == math.inf

    def test_respects_discrete_steps(self):
        cluster = ClusterConditions(
            max_containers=20,
            max_container_gb=8.0,
            container_step=5,
            container_gb_step=2.0,
        )
        outcome = hill_climb_resource_plan(
            quadratic_bowl(11, 5.0), cluster
        )
        # Reachable grid: nc in {1,6,11,16}, cs in {1,3,5,7}.
        assert outcome.config.num_containers in {1, 6, 11, 16}
        assert outcome.config.container_gb in {1.0, 3.0, 5.0, 7.0}
        assert outcome.config == ResourceConfiguration(num_containers=11, container_gb=5.0)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_hill_climb_matches_brute_force_on_convex(
        self, opt_nc, opt_cs
    ):
        """On separable convex costs, greedy coordinate descent finds
        the global optimum."""
        cluster = ClusterConditions(
            max_containers=30, max_container_gb=10.0
        )
        cost = quadratic_bowl(opt_nc, float(opt_cs))
        brute = brute_force_resource_plan(cost, cluster)
        climb = hill_climb_resource_plan(cost, cluster)
        assert climb.cost == pytest.approx(brute.cost)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_never_worse_than_start(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        cluster = ClusterConditions(
            max_containers=20, max_container_gb=5.0
        )
        weights = rng.uniform(-2, 2, size=4)

        def cost(config):
            return float(
                weights[0] * config.num_containers
                + weights[1] * config.container_gb
                + weights[2] * config.num_containers**2 / 20
                + weights[3] * config.container_gb**2
            )

        start = cluster.minimum_configuration
        outcome = hill_climb_resource_plan(cost, cluster, start=start)
        assert outcome.cost <= cost(start) + 1e-9


class TestFeasibleBhjStart:
    def test_small_table_starts_at_minimum(self, paper_cluster):
        start = feasible_bhj_start(0.5, 1.15, paper_cluster)
        assert start == paper_cluster.minimum_configuration

    def test_large_table_needs_bigger_container(self, paper_cluster):
        start = feasible_bhj_start(5.1, 1.15, paper_cluster)
        assert start is not None
        assert start.container_gb * 1.15 >= 5.1
        # And it is the smallest such discrete size.
        assert (start.container_gb - 1.0) * 1.15 < 5.1

    def test_impossible_table_returns_none(self, paper_cluster):
        assert feasible_bhj_start(100.0, 1.15, paper_cluster) is None

    def test_exact_wall_boundary(self, paper_cluster):
        start = feasible_bhj_start(11.5, 1.15, paper_cluster)
        assert start is not None
        assert start.container_gb == 10.0

    def test_negative_size_rejected(self, paper_cluster):
        with pytest.raises(ResourcePlanningError):
            feasible_bhj_start(-1.0, 1.15, paper_cluster)


class TestBhjWallUsesLargestGridSize:
    """``max_container_gb=10.5`` with 1 GB steps offers sizes 1..10 GB,
    so a BHJ whose hash table needs 10.3 GB fits no offered container.
    Every resource-planning path must call it infeasible."""

    CLUSTER = ClusterConditions(max_containers=10, max_container_gb=10.5)
    #: TPC-H scale at which orders (the smaller Q12 input) needs
    #: 10.3 GB of hash memory under the Hive profile.
    SCALE_FACTOR = 70.0

    @pytest.fixture(scope="class")
    def model(self):
        return default_cost_model()

    def test_no_bhj_start(self, model):
        small_gb = 10.3 * model.hash_memory_fraction
        assert (
            feasible_bhj_start(
                small_gb, model.hash_memory_fraction, self.CLUSTER
            )
            is None
        )

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("method", ["hill_climb", "brute_force"])
    def test_every_path_costs_bhj_infeasible(
        self, model, method, vectorized, batched
    ):
        small_gb = 10.3 * model.hash_memory_fraction

        class Sizes:
            def join_io_gb(self, left, right):
                return small_gb, 4 * small_gb

        coster = RaqoCoster(model, method=ResourcePlanningMethod(method))
        context = PlanningContext(estimator=Sizes(), cluster=self.CLUSTER)
        left, right = frozenset({"a"}), frozenset({"b"})
        # Not vectorized: the scalar resource searches, and batches costed
        # candidate by candidate.
        search = (
            contextlib.nullcontext() if vectorized else scalar_resource_search()
        )
        with search:
            if batched:
                # Brute force takes the stacked cost_batch kernel.
                batch = CandidateBatch.build(
                    [(left, right, JoinAlgorithm.BROADCAST_HASH)],
                    context.join_io_gb,
                )
                cost_batch = (
                    coster.cost_batch
                    if vectorized
                    else functools.partial(cost_batch_per_candidate, coster)
                )
                result = cost_batch(batch, context)
                assert not result.feasible[0]
                assert result.configs == (None,)
            else:
                cost, config = coster.join_cost(
                    left, right, JoinAlgorithm.BROADCAST_HASH, context
                )
                assert not cost.is_finite
                assert config is None
        assert context.counters.resource_iterations == 0

    @pytest.mark.parametrize("method", ["hill_climb", "brute_force"])
    def test_selinger_plans_a_sort_merge_join(self, method):
        catalog = tpch.tpch_catalog(self.SCALE_FACTOR)
        planner = RaqoPlanner(
            catalog,
            cluster=self.CLUSTER,
            resource_method=ResourcePlanningMethod(method),
        )
        result = planner.optimize(Query("q12", ("orders", "lineitem")))
        (join,) = list(result.plan.joins_postorder())
        assert join.algorithm is JoinAlgorithm.SORT_MERGE
        assert self.CLUSTER.contains(join.resources)
        validate_plan(
            result.plan, cluster=self.CLUSTER, require_resources=True
        )
