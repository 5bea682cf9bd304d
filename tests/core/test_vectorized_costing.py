"""Scalar vs vectorized costing equivalence (property-style tests).

The vectorized fast path (config grid -> batched predict -> argmin) must
return exactly what the scalar reference loop returns -- same values,
same winning configuration, same tie-breaks -- across clusters, data
sizes, join algorithms, and both engine profiles. The scalar path is the
oracle; these tests pin the fast path to it.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.core.cost_model import (
    CostModelSuite,
    EXTENDED_FEATURES,
    FeatureMap,
    JoinCostEstimator,
    OperatorCostModel,
    PAPER_FEATURES,
    SimulatorCostModel,
)
from repro.core.pareto import PlanObjective
from repro.core.raqo import (
    RaqoCoster,
    ResourcePlanningMethod,
    default_cost_model,
)
from repro.core.resource_planner import (
    brute_force_resource_plan,
    feasible_bhj_start,
    hill_climb_resource_plan,
)
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import HIVE_PROFILE, SPARK_PROFILE
from repro.planner.cost_interface import PlanningContext
from scalar_reference import scalar_resource_search

PROFILES = {"hive": HIVE_PROFILE, "spark": SPARK_PROFILE}

#: Small clusters keep the hypothesis sweeps fast; shapes vary widely.
clusters = st.builds(
    ClusterConditions,
    max_containers=st.integers(min_value=1, max_value=24),
    max_container_gb=st.floats(min_value=1.0, max_value=16.0),
    container_step=st.integers(min_value=1, max_value=3),
    container_gb_step=st.sampled_from((0.5, 1.0, 2.0)),
)
data_sizes = st.floats(min_value=0.01, max_value=200.0)
algorithms = st.sampled_from(list(JoinAlgorithm))
profile_names = st.sampled_from(sorted(PROFILES))

#: Hill-climb clusters: longer count axes (climbs of many rounds) and,
#: besides dyadic sizes, 0.1 and 0.3 GB steps, whose float moves drift
#: off the grid, so the grid climb has to fall back to the scalar one.
climb_clusters = st.builds(
    ClusterConditions,
    max_containers=st.integers(min_value=1, max_value=60),
    max_container_gb=st.floats(min_value=1.0, max_value=16.0),
    container_step=st.integers(min_value=1, max_value=3),
    container_gb_step=st.sampled_from((0.1, 0.3, 0.5, 1.0, 2.0)),
)
#: Learned models and the simulator oracle, for both engine profiles.
estimator_names = st.sampled_from(
    [f"{kind}:{name}" for kind in ("learned", "simulator") for name in PROFILES]
)


def _estimator(name):
    kind, profile = name.split(":")
    if kind == "learned":
        return default_cost_model(PROFILES[profile])
    return SimulatorCostModel(PROFILES[profile])


def _scalar_times(model, algorithm, ss, ls, cluster):
    return np.array(
        [
            model.predict_time(algorithm, ss, ls, config)
            for config in cluster.iter_configurations()
        ]
    )


class TestConfigGrid:
    def test_grid_matches_iteration_order(self, paper_cluster):
        grid = paper_cluster.config_grid()
        configs = list(paper_cluster.iter_configurations())
        assert grid.num_configs == paper_cluster.grid_size == len(configs)
        assert list(grid.configurations()) == configs
        assert [grid.config_at(i) for i in range(3)] == configs[:3]

    def test_grid_is_cached(self, paper_cluster):
        assert paper_cluster.config_grid() is paper_cluster.config_grid()

    def test_grid_arrays_read_only(self, paper_cluster):
        grid = paper_cluster.config_grid()
        with pytest.raises(ValueError):
            grid.counts[0] = 99.0

    def test_total_memory(self, small_cluster):
        grid = small_cluster.config_grid()
        np.testing.assert_array_equal(
            grid.total_memory_gb, grid.counts * grid.sizes
        )

    def test_dimension_lookup_by_name(self, paper_cluster):
        assert paper_cluster.dimension("container_gb").maximum == 10.0
        assert paper_cluster.dimension("num_containers").maximum == 100.0

    def test_unknown_dimension_rejected(self, paper_cluster):
        from repro.cluster.cluster import ResourceError

        with pytest.raises(ResourceError, match="bogus"):
            paper_cluster.dimension("bogus")


class TestLearnedModelEquivalence:
    @given(
        cluster=clusters,
        ss=data_sizes,
        ls=data_sizes,
        algorithm=algorithms,
        profile_name=profile_names,
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_predictions_bit_identical(
        self, cluster, ss, ls, algorithm, profile_name
    ):
        ss, ls = sorted((ss, ls))
        model = default_cost_model(PROFILES[profile_name])
        batched = model.predict_time_grid(
            algorithm, ss, ls, cluster.config_grid()
        )
        scalar = _scalar_times(model, algorithm, ss, ls, cluster)
        np.testing.assert_array_equal(batched, scalar)

    @given(
        cluster=clusters,
        ss=data_sizes,
        ls=data_sizes,
        profile_name=profile_names,
    )
    @settings(max_examples=40, deadline=None)
    def test_paper_feature_map_equivalence(
        self, cluster, ss, ls, profile_name
    ):
        ss, ls = sorted((ss, ls))
        model = default_cost_model(
            PROFILES[profile_name], feature_map=PAPER_FEATURES
        )
        for algorithm in JoinAlgorithm:
            batched = model.predict_time_grid(
                algorithm, ss, ls, cluster.config_grid()
            )
            scalar = _scalar_times(model, algorithm, ss, ls, cluster)
            np.testing.assert_array_equal(batched, scalar)


def _numpy_scalar_transform(ss, ls, cs, nc):
    """A custom feature transform built from float64 ufuncs: on Python
    floats it returns numpy scalars, on arrays it returns arrays."""
    return (
        np.sqrt(np.add(ss, 1.0)),
        np.multiply(cs, nc),
        np.log1p(ls),
        np.divide(ss, nc),
        np.float64(2.5),
    )


NUMPY_SCALAR_FEATURES = FeatureMap(
    name="numpy-scalars",
    feature_names=("sqrt(ss+1)", "cs*nc", "log1p(ls)", "ss/nc", "const"),
    transform=_numpy_scalar_transform,
)


def _scalar_only_transform(ss, ls, cs, nc):
    """A transform that rejects arrays, as one written with ``math``
    functions for Python floats would: the grid kernels must fall back
    to looping the scalar predict."""
    if np.ndim(ss) or np.ndim(cs):
        raise TypeError("scalar inputs only")
    return (math.log1p(ss), math.sqrt(cs * nc), ls / nc)


SCALAR_ONLY_FEATURES = FeatureMap(
    name="scalar-only",
    feature_names=("log1p(ss)", "sqrt(cs*nc)", "ls/nc"),
    transform=_scalar_only_transform,
)

#: Every feature map the lane tests draw from: the paper's, the
#: extended one, numpy-scalar ufuncs and one the kernels fall back on.
FEATURE_MAPS = (
    PAPER_FEATURES,
    EXTENDED_FEATURES,
    NUMPY_SCALAR_FEATURES,
    SCALAR_ONLY_FEATURES,
)

#: Input sizes, with the edge values every lane must agree on.
edge_sizes = st.one_of(
    st.sampled_from([0.0, 1e-9, 1e6, math.nan, math.inf]),
    st.floats(min_value=0.0, max_value=1e4),
)


@st.composite
def operator_models(draw):
    """A linear model over one of the feature maps, with random
    coefficients, or a fitted default model."""
    feature_map = draw(st.sampled_from(FEATURE_MAPS + (None,)))
    algorithm = draw(algorithms)
    if feature_map is None:
        return default_cost_model().models[algorithm]
    weights = st.floats(min_value=-1e3, max_value=1e3)
    size = len(feature_map)
    coefficients = draw(st.lists(weights, min_size=size, max_size=size))
    return OperatorCostModel(
        algorithm=algorithm,
        feature_map=feature_map,
        coefficients=tuple(coefficients),
        intercept=draw(weights),
    )


class TestScalarPredictLanes:
    """``OperatorCostModel.predict`` runs the transform on Python floats
    with no array round trip; it must equal the grid kernel's lanes bit
    for bit."""

    @given(
        model=operator_models(),
        cluster=clusters,
        ss=edge_sizes,
        ls=edge_sizes,
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_predict_equals_grid_lanes(self, model, cluster, ss, ls, data):
        grid = cluster.config_grid()
        lane = data.draw(st.integers(0, grid.num_configs - 1))
        config = grid.config_at(lane)
        with np.errstate(all="ignore"):
            scalar = model.predict(ss, ls, config)
            lanes = model.predict_grid(ss, ls, grid.counts, grid.sizes)
        assert type(scalar) is float
        assert scalar.hex() == float(lanes[lane]).hex()


class TestSimulatorEquivalence:
    @given(
        cluster=clusters,
        ss=data_sizes,
        ls=data_sizes,
        algorithm=algorithms,
        profile_name=profile_names,
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_predictions_bit_identical(
        self, cluster, ss, ls, algorithm, profile_name
    ):
        ss, ls = sorted((ss, ls))
        model = SimulatorCostModel(PROFILES[profile_name])
        batched = model.predict_time_grid(
            algorithm, ss, ls, cluster.config_grid()
        )
        scalar = _scalar_times(model, algorithm, ss, ls, cluster)
        np.testing.assert_array_equal(batched, scalar)

    def test_fixed_reducers_respected(self, paper_cluster):
        model = SimulatorCostModel(HIVE_PROFILE, num_reducers=4)
        batched = model.predict_time_grid(
            JoinAlgorithm.SORT_MERGE, 5.0, 50.0, paper_cluster.config_grid()
        )
        scalar = _scalar_times(
            model, JoinAlgorithm.SORT_MERGE, 5.0, 50.0, paper_cluster
        )
        np.testing.assert_array_equal(batched, scalar)


class TestGenericFallback:
    def test_base_class_loops_predict_time(self, small_cluster):
        class OddEstimator(JoinCostEstimator):
            hash_memory_fraction = 1.0

            def predict_time(self, algorithm, small_gb, large_gb, config):
                return (
                    config.num_containers * 10.0
                    + config.container_gb
                    + small_gb / large_gb
                )

        _assert_lanes_equal_predict_time(
            OddEstimator(),
            JoinAlgorithm.SORT_MERGE,
            [(1.0, 2.0), (3.0, 4.0)],
            small_cluster,
        )


#: Small grids: every lane of every drawn pair is costed scalar too.
lane_clusters = st.builds(
    ClusterConditions,
    max_containers=st.integers(min_value=1, max_value=12),
    max_container_gb=st.floats(min_value=1.0, max_value=8.0),
    container_step=st.integers(min_value=1, max_value=3),
    container_gb_step=st.sampled_from((0.5, 1.0, 2.0)),
)
#: Sizes near the BHJ memory wall as well as the edge values.
lane_sizes = edge_sizes | st.floats(min_value=0.0, max_value=20.0)


@st.composite
def learned_suites(draw):
    """A :class:`CostModelSuite` over one of the feature maps, with
    random coefficients and memory fraction, or a fitted default."""
    feature_map = draw(st.sampled_from(FEATURE_MAPS + (None,)))
    if feature_map is None:
        profile = draw(profile_names)
        fitted = draw(st.sampled_from((PAPER_FEATURES, EXTENDED_FEATURES)))
        return default_cost_model(PROFILES[profile], feature_map=fitted)
    weights = st.floats(min_value=-1e3, max_value=1e3)
    size = len(feature_map)
    models = {
        algorithm: OperatorCostModel(
            algorithm=algorithm,
            feature_map=feature_map,
            coefficients=tuple(
                draw(st.lists(weights, min_size=size, max_size=size))
            ),
            intercept=draw(weights),
        )
        for algorithm in JoinAlgorithm
    }
    fraction = draw(st.floats(min_value=0.1, max_value=1.0))
    return CostModelSuite(models, hash_memory_fraction=fraction)


def _assert_lanes_equal_predict_time(model, algorithm, pairs, cluster):
    """``predict_time_grid`` for each pair alone and for all pairs
    stacked: every lane's hex equals scalar ``predict_time`` at that
    configuration."""
    grid = cluster.config_grid()
    small = np.array([ss for ss, _ in pairs])
    large = np.array([ls for _, ls in pairs])
    with np.errstate(all="ignore"):
        expected = [
            [
                float(model.predict_time(algorithm, ss, ls, config)).hex()
                for config in grid.configurations()
            ]
            for ss, ls in pairs
        ]
        singles = [
            model.predict_time_grid(algorithm, ss, ls, grid)
            for ss, ls in pairs
        ]
        stacked = model.predict_time_grid(algorithm, small, large, grid)
    assert all(lanes.shape == (grid.num_configs,) for lanes in singles)
    assert stacked.shape == (len(pairs), grid.num_configs)
    assert [[t.hex() for t in lanes.tolist()] for lanes in singles] == (
        expected
    )
    assert [[t.hex() for t in row] for row in stacked.tolist()] == expected


class TestGridLanesEqualPredictTime:
    """Each estimator's one grid method, for one size pair or stacked
    rows, equals its scalar ``predict_time`` hex for hex: the planners
    read winners' times straight from these lanes."""

    @given(
        model=learned_suites(),
        algorithm=algorithms,
        cluster=lane_clusters,
        pairs=st.lists(st.tuples(lane_sizes, lane_sizes), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_learned_suites(self, model, algorithm, cluster, pairs):
        _assert_lanes_equal_predict_time(model, algorithm, pairs, cluster)

    @given(
        profile_name=profile_names,
        num_reducers=st.sampled_from((None, 4)),
        algorithm=algorithms,
        cluster=lane_clusters,
        pairs=st.lists(
            st.tuples(data_sizes, data_sizes).map(sorted).map(tuple),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_simulator(
        self, profile_name, num_reducers, algorithm, cluster, pairs
    ):
        model = SimulatorCostModel(PROFILES[profile_name], num_reducers)
        _assert_lanes_equal_predict_time(model, algorithm, pairs, cluster)

    def test_non_vectorizable_transform_falls_back(self, small_cluster):
        calls = []

        def scalar_only(ss, ls, cs, nc):
            calls.append(np.ndim(cs))
            return _scalar_only_transform(ss, ls, cs, nc)

        feature_map = FeatureMap(
            name="counted",
            feature_names=("a", "b", "c"),
            transform=scalar_only,
        )
        models = {
            algorithm: OperatorCostModel(
                algorithm, feature_map, (1.0, 2.0, 3.0), 0.5
            )
            for algorithm in JoinAlgorithm
        }
        suite = CostModelSuite(models, hash_memory_fraction=0.5)
        _assert_lanes_equal_predict_time(
            suite,
            JoinAlgorithm.BROADCAST_HASH,
            [(0.5, 7.0), (3.0, 9.0)],
            small_cluster,
        )
        # Array attempts were rejected; every lane ran the scalar path.
        assert 1 in calls and 0 in calls


class TestBruteForceEquivalence:
    @given(
        cluster=clusters,
        ss=data_sizes,
        ls=data_sizes,
        algorithm=algorithms,
        profile_name=profile_names,
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_winner_identical(
        self, cluster, ss, ls, algorithm, profile_name
    ):
        """Same config, same cost, same tie-break, same iteration count."""
        ss, ls = sorted((ss, ls))
        model = default_cost_model(PROFILES[profile_name])

        def cost_fn(config):
            return model.predict_time(algorithm, ss, ls, config)

        def grid_cost_fn(grid):
            return model.predict_time_grid(algorithm, ss, ls, grid)

        try:
            scalar = brute_force_resource_plan(cost_fn, cluster)
        except Exception as scalar_error:
            with pytest.raises(type(scalar_error)):
                brute_force_resource_plan(
                    cost_fn, cluster, grid_cost_fn=grid_cost_fn
                )
            return
        fast = brute_force_resource_plan(
            cost_fn, cluster, grid_cost_fn=grid_cost_fn
        )
        assert fast == scalar

    def test_tie_break_prefers_first_configuration(self, small_cluster):
        """Constant costs: both paths pick the very first grid point."""
        scalar = brute_force_resource_plan(lambda c: 1.0, small_cluster)
        fast = brute_force_resource_plan(
            lambda c: 1.0,
            small_cluster,
            grid_cost_fn=lambda grid: np.ones(grid.num_configs),
        )
        assert fast == scalar
        assert fast.config == small_cluster.minimum_configuration

    def test_all_infinite_costs_raise(self, small_cluster):
        from repro.core.resource_planner import ResourcePlanningError

        def infinite(grid):
            return np.full(grid.num_configs, math.inf)

        for kwargs in ({}, {"grid_cost_fn": infinite}):
            with pytest.raises(ResourcePlanningError):
                brute_force_resource_plan(
                    lambda c: math.inf, small_cluster, **kwargs
                )

    def test_nan_treated_as_infeasible(self, small_cluster):
        """NaN costs lose to any finite cost on both paths."""

        def cost_fn(config):
            if config.num_containers == 1:
                return math.nan
            return float(config.num_containers)

        def grid_cost_fn(grid):
            return np.array([cost_fn(c) for c in grid.configurations()])

        scalar = brute_force_resource_plan(cost_fn, small_cluster)
        fast = brute_force_resource_plan(
            cost_fn, small_cluster, grid_cost_fn=grid_cost_fn
        )
        assert fast == scalar
        assert fast.config.num_containers == 2


class TestStepExactness:
    def test_integer_steps_are_exact(self, paper_cluster):
        assert paper_cluster.step_exact

    def test_dyadic_step_is_exact(self):
        cluster = ClusterConditions(
            max_containers=4, max_container_gb=3.0, container_gb_step=0.5
        )
        assert cluster.step_exact

    def test_non_dyadic_step_drifts_off_the_grid(self):
        # 1.1 + 0.1 == 1.2000000000000002, not the grid's 1.0 + 2 * 0.1.
        cluster = ClusterConditions(
            max_containers=4, max_container_gb=3.0, container_gb_step=0.1
        )
        assert not cluster.step_exact

    def test_in_bounds_step_past_the_grid_is_not_exact(self):
        # Every move between 2.1, 2.6, 3.1 and 3.6 is exact, but 4.1 - 2.1
        # rounds below 2, so the grid stops at 3.6 GB while 3.6 + 0.5
        # lands on 4.1 and passes the climb's bounds test.
        cluster = ClusterConditions(
            max_containers=2,
            min_container_gb=2.1,
            max_container_gb=4.1,
            container_gb_step=0.5,
        )
        assert cluster.dimension("container_gb").values() == [
            2.1,
            2.6,
            3.1,
            3.6,
        ]
        assert not cluster.step_exact
        climb = hill_climb_resource_plan(
            lambda config: -config.container_gb,
            cluster,
            grid_cost_fn=lambda grid: -grid.sizes,
        )
        assert climb.config.container_gb == 4.1

    def test_maximum_between_steps_is_exact(self):
        # Sizes 1..10; 10 + 1 fails the bounds test like a missing index.
        cluster = ClusterConditions(
            max_containers=10, max_container_gb=10.5
        )
        assert cluster.step_exact

    def test_index_of(self, paper_cluster):
        dim = paper_cluster.dimension("container_gb")
        assert dim.index_of(1.0) == 0
        assert dim.index_of(10.0) == 9
        assert dim.index_of(2.5) is None
        assert dim.index_of(11.0) is None


def _model_costs(model, algorithm, ss, ls):
    def cost_fn(config):
        return model.predict_time(algorithm, ss, ls, config)

    def grid_cost_fn(grid):
        return model.predict_time_grid(algorithm, ss, ls, grid)

    return cost_fn, grid_cost_fn


class _FixedSizes:
    """A statistics stand-in reporting one (small, large) input pair."""

    def __init__(self, small_gb, large_gb):
        self.sizes = (small_gb, large_gb)

    def join_io_gb(self, left_tables, right_tables):
        return self.sizes


class TestHillClimbEquivalence:
    """The grid climb replays Algorithm 1 exactly: same configuration,
    cost and iteration count as the scalar climb."""

    @given(
        cluster=climb_clusters,
        ss=data_sizes,
        ls=data_sizes,
        algorithm=algorithms,
        estimator_name=estimator_names,
    )
    @settings(max_examples=120, deadline=None)
    def test_outcome_identical(
        self, cluster, ss, ls, algorithm, estimator_name
    ):
        ss, ls = sorted((ss, ls))
        model = _estimator(estimator_name)
        start = None
        if algorithm is JoinAlgorithm.BROADCAST_HASH:
            # Start where the coster starts a BHJ climb (None: the memory
            # wall rules the operator out; the climb then starts at the
            # minimum on an all-infinite plateau).
            start = feasible_bhj_start(
                ss, model.hash_memory_fraction, cluster
            )
        cost_fn, grid_cost_fn = _model_costs(model, algorithm, ss, ls)
        scalar = hill_climb_resource_plan(cost_fn, cluster, start=start)
        grid = hill_climb_resource_plan(
            cost_fn, cluster, start=start, grid_cost_fn=grid_cost_fn
        )
        assert grid == scalar

    def test_grid_path_reads_only_the_grid(self, paper_cluster):
        model = default_cost_model()
        _, grid_cost_fn = _model_costs(
            model, JoinAlgorithm.SORT_MERGE, 5.0, 77.0
        )

        def never(config):
            raise AssertionError("the grid climb called cost_fn")

        climb = hill_climb_resource_plan(
            never, paper_cluster, grid_cost_fn=grid_cost_fn
        )
        assert climb.iterations > 0

    def test_non_dyadic_step_falls_back(self):
        cluster = ClusterConditions(
            max_containers=6, max_container_gb=4.0, container_gb_step=0.3
        )
        model = default_cost_model()
        cost_fn, _ = _model_costs(model, JoinAlgorithm.SORT_MERGE, 2.0, 9.0)

        def never(grid):
            raise AssertionError("a drifting climb used the grid")

        fallback = hill_climb_resource_plan(
            cost_fn, cluster, grid_cost_fn=never
        )
        assert fallback == hill_climb_resource_plan(cost_fn, cluster)

    def test_off_grid_start_falls_back(self):
        cluster = ClusterConditions(
            max_containers=10, max_container_gb=10.5
        )
        start = ResourceConfiguration(num_containers=1, container_gb=10.5)

        def never(grid):
            raise AssertionError("an off-grid start used the grid")

        def cost_fn(config):
            return config.container_gb

        climb = hill_climb_resource_plan(
            cost_fn, cluster, start=start, grid_cost_fn=never
        )
        assert climb == hill_climb_resource_plan(
            cost_fn, cluster, start=start
        )
        # Stepping down from 10.5 never meets the 1..10 GB grid.
        assert climb.config.container_gb == 1.5

    def test_bad_grid_shape_rejected(self, paper_cluster):
        from repro.core.resource_planner import ResourcePlanningError

        with pytest.raises(ResourcePlanningError, match="shape"):
            hill_climb_resource_plan(
                lambda config: 1.0,
                paper_cluster,
                grid_cost_fn=lambda grid: np.zeros(3),
            )

    @given(
        cluster=climb_clusters,
        ss=data_sizes,
        ls=data_sizes,
        algorithm=algorithms,
        estimator_name=estimator_names,
        objective=st.sampled_from(
            [
                PlanObjective.fastest(),
                PlanObjective.weighted(0.5),
                PlanObjective.cheapest(),
            ]
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_coster_identical(
        self, cluster, ss, ls, algorithm, estimator_name, objective
    ):
        """Through RaqoCoster: same Cost bits, configuration and
        ``resource_iterations`` with the grid objective and with the
        scalar climb."""
        ss, ls = sorted((ss, ls))
        model = _estimator(estimator_name)
        observed = []
        for search in (scalar_resource_search(), contextlib.nullcontext()):
            coster = RaqoCoster(
                model,
                method=ResourcePlanningMethod.HILL_CLIMB,
                money_weight=objective.money_weight,
                time_weight=objective.time_weight,
            )
            context = PlanningContext(
                estimator=_FixedSizes(ss, ls), cluster=cluster
            )
            with search:
                cost, config = coster.join_cost(
                    frozenset({"a"}), frozenset({"b"}), algorithm, context
                )
            observed.append(
                (
                    cost.time_s.hex(),
                    cost.money.hex(),
                    config,
                    context.counters,
                )
            )
        assert observed[0] == observed[1]

    @pytest.mark.parametrize("method", list(ResourcePlanningMethod))
    def test_scalar_search_never_costs_the_grid(self, paper_cluster, method):
        """The oracle's scalar searches really bypass the grid path."""

        class NoGrid(SimulatorCostModel):
            def predict_time_grid(self, *args):
                raise AssertionError("the scalar search costed the grid")

        def join_cost():
            # A fresh coster each call: a shared one would serve the
            # second call from its cross-query search memo.
            coster = RaqoCoster(NoGrid(HIVE_PROFILE), method=method)
            context = PlanningContext(
                estimator=_FixedSizes(5.0, 77.0), cluster=paper_cluster
            )
            return coster.join_cost(
                frozenset({"a"}),
                frozenset({"b"}),
                JoinAlgorithm.SORT_MERGE,
                context,
            )

        with scalar_resource_search():
            cost, _ = join_cost()
        assert cost.is_finite
        with pytest.raises(AssertionError, match="costed the grid"):
            join_cost()


#: Values planted on lane grids: ties, walls, holes and NaN.
_SPECIAL_COSTS = (math.inf, -math.inf, math.nan, 0.0, -1.0, 3.0, 100.0)


@st.composite
def lane_grids(draw):
    """A step-exact cluster, arbitrary lane costs and a grid start.

    Real cost models are smooth, so their climbs rarely end a run on
    anything but a grid edge. These grids are planes of any slope (runs
    in all four directions, down to the edges and along them), bowls
    and small-integer levels (ties and plateaus), with up to six cells
    overwritten by special values, so that side probes, walls and NaN
    cut runs short anywhere. Axes may be one value wide.
    """
    counts = draw(st.integers(min_value=1, max_value=14))
    sizes = draw(st.integers(min_value=1, max_value=6))
    cluster = ClusterConditions(
        max_containers=counts, max_container_gb=float(sizes)
    )
    rows = np.arange(counts, dtype=float)[:, None]
    cols = np.arange(sizes, dtype=float)[None, :]
    slopes = st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
    shape = draw(st.sampled_from(("plane", "bowl", "levels")))
    if shape == "plane":
        surface = draw(slopes) * rows + draw(slopes) * cols
    elif shape == "bowl":
        surface = (rows - draw(st.integers(0, counts - 1))) ** 2 + draw(
            slopes
        ) * (cols - draw(st.integers(0, sizes - 1))) ** 2
    else:
        surface = np.array(
            draw(
                st.lists(
                    st.integers(0, 3),
                    min_size=counts * sizes,
                    max_size=counts * sizes,
                )
            ),
            dtype=float,
        ).reshape(counts, sizes)
    lanes = surface.ravel()
    for cell, value in draw(
        st.lists(
            st.tuples(
                st.integers(0, lanes.size - 1),
                st.sampled_from(_SPECIAL_COSTS)
                | st.floats(min_value=-20.0, max_value=20.0),
            ),
            max_size=6,
        )
    ):
        lanes[cell] = value
    corners = (0, sizes - 1, lanes.size - sizes, lanes.size - 1)
    start = draw(
        st.sampled_from(corners) | st.integers(0, lanes.size - 1)
    )
    return cluster, lanes, start


class TestRunBasedClimb:
    """The grid climb skips monotone runs of Algorithm 1 with array
    comparisons; on arbitrary lane grids it must still end where the
    scalar climb ends, with the same cost bits and ``iterations``."""

    @given(case=lane_grids())
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_climb(self, case):
        cluster, lanes, start_row = case
        grid = cluster.config_grid()
        row_of = {
            config: row for row, config in enumerate(grid.configurations())
        }

        def cost_fn(config):
            return float(lanes[row_of[config]])

        start = grid.config_at(start_row)
        scalar = hill_climb_resource_plan(cost_fn, cluster, start=start)
        climb = hill_climb_resource_plan(
            cost_fn,
            cluster,
            start=start,
            grid_cost_fn=lambda _: lanes.copy(),
        )
        assert (
            climb.config,
            float(climb.cost).hex(),
            climb.iterations,
        ) == (scalar.config, float(scalar.cost).hex(), scalar.iterations)

    def test_long_run_counts_every_read(self):
        # Costs fall along the count axis only: one scalar round, then a
        # run of 98 rounds to 100 containers, then a final round.
        cluster = ClusterConditions(max_containers=100, max_container_gb=3.0)
        grid = cluster.config_grid()
        lanes = 1000.0 - grid.counts + grid.sizes

        def cost_fn(config):
            return 1000.0 - config.num_containers + config.container_gb

        climb = hill_climb_resource_plan(
            cost_fn, cluster, grid_cost_fn=lambda _: lanes
        )
        assert climb == hill_climb_resource_plan(cost_fn, cluster)
        assert climb.config == ResourceConfiguration(
            num_containers=100, container_gb=1.0
        )
        # Each round reads its cell and its count neighbours, moves, and
        # then probes the size axis beside its new cell: the 100 cells
        # of the path and the 99 beside it from 2 containers on, each
        # counted once.
        assert climb.iterations == 100 + 99

    def test_nan_start_ends(self, paper_cluster):
        grid = paper_cluster.config_grid()
        lanes = np.full(grid.num_configs, math.nan)
        lanes[5] = 1.0
        climb = hill_climb_resource_plan(
            lambda config: math.nan,
            paper_cluster,
            grid_cost_fn=lambda _: lanes,
        )
        assert climb.config == paper_cluster.minimum_configuration
        assert math.isnan(climb.cost)
        assert climb.iterations == 3
