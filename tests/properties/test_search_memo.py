"""The cross-query search memo of ``RaqoCoster`` changes nothing observable.

A resource search is a pure function of ``(algorithm, small_gb,
large_gb, cluster)`` for one coster, so the coster keeps each outcome
for the rest of its life and replays it on a repeat. These tests plan
the same query streams on two identically configured planners: one
keeps its memo warm, the other empties it before every query. Plans,
``Cost`` bits, every counter, resource-plan-cache statistics and
canonical span trees must be identical, and the warm planner must
really have skipped searches.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.catalog import tpch
from repro.catalog.random_schema import (
    RandomSchemaConfig,
    random_catalog,
    random_query,
)
from repro.cluster.cluster import ClusterConditions
from repro.core import raqo
from repro.core.cost_model import SimulatorCostModel
from repro.core.pareto import PlanObjective
from repro.core.plan_cache import LookupMode
from repro.core.resource_planner import ResourcePlanningError
from repro.core.raqo import (
    PlannerKind,
    RaqoCoster,
    RaqoPlanner,
    ResourcePlanningMethod,
)
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import HIVE_PROFILE
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.planner.cost_interface import PlanningContext
from repro.planner.plan import plan_signature
from scalar_reference import reference_planner

HC = ResourcePlanningMethod.HILL_CLIMB
BF = ResourcePlanningMethod.BRUTE_FORCE
NAN = math.nan

#: The cluster a stream switches to half-way through, via ``replan``.
SMALLER_CLUSTER = ClusterConditions(max_containers=40, max_container_gb=6.0)

CACHES = {
    "nearest-0": dict(cache_mode=LookupMode.NEAREST, cache_threshold_gb=0.0),
    "nearest-0.5": dict(
        cache_mode=LookupMode.NEAREST, cache_threshold_gb=0.5
    ),
    "exact": dict(cache_mode=LookupMode.EXACT),
    "no-cache": dict(cache_mode=None),
    "warm-cache": dict(
        cache_mode=LookupMode.NEAREST, clear_cache_between_queries=False
    ),
}


def _exact(result):
    """Everything a planning run reports, floats as hex."""
    return (
        plan_signature(result.plan),
        [join.resources for join in result.plan.joins_postorder()],
        result.cost.time_s.hex(),
        result.cost.money.hex(),
        result.counters,
        result.batch_sizes,
    )


def _count_searches(coster):
    """Wrap the coster's search so calls are counted."""
    search = coster._search
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return search(*args)

    coster._search = counted
    return calls


def _run(
    catalog, queries, *, warm, replan_at=None, build=RaqoPlanner, **kwargs
):
    """Plan ``queries`` in order on one planner; returns each query's
    observables, the cache statistics after each query, the canonical
    span tree and the number of searches that ran."""
    tracer = Tracer(seed=11)
    planner = build(catalog, tracer=tracer, **kwargs)
    calls = _count_searches(planner.coster)
    observed = []
    for index, query in enumerate(queries):
        if not warm:
            planner.coster._search_memo.clear()
        if replan_at is not None and index >= replan_at:
            result = planner.replan(query, SMALLER_CLUSTER)
        else:
            result = planner.optimize(query)
        stats = (
            dataclasses.replace(planner.cache.stats)
            if planner.cache is not None
            else None
        )
        observed.append((_exact(result), stats))
    return observed, canonical_span_tree_json(tracer), calls[0]


def _assert_identical(
    catalog, queries, *, resource_method, build=RaqoPlanner, **kwargs
):
    method = resource_method
    kwargs.update(resource_method=method, build=build)
    warm = _run(catalog, queries, warm=True, **kwargs)
    cold = _run(catalog, queries, warm=False, **kwargs)
    assert warm[0] == cold[0]
    assert warm[1] == cold[1]
    if method is HC or build is reference_planner:
        # The warm memo really served repeats. Production brute force
        # searches only in cost_batch's rare tail replays.
        assert warm[2] < cold[2]


def _tpch_stream():
    queries = list(tpch.EVALUATION_QUERIES)
    return queries + queries[::-1]


def _random_stream(seed):
    rng = np.random.default_rng(seed)
    catalog = random_catalog(RandomSchemaConfig(num_tables=6), rng)
    queries = [random_query(catalog, 4, rng) for _ in range(3)]
    return catalog, queries + queries


class TestWarmMemoIsInvisible:
    @pytest.mark.parametrize("cache", sorted(CACHES))
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch(self, catalog, method, cache):
        _assert_identical(
            catalog,
            _tpch_stream(),
            resource_method=method,
            **CACHES[cache],
        )

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch_simulator_estimator(self, catalog, method):
        _assert_identical(
            catalog,
            _tpch_stream(),
            resource_method=method,
            cost_model=SimulatorCostModel(HIVE_PROFILE),
        )

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch_fast_randomized(self, catalog, method):
        _assert_identical(
            catalog,
            _tpch_stream(),
            resource_method=method,
            planner_kind=PlannerKind.FAST_RANDOMIZED,
            randomized_iterations=2,
        )

    @pytest.mark.parametrize("cache", ["nearest-0", "warm-cache"])
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch_replan_to_new_cluster(self, catalog, method, cache):
        queries = _tpch_stream() + _tpch_stream()
        _assert_identical(
            catalog,
            queries,
            replan_at=len(queries) // 2,
            resource_method=method,
            **CACHES[cache],
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_random_schema(self, seed, method):
        catalog, queries = _random_stream(seed)
        _assert_identical(catalog, queries, resource_method=method)

    @pytest.mark.parametrize("cache", ["nearest-0", "no-cache"])
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch_per_candidate_reference(self, catalog, method, cache):
        """Through the per-candidate ``join_cost`` path, where brute
        force searches too."""
        _assert_identical(
            catalog,
            _tpch_stream(),
            build=reference_planner,
            resource_method=method,
            **CACHES[cache],
        )

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_random_schema_per_candidate_reference(self, method):
        catalog, queries = _random_stream(3)
        _assert_identical(
            catalog,
            queries,
            build=reference_planner,
            resource_method=method,
            cost_model=SimulatorCostModel(HIVE_PROFILE),
        )

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_random_schema_simulator_estimator(self, method):
        catalog, queries = _random_stream(2)
        _assert_identical(
            catalog,
            queries,
            resource_method=method,
            cost_model=SimulatorCostModel(HIVE_PROFILE),
            cache_mode=LookupMode.EXACT,
        )


class _FixedSizes:
    """An estimator that reports the same join inputs for every join."""

    def __init__(self, small_gb, large_gb):
        self.sizes = (small_gb, large_gb)

    def join_io_gb(self, left, right):
        return self.sizes


def _join_cost(
    coster, small_gb, large_gb, algorithm=JoinAlgorithm.SORT_MERGE
):
    context = PlanningContext(
        estimator=_FixedSizes(small_gb, large_gb),
        cluster=raqo.DEFAULT_CLUSTER,
    )
    cost, config = coster.join_cost(
        frozenset({"a"}), frozenset({"b"}), algorithm, context
    )
    return cost.time_s.hex(), cost.money.hex(), config, context.counters


class TestMemoMechanics:
    def test_memoize_off_never_touches_the_memo(self, catalog):
        planner = RaqoPlanner(catalog, memoize_within_run=False)
        calls = _count_searches(planner.coster)
        for query in _tpch_stream():
            planner.optimize(query)
        assert planner.coster._search_memo == {}
        assert calls[0] > 0

    def test_cap_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", 3)
        coster = RaqoCoster(raqo.default_cost_model())
        for small_gb in (1.0, 2.0, 3.0, 4.0, 5.0):
            _join_cost(coster, small_gb, 50.0)
        assert [key[1] for key in coster._search_memo] == [3.0, 4.0, 5.0]

    def test_clones_start_empty_and_share_nothing(self, catalog):
        planner = RaqoPlanner(catalog)
        planner.optimize(tpch.EVALUATION_QUERIES[0])
        before = dict(planner.coster._search_memo)
        assert before
        clone = planner.clone()
        other = planner.with_objective(PlanObjective.weighted(0.5))
        for copy in (clone, other):
            assert copy.coster._search_memo == {}
        clone.optimize(tpch.EVALUATION_QUERIES[1])
        other.optimize(tpch.EVALUATION_QUERIES[1])
        assert clone.coster._search_memo
        assert other.coster._search_memo
        assert planner.coster._search_memo == before

    @pytest.mark.parametrize("sizes", [(NAN, NAN), (1.0, NAN), (NAN, 5.0)])
    def test_nan_key_never_hits(self, sizes):
        coster = RaqoCoster(raqo.default_cost_model(), method=HC)
        calls = _count_searches(coster)
        first = _join_cost(coster, *sizes)
        second = _join_cost(coster, *sizes)
        assert first == second
        assert second[3].resource_iterations > 0
        assert calls[0] == 2
        assert coster._search_memo == {}

    def test_failed_search_is_not_memoized(self):
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        for _ in range(2):
            with pytest.raises(ResourcePlanningError):
                _join_cost(coster, NAN, NAN)
        assert coster._search_memo == {}

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    @pytest.mark.parametrize(
        "algorithm", [JoinAlgorithm.SORT_MERGE, JoinAlgorithm.BROADCAST_HASH]
    )
    def test_signed_zero_keys_give_identical_results(self, method, algorithm):
        cold = {
            small_gb: _join_cost(
                RaqoCoster(raqo.default_cost_model(), method=method),
                small_gb,
                20.0,
                algorithm,
            )
            for small_gb in (0.0, -0.0)
        }
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            coster = RaqoCoster(raqo.default_cost_model(), method=method)
            assert _join_cost(coster, first, 20.0, algorithm) == cold[first]
            assert _join_cost(coster, second, 20.0, algorithm) == cold[second]
            assert len(coster._search_memo) == 1

    def test_bhj_memory_wall_is_memoized_without_a_charge(self):
        coster = RaqoCoster(raqo.default_cost_model())
        first = _join_cost(coster, 500.0, 900.0, JoinAlgorithm.BROADCAST_HASH)
        second = _join_cost(coster, 500.0, 900.0, JoinAlgorithm.BROADCAST_HASH)
        assert first == second
        assert first[2] is None and second[3].resource_iterations == 0
        (entry,) = coster._search_memo.values()
        assert entry[0] is None
