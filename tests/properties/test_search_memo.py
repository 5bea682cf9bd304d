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
import tracemalloc

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
from repro.core.pareto import ParetoPlanningResult, PlanObjective
from repro.core.plan_cache import LookupMode, ResourcePlanCache
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
from repro.planner.plan import CandidateBatch, plan_signature
from scalar_reference import reference_planner

HC = ResourcePlanningMethod.HILL_CLIMB
BF = ResourcePlanningMethod.BRUTE_FORCE
NAN = math.nan

#: Objectives with a nonzero ``money_weight`` or a frontier pass.
OBJECTIVES = [
    PlanObjective.cheapest(),
    PlanObjective.weighted(0.5),
    PlanObjective.pareto(),
]

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
    frontier = (
        result.frontier if isinstance(result, ParetoPlanningResult) else None
    )
    return (
        plan_signature(result.plan),
        [join.resources for join in result.plan.joins_postorder()],
        result.cost.time_s.hex(),
        result.cost.money.hex(),
        result.counters,
        result.batch_sizes,
        frontier
        and [
            (point.time_s.hex(), point.money.hex(), point.configs)
            for point in frontier.points
        ],
    )


def _count_searches(coster):
    """Wrap the coster's scalar search (``join_cost``'s path and the
    batch tail's replays) so calls are counted."""
    search = coster._search
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return search(*args)

    coster._search = counted
    return calls


class _CountingModel:
    """Delegates to a cost model, counting the rows of every stacked
    grid call (an array of size pairs, as the brute-force kernel makes;
    the scalar searches cost one pair)."""

    def __init__(self, model):
        self._model = model
        self.grid_rows = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict_time_grid(self, algorithm, small_gbs, large_gbs, grid):
        if np.ndim(small_gbs):
            self.grid_rows += len(small_gbs)
        return self._model.predict_time_grid(
            algorithm, small_gbs, large_gbs, grid
        )


def _count_kernel_rows(coster):
    """Route the coster's model through a :class:`_CountingModel`."""
    coster.model = _CountingModel(coster.model)
    return coster.model


def _count_climbs(monkeypatch):
    """Count every hill climb a coster runs, in the ``cost_batch``
    kernel and on the scalar path alike."""
    climb = raqo.hill_climb_resource_plan
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return climb(*args, **kwargs)

    monkeypatch.setattr(raqo, "hill_climb_resource_plan", counted)
    return calls


def _run(
    catalog, queries, *, warm, replan_at=None, build=RaqoPlanner, **kwargs
):
    """Plan ``queries`` in order on one planner; returns each query's
    observables, the cache statistics after each query, the canonical
    span tree, the number of searches the coster ran (the memo's
    ``searched``: the kernel's searched rows and the scalar searches),
    the number of rows the stacked kernel costed and the memo's
    statistics."""
    tracer = Tracer(seed=11)
    planner = build(catalog, tracer=tracer, **kwargs)
    kernel = _count_kernel_rows(planner.coster)
    searched = 0
    observed = []
    for index, query in enumerate(queries):
        if not warm:
            # Clearing the memo also resets its statistics.
            searched += planner.coster.search_memo_stats().searched
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
    stats = planner.coster.search_memo_stats()
    return (
        observed,
        canonical_span_tree_json(tracer),
        searched + stats.searched,
        kernel.grid_rows,
        stats,
    )


def _assert_identical(
    catalog, queries, *, resource_method, build=RaqoPlanner, **kwargs
):
    method = resource_method
    kwargs.update(resource_method=method, build=build)
    warm = _run(catalog, queries, warm=True, **kwargs)
    cold = _run(catalog, queries, warm=False, **kwargs)
    assert warm[0] == cold[0]
    assert warm[1] == cold[1]
    if kwargs.get("clear_cache_between_queries", True):
        # The warm memo really served repeats: fewer searches, and for
        # production brute force fewer stacked kernel rows too.
        assert warm[2] < cold[2]
        if method is BF and build is not reference_planner:
            assert warm[3] < cold[3]
    else:
        # A plan cache kept across queries serves every repeat before
        # the memo sees it, and cost_batch decides BHJ walls without
        # it, so these streams leave the memo nothing to save
        # (TestMemoMechanics.test_kept_cache_replays_failed_climbs has
        # a kept-cache stream where it does).
        assert warm[2] == cold[2]
        assert warm[3] == cold[3]
    return warm[4]


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

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=str)
    def test_tpch_brute_force_objectives(self, catalog, objective):
        """Nonzero ``money_weight`` (and ``time_weight=0`` for the
        cheapest objective) through the stacked kernel."""
        _assert_identical(
            catalog,
            _tpch_stream(),
            resource_method=BF,
            objective=objective,
        )

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=str)
    def test_random_schema_brute_force_objectives(self, objective):
        catalog, queries = _random_stream(4)
        _assert_identical(
            catalog,
            queries,
            resource_method=BF,
            objective=objective,
            cost_model=SimulatorCostModel(HIVE_PROFILE),
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


class _SizesByPair:
    """An estimator that reports given join inputs per (left, right)."""

    def __init__(self, sizes):
        self.sizes = sizes

    def join_io_gb(self, left, right):
        return self.sizes[(left, right)]


def _memo_keys(coster):
    """The memo's keys, ``(algorithm, small_gb, large_gb, cluster)``,
    oldest first."""
    return [key for key, _ in coster._search_memo.items()]


class TestMemoMechanics:
    def test_memoize_off_never_touches_the_memo(self, catalog, monkeypatch):
        planner = RaqoPlanner(catalog, memoize_within_run=False)
        calls = _count_climbs(monkeypatch)
        for query in _tpch_stream():
            planner.optimize(query)
        assert len(planner.coster._search_memo) == 0
        assert calls[0] > 0

    def test_kept_cache_replays_failed_climbs(self):
        """With the plan cache kept across queries, a climb that finds
        no finite cost inserts nothing, so every later query misses the
        cache on it again: a warm memo replays that search, and nothing
        observable changes."""
        rows = [
            (2.0, 1e308),  # every prediction overflows: no finite cost
            (3.0, 40.0),  # feasible: cached, then a hit in later queries
        ]
        candidates, sizes = [], {}
        for index, (small_gb, large_gb) in enumerate(rows):
            pair = (frozenset({f"l{index}"}), frozenset({f"r{index}"}))
            candidates.append((*pair, JoinAlgorithm.SORT_MERGE))
            sizes[pair] = (small_gb, large_gb)
        estimator = _SizesByPair(sizes)
        batch = CandidateBatch.build(candidates, estimator.join_io_gb)

        def run(warm):
            coster = RaqoCoster(
                raqo.default_cost_model(),
                method=HC,
                cache=ResourcePlanCache(LookupMode.NEAREST),
            )
            tracer = Tracer(seed=5)
            searched = 0
            observed = []
            for _ in range(3):
                if not warm:
                    searched += coster.search_memo_stats().searched
                    coster._search_memo.clear()
                context = PlanningContext(
                    estimator=estimator,
                    cluster=raqo.DEFAULT_CLUSTER,
                    tracer=tracer,
                )
                with np.errstate(over="ignore", invalid="ignore"):
                    result = coster.cost_batch(batch, context)
                observed.append(
                    (
                        [t.hex() for t in result.time_s.tolist()],
                        [m.hex() for m in result.money.tolist()],
                        result.configs,
                        context.counters,
                        dataclasses.replace(coster.cache.stats),
                    )
                )
            searched += coster.search_memo_stats().searched
            return observed, canonical_span_tree_json(tracer), searched

        warm, cold = run(warm=True), run(warm=False)
        assert warm[0] == cold[0]
        assert warm[1] == cold[1]
        assert [config is None for config in warm[0][-1][2]] == [True, False]
        # The first query searches both rows; the failed climb is
        # searched again by every cold query, and by no warm one.
        assert (warm[2], cold[2]) == (2, 4)

    def test_cap_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", 3)
        coster = RaqoCoster(raqo.default_cost_model())
        for small_gb in (1.0, 2.0, 3.0, 4.0, 5.0):
            _join_cost(coster, small_gb, 50.0)
        assert _memo_keys(coster) == [
            (JoinAlgorithm.SORT_MERGE, small_gb, 50.0, raqo.DEFAULT_CLUSTER)
            for small_gb in (3.0, 4.0, 5.0)
        ]

    def test_clones_start_empty_and_share_nothing(self, catalog):
        planner = RaqoPlanner(catalog)
        planner.optimize(tpch.EVALUATION_QUERIES[0])
        before = list(planner.coster._search_memo.items())
        assert before
        clone = planner.clone()
        other = planner.with_objective(PlanObjective.weighted(0.5))
        for copy in (clone, other):
            assert len(copy.coster._search_memo) == 0
        clone.optimize(tpch.EVALUATION_QUERIES[1])
        other.optimize(tpch.EVALUATION_QUERIES[1])
        assert len(clone.coster._search_memo)
        assert len(other.coster._search_memo)
        assert list(planner.coster._search_memo.items()) == before

    @pytest.mark.parametrize("sizes", [(NAN, NAN), (1.0, NAN), (NAN, 5.0)])
    def test_nan_key_never_hits(self, sizes):
        coster = RaqoCoster(raqo.default_cost_model(), method=HC)
        calls = _count_searches(coster)
        first = _join_cost(coster, *sizes)
        second = _join_cost(coster, *sizes)
        assert first == second
        assert second[3].resource_iterations > 0
        assert calls[0] == 2
        assert len(coster._search_memo) == 0

    def test_failed_search_is_not_memoized(self):
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        for _ in range(2):
            with pytest.raises(ResourcePlanningError):
                _join_cost(coster, NAN, NAN)
        assert len(coster._search_memo) == 0

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
        ((_, entry),) = coster._search_memo.items()
        assert entry.config is None


class _NanAsOneGb(_CountingModel):
    """Costs a NaN size as 1 GB, so a NaN row still has a finite
    winner and only the memo's own NaN rule keeps it out."""

    def predict_time_grid(self, algorithm, small_gbs, large_gbs, grid):
        return super().predict_time_grid(
            algorithm,
            np.nan_to_num(small_gbs, nan=1.0),
            np.nan_to_num(large_gbs, nan=1.0),
            grid,
        )


def _cost_batch(coster, rows, cluster=raqo.DEFAULT_CLUSTER):
    """Cost ``(algorithm, small_gb, large_gb)`` rows as one batch."""
    sizes = {
        (frozenset({f"l{k}"}), frozenset({f"r{k}"})): (small_gb, large_gb)
        for k, (_, small_gb, large_gb) in enumerate(rows)
    }
    candidates = [
        (left, right, algorithm)
        for (left, right), (algorithm, _, _) in zip(sizes, rows)
    ]
    batch = CandidateBatch.build(
        candidates, lambda left, right: sizes[(left, right)]
    )
    context = PlanningContext(
        estimator=_FixedSizes(NAN, NAN), cluster=cluster
    )
    result = coster.cost_batch(batch, context)
    return (
        [value.hex() for value in result.time_s.tolist()],
        [value.hex() for value in result.money.tolist()],
        result.configs,
        context.counters,
    )


def _entry(entry):
    """A memo entry with its floats as hex."""
    return (
        entry.config,
        entry.cost.hex(),
        entry.iterations,
        entry.time_s.hex(),
    )


class TestKernelMemo:
    """The stacked brute-force kernel shares the scalar searches' memo."""

    @pytest.mark.parametrize(
        "objective", [PlanObjective.fastest()] + OBJECTIVES, ids=str
    )
    @pytest.mark.parametrize("estimator", ["learned", "simulator"])
    def test_kernel_fills_what_the_scalar_search_fills(
        self, catalog, objective, estimator
    ):
        model = (
            raqo.default_cost_model()
            if estimator == "learned"
            else SimulatorCostModel(HIVE_PROFILE)
        )
        planner = RaqoPlanner(
            catalog,
            resource_method=BF,
            objective=objective,
            cost_model=model,
            cache_mode=None,
        )
        calls = _count_searches(planner.coster)
        for query in tpch.EVALUATION_QUERIES:
            planner.optimize(query)
        # Without a plan cache nothing is deferred to the tail, so every
        # entry came from the kernel.
        assert calls[0] == 0
        filled = list(planner.coster._search_memo.items())
        assert filled
        scalar = planner.clone().coster
        for (algorithm, small_gb, large_gb, cluster), entry in filled:
            context = PlanningContext(
                estimator=_FixedSizes(small_gb, large_gb), cluster=cluster
            )
            searched = scalar._plan_resources(
                algorithm, small_gb, large_gb, context
            )
            assert _entry(entry) == _entry(searched)
        assert [
            (key, _entry(entry)) for key, entry in scalar._search_memo.items()
        ] == [(key, _entry(entry)) for key, entry in filled]

    def test_kernel_replays_entries_the_scalar_search_filled(self, catalog):
        # Q12, Q3 and Q2 search 24 distinct keys: all fit under the cap.
        queries = tpch.EVALUATION_QUERIES[:3]
        planner = RaqoPlanner(catalog, resource_method=BF, cache_mode=None)
        for query in queries:
            planner.optimize(query)
        warm = planner.clone()
        keys = _memo_keys(planner.coster)
        for algorithm, small_gb, large_gb, cluster in keys:
            warm.coster._plan_resources(
                algorithm,
                small_gb,
                large_gb,
                PlanningContext(
                    estimator=_FixedSizes(small_gb, large_gb),
                    cluster=cluster,
                ),
            )
        kernel = _count_kernel_rows(warm.coster)
        cold = planner.clone()
        for query in queries:
            assert _exact(warm.optimize(query)) == _exact(cold.optimize(query))
        assert kernel.grid_rows == 0

    def test_hits_skip_the_kernel_with_identical_results(self):
        rows = [
            (JoinAlgorithm.SORT_MERGE, 1.0, 50.0),
            (JoinAlgorithm.BROADCAST_HASH, 0.5, 50.0),
            (JoinAlgorithm.SORT_MERGE, 2.0, 50.0),
        ]
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        kernel = _count_kernel_rows(coster)
        first = _cost_batch(coster, rows)
        assert kernel.grid_rows == 3
        assert _cost_batch(coster, rows) == first
        assert kernel.grid_rows == 3
        mixed = rows + [(JoinAlgorithm.SORT_MERGE, 3.0, 50.0)]
        fresh = RaqoCoster(raqo.default_cost_model(), method=BF)
        assert _cost_batch(coster, mixed) == _cost_batch(fresh, mixed)
        assert kernel.grid_rows == 4

    def test_nan_rows_are_never_stored(self):
        rows = [
            (JoinAlgorithm.SORT_MERGE, 1.0, 5.0),
            (JoinAlgorithm.SORT_MERGE, NAN, 5.0),
            (JoinAlgorithm.SORT_MERGE, 2.0, NAN),
        ]
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        kernel = coster.model = _NanAsOneGb(coster.model)
        first = _cost_batch(coster, rows)
        assert all(config is not None for config in first[2])
        assert [key[1:3] for key in _memo_keys(coster)] == [(1.0, 5.0)]
        assert _cost_batch(coster, rows) == first
        # Both NaN rows went through the kernel again.
        assert kernel.grid_rows == 3 + 2
        assert len(coster._search_memo) == 1

    def test_group_that_raises_stores_nothing(self):
        rows = [
            (JoinAlgorithm.BROADCAST_HASH, 0.5, 5.0),
            (JoinAlgorithm.SORT_MERGE, 1.0, 5.0),
            (JoinAlgorithm.SORT_MERGE, NAN, NAN),
        ]
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        for _ in range(2):
            with pytest.raises(ResourcePlanningError):
                _cost_batch(coster, rows)
            # The broadcast group finished before the sort-merge group
            # raised; nothing of the failed group was kept.
            assert _memo_keys(coster) == [
                (JoinAlgorithm.BROADCAST_HASH, 0.5, 5.0, raqo.DEFAULT_CLUSTER)
            ]

    def test_memoize_off_never_touches_the_memo(self):
        rows = [(JoinAlgorithm.SORT_MERGE, 1.0, 5.0)]
        coster = RaqoCoster(
            raqo.default_cost_model(), method=BF, memoize=False
        )
        kernel = _count_kernel_rows(coster)
        assert _cost_batch(coster, rows) == _cost_batch(coster, rows)
        assert kernel.grid_rows == 2
        assert len(coster._search_memo) == 0

    def test_cap_evicts_oldest_first_across_groups(self, monkeypatch):
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", 3)
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        _cost_batch(
            coster,
            [
                (JoinAlgorithm.SORT_MERGE, 1.0, 50.0),
                (JoinAlgorithm.BROADCAST_HASH, 0.5, 50.0),
            ],
        )
        # One group larger than the cap keeps only its newest entries.
        _cost_batch(
            coster,
            [(JoinAlgorithm.SORT_MERGE, gb, 50.0) for gb in (2.0, 3.0, 4.0)]
            + [(JoinAlgorithm.SORT_MERGE, 5.0, 60.0)],
        )
        assert [key[1:3] for key in _memo_keys(coster)] == [
            (3.0, 50.0),
            (4.0, 50.0),
            (5.0, 60.0),
        ]
        # The broadcast group lost its last entry and is gone.
        assert coster._search_memo.group(
            JoinAlgorithm.BROADCAST_HASH, raqo.DEFAULT_CLUSTER
        ) is None

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_bounded_across_replans_to_many_clusters(
        self, catalog, monkeypatch, method
    ):
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", 16)
        planner = RaqoPlanner(catalog, resource_method=method)
        query = tpch.EVALUATION_QUERIES[0]
        memo = planner.coster._search_memo
        for containers in range(10, 60):
            cluster = ClusterConditions(
                max_containers=containers, max_container_gb=6.0
            )
            planner.replan(query, cluster)
            assert len(memo) <= 16
            keys = _memo_keys(planner.coster)
            assert len(keys) == len(memo)
            assert cluster in {key[3] for key in keys}
            # No group outlives its last entry.
            assert {(key[0], key[3]) for key in keys} == set(memo._groups)


#: A hot tier of two entries: the memo merges after every second store,
#: so nearly every hit is served by the cold tier.
@pytest.fixture
def tiny_hot_tier(monkeypatch):
    monkeypatch.setattr(raqo, "_HOT_TIER_CAP", 2)


@pytest.mark.usefixtures("tiny_hot_tier")
class TestColdTierIsInvisible:
    """Replays from the array-backed cold tier equal fresh searches."""

    @pytest.mark.parametrize("cache", ["nearest-0", "nearest-0.5", "exact"])
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch(self, catalog, method, cache):
        stats = _assert_identical(
            catalog,
            _tpch_stream(),
            resource_method=method,
            **CACHES[cache],
        )
        assert stats.cold_hits > 0
        assert stats.merged > 0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_random_schema(self, seed, method):
        catalog, queries = _random_stream(seed)
        stats = _assert_identical(
            catalog,
            queries,
            resource_method=method,
            cost_model=SimulatorCostModel(HIVE_PROFILE),
            cache_mode=LookupMode.EXACT,
        )
        assert stats.cold_hits > 0

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=str)
    def test_random_schema_brute_force_objectives(self, objective):
        catalog, queries = _random_stream(4)
        stats = _assert_identical(
            catalog, queries, resource_method=BF, objective=objective
        )
        assert stats.cold_hits > 0

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch_replan_to_new_cluster(self, catalog, method):
        queries = _tpch_stream() + _tpch_stream()
        stats = _assert_identical(
            catalog,
            queries,
            replan_at=len(queries) // 2,
            resource_method=method,
        )
        assert stats.cold_hits > 0

    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_tpch_per_candidate_reference(self, catalog, method):
        stats = _assert_identical(
            catalog,
            _tpch_stream(),
            build=reference_planner,
            resource_method=method,
            cache_mode=None,
        )
        assert stats.cold_hits > 0


def _spill(coster, count=4):
    """Store ``count`` fresh searches, pushing older entries out of a
    two-entry hot tier into the cold tier."""
    for k in range(count):
        _join_cost(coster, 1000.0 + k, 2000.0)


@pytest.mark.usefixtures("tiny_hot_tier")
class TestColdTierMechanics:
    @pytest.mark.parametrize("method", [HC, BF], ids=str)
    def test_signed_zeros_share_a_cold_entry(self, method):
        cold = {
            small_gb: _join_cost(
                RaqoCoster(raqo.default_cost_model(), method=method),
                small_gb,
                20.0,
            )
            for small_gb in (0.0, -0.0)
        }
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            coster = RaqoCoster(raqo.default_cost_model(), method=method)
            assert _join_cost(coster, first, 20.0) == cold[first]
            _spill(coster)
            calls = _count_searches(coster)
            assert _join_cost(coster, second, 20.0) == cold[second]
            assert calls[0] == 0
            assert coster.search_memo_stats().cold_hits == 1
            assert len(coster._search_memo) == 5

    def test_nan_sizes_are_never_stored(self):
        coster = RaqoCoster(raqo.default_cost_model(), method=HC)
        for sizes in [(NAN, 5.0), (1.0, NAN), (NAN, NAN)] * 3:
            _join_cost(coster, *sizes)
        assert len(coster._search_memo) == 0
        _spill(coster, 8)
        memo = coster._search_memo
        group = memo.group(JoinAlgorithm.SORT_MERGE, raqo.DEFAULT_CLUSTER)
        assert group.cold[0].size > 0
        hit, *_ = memo.cold_lookup(
            group, np.array([NAN, 1000.0]), np.array([2000.0, NAN])
        )
        assert not hit.any()
        assert not any(math.isnan(key[1]) for key in _memo_keys(coster))

    def test_infinite_large_input_round_trips(self):
        # Brute force raises on this input (no finite winner); the climb
        # stores its infeasible outcome.
        fresh = _join_cost(
            RaqoCoster(raqo.default_cost_model(), method=HC), 2.0, math.inf
        )
        coster = RaqoCoster(raqo.default_cost_model(), method=HC)
        assert _join_cost(coster, 2.0, math.inf) == fresh
        _spill(coster)
        calls = _count_searches(coster)
        assert _join_cost(coster, 2.0, math.inf) == fresh
        assert calls[0] == 0
        assert coster.search_memo_stats().cold_hits == 1
        key = _memo_keys(coster)[0]
        assert key[1:3] == (2.0, math.inf)
        group = coster._search_memo.group(key[0], key[3])
        hit, *_ = coster._search_memo.cold_lookup(
            group, np.array([2.0, 2.0]), np.array([math.inf, -math.inf])
        )
        assert hit.tolist() == [True, False]

    def test_bhj_wall_replays_as_none_from_the_cold_tier(self):
        coster = RaqoCoster(raqo.default_cost_model())
        bhj = JoinAlgorithm.BROADCAST_HASH
        first = _join_cost(coster, 500.0, 900.0, bhj)
        _spill(coster)
        calls = _count_searches(coster)
        second = _join_cost(coster, 500.0, 900.0, bhj)
        assert first == second
        assert second[2] is None and second[3].resource_iterations == 0
        assert calls[0] == 0
        assert coster.search_memo_stats().cold_hits == 1
        (_, entry), *_ = coster._search_memo.items()
        assert entry.config is None
        assert entry == raqo._WALL_ENTRY

    def test_kernel_group_that_raises_stores_nothing(self):
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        stored = [
            (JoinAlgorithm.SORT_MERGE, float(gb), 50.0) for gb in range(1, 7)
        ]
        _cost_batch(coster, stored)
        before = _memo_keys(coster)
        assert coster.search_memo_stats().cold_entries > 0
        rows = stored + [
            (JoinAlgorithm.SORT_MERGE, 9.0, 50.0),
            (JoinAlgorithm.SORT_MERGE, NAN, NAN),
        ]
        with pytest.raises(ResourcePlanningError):
            _cost_batch(coster, rows)
        assert _memo_keys(coster) == before

    def test_kernel_replays_cold_rows_bit_for_bit(self):
        rows = [
            (JoinAlgorithm.SORT_MERGE, float(gb), 50.0) for gb in range(1, 9)
        ] + [(JoinAlgorithm.BROADCAST_HASH, 0.5, 50.0)]
        coster = RaqoCoster(
            raqo.default_cost_model(), method=BF, money_weight=0.5
        )
        kernel = _count_kernel_rows(coster)
        first = _cost_batch(coster, rows)
        assert coster.search_memo_stats().cold_entries > 0
        assert _cost_batch(coster, rows) == first
        assert kernel.grid_rows == len(rows)
        stats = coster.search_memo_stats()
        assert stats.hot_hits + stats.cold_hits == len(rows)
        assert stats.cold_hits > 0
        assert stats.searched == len(rows)

    @pytest.mark.parametrize("cap", [3, 5, 40])
    def test_items_stay_oldest_first_across_tiers(self, monkeypatch, cap):
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", cap)
        coster = RaqoCoster(raqo.default_cost_model(), method=BF)
        stored = []
        for step in range(12):
            rows = [
                (algorithm, 0.25 * step + 0.01 * k, 40.0 + step)
                for k, algorithm in enumerate(
                    [JoinAlgorithm.SORT_MERGE, JoinAlgorithm.BROADCAST_HASH]
                )
            ]
            _cost_batch(coster, rows)
            # The kernel stores one algorithm group after the other.
            stored += sorted(rows, key=lambda row: row[0] is not rows[0][0])
            keys = _memo_keys(coster)
            expected = stored[-cap:]
            assert len(keys) == len(coster._search_memo) == len(expected)
            assert [key[:3] for key in keys] == expected
        stats = coster.search_memo_stats()
        assert stats.entries == min(cap, len(stored))
        assert stats.evicted == len(stored) - stats.entries


class TestEvictionAcrossColdTiers:
    def test_evicted_rows_never_hit_and_are_swept(self, monkeypatch):
        monkeypatch.setattr(raqo, "_HOT_TIER_CAP", 4)
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", 64)
        memo = raqo._SearchMemo()
        config = raqo.DEFAULT_QO_RESOURCES
        clusters = [
            ClusterConditions(max_containers=10 + k, max_container_gb=4.0)
            for k in range(3)
        ]
        stored = []
        for step in range(300):
            cluster = clusters[step % 3]
            key = (float(step), 1.0)
            memo.store(
                JoinAlgorithm.SORT_MERGE,
                cluster,
                [(key, raqo._SearchEntry(config, step, step, step))],
            )
            stored.append((cluster, key))
            assert len(memo) == min(step + 1, 64)
            # Evicted rows left in the cold tiers stay bounded.
            assert memo._cold_rows <= 64 + 64 // 8
        for index, (cluster, key) in enumerate(stored):
            entry = memo.get(JoinAlgorithm.SORT_MERGE, cluster, key)
            if index < len(stored) - 64:
                assert entry is None
            else:
                assert entry.iterations == index
        assert [key[1:3] for key, _ in memo.items()] == [
            key for _, key in stored[-64:]
        ]
        # Storing a key again after its eviction gives it one live row.
        cluster, key = stored[0]
        memo.store(
            JoinAlgorithm.SORT_MERGE,
            cluster,
            [(key, raqo._SearchEntry(config, -1.0, 7, -1.0))],
        )
        for step in range(8):
            memo.store(
                JoinAlgorithm.SORT_MERGE,
                cluster,
                [((1e6 + step, 1.0), raqo._SearchEntry(config, 0, 0, 0))],
            )
        assert memo.get(JoinAlgorithm.SORT_MERGE, cluster, key).iterations == 7

    def test_groups_with_no_live_rows_are_dropped(self, monkeypatch):
        monkeypatch.setattr(raqo, "_HOT_TIER_CAP", 2)
        monkeypatch.setattr(raqo, "_SEARCH_MEMO_CAP", 16)
        memo = raqo._SearchMemo()
        config = raqo.DEFAULT_QO_RESOURCES
        for containers in range(10, 60):
            cluster = ClusterConditions(
                max_containers=containers, max_container_gb=4.0
            )
            memo.store(
                JoinAlgorithm.SORT_MERGE,
                cluster,
                [
                    ((float(k), 1.0), raqo._SearchEntry(config, 0, 0, 0))
                    for k in range(3)
                ],
            )
            assert len(memo) <= 16
            live = {(key[0], key[3]) for key, _ in memo.items()}
            assert live <= set(memo._groups)
            # At most the groups whose evicted rows await a sweep linger.
            assert len(memo._groups) <= len(live) + 16 // 8


class TestByteBudget:
    """The memo's footprint per entry at the cap: a store that keeps a
    Python object per cold entry fails here."""

    def test_full_memo_fits_the_byte_budget(self):
        cap = raqo._SEARCH_MEMO_CAP
        memo = raqo._SearchMemo()
        configs = [
            raqo.ResourceConfiguration(num_containers=n, container_gb=4.0)
            for n in range(1, 101)
        ]
        clusters = [
            raqo.DEFAULT_CLUSTER,
            ClusterConditions(max_containers=40, max_container_gb=6.0),
        ]
        algorithms = [JoinAlgorithm.SORT_MERGE, JoinAlgorithm.BROADCAST_HASH]

        def fill(start, stop):
            for first in range(start, stop, 64):
                rows = range(first, min(first + 64, stop))
                group = first // 64 % 4
                memo.store(
                    algorithms[group % 2],
                    clusters[group // 2],
                    [
                        (
                            (k * 0.5, 1.0 + k % 7),
                            raqo._SearchEntry(
                                configs[k % 100], k * 0.25, 100, k * 0.125
                            ),
                        )
                        for k in rows
                    ],
                )

        fill(0, 256)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fill(256, cap)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        stats = memo.stats()
        assert stats.entries == cap and stats.evicted == 0
        assert stats.bytes <= 64 * cap
        assert grown <= 4.5 * 2**20
