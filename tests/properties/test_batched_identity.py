"""Bit-identity of lattice-batched planning vs the scalar reference.

The batched DP-level costing (``CandidateBatch`` + ``cost_batch``) and
grid-costed resource search are pure performance features: every
observable output -- chosen plans, exact Cost floats, counters, cache
statistics, and the canonical span tree -- must be *bit-identical* to
the per-candidate reference in ``tests/scalar_reference.py``. These
tests sweep planners, catalogs, resource-planning methods, and seeds to
pin that invariant.
"""

import dataclasses

import numpy as np
import pytest

from repro.catalog import tpch
from repro.catalog.random_schema import (
    RandomSchemaConfig,
    random_catalog,
    random_query,
)
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.core.cost_model import SimulatorCostModel
from repro.core.plan_cache import LookupMode, ResourcePlanCache
from repro.core.raqo import (
    DEFAULT_CLUSTER,
    PlannerKind,
    RaqoCoster,
    RaqoPlanner,
    ResourcePlanningMethod,
    default_cost_model,
)
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import HIVE_PROFILE
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.planner.cost_interface import PlanningContext
from repro.planner.plan import CandidateBatch, plan_signature
from scalar_reference import (
    cost_batch_per_candidate,
    reference_planner,
    scalar_resource_search,
)


def _strip_batch_counters(counters):
    """Counters with the batching-only fields zeroed.

    ``batched_calls``/``batch_memo_hits`` legitimately differ between
    production and the per-candidate reference (that is what they
    count); everything else must not.
    """
    return dataclasses.replace(
        counters, batched_calls=0, batch_memo_hits=0
    )


def _observable(result):
    return (
        plan_signature(result.plan),
        result.cost.time_s,
        result.cost.money,
        _strip_batch_counters(result.counters),
    )


def _plan_all(catalog, queries, *, batched, tracer_seed=None, **kwargs):
    """Plan on production (``batched``) or the per-candidate reference."""
    tracer = Tracer(seed=tracer_seed) if tracer_seed is not None else None
    build = RaqoPlanner if batched else reference_planner
    planner = build(catalog, tracer=tracer, **kwargs)
    results = [planner.optimize(q) for q in queries]
    tree = canonical_span_tree_json(tracer) if tracer else None
    return results, tree


CONFIGS = [
    dict(
        planner_kind=PlannerKind.SELINGER,
        resource_method=ResourcePlanningMethod.BRUTE_FORCE,
    ),
    dict(
        planner_kind=PlannerKind.SELINGER,
        resource_method=ResourcePlanningMethod.HILL_CLIMB,
    ),
    dict(
        planner_kind=PlannerKind.FAST_RANDOMIZED,
        resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        randomized_iterations=2,
    ),
    dict(
        planner_kind=PlannerKind.FAST_RANDOMIZED,
        resource_method=ResourcePlanningMethod.HILL_CLIMB,
        randomized_iterations=2,
    ),
]


#: The shared SF-100 ``catalog`` fixture comes from this directory's
#: conftest (built once per run, not once per module).
pytestmark = pytest.mark.slow


class TestBatchedScalarIdentity:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_tpch_identical_plans_costs_counters(self, catalog, config):
        queries = list(tpch.EVALUATION_QUERIES)
        batched, _ = _plan_all(catalog, queries, batched=True, **config)
        scalar, _ = _plan_all(catalog, queries, batched=False, **config)
        assert [_observable(r) for r in batched] == [
            _observable(r) for r in scalar
        ]

    @pytest.mark.parametrize("config", CONFIGS[:2])
    def test_tpch_identical_span_trees(self, catalog, config):
        """One ``cost-batch`` span per DP level, as the reference opens
        around the same candidates."""
        queries = list(tpch.EVALUATION_QUERIES)
        _, tree_b = _plan_all(
            catalog, queries, batched=True, tracer_seed=7, **config
        )
        _, tree_s = _plan_all(
            catalog, queries, batched=False, tracer_seed=7, **config
        )
        assert tree_b == tree_s

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_schema_identical(self, seed):
        rng = np.random.default_rng(seed)
        cat = random_catalog(RandomSchemaConfig(num_tables=6), rng)
        queries = [random_query(cat, 5, rng) for _ in range(3)]
        for config in CONFIGS[:2]:
            batched, _ = _plan_all(cat, queries, batched=True, **config)
            scalar, _ = _plan_all(cat, queries, batched=False, **config)
            assert [_observable(r) for r in batched] == [
                _observable(r) for r in scalar
            ]

    def test_batched_mode_actually_batches(self, catalog):
        results, _ = _plan_all(
            catalog,
            list(tpch.EVALUATION_QUERIES),
            batched=True,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        )
        for result in results:
            assert result.counters.batched_calls > 0
            assert result.batch_sizes
            assert (
                sum(result.batch_sizes) == result.counters.join_costings
            )
            # One batch per DP level, not per candidate.
            assert len(result.batch_sizes) < result.counters.join_costings

    def test_scalar_mode_reports_no_batches(self, catalog):
        """The reference never goes through ``cost_batch``."""
        results, _ = _plan_all(
            catalog,
            list(tpch.EVALUATION_QUERIES),
            batched=False,
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
        )
        for result in results:
            assert result.counters.batched_calls == 0
            assert result.batch_sizes == ()

    def test_memo_hits_match_within_and_across_batches(self, catalog):
        """Within-batch duplicates count as memo hits, like the scalar
        memo would have recorded them."""
        config = dict(resource_method=ResourcePlanningMethod.BRUTE_FORCE)
        batched, _ = _plan_all(
            catalog, list(tpch.EVALUATION_QUERIES), batched=True, **config
        )
        scalar, _ = _plan_all(
            catalog,
            list(tpch.EVALUATION_QUERIES),
            batched=False,
            **config,
        )
        for rb, rs in zip(batched, scalar):
            assert rb.counters.memo_hits == rs.counters.memo_hits


def _exact(result):
    """Everything a planning run reports, floats as hex: the plan with
    each operator's resources, the Cost bits and every counter."""
    return (
        plan_signature(result.plan),
        [join.resources for join in result.plan.joins_postorder()],
        result.cost.time_s.hex(),
        result.cost.money.hex(),
        result.counters,
        result.batch_sizes,
    )


def _plan_searching(catalog, queries, *, grid, **kwargs):
    """Plan on production, with grid-costed resource searches or (not
    ``grid``) their scalar forms."""
    if grid:
        return _plan_all(catalog, queries, batched=True, **kwargs)
    with scalar_resource_search():
        return _plan_all(catalog, queries, batched=True, **kwargs)


class TestGridHillClimbIdentity:
    """Hill climbing over the once-costed grid vs the scalar climb."""

    @pytest.mark.parametrize(
        "planner_kind", [PlannerKind.SELINGER, PlannerKind.FAST_RANDOMIZED]
    )
    def test_tpch_identical(self, catalog, planner_kind):
        runs = [
            _plan_searching(
                catalog,
                list(tpch.EVALUATION_QUERIES),
                grid=grid,
                tracer_seed=7,
                planner_kind=planner_kind,
                resource_method=ResourcePlanningMethod.HILL_CLIMB,
                randomized_iterations=2,
            )
            for grid in (True, False)
        ]
        (grid, grid_tree), (scalar, scalar_tree) = runs
        assert [_exact(r) for r in grid] == [_exact(r) for r in scalar]
        assert grid_tree == scalar_tree

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_schema_identical(self, seed):
        rng = np.random.default_rng(seed)
        cat = random_catalog(RandomSchemaConfig(num_tables=6), rng)
        queries = [random_query(cat, 5, rng) for _ in range(3)]
        runs = [
            _plan_searching(
                cat,
                queries,
                grid=grid,
                tracer_seed=7,
                resource_method=ResourcePlanningMethod.HILL_CLIMB,
            )
            for grid in (True, False)
        ]
        (grid, grid_tree), (scalar, scalar_tree) = runs
        assert [_exact(r) for r in grid] == [_exact(r) for r in scalar]
        assert grid_tree == scalar_tree


#: Plan-cache set-ups the batched kernel must reproduce: hits served in
#: the partition phase and in the tail walk, neighbour configurations
#: that fail the BHJ memory wall, and no cache at all.
CACHES = {
    "exact": dict(cache_mode=LookupMode.EXACT),
    "nearest-0": dict(cache_mode=LookupMode.NEAREST),
    "nearest-0.5": dict(
        cache_mode=LookupMode.NEAREST, cache_threshold_gb=0.5
    ),
    "weighted-2": dict(
        cache_mode=LookupMode.WEIGHTED_AVERAGE, cache_threshold_gb=2.0
    ),
    "no-cache": dict(cache_mode=None),
}

ESTIMATORS = {
    "learned": default_cost_model,
    "simulator": lambda: SimulatorCostModel(HIVE_PROFILE),
}


#: The cluster a replanned stream switches to half-way through.
SMALLER_CLUSTER = ClusterConditions(max_containers=40, max_container_gb=6.0)


def _cache_run(
    catalog,
    queries,
    *,
    batched,
    estimator,
    cache,
    method,
    replan_at=None,
    **kwargs,
):
    """Plan ``queries`` on one planner whose cache persists across
    queries (and so across batches), from ``replan_at`` on by replanning
    onto :data:`SMALLER_CLUSTER`; returns every observable."""
    tracer = Tracer(seed=11)
    build = RaqoPlanner if batched else reference_planner
    planner = build(
        catalog,
        tracer=tracer,
        cost_model=ESTIMATORS[estimator](),
        resource_method=method,
        clear_cache_between_queries=False,
        **CACHES[cache],
        **kwargs,
    )
    results = [
        planner.optimize(q)
        if replan_at is None or index < replan_at
        else planner.replan(q, SMALLER_CLUSTER)
        for index, q in enumerate(queries)
    ]
    stats = (
        dataclasses.asdict(planner.cache.stats)
        if planner.cache is not None
        else None
    )
    observables = [
        (
            plan_signature(r.plan),
            [join.resources for join in r.plan.joins_postorder()],
            r.cost.time_s.hex(),
            r.cost.money.hex(),
            _strip_batch_counters(r.counters),
        )
        for r in results
    ]
    return observables, stats, canonical_span_tree_json(tracer)


class TestPlanCacheIdentity:
    """Batched vs scalar planning under every plan-cache set-up: plans,
    Cost bits, counters, ``cache.stats`` and span trees."""

    method = ResourcePlanningMethod.BRUTE_FORCE

    def _assert_identical(self, catalog, queries, **kwargs):
        kwargs.setdefault("estimator", "learned")
        batched = _cache_run(
            catalog, queries, batched=True, method=self.method, **kwargs
        )
        scalar = _cache_run(
            catalog, queries, batched=False, method=self.method, **kwargs
        )
        assert batched == scalar

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("cache", sorted(CACHES))
    def test_tpch(self, catalog, cache, estimator):
        self._assert_identical(
            catalog,
            list(tpch.EVALUATION_QUERIES) * 2,
            estimator=estimator,
            cache=cache,
        )

    @pytest.mark.parametrize("cache", sorted(CACHES))
    def test_random_schema(self, cache):
        rng = np.random.default_rng(5)
        cat = random_catalog(RandomSchemaConfig(num_tables=10), rng)
        queries = [random_query(cat, size, rng) for size in (4, 6, 8, 8)]
        self._assert_identical(cat, queries, cache=cache)

    @pytest.mark.parametrize("cache", ["nearest-0.5", "weighted-2"])
    def test_tpch_memoize_off(self, catalog, cache):
        """Without the within-run memo every repeat reaches the
        partition's plan-cache lookups."""
        self._assert_identical(
            catalog,
            list(tpch.EVALUATION_QUERIES) * 2,
            cache=cache,
            memoize_within_run=False,
        )

    @pytest.mark.parametrize("cache", ["nearest-0", "weighted-2"])
    def test_tpch_replan_to_smaller_cluster(self, catalog, cache):
        """Cached configurations that no longer fit the cluster are
        misses; the kept cache and the search memo span both."""
        queries = list(tpch.EVALUATION_QUERIES) * 2
        self._assert_identical(
            catalog, queries, cache=cache, replan_at=len(queries) // 2
        )


class TestPlanCacheIdentityHillClimb(TestPlanCacheIdentity):
    """The same set-ups with hill climbing, whose searches
    ``cost_batch`` leaves to ``join_cost``."""

    method = ResourcePlanningMethod.HILL_CLIMB


class _FixedSizes:
    """A stand-in estimator: each (left, right) pair has preset sizes."""

    def __init__(self, sizes):
        self.sizes = sizes

    def join_io_gb(self, left, right):
        return self.sizes[(frozenset(left), frozenset(right))]


class TestTailWalk:
    """A hand-built batch whose tail meets a run of hits, a miss and an
    infeasible hit, against a NEAREST cache with a 1 GB threshold.

    BHJ fits while ``small_gb <= 1.15 * container_gb``, so 11.2 GB plans
    onto 10 GB containers and 11.8 GB (past the wall) finds that
    neighbour's configuration infeasible.
    """

    CANDIDATES = [
        # (small_gb, algorithm): kernel rows first (with hill climbing,
        # searches join_cost runs in the tail walk), then tail entries.
        (2.0, JoinAlgorithm.SORT_MERGE),  # kernel row
        (11.2, JoinAlgorithm.BROADCAST_HASH),  # kernel row
        (2.9, JoinAlgorithm.SORT_MERGE),  # tail: hit on 2.0
        (11.8, JoinAlgorithm.BROADCAST_HASH),  # tail: infeasible hit
        (3.8, JoinAlgorithm.SORT_MERGE),  # tail: miss, plans, inserts
        (4.5, JoinAlgorithm.SORT_MERGE),  # tail: hit on 3.8
        (12.7, JoinAlgorithm.BROADCAST_HASH),  # tail: miss, infeasible
        (4.6, JoinAlgorithm.SORT_MERGE),  # tail: hit on 3.8
    ]
    SECOND = [
        # A later batch (fresh memo, same cache): partition-phase hits.
        (2.2, JoinAlgorithm.SORT_MERGE),  # hit
        (11.6, JoinAlgorithm.BROADCAST_HASH),  # infeasible hit, wall
    ]

    def _batch(self, rows, tag):
        candidates, sizes = [], {}
        for index, (small_gb, algorithm, *large_gb) in enumerate(rows):
            left = frozenset({f"{tag}l{index}"})
            right = frozenset({f"{tag}r{index}"})
            candidates.append((left, right, algorithm))
            sizes[(left, right)] = (small_gb, *(large_gb or [40.0 + index]))
        estimator = _FixedSizes(sizes)
        return CandidateBatch.build(candidates, estimator.join_io_gb), estimator

    #: BHJ rows past the memory wall between kernel rows, tail rows and
    #: infeasible hits.
    WALLS = [
        (2.0, JoinAlgorithm.SORT_MERGE),  # kernel row
        (20.0, JoinAlgorithm.BROADCAST_HASH),  # wall
        (2.5, JoinAlgorithm.SORT_MERGE),  # tail: hit on 2.0
        (12.5, JoinAlgorithm.BROADCAST_HASH),  # wall
        (11.0, JoinAlgorithm.BROADCAST_HASH),  # kernel row
        (12.9, JoinAlgorithm.BROADCAST_HASH),  # wall, not pending
        (11.9, JoinAlgorithm.BROADCAST_HASH),  # tail: infeasible hit
        (30.0, JoinAlgorithm.BROADCAST_HASH),  # wall
        (3.0, JoinAlgorithm.SORT_MERGE),  # tail: hit
    ]
    WALLS_SECOND = [
        (12.0, JoinAlgorithm.BROADCAST_HASH),  # infeasible hit, wall
        (2.2, JoinAlgorithm.SORT_MERGE),  # hit
        (40.0, JoinAlgorithm.BROADCAST_HASH),  # wall
    ]

    method = ResourcePlanningMethod.BRUTE_FORCE

    def _run(self, cost_fn, coster_hook=None, batches=None):
        coster = RaqoCoster(
            model=default_cost_model(),
            method=self.method,
            cache=ResourcePlanCache(LookupMode.NEAREST, threshold_gb=1.0),
        )
        if coster_hook is not None:
            coster_hook(coster)
        tracer = Tracer(seed=3)
        outputs = []
        if batches is None:
            batches = (self.CANDIDATES, self.SECOND)
        for rows, tag in zip(batches, "abc"):
            batch, estimator = self._batch(rows, tag)
            context = PlanningContext(
                estimator=estimator, cluster=DEFAULT_CLUSTER, tracer=tracer
            )
            result = cost_fn(coster, batch, context)
            outputs.append(
                (
                    [t.hex() for t in result.time_s.tolist()],
                    [m.hex() for m in result.money.tolist()],
                    result.configs,
                    _strip_batch_counters(context.counters),
                )
            )
        stats = dataclasses.asdict(coster.cache.stats)
        return outputs, stats, canonical_span_tree_json(tracer)

    def test_matches_scalar_and_replays_both_kinds(self):
        replays = {}

        def spy_on_replays(coster):
            replay = coster._plan_and_cost
            stats = coster.cache.stats

            def spy(algorithm, small_gb, large_gb, context):
                hits = stats.hits
                result = replay(algorithm, small_gb, large_gb, context)
                replays[small_gb] = (
                    "infeasible-hit" if stats.hits > hits else "miss"
                )
                return result

            coster._plan_and_cost = spy

        batched = self._run(
            lambda coster, batch, context: coster.cost_batch(batch, context),
            spy_on_replays,
        )
        scalar = self._run(cost_batch_per_candidate)
        assert batched == scalar
        assert replays[11.8] == "infeasible-hit"
        assert replays[3.8] == "miss"
        assert replays[12.7] == "miss"
        (first, second), stats, _ = batched
        assert first[3].cache_hits == 3
        assert second[3].cache_hits == 1
        # Stats count the two infeasible hits as hits; counters do not.
        assert stats["hits"] == 6 and stats["misses"] == 4

    def test_walls_mid_batch(self):
        batches = (self.WALLS, self.WALLS_SECOND)
        batched = self._run(
            lambda coster, batch, context: coster.cost_batch(batch, context),
            batches=batches,
        )
        assert batched == self._run(cost_batch_per_candidate, batches=batches)
        (first, second), stats, _ = batched
        assert [config is None for config in first[2]] == [
            False, True, False, True, False, True, True, True, False
        ]
        assert [config is None for config in second[2]] == [
            True, False, True
        ]


class TestTailWalkHillClimb(TestTailWalk):
    """The tail walk with hill climbing, whose searches ``join_cost``
    runs in it."""

    method = ResourcePlanningMethod.HILL_CLIMB

    def test_infeasible_climb_inserts_nothing(self):
        """A larger input whose every prediction overflows leaves the
        climb without a finite cost (brute force raises instead): the
        row is infeasible and inserts nothing, so its neighbour in the
        tail misses."""
        rows = [
            (2.0, JoinAlgorithm.SORT_MERGE, 1e308),  # climbs, fails
            (2.5, JoinAlgorithm.SORT_MERGE),  # tail: miss, plans
            (2.0, JoinAlgorithm.SORT_MERGE, 1e308),  # alias of the first
        ]
        batches = (rows, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            batched = self._run(
                lambda coster, batch, context: coster.cost_batch(
                    batch, context
                ),
                batches=batches,
            )
            scalar = self._run(cost_batch_per_candidate, batches=batches)
        assert batched == scalar
        (first, second), stats, _ = batched
        assert [config is None for config in first[2]] == [True, False, True]
        assert stats["inserts"] == 1
