"""Bit-identity of lattice-batched planning vs the scalar reference.

The batched DP-level costing (``CandidateBatch`` + ``cost_batch``) and
the process-pool workload sharding are pure performance features: every
observable output -- chosen plans, exact Cost floats, counters, cache
statistics, and the canonical span tree -- must be *bit-identical* to
the per-candidate scalar path. These tests sweep planners, catalogs,
resource-planning methods, and seeds to pin that invariant.
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
from repro.core.raqo import (
    PlannerKind,
    RaqoPlanner,
    ResourcePlanningMethod,
)
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.planner.plan import plan_signature


def _strip_batch_counters(counters):
    """Counters with the batching-only fields zeroed.

    ``batched_calls``/``batch_memo_hits`` legitimately differ between
    the two modes (that is what they count); everything else must not.
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
    tracer = Tracer(seed=tracer_seed) if tracer_seed is not None else None
    planner = RaqoPlanner(
        catalog, batched_costing=batched, tracer=tracer, **kwargs
    )
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
        """The synthetic per-candidate spans reproduce the scalar trace."""
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


class TestGridHillClimbIdentity:
    """Hill climbing over the once-costed grid (the default,
    ``vectorized_resource_planning=True``) vs the scalar climb."""

    @pytest.mark.parametrize(
        "planner_kind", [PlannerKind.SELINGER, PlannerKind.FAST_RANDOMIZED]
    )
    def test_tpch_identical(self, catalog, planner_kind):
        runs = [
            _plan_all(
                catalog,
                list(tpch.EVALUATION_QUERIES),
                batched=True,
                tracer_seed=7,
                planner_kind=planner_kind,
                resource_method=ResourcePlanningMethod.HILL_CLIMB,
                randomized_iterations=2,
                vectorized_resource_planning=vectorized,
            )
            for vectorized in (True, False)
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
            _plan_all(
                cat,
                queries,
                batched=True,
                tracer_seed=7,
                resource_method=ResourcePlanningMethod.HILL_CLIMB,
                vectorized_resource_planning=vectorized,
            )
            for vectorized in (True, False)
        ]
        (grid, grid_tree), (scalar, scalar_tree) = runs
        assert [_exact(r) for r in grid] == [_exact(r) for r in scalar]
        assert grid_tree == scalar_tree
