"""Cross-planner property tests on random schemas.

These pin the optimality relationships between the three planners: on
any (small) random catalog, the exhaustive bushy DP lower-bounds the
left-deep DP, which the randomized planner should approach. Each
planner must also match its per-candidate reference
(``tests/scalar_reference.py``) exactly.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.queries import Query
from repro.catalog.random_schema import RandomSchemaConfig, random_catalog
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.planner.bushy import BushyPlanner
from repro.planner.cost_interface import Cost, PlanningContext
from repro.planner.plan import left_deep_plan
from repro.planner.randomized import FastRandomizedPlanner
from repro.planner.selinger import SelingerPlanner
from scalar_reference import (
    PerCandidateCoster,
    as_reference,
    get_plan_cost_per_join,
)


class SizeCoster(PerCandidateCoster):
    def join_cost(self, left_tables, right_tables, algorithm, context):
        stats = context.estimator.join_stats(left_tables, right_tables)
        return Cost(time_s=stats.size_gb, money=0.0), None


def make_setup(seed, num_tables=6, query_size=5):
    rng = np.random.default_rng(seed)
    catalog = random_catalog(
        RandomSchemaConfig(num_tables=num_tables), rng
    )
    from repro.catalog.random_schema import random_query

    query = random_query(catalog, query_size, rng)
    context = PlanningContext(
        estimator=StatisticsEstimator(catalog),
        cluster=ClusterConditions(max_containers=10, max_container_gb=4.0),
    )
    return catalog, query, context


class TestPlannerRelationships:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_property_bushy_lower_bounds_selinger(self, seed):
        catalog, query, context = make_setup(seed)
        selinger = SelingerPlanner(SizeCoster()).plan(query, context)
        bushy = BushyPlanner(SizeCoster()).plan(
            query,
            PlanningContext(
                estimator=context.estimator, cluster=context.cluster
            ),
        )
        assert bushy.cost.time_s <= selinger.cost.time_s + 1e-9

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_selinger_matches_exhaustive_left_deep(self, seed):
        catalog, query, context = make_setup(seed, query_size=4)
        result = SelingerPlanner(SizeCoster()).plan(query, context)
        graph = catalog.join_graph
        coster = SizeCoster()
        best = None
        for perm in itertools.permutations(query.tables):
            valid = all(
                graph.edges_between(perm[: i + 1], [perm[i + 1]])
                for i in range(len(perm) - 1)
            )
            if not valid:
                continue
            plan = left_deep_plan(perm)
            _, cost = get_plan_cost_per_join(plan, coster, context)
            if best is None or cost.time_s < best:
                best = cost.time_s
        assert best is not None
        assert result.cost.time_s == pytest.approx(best)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_property_randomized_close_to_bushy_optimum(self, seed):
        catalog, query, context = make_setup(seed, query_size=4)
        bushy = BushyPlanner(SizeCoster()).plan(query, context)
        randomized = FastRandomizedPlanner(
            SizeCoster(), iterations=10, seed=seed % 1000
        ).plan(
            query,
            PlanningContext(
                estimator=context.estimator, cluster=context.cluster
            ),
        )
        # Randomized search has no optimality guarantee; a loose factor
        # catches real regressions (e.g. invalid mutations) without
        # flaking on unlucky seeds.
        assert randomized.cost.time_s <= bushy.cost.time_s * 3.0 + 1e-9


class TestReferenceIdentity:
    """Production planners cost a DP level (or a candidate plan) in one
    batch; their per-candidate twins must agree on the plan, its join
    implementations, the Cost bits and every counter but the batching
    ones. ``SizeCoster`` prices both join implementations alike, so
    every subset's champion is chosen among exact ties."""

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_property_planners_match_reference(self, seed):
        _, query, context = make_setup(seed)
        planners = (
            SelingerPlanner(SizeCoster()),
            BushyPlanner(SizeCoster()),
            FastRandomizedPlanner(
                SizeCoster(), iterations=3, seed=seed % 1000
            ),
        )
        for planner in planners:
            runs = []
            for candidate in (planner, as_reference(planner)):
                result = candidate.plan(
                    query,
                    PlanningContext(
                        estimator=context.estimator,
                        cluster=context.cluster,
                    ),
                )
                runs.append(
                    (
                        result.plan,
                        result.cost.time_s.hex(),
                        result.cost.money.hex(),
                        dataclasses.replace(
                            result.counters,
                            batched_calls=0,
                            batch_memo_hits=0,
                        ),
                    )
                )
            assert runs[0] == runs[1], planner.name
