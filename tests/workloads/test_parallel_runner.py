"""Tests for the parallel workload runner (process-pool fan-out).

Thread mode is gone: a workload shards over processes only, and the
planner clones tested here serve the optimizer service's threads.
"""

import dataclasses

import numpy as np
import pytest

from repro.catalog import tpch
from repro.core.raqo import PlannerKind, RaqoPlanner
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.runner import WorkloadRunner


@pytest.fixture(scope="module")
def catalog():
    return tpch.tpch_catalog(100)


@pytest.fixture(scope="module")
def workload(catalog):
    rng = np.random.default_rng(23)
    return generate_workload(
        catalog, WorkloadSpec(num_queries=8), rng
    )


def _strip_timing(report):
    """Outcomes with wall-clock fields zeroed (they legitimately vary)."""
    return tuple(
        dataclasses.replace(outcome, planning_ms=0.0)
        for outcome in report.outcomes
    )


class TestParallelRunner:
    def test_rejects_zero_workers(self, catalog, workload):
        """Thread workers are not an option any more, at any count."""
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        with pytest.raises(TypeError, match="max_workers"):
            runner.run(workload, max_workers=0)
        with pytest.raises(TypeError, match="max_workers"):
            runner.run(workload, max_workers=2)

    def test_parallel_matches_sequential(self, catalog, workload):
        """Same queries, same report -- only wall-clock may differ."""
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        sequential = runner.run(workload)
        parallel = runner.run(workload, processes=2)
        assert _strip_timing(parallel) == _strip_timing(sequential)
        assert [o.query.name for o in parallel.outcomes] == [
            q.name for q in workload
        ]

    def test_parallel_totals_match_sequential(self, catalog, workload):
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        sequential = runner.run(workload)
        parallel = runner.run(workload, processes=2)
        assert (
            parallel.total_resource_iterations
            == sequential.total_resource_iterations
        )
        assert parallel.cache_hit_total == sequential.cache_hit_total
        assert parallel.total_executed_time_s == pytest.approx(
            sequential.total_executed_time_s
        )
        assert parallel.total_dollars == pytest.approx(
            sequential.total_dollars
        )

    def test_counters_not_corrupted_by_concurrency(
        self, catalog, workload
    ):
        """Per-query counters must not interleave across workers.

        Each worker process plans on its own rebuilt planner, so every
        outcome's counter must equal what a fresh planner reports for
        that query alone.
        """
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        parallel = runner.run(workload, processes=2)
        for query, outcome in zip(workload, parallel.outcomes):
            solo = RaqoPlanner.default(catalog).optimize(query)
            assert outcome.resource_iterations == (
                solo.resource_iterations
            )
            assert outcome.cache_hits == solo.counters.cache_hits

    def test_parallel_with_more_workers_than_queries(
        self, catalog, workload
    ):
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        report = runner.run(workload[:2], processes=3)
        assert len(report.outcomes) == 2

    def test_parallel_randomized_planner(self, catalog, workload):
        """Rebuilt workers reproduce the seeded randomized planner."""
        planner = RaqoPlanner(
            catalog,
            planner_kind=PlannerKind.FAST_RANDOMIZED,
            seed=3,
        )
        runner = WorkloadRunner(planner)
        sequential = runner.run(workload)
        parallel = runner.run(workload, processes=2)
        assert _strip_timing(parallel) == _strip_timing(sequential)


class TestPlannerClone:
    def test_clone_is_independent(self, catalog):
        planner = RaqoPlanner.default(catalog)
        clone = planner.clone()
        assert clone is not planner
        assert clone.cost_model is planner.cost_model  # shared, immutable
        assert clone.coster is not planner.coster
        assert clone.cache is not planner.cache

    def test_clone_plans_identically(self, catalog):
        planner = RaqoPlanner.default(catalog)
        clone = planner.clone()
        original = planner.optimize(tpch.QUERY_Q3)
        cloned = clone.optimize(tpch.QUERY_Q3)
        assert cloned.cost == original.cost
        assert cloned.counters.resource_iterations == (
            original.counters.resource_iterations
        )

    def test_clone_tracks_replanned_cluster(self, catalog):
        from repro.cluster.cluster import ClusterConditions

        planner = RaqoPlanner.default(catalog)
        small = ClusterConditions(max_containers=8, max_container_gb=2.0)
        planner.replan(tpch.QUERY_Q2, small)
        assert planner.clone().cluster == small
