"""Stress tests for the shared-state audit and for sharded workloads.

The thread-safety pass (lint rule RAQO005) assumes that every piece of
module-level mutable state reachable from the optimizer service's
worker threads is lock-guarded -- the only such state is the
default-cost-model memo in :mod:`repro.core.raqo`, guarded by
``_MODEL_CACHE_LOCK``.  These tests hammer that assumption with real
thread pools, and check that process-sharded workloads
(``WorkloadRunner.run(processes=N)``) keep all planner state isolated
per worker and reproduce the serial report.
"""

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.catalog import tpch
from repro.core import raqo
from repro.core.raqo import RaqoPlanner, default_cost_model
from repro.engine.profiles import HIVE_PROFILE, SPARK_PROFILE
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.runner import WorkloadRunner

pytestmark = pytest.mark.stress


@pytest.fixture(scope="module")
def catalog():
    return tpch.tpch_catalog(100)


@pytest.fixture(scope="module")
def workload(catalog):
    rng = np.random.default_rng(7)
    return generate_workload(catalog, WorkloadSpec(num_queries=6), rng)


def _strip_timing(report):
    return tuple(
        dataclasses.replace(outcome, planning_ms=0.0)
        for outcome in report.outcomes
    )


class TestDefaultModelCacheLock:
    def test_concurrent_first_fit_yields_one_shared_suite(self):
        """N racing first calls must fit exactly one model per profile."""
        with raqo._MODEL_CACHE_LOCK:
            saved = dict(raqo._DEFAULT_MODEL_CACHE)
            raqo._DEFAULT_MODEL_CACHE.clear()
        try:
            workers = 8
            barrier = threading.Barrier(workers)

            def racing_call(_):
                barrier.wait()
                return default_cost_model(HIVE_PROFILE)

            with ThreadPoolExecutor(max_workers=workers) as pool:
                suites = list(pool.map(racing_call, range(workers)))
            assert all(suite is suites[0] for suite in suites)
            with raqo._MODEL_CACHE_LOCK:
                hive_keys = [
                    key
                    for key in raqo._DEFAULT_MODEL_CACHE
                    if key[0] == HIVE_PROFILE.name
                ]
            assert len(hive_keys) == 1
        finally:
            with raqo._MODEL_CACHE_LOCK:
                raqo._DEFAULT_MODEL_CACHE.update(saved)

    def test_distinct_profiles_cache_distinct_suites(self):
        assert default_cost_model(HIVE_PROFILE) is not default_cost_model(
            SPARK_PROFILE
        )
        # Memoised: repeated calls return the identical object.
        assert default_cost_model(HIVE_PROFILE) is default_cost_model(
            HIVE_PROFILE
        )


class TestCloneIsolationUnderStress:
    def test_parallel_runs_are_reproducible(self, catalog, workload):
        """Repeated sharded runs return byte-identical reports."""
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        reports = [
            runner.run(workload, processes=2) for _ in range(3)
        ]
        first = _strip_timing(reports[0])
        for report in reports[1:]:
            assert _strip_timing(report) == first

    def test_parallel_run_never_touches_the_shared_planner_cache(
        self, catalog, workload
    ):
        """Workers plan on rebuilt planners: the original planner's
        resource plan cache must see zero traffic from a sharded run."""
        planner = RaqoPlanner.default(catalog)
        runner = WorkloadRunner(planner)
        assert planner.cache is not None
        before = dataclasses.replace(planner.cache.stats)
        runner.run(workload, processes=2)
        after = planner.cache.stats
        assert after.lookups == before.lookups
        assert after.inserts == before.inserts

    def test_interleaved_runners_do_not_cross_talk(self, catalog, workload):
        """Two runners planning on two threads at once stay
        independent (the module-level state they share is guarded)."""
        runner_a = WorkloadRunner(RaqoPlanner.default(catalog))
        runner_b = WorkloadRunner(
            RaqoPlanner.two_step_baseline(catalog)
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            future_a = pool.submit(runner_a.run, workload, "raqo")
            future_b = pool.submit(runner_b.run, workload, "baseline")
            report_a, report_b = future_a.result(), future_b.result()
        solo_a = WorkloadRunner(RaqoPlanner.default(catalog)).run(
            workload, "raqo"
        )
        solo_b = WorkloadRunner(
            RaqoPlanner.two_step_baseline(catalog)
        ).run(workload, "baseline")
        assert _strip_timing(report_a) == _strip_timing(solo_a)
        assert _strip_timing(report_b) == _strip_timing(solo_b)


class TestFaultDeterminism:
    """The fault subsystem's parallel-determinism acceptance criterion:
    with faults enabled, same-seed runs are bit-identical across the
    serial and the process-sharded runner (fault decisions are pure functions
    of (seed, scope, stage, attempt), never of execution order)."""

    @pytest.fixture(scope="class")
    def faults(self):
        from repro.faults.model import FaultPlan, FaultSpec

        return FaultPlan(
            FaultSpec(
                seed=13,
                preemption_rate=0.2,
                oom_rate=0.4,
                straggler_rate=0.2,
            )
        )

    def test_parallel_runs_with_faults_are_reproducible(
        self, catalog, workload, faults
    ):
        runner = WorkloadRunner(
            RaqoPlanner.default(catalog), faults=faults
        )
        reports = [
            runner.run(workload, processes=2) for _ in range(2)
        ]
        assert _strip_timing(reports[0]) == _strip_timing(reports[1])

    def test_serial_and_parallel_reports_are_identical(
        self, catalog, workload, faults
    ):
        serial = WorkloadRunner(
            RaqoPlanner.default(catalog), faults=faults
        ).run(workload)
        parallel = WorkloadRunner(
            RaqoPlanner.default(catalog), faults=faults
        ).run(workload, processes=2)
        assert _strip_timing(serial) == _strip_timing(parallel)
        # The runs really injected something (the test is not vacuous).
        assert serial.total_faults_injected > 0
        assert serial.total_faults_injected == (
            parallel.total_faults_injected
        )
