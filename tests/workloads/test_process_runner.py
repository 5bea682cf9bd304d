"""Tests for the process-pool workload runner (planner sharding).

Each worker process rebuilds the planner from
``RaqoPlanner.picklable_init_kwargs()`` and, when tracing, ships its
spans back as dictionaries for ``Tracer.adopt`` to merge -- so a
process-sharded run must match a serial run byte for byte: outcomes
(modulo wall-clock), totals, and the canonical span tree.
"""

import dataclasses

import numpy as np
import pytest

from repro.catalog import tpch
from repro.core.raqo import RaqoPlanner, ResourcePlanningMethod
from repro.faults.model import FaultPlan, FaultSpec
from repro.obs.export import canonical_span_tree_json
from repro.obs.tracing import Tracer
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.runner import WorkloadRunner


@pytest.fixture(scope="module")
def catalog():
    return tpch.tpch_catalog(100)


@pytest.fixture(scope="module")
def workload(catalog):
    rng = np.random.default_rng(5)
    return generate_workload(catalog, WorkloadSpec(num_queries=6), rng)


def _strip_timing(report):
    return tuple(
        dataclasses.replace(outcome, planning_ms=0.0)
        for outcome in report.outcomes
    )


class TestProcessRunner:
    def test_rejects_negative_processes(self, catalog, workload):
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        with pytest.raises(ValueError, match="processes"):
            runner.run(workload, processes=-1)

    def test_rejects_threads_and_processes_together(
        self, catalog, workload
    ):
        """Processes are the one parallel mode: no thread workers."""
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        with pytest.raises(TypeError, match="max_workers"):
            runner.run(workload, max_workers=4, processes=2)

    def test_processes_match_sequential(self, catalog, workload):
        runner = WorkloadRunner(RaqoPlanner.default(catalog))
        sequential = runner.run(workload)
        sharded = runner.run(workload, processes=2)
        assert _strip_timing(sharded) == _strip_timing(sequential)
        assert sharded.label == sequential.label
        assert sharded.total_dollars == sequential.total_dollars

    def test_traced_processes_emit_identical_span_tree(
        self, catalog, workload
    ):
        def run(processes):
            tracer = Tracer(seed=31)
            planner = RaqoPlanner.default(catalog, tracer=tracer)
            report = WorkloadRunner(planner).run(
                workload, label="shard", processes=processes
            )
            return report, canonical_span_tree_json(tracer)

        serial_report, serial_tree = run(0)
        sharded_report, sharded_tree = run(2)
        assert sharded_tree == serial_tree
        assert _strip_timing(sharded_report) == _strip_timing(
            serial_report
        )

    def test_processes_with_faults_match_sequential(
        self, catalog, workload
    ):
        faults = FaultPlan(FaultSpec.parse("seed=3,oom=0.2"))
        runner = WorkloadRunner(
            RaqoPlanner.default(catalog), faults=faults
        )
        sequential = runner.run(workload)
        sharded = runner.run(workload, processes=3)
        assert _strip_timing(sharded) == _strip_timing(sequential)
        assert (
            sharded.total_faults_injected
            == sequential.total_faults_injected
        )

    def test_brute_force_planner_ships_cleanly(self, catalog, workload):
        """The fitted cost model and cluster survive pickling."""
        planner = RaqoPlanner(
            catalog, resource_method=ResourcePlanningMethod.BRUTE_FORCE
        )
        runner = WorkloadRunner(planner)
        sequential = runner.run(workload)
        sharded = runner.run(workload, processes=2)
        assert _strip_timing(sharded) == _strip_timing(sequential)
