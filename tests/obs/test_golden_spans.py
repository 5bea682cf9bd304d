"""Golden determinism: serial and parallel runs emit identical traces.

The tentpole contract of the tracing layer: span identities are derived
from ``(seed, path)``, never from thread scheduling or wall clocks, so
the *canonical* span tree of a seeded workload is byte-identical whether
the queries ran serially or on a process pool.  The same seed must also
reproduce the tree across separate tracer instances.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.catalog import tpch
from repro.core.raqo import RaqoPlanner
from repro.faults.model import FaultPlan, FaultSpec
from repro.obs.export import canonical_span_tree_json, chrome_trace
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import Tracer
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.runner import WorkloadRunner


@pytest.fixture(scope="module")
def catalog():
    return tpch.tpch_catalog(100)


@pytest.fixture(scope="module")
def workload(catalog):
    rng = np.random.default_rng(7)
    return generate_workload(catalog, WorkloadSpec(num_queries=6), rng)


FAULTS = FaultPlan(
    FaultSpec.parse("seed=11,preempt=0.15,oom=0.2,straggle=0.1")
)


def _traced_run(catalog, workload, processes, seed=42, telemetry=None):
    tracer = Tracer(seed=seed)
    planner = RaqoPlanner.default(catalog, tracer=tracer)
    runner = WorkloadRunner(planner, faults=FAULTS, telemetry=telemetry)
    report = runner.run(
        workload, label="golden", processes=processes
    )
    return tracer, report


class TestSerialParallelIdentity:
    def test_canonical_trees_byte_identical(self, catalog, workload):
        serial_tracer, serial_report = _traced_run(
            catalog, workload, processes=0
        )
        parallel_tracer, parallel_report = _traced_run(
            catalog, workload, processes=2
        )
        assert canonical_span_tree_json(
            serial_tracer
        ) == canonical_span_tree_json(parallel_tracer)
        # The reports agree too (wall-clock timing aside).
        assert [
            o.query.name for o in serial_report.outcomes
        ] == [o.query.name for o in parallel_report.outcomes]
        assert (
            serial_report.total_retries == parallel_report.total_retries
        )

    def test_reports_and_sim_telemetry_identical(self, catalog, workload):
        def run(processes):
            plane = TelemetryPlane()
            _, report = _traced_run(
                catalog, workload, processes=processes, telemetry=plane
            )
            outcomes = tuple(
                dataclasses.replace(outcome, planning_ms=0.0)
                for outcome in report.outcomes
            )
            snapshot = json.dumps(plane.snapshot(clock="sim"), sort_keys=True)
            return outcomes, snapshot

        serial_outcomes, serial_snapshot = run(0)
        sharded_outcomes, sharded_snapshot = run(2)
        assert sharded_outcomes == serial_outcomes
        assert sharded_snapshot == serial_snapshot
        assert json.loads(serial_snapshot)["counters"]

    def test_same_seed_reproduces_span_ids(self, catalog, workload):
        first, _ = _traced_run(catalog, workload, processes=2)
        second, _ = _traced_run(catalog, workload, processes=2)
        assert [s.span_id for s in first.spans()] == [
            s.span_id for s in second.spans()
        ]

    def test_different_tracer_seed_changes_ids_not_shape(
        self, catalog, workload
    ):
        a, _ = _traced_run(catalog, workload, processes=0, seed=1)
        b, _ = _traced_run(catalog, workload, processes=0, seed=2)
        assert [s.path for s in a.spans()] == [s.path for s in b.spans()]
        assert [s.span_id for s in a.spans()] != [
            s.span_id for s in b.spans()
        ]

    def test_workload_trace_covers_every_layer(self, catalog, workload):
        tracer, _ = _traced_run(catalog, workload, processes=0)
        names = {span.name for span in tracer.spans()}
        assert {"workload", "query", "plan", "run", "stage"} <= names
        kinds = {span.kind for span in tracer.spans()}
        assert {"planner", "engine"} <= kinds

    def test_faulted_trace_records_fault_events(self, catalog, workload):
        tracer, report = _traced_run(catalog, workload, processes=0)
        assert report.total_faults_injected > 0
        event_names = {
            event.name
            for span in tracer.spans()
            for event in span.events
        }
        assert "fault" in event_names

    def test_chrome_export_of_workload_validates(self, catalog, workload):
        from repro.obs.export import validate_chrome_trace

        tracer, _ = _traced_run(catalog, workload, processes=2)
        validate_chrome_trace(chrome_trace(tracer))
