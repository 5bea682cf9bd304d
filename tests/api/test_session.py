"""Round-trip tests for the stable facade, :mod:`repro.api`."""

import json
import math

import pytest

from repro.api import RaqoSession, RunResult
from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import PlanObjective
from repro.faults.model import FaultPlan, FaultSpec
from repro.obs.tracing import Tracer
from repro.planner.cost_interface import PlanningResult


@pytest.fixture(scope="module")
def session():
    return RaqoSession(scale_factor=100)


class TestConstruction:
    def test_defaults_build_the_paper_world(self, session):
        assert session.cluster.max_containers == 100
        assert session.cluster.max_container_gb == 10.0
        assert session.catalog.table_names

    def test_top_level_reexport(self):
        import repro

        assert repro.RaqoSession is RaqoSession
        assert repro.RunResult is RunResult

    def test_custom_cluster_is_respected(self):
        cluster = ClusterConditions(
            max_containers=8, max_container_gb=4.0
        )
        session = RaqoSession(cluster=cluster)
        assert session.cluster is cluster
        assert session.planner.cluster is cluster

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            RaqoSession(None, tpch.tpch_catalog(1), None, 7)


class TestQueryResolution:
    def test_accepts_tpch_names(self, session):
        query = session.resolve_query("Q3")
        assert query.name == "Q3"

    def test_accepts_query_objects(self, session):
        query = tpch.EVALUATION_QUERIES[0]
        assert session.resolve_query(query) is query

    def test_unknown_name_lists_known_queries(self, session):
        with pytest.raises(KeyError, match="Q3"):
            session.resolve_query("Q99")


class TestVerbs:
    def test_plan_returns_planning_result(self, session):
        result = session.plan("Q3")
        assert isinstance(result, PlanningResult)
        assert math.isfinite(result.cost.time_s)

    def test_run_round_trip(self, session):
        result = session.run("Q3")
        assert isinstance(result, RunResult)
        assert result.query.name == "Q3"
        assert result.execution.feasible
        assert math.isfinite(result.prediction_error)

    def test_run_with_fault_spec_string(self, session):
        result = session.run("Q12", faults="seed=3,oom=0.3,preempt=0.2")
        assert result.execution.feasible
        # The default recovery policy kicks in when faults are given,
        # so injected faults surface as retries/degradations -- never
        # as an unexecutable plan.
        counters = session.metrics_snapshot()["counters"]
        assert counters["execution.runs"] >= 1

    def test_run_accepts_prebuilt_fault_plans(self, session):
        plan = FaultPlan(FaultSpec.parse("seed=3,oom=0.3"))
        spec_result = session.run("Q12", faults=FaultSpec.parse("seed=3,oom=0.3"))
        plan_result = session.run("Q12", faults=plan)
        assert (
            spec_result.execution.time_s == plan_result.execution.time_s
        )

    def test_workload_round_trip(self, session):
        report = session.workload(["Q3", "Q12"], processes=2, label="batch")
        assert report.label == "batch"
        assert [o.query.name for o in report.outcomes] == ["Q3", "Q12"]

    def test_workload_process_pool(self, session):
        serial = session.workload(["Q3", "Q12"])
        sharded = session.workload(["Q3", "Q12"], processes=2)
        assert [o.query.name for o in sharded.outcomes] == ["Q3", "Q12"]
        assert sharded.total_dollars == serial.total_dollars

    def test_workload_rejects_threads_and_processes(self, session):
        with pytest.raises(TypeError, match="parallel"):
            session.workload(["Q3"], parallel=2, processes=2)

    def test_explain_renders_text(self, session):
        text = session.explain("Q3")
        assert "Q3" in text


class TestMetrics:
    def test_planning_and_execution_counters_accumulate(self):
        session = RaqoSession(scale_factor=100)
        session.run("Q3")
        snap = session.metrics_snapshot()
        counters = snap["counters"]
        assert counters["planning.queries"] == 1
        assert counters["execution.runs"] == 1
        assert counters["planning.resource_iterations"] > 0
        assert snap["histograms"]["planning.wall_ms"]["count"] == 1.0

    def test_cost_error_histogram_is_recorded(self):
        session = RaqoSession(scale_factor=100)
        session.run("Q3")
        errors = session.metrics_snapshot()["histograms"][
            "execution.cost_error_rel"
        ]
        assert errors["count"] >= 1.0
        assert errors["max"] < 10.0  # sanity: same cost model underneath

    def test_workload_counters_accumulate(self):
        session = RaqoSession(scale_factor=100)
        session.workload(["Q3", "Q12"])
        counters = session.metrics_snapshot()["counters"]
        assert counters["workload.batches"] == 1
        assert counters["workload.queries"] == 2

    def test_workload_records_cache_misses_and_queries(self):
        """A hit ratio taken from the exported counters must see the
        workload's misses, not read 1.0."""
        session = RaqoSession(scale_factor=100)
        report = session.workload(["Q3", "Q12", "Q2", "All", "Q3"])
        counters = session.metrics_snapshot()["counters"]
        misses = sum(outcome.cache_misses for outcome in report.outcomes)
        assert misses > 0
        assert counters["planning.queries"] == 5
        assert counters["planning.cache_misses"] == misses
        assert counters["planning.cache_hits"] == report.cache_hit_total
        session.plan("Q3")
        counters = session.metrics_snapshot()["counters"]
        assert counters["planning.queries"] == 6

    def test_workload_and_served_plans_record_every_planning_counter(
        self,
    ):
        """A workload query's planning is recorded like a single
        plan's, also when its outcome comes back from a worker
        process."""
        session = RaqoSession(scale_factor=100)
        results = [session.run("Q3").planning]
        report = session.workload(
            ["Q3", "Q12", "Q2", "All", "Q3"], processes=2
        )
        with session.serve(workers=1) as service:
            results.append(service.plan("Q12").result)
        snap = session.metrics_snapshot()
        counters, histograms = snap["counters"], snap["histograms"]
        assert counters["planning.queries"] == 7
        assert histograms["planning.wall_ms"]["count"] == 7.0
        for name, attribute in (
            ("planning.join_costings", "join_costings"),
            ("planning.memo_hits", "memo_hits"),
            ("planner.batched_calls", "batched_calls"),
            ("planner.batch_memo_hits", "batch_memo_hits"),
        ):
            expected = sum(
                getattr(result.counters, attribute) for result in results
            ) + sum(
                getattr(outcome, attribute) for outcome in report.outcomes
            )
            assert counters[name] == expected, name
        assert counters["planning.join_costings"] > 0
        assert histograms["planner.batch_size"]["count"] == float(
            sum(len(result.batch_sizes) for result in results)
            + sum(len(outcome.batch_sizes) for outcome in report.outcomes)
        )

    def test_workload_records_its_pareto_frontiers(self):
        session = RaqoSession(scale_factor=100)
        planned = session.plan("Q3", objective=PlanObjective.pareto())
        report = session.workload(
            ["Q3", "Q12"], objective=PlanObjective.pareto()
        )
        outcome = report.outcomes[0]
        assert outcome.frontier_size == len(planned.frontier)
        assert outcome.frontier_pruned == planned.frontier.dominated_pruned
        snap = session.metrics_snapshot()
        assert snap["counters"]["planner.dominated_pruned"] == (
            planned.frontier.dominated_pruned
            + sum(o.frontier_pruned for o in report.outcomes)
        )
        assert snap["histograms"]["planner.frontier_size"]["count"] == 3.0

    def test_histogram_readings_carry_every_summary_field(self):
        session = RaqoSession(scale_factor=100)
        session.run("Q3")
        summary = session.metrics_snapshot()["histograms"][
            "execution.time_s"
        ]
        assert set(summary) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }
        assert summary["mean"] == summary["sum"] / summary["count"]

    def test_batch_metrics_are_recorded(self):
        session = RaqoSession(scale_factor=100)
        session.plan("Q3")
        snap = session.metrics_snapshot()
        assert snap["counters"]["planner.batched_calls"] > 0
        sizes = snap["histograms"]["planner.batch_size"]
        assert sizes["count"] > 0
        assert sizes["max"] >= sizes["min"] > 0


class TestTracedSession:
    def test_traced_session_exports_everywhere(self, tmp_path):
        session = RaqoSession(scale_factor=100, tracer=Tracer(seed=9))
        session.run("Q3")
        trace_path = session.write_trace(tmp_path / "trace.json")
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        count = session.write_spans(tmp_path / "spans.jsonl")
        assert count == len(session.tracer.spans())
        written = session.write_trace_dir(tmp_path / "bundle")
        assert set(written) >= {"trace", "spans", "report", "metrics"}
        assert "execution.runs = 1" in session.report()

    def test_untraced_session_still_reports(self):
        session = RaqoSession(scale_factor=100)
        session.run("Q3")
        report = session.report()
        assert "(no spans recorded)" in report
        assert "execution.runs" in report

    def test_tracer_is_shared_with_planner(self):
        tracer = Tracer(seed=1)
        session = RaqoSession(scale_factor=100, tracer=tracer)
        assert session.planner.tracer is tracer
        session.plan("Q3")
        assert any(
            span.name == "plan" for span in tracer.spans()
        )
