"""Tests for repro.obs.export: canonical tree, Chrome trace, JSONL."""

import json

import pytest

from repro.obs.export import (
    canonical_span_tree_json,
    chrome_trace,
    export_spans_jsonl,
    render_text_report,
    span_tree,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_dir,
)
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import Tracer


def _sample_tracer(seed=3):
    tracer = Tracer(seed=seed)
    with tracer.span("run", kind="engine") as run:
        run.set_sim_window(0.0, 10.0)
        run.set_attribute("stages", 2)
        with tracer.span("stage", kind="engine") as stage:
            stage.set_sim_window(0.0, 6.0)
            stage.set_attributes(
                {"num_containers": 10, "total_memory_gb": 40.0}
            )
            stage.event("fault", sim_time_s=2.0, attributes={"kind": "oom"})
        with tracer.span("stage", kind="engine") as stage:
            stage.set_sim_window(6.0, 10.0)
            stage.set_attributes(
                {"num_containers": 4, "total_memory_gb": 8.0}
            )
    with tracer.span("plan", kind="planner") as plan:
        plan.set_attribute("wall_planning_ms", 12.5)
        plan.set_attribute("configurations", 100)
    return tracer


class TestCanonicalTree:
    def test_tree_nests_children_under_parents(self):
        forest = span_tree(_sample_tracer())
        names = {node["name"] for node in forest}
        assert names == {"run", "plan"}
        run = next(n for n in forest if n["name"] == "run")
        assert [child["name"] for child in run["children"]] == [
            "stage",
            "stage",
        ]

    def test_tree_excludes_wall_clock_fields(self):
        forest = span_tree(_sample_tracer())
        plan = next(n for n in forest if n["name"] == "plan")
        assert "wall_planning_ms" not in plan["attributes"]
        assert plan["attributes"] == {"configurations": 100}
        for node in forest:
            assert "wall_start_s" not in node
            assert "wall_end_s" not in node

    def test_canonical_json_is_machine_independent(self):
        first = canonical_span_tree_json(_sample_tracer())
        second = canonical_span_tree_json(_sample_tracer())
        assert first == second

    def test_canonical_json_differs_across_seeds(self):
        assert canonical_span_tree_json(
            _sample_tracer(seed=1)
        ) != canonical_span_tree_json(_sample_tracer(seed=2))


class TestChromeTrace:
    def test_payload_validates_and_carries_lanes(self):
        payload = chrome_trace(_sample_tracer())
        validate_chrome_trace(payload)
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in metadata} == {
            "planner (wall clock)",
            "engine (simulated time)",
            "cluster (simulated time)",
        }
        complete = [e for e in events if e["ph"] == "X"]
        # Engine spans land on the simulated-time lane (pid 2),
        # planner spans on the wall-clock lane (pid 1).
        assert {e["pid"] for e in complete if e["cat"] == "engine"} == {2}
        assert {e["pid"] for e in complete if e["cat"] == "planner"} == {1}

    def test_instant_and_counter_events_present(self):
        payload = chrome_trace(_sample_tracer())
        events = payload["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"] == "fault" for e in instants)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected container-occupancy counter events"
        peaks = [e["args"]["containers"] for e in counters]
        assert max(peaks) == 10
        assert peaks[-1] == 0  # all containers released at the end

    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_tracer(), path)
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)

    def test_metrics_attach_as_other_data(self):
        metrics = TelemetryPlane()
        metrics.windowed_counter("planning.queries").inc(ts_s=0.0)
        payload = chrome_trace(_sample_tracer(), metrics=metrics)
        assert payload["otherData"]["metrics"]["counters"] == {
            "planning.queries": 1
        }


class TestChromeTraceValidation:
    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_missing_trace_events_rejected(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_invalid_phase_rejected(self):
        payload = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}
            ]
        }
        with pytest.raises(ValueError, match="invalid phase"):
            validate_chrome_trace(payload)

    def test_negative_timestamp_rejected(self):
        payload = {
            "traceEvents": [
                {
                    "ph": "X",
                    "name": "x",
                    "pid": 1,
                    "tid": 1,
                    "ts": -1.0,
                    "dur": 1.0,
                }
            ]
        }
        with pytest.raises(ValueError, match="'ts' >= 0"):
            validate_chrome_trace(payload)

    def test_complete_event_requires_duration(self):
        payload = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0}
            ]
        }
        with pytest.raises(ValueError, match="'dur'"):
            validate_chrome_trace(payload)

    def test_missing_pid_rejected(self):
        payload = {
            "traceEvents": [{"ph": "M", "name": "process_name", "tid": 0}]
        }
        with pytest.raises(ValueError, match="'pid'"):
            validate_chrome_trace(payload)


class TestJsonlAndText:
    def test_jsonl_one_object_per_span(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "spans.jsonl"
        count = export_spans_jsonl(tracer, path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.spans())
        rows = [json.loads(line) for line in lines]
        assert all("span_id" in row for row in rows)
        paths = [tuple(row["path"]) for row in rows]
        assert paths == sorted(paths)

    def test_text_report_shows_tree_and_events(self):
        report = render_text_report(_sample_tracer())
        assert "run[0]" in report
        assert "stage[0]" in report
        assert "! fault @ sim 2.00s" in report

    def test_text_report_empty_tracer(self):
        assert "(no spans recorded)" in render_text_report(Tracer(seed=0))

    def test_trace_dir_bundle(self, tmp_path):
        metrics = TelemetryPlane()
        metrics.windowed_counter("c").inc(ts_s=0.0)
        written = write_trace_dir(
            _sample_tracer(), tmp_path / "bundle", metrics=metrics
        )
        assert set(written) == {"trace", "spans", "report", "metrics"}
        for path in written.values():
            assert path.exists()
        validate_chrome_trace(
            json.loads(written["trace"].read_text())
        )
        assert json.loads(written["metrics"].read_text())["counters"] == {
            "c": 1
        }
