"""The ``repro top`` dashboard renderer: strict loading, stable panes."""

import pytest

from repro.obs.dashboard import (
    load_events_jsonl,
    render_dashboard,
    render_dashboard_from_files,
)
from repro.obs.events import EventLog
from repro.obs.prometheus import prometheus_exposition
from repro.obs.telemetry import TelemetryPlane


def _sample_events(tmp_path):
    log = EventLog()
    log.emit("admission", 0.1, tenant="acme")
    log.emit("rejection", 0.2, tenant="acme", attributes={"queue_depth": 4})
    log.emit("slo_burn", 0.3, tenant="hooli")
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    return path


class TestLoadEvents:
    def test_loads_written_log(self, tmp_path):
        events = load_events_jsonl(_sample_events(tmp_path))
        assert [e["name"] for e in events] == [
            "admission",
            "rejection",
            "slo_burn",
        ]

    def test_rejects_non_json_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "ts_s": 0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_events_jsonl(path)

    def test_rejects_non_event_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["not", "an", "event"]\n')
        with pytest.raises(ValueError, match="not a telemetry event"):
            load_events_jsonl(path)


class TestRender:
    def test_all_panes_render(self, tmp_path):
        events = load_events_jsonl(_sample_events(tmp_path))
        plane = TelemetryPlane()
        plane.windowed_counter("planning.queries").inc(7, ts_s=0.0)
        text = render_dashboard(
            events, prometheus_exposition(plane)
        )
        assert "repro top" in text
        assert "slo_burn" in text
        assert "tenant=hooli" in text  # the alert pane
        assert "raqo_planning_queries_total = 7" in text
        # Tenant table counts rejections per tenant.
        assert "acme" in text and "hooli" in text

    def test_missing_inputs_are_noted(self):
        text = render_dashboard(None, None)
        assert "(no event log)" in text
        assert "(no stats file)" in text

    def test_metric_limit_reports_hidden_series(self):
        plane = TelemetryPlane()
        for index in range(25):
            plane.windowed_gauge(f"g{index:02d}").record(1.0, ts_s=0.0)
        text = render_dashboard(
            [], prometheus_exposition(plane), metric_limit=20
        )
        assert "(5 more series)" in text

    def test_rendering_is_deterministic(self, tmp_path):
        events = load_events_jsonl(_sample_events(tmp_path))
        plane = TelemetryPlane()
        plane.windowed_counter("a").inc(ts_s=0.0)
        stats = prometheus_exposition(plane)
        assert render_dashboard(events, stats) == render_dashboard(
            events, stats
        )


class TestRenderFromFiles:
    def test_reads_both_files(self, tmp_path):
        events_path = _sample_events(tmp_path)
        stats_path = tmp_path / "stats.prom"
        plane = TelemetryPlane()
        plane.windowed_gauge("cluster.free_gb").record(3.0, ts_s=0.0)
        stats_path.write_text(prometheus_exposition(plane))
        text = render_dashboard_from_files(events_path, stats_path)
        assert "rejection" in text
        assert "raqo_cluster_free_gb = 3" in text

    def test_missing_files_render_empty_panes(self, tmp_path):
        text = render_dashboard_from_files(
            tmp_path / "absent.jsonl", tmp_path / "absent.prom"
        )
        assert "(no event log)" in text
        assert "(no stats file)" in text
