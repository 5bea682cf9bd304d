"""CLI telemetry flags: --stats-file/--events/--slo-*, serve
--metrics-addr, and the ``repro top`` dashboard verb."""

import json

from repro.cli import main
from repro.obs.prometheus import parse_exposition


class TestReplayTelemetryFlags:
    def test_replay_writes_stats_and_events(self, tmp_path, capsys):
        stats = tmp_path / "stats.prom"
        events = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "replay",
                    "--num-requests",
                    "20",
                    "--tenants",
                    "2",
                    "--workers",
                    "2",
                    "--slo-target-ms",
                    "0",
                    "--stats-file",
                    str(stats),
                    "--events",
                    str(events),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Per-tenant report lines.
        assert "tenant   tenant-0:" in out
        assert "tenant   tenant-1:" in out
        assert f"stats file written: {stats}" in out
        # The stats file is valid Prometheus exposition.
        parsed = parse_exposition(stats.read_text(encoding="utf-8"))
        assert parsed.value("raqo_serving_completed_total") == 20.0
        # Target 0 ms burns every tenant's budget: events landed.
        names = [
            json.loads(line)["name"]
            for line in events.read_text().splitlines()
        ]
        assert "slo_burn" in names
        assert "admission" in names

    def test_replay_slo_objective_flag_parses(self, tmp_path):
        assert (
            main(
                [
                    "replay",
                    "--num-requests",
                    "5",
                    "--slo-target-ms",
                    "1000",
                    "--slo-objective",
                    "0.99",
                ]
            )
            == 0
        )


class TestServeTelemetryFlags:
    def test_serve_metrics_addr_scrapes(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "serve",
                    "--requests",
                    "4",
                    "--workers",
                    "1",
                    "--metrics-addr",
                    "127.0.0.1:0",
                    "--events",
                    str(events),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metrics endpoint: http://127.0.0.1:" in out
        assert events.exists()

    def test_serve_rejects_bad_metrics_addr(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests",
                    "1",
                    "--metrics-addr",
                    "9100",
                ]
            )
            == 2
        )
        assert "HOST:PORT" in capsys.readouterr().err


class TestTopCommand:
    @staticmethod
    def _artifacts(tmp_path):
        from repro.obs.events import EventLog
        from repro.obs.prometheus import write_stats_file
        from repro.obs.telemetry import TelemetryPlane

        log = EventLog()
        log.emit("slo_burn", 1.0, tenant="acme")
        events = tmp_path / "events.jsonl"
        log.write_jsonl(events)
        plane = TelemetryPlane()
        plane.windowed_counter("planning.queries").inc(3, ts_s=0.0)
        stats = tmp_path / "stats.prom"
        write_stats_file(stats, plane)
        return events, stats

    def test_top_renders_once(self, tmp_path, capsys):
        events, stats = self._artifacts(tmp_path)
        assert (
            main(
                [
                    "top",
                    "--events",
                    str(events),
                    "--stats",
                    str(stats),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "slo_burn" in out
        assert "raqo_planning_queries_total = 3" in out

    def test_top_follow_iterations(self, tmp_path, capsys):
        events, stats = self._artifacts(tmp_path)
        assert (
            main(
                [
                    "top",
                    "--events",
                    str(events),
                    "--stats",
                    str(stats),
                    "--follow",
                    "--interval",
                    "0.01",
                    "--iterations",
                    "3",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.count("repro top") == 3

    def test_top_requires_an_input(self, capsys):
        assert main(["top"]) == 2
        assert "--events" in capsys.readouterr().err

    def test_top_rejects_bad_interval(self, tmp_path, capsys):
        events, _ = self._artifacts(tmp_path)
        assert (
            main(
                [
                    "top",
                    "--events",
                    str(events),
                    "--interval",
                    "0",
                ]
            )
            == 2
        )
        assert "interval" in capsys.readouterr().err
