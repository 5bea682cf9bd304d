"""Prometheus exposition: encoder, golden snapshot, parser, endpoint."""

import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import RaqoSession
from repro.obs.prometheus import (
    MetricsServer,
    parse_exposition,
    parse_metrics_addr,
    prometheus_exposition,
    prometheus_name,
    write_stats_file,
)
from repro.obs.slo import SloPolicy
from repro.obs.telemetry import TelemetryPlane

GOLDEN = Path(__file__).parent / "golden" / "exposition.prom"


def _fixture_plane():
    """A small, fully deterministic plane."""
    plane = TelemetryPlane()
    plane.windowed_counter("planning.queries").inc(3, ts_s=0.25)
    plane.windowed_gauge("cluster.free_gb").record(12.5, ts_s=0.25)
    histogram = plane.windowed_histogram("planning.wall_ms")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value, ts_s=0.25)
    plane.windowed_counter(
        "serving.tenant.admitted", [("tenant", "acme")]
    ).inc(5, ts_s=0.25)
    plane.windowed_gauge(
        "cluster.memory_in_use_gb", clock="sim"
    ).record(40.0, ts_s=3.0)
    latency = plane.windowed_histogram(
        "serving.tenant.latency_ms", [("tenant", "acme")]
    )
    for value in (10.0, 20.0, 30.0):
        latency.observe(value, ts_s=0.25)
    tracker = plane.slo_tracker(
        SloPolicy(latency_target_ms=15.0, window=4, min_samples=2)
    )
    tracker.record("acme", 10.0, ts_s=0.1)
    tracker.record("acme", 20.0, ts_s=0.2)
    for error in (0.1, 0.1):
        plane.drift.record(error, ts_s=0.0)
    return plane


class TestName:
    def test_namespacing_and_mangling(self):
        assert (
            prometheus_name("serving.tenant.latency_ms")
            == "raqo_serving_tenant_latency_ms"
        )

    def test_hostile_characters_flattened(self):
        assert prometheus_name("a-b c") == "raqo_a_b_c"


class TestGoldenExposition:
    def test_exposition_matches_golden(self):
        """The encoder's full output, pinned byte for byte.

        Regenerate after intentional format changes::

            PYTHONPATH=src python tests/obs/test_prometheus.py
        """
        text = prometheus_exposition(_fixture_plane())
        assert text == GOLDEN.read_text(encoding="utf-8")

    def test_exposition_parses_cleanly(self):
        parsed = parse_exposition(prometheus_exposition(_fixture_plane()))
        assert parsed.value("raqo_planning_queries_total") == 3.0
        assert parsed.value("raqo_cluster_free_gb") == 12.5
        assert (
            parsed.value(
                "raqo_serving_tenant_admitted_total", tenant="acme"
            )
            == 5.0
        )
        assert (
            parsed.value(
                "raqo_serving_tenant_latency_ms",
                quantile="0.5",
                tenant="acme",
            )
            == 20.0
        )
        assert parsed.value(
            "raqo_slo_burn_rate", tenant="acme"
        ) == pytest.approx(10.0)
        assert parsed.types["raqo_planning_wall_ms"] == "summary"

    def test_windowed_counter_exposes_last_window_rate(self):
        parsed = parse_exposition(prometheus_exposition(_fixture_plane()))
        # 5 events in one 0.5 s window => 10/s.
        assert (
            parsed.value(
                "raqo_serving_tenant_admitted_rate_per_s",
                tenant="acme",
            )
            == 10.0
        )


class TestWriteStatsFile:
    def test_writes_and_returns_text(self, tmp_path):
        path = tmp_path / "stats.prom"
        text = write_stats_file(path, _fixture_plane())
        assert path.read_text(encoding="utf-8") == text
        assert parse_exposition(text).samples


class TestParser:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_exposition("raqo_x 1\n")

    def test_duplicate_family_rejected(self):
        text = (
            "# TYPE raqo_x counter\nraqo_x 1\n"
            "# TYPE raqo_x counter\n"
        )
        with pytest.raises(ValueError, match="declared twice"):
            parse_exposition(text)

    def test_malformed_labels_rejected(self):
        text = '# TYPE raqo_x gauge\nraqo_x{tenant=acme} 1\n'
        with pytest.raises(ValueError, match="malformed labels"):
            parse_exposition(text)

    def test_bad_value_rejected(self):
        text = "# TYPE raqo_x gauge\nraqo_x one\n"
        with pytest.raises(ValueError, match="bad sample value"):
            parse_exposition(text)

    def test_duplicate_series_rejected(self):
        text = (
            "# TYPE raqo_h summary\n"
            'raqo_h{quantile="0.5",tenant="a"} 2\n'
            'raqo_h{tenant="a",quantile="0.5"} 2\n'
        )
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_exposition(text)

    def test_same_name_with_other_labels_is_a_new_series(self):
        text = (
            "# TYPE raqo_g gauge\n"
            'raqo_g{tenant="a"} 1\n'
            'raqo_g{tenant="b"} 2\n'
            "raqo_g 3\n"
        )
        assert len(parse_exposition(text).samples) == 3

    def test_summary_children_resolve_to_family(self):
        text = (
            "# TYPE raqo_h summary\n"
            'raqo_h{quantile="0.5"} 2\n'
            "raqo_h_sum 10\n"
            "raqo_h_count 4\n"
        )
        parsed = parse_exposition(text)
        assert [s.kind for s in parsed.samples] == ["summary"] * 3


class TestSessionExposition:
    def test_run_workload_and_serve_export_each_series_once(self):
        """Every store the session records into renders through one
        plane, so the cost-error series is no longer sampled twice."""
        session = RaqoSession()
        session.run("Q3")
        session.workload(["Q3", "Q2", "Q12"])
        with session.serve(workers=2) as service:
            for index in range(4):
                service.plan("Q3", tenant=f"tenant-{index % 2}")
        parsed = parse_exposition(session.exposition())
        assert len(
            parsed.series("raqo_execution_cost_error_rel_count")
        ) == 1
        assert parsed.value("raqo_serving_completed_total") == 4.0
        assert parsed.value("raqo_planning_queries_total") == 5.0


class TestMetricsAddr:
    def test_host_port(self):
        assert parse_metrics_addr("0.0.0.0:9100") == ("0.0.0.0", 9100)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_metrics_addr(":0") == ("127.0.0.1", 0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_metrics_addr("9100")
        with pytest.raises(ValueError, match="invalid port"):
            parse_metrics_addr("localhost:http")


class TestMetricsServer:
    def test_scrape_round_trip(self):
        plane = _fixture_plane()

        def render():
            return prometheus_exposition(plane)

        with MetricsServer("127.0.0.1", 0, render) as server:
            host, port = server.address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read()
        parsed = parse_exposition(body.decode("utf-8"))
        assert parsed.value("raqo_planning_queries_total") == 3.0

    def test_other_paths_404(self):
        with MetricsServer("127.0.0.1", 0, lambda: "") as server:
            host, port = server.address
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=10
                )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        prometheus_exposition(_fixture_plane()), encoding="utf-8"
    )
    print(f"regenerated {GOLDEN}")
