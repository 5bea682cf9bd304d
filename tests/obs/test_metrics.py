"""Lifetime metric readings, recorded through the telemetry plane.

The plane is the session's one metric store: each series registers
once, and :meth:`TelemetryPlane.lifetime` is the view the Prometheus
exposition, the text reports and ``metrics.json`` read.  These tests
pin what that view reports -- totals, histogram summaries, stable
ordering and the text rendering -- whatever the windows retain.
"""

import json
import math
import threading

import pytest

from repro.obs import windows
from repro.obs.telemetry import TelemetryPlane
from repro.obs.windows import exact_quantile


def _histogram(name="h"):
    return TelemetryPlane().windowed_histogram(name)


class TestCounter:
    def test_increments(self):
        counter = TelemetryPlane().windowed_counter("planning.queries")
        counter.inc(ts_s=0.0)
        counter.inc(4, ts_s=0.1)
        assert counter.total == counter.reading() == 5

    def test_negative_increment_rejected(self):
        counter = TelemetryPlane().windowed_counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1, ts_s=0.0)

    def test_get_or_create_returns_same_instrument(self):
        plane = TelemetryPlane()
        assert plane.windowed_counter("x") is plane.windowed_counter("x")


class TestHistogram:
    def test_summary_fields(self):
        histogram = _histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value, ts_s=0.0)
        summary = histogram.reading()
        assert summary["count"] == 4.0
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0

    def test_empty_summary_and_quantile(self):
        assert _histogram().reading() == {"count": 0.0}
        assert math.isnan(exact_quantile([], 0.5))

    def test_nearest_rank_quantiles(self):
        histogram = _histogram()
        for value in range(1, 101):
            histogram.observe(float(value), ts_s=0.0)
        summary = histogram.reading()
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        ordered = [float(value) for value in range(1, 101)]
        assert exact_quantile(ordered, 0.0) == 1.0
        assert exact_quantile(ordered, 1.0) == 100.0

    def test_long_runs_keep_lifetime_figures_and_recent_quantiles(
        self, monkeypatch
    ):
        monkeypatch.setattr(windows, "_RETAINED_OBSERVATIONS", 10)
        histogram = _histogram()
        observed = [float(value) for value in range(1, 101)]
        summaries = []
        for value in observed:
            # One window per value: the cap keeps the newest ten.
            histogram.observe(value, ts_s=value)
            summaries.append(histogram.reading())
        summary = summaries[-1]
        assert summary["count"] == 100.0
        assert summary["sum"] == math.fsum(observed)
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == 50.5
        assert summary["p50"] == 95.0
        retained = [
            w["min"] for w in histogram.snapshot()["windows"]
        ]
        assert retained == observed[-10:]
        # A scrape's _count/_sum never go down.
        assert [s["count"] for s in summaries] == sorted(
            s["count"] for s in summaries
        )
        assert [s["sum"] for s in summaries] == sorted(
            s["sum"] for s in summaries
        )

    def test_sum_does_not_depend_on_recording_order(self):
        values = [1e16, 1.0, -1e16, 3.0, 0.1, 0.2]
        sums = set()
        for order in (values, values[::-1], sorted(values)):
            histogram = _histogram()
            for value in order:
                histogram.observe(value, ts_s=0.0)
            sums.add(histogram.reading()["sum"])
        assert sums == {math.fsum(values)}


class TestRegistrySnapshots:
    """The plane's instrument registry and its lifetime view."""

    def test_snapshot_is_sorted_and_json_ready(self):
        plane = TelemetryPlane()
        plane.windowed_counter("b").inc(ts_s=0.0)
        plane.windowed_counter("a").inc(2, ts_s=0.0)
        plane.windowed_gauge("g").record(1.5, ts_s=0.0)
        plane.windowed_histogram("h").observe(2.0, ts_s=0.0)
        view = plane.lifetime()
        assert list(view) == ["counters", "gauges", "histograms"]
        assert view["counters"] == {"a": 2, "b": 1}
        assert list(view["counters"]) == ["a", "b"]
        assert view["gauges"] == {"g": 1.5}
        json.dumps(view)  # must serialize without a custom encoder

    def test_identical_updates_snapshot_identically(self):
        def build():
            plane = TelemetryPlane()
            plane.windowed_counter("x").inc(ts_s=0.0)
            plane.windowed_counter("y").inc(2, ts_s=0.0)
            plane.windowed_histogram("h").observe(1.0, ts_s=0.0)
            return plane.lifetime()

        assert build() == build()

    def test_render_text_mentions_every_section(self):
        plane = TelemetryPlane()
        plane.windowed_counter("planning.queries").inc(ts_s=0.0)
        plane.windowed_gauge("free_gb").record(4.0, ts_s=0.0)
        plane.windowed_histogram("h").observe(1.0, ts_s=0.0)
        text = plane.render_text("metrics")
        assert text.startswith("metrics\n=======")
        assert "counters:" in text
        assert "planning.queries = 1" in text
        assert "gauges:" in text
        assert "free_gb = 4" in text
        assert "histograms:" in text
        assert "h: count=1 max=1 mean=1 min=1" in text

    def test_render_text_empty_registry(self):
        assert "(no metrics recorded)" in TelemetryPlane().render_text()

    def test_thread_safety_under_contention(self):
        counter = TelemetryPlane().windowed_counter("c")

        def bump():
            for index in range(1000):
                counter.inc(ts_s=index / 100.0)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total == 4000


class TestHistogramSummaryConsistency:
    """A reading is taken under one lock acquisition, so its lifetime
    figures and its quantiles describe the same moment even while other
    threads keep observing."""

    def test_summary_is_internally_consistent_under_writes(self):
        histogram = _histogram()

        def writer():
            # Every observation is 7.0, so any *consistent* summary
            # must satisfy sum == 7 * count and p50 == p95 == 7.
            for _ in range(5000):
                histogram.observe(7.0, ts_s=0.0)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            summary = histogram.reading()
            if summary == {"count": 0.0}:
                continue
            assert summary["sum"] == 7.0 * summary["count"]
            assert summary["mean"] == 7.0
            assert summary["p50"] == 7.0
            assert summary["p95"] == 7.0
        for thread in threads:
            thread.join()
        assert histogram.reading()["count"] == 20000.0

    def test_summary_quantiles_match_quantile_method(self):
        """The summary's quantiles are nearest-rank quantiles of the
        retained values."""
        histogram = _histogram()
        values = (5.0, 1.0, 9.0, 3.0, 7.0)
        for value in values:
            histogram.observe(value, ts_s=0.0)
        summary = histogram.reading()
        ordered = sorted(values)
        assert summary["p50"] == exact_quantile(ordered, 0.5)
        assert summary["p95"] == exact_quantile(ordered, 0.95)
        assert summary["p99"] == exact_quantile(ordered, 0.99)
