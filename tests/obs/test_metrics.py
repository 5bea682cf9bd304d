"""Tests for repro.obs.metrics."""

import math
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("planning.queries")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_increment_many_bulk_updates(self):
        registry = MetricsRegistry()
        registry.increment_many({"a": 2, "b": 3})
        registry.increment_many({"a": 1})
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 3, "b": 3}


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("free_gb")
        gauge.set(10.0)
        gauge.add(-2.5)
        assert gauge.value == 7.5


class TestHistogram:
    def test_summary_fields(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4.0
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0

    def test_empty_summary_and_quantile(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.summary() == {"count": 0.0}
        assert math.isnan(histogram.quantile(0.5))

    def test_quantile_bounds_checked(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_nearest_rank_quantiles(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(0.5) == 50.0
        assert histogram.quantile(0.95) == 95.0
        assert histogram.quantile(1.0) == 100.0

    def test_values_preserve_recording_order(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(3.0)
        histogram.observe(1.0)
        assert histogram.values == (3.0, 1.0)

    def test_long_runs_keep_lifetime_figures_and_recent_quantiles(
        self, monkeypatch
    ):
        monkeypatch.setattr(metrics, "_RETAINED_OBSERVATIONS", 10)
        histogram = MetricsRegistry().histogram("h")
        observed = [float(value) for value in range(1, 101)]
        summaries = []
        for value in observed:
            histogram.observe(value)
            summaries.append(histogram.summary())
        summary = summaries[-1]
        assert histogram.count == 100
        assert histogram.values == tuple(observed[-10:])
        assert summary["count"] == 100.0
        assert summary["sum"] == math.fsum(observed)
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == 50.5
        assert summary["p50"] == 95.0
        assert histogram.quantile(0.0) == 91.0
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
            histogram = MetricsRegistry().histogram("h")
            for value in order:
                histogram.observe(value)
            sums.add(histogram.summary()["sum"])
        assert sums == {math.fsum(values)}


class TestRegistrySnapshots:
    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must serialize without a custom encoder

    def test_identical_updates_snapshot_identically(self):
        def build():
            registry = MetricsRegistry()
            registry.increment_many({"x": 1, "y": 2})
            registry.histogram("h").observe(1.0)
            return registry.snapshot()

        assert build() == build()

    def test_render_text_mentions_every_section(self):
        registry = MetricsRegistry()
        registry.counter("planning.queries").inc()
        registry.gauge("free_gb").set(4.0)
        registry.histogram("h").observe(1.0)
        text = registry.render_text("metrics")
        assert "counters:" in text
        assert "planning.queries = 1" in text
        assert "gauges:" in text
        assert "histograms:" in text

    def test_render_text_empty_registry(self):
        assert "(no metrics recorded)" in MetricsRegistry().render_text()

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestHistogramSummaryConsistency:
    """Regression: summary() reads everything under one lock snapshot.

    The old implementation computed count/sum from one copy of the
    values, then re-acquired the lock per quantile against the *live*
    list -- so a concurrent observer could make ``p50`` describe more
    observations than ``count``.  Now the whole summary derives from a
    single copied snapshot.
    """

    def test_summary_is_internally_consistent_under_writes(self):
        histogram = MetricsRegistry().histogram("h")

        def writer():
            # Every observation is 7.0, so any *consistent* summary
            # must satisfy sum == 7 * count and p50 == p95 == 7.
            for _ in range(5000):
                histogram.observe(7.0)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            summary = histogram.summary()
            if summary == {"count": 0.0}:
                continue
            assert summary["sum"] == 7.0 * summary["count"]
            assert summary["mean"] == 7.0
            assert summary["p50"] == 7.0
            assert summary["p95"] == 7.0
        for thread in threads:
            thread.join()
        assert histogram.summary()["count"] == 20000.0

    def test_summary_quantiles_match_quantile_method(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (5.0, 1.0, 9.0, 3.0, 7.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] == histogram.quantile(0.5)
        assert summary["p95"] == histogram.quantile(0.95)
