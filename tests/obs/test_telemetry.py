"""The TelemetryPlane: instrument registry, snapshots, determinism.

The headline property lives in the last class: a workload recorded
serially and the same workload sharded over processes produce
byte-identical ``sim``-domain telemetry snapshots.
"""

import json

import pytest

from repro.api import RaqoSession
from repro.obs.drift import DriftConfig
from repro.obs.slo import SloPolicy
from repro.obs.telemetry import TelemetryPlane
from repro.obs.windows import (
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
)


class TestInstrumentRegistry:
    def test_get_or_create_returns_same_instrument(self):
        plane = TelemetryPlane()
        first = plane.windowed_counter("a", [("t", "x")])
        second = plane.windowed_counter("a", [("t", "x")])
        assert first is second

    def test_label_order_does_not_split_series(self):
        plane = TelemetryPlane()
        first = plane.windowed_gauge("g", [("a", "1"), ("b", "2")])
        second = plane.windowed_gauge("g", [("b", "2"), ("a", "1")])
        assert first is second

    def test_same_name_different_kinds_coexist(self):
        plane = TelemetryPlane()
        counter = plane.windowed_counter("x")
        histogram = plane.windowed_histogram("x")
        assert isinstance(counter, WindowedCounter)
        assert isinstance(histogram, WindowedHistogram)

    def test_clock_conflict_is_an_error(self):
        plane = TelemetryPlane()
        plane.windowed_counter("c", clock="sim")
        with pytest.raises(ValueError, match="clock"):
            plane.windowed_counter("c", clock="wall")

    def test_default_window_widths_per_clock(self):
        plane = TelemetryPlane(wall_window_s=0.25, sim_window_s=20.0)
        assert plane.windowed_counter("w").window_s == 0.25
        assert (
            plane.windowed_counter("s", clock="sim").window_s == 20.0
        )

    def test_instruments_sorted_and_filterable(self):
        plane = TelemetryPlane()
        plane.windowed_gauge("b", clock="sim")
        plane.windowed_counter("a")
        sim = plane.instruments(clock="sim")
        assert [i.name for i in sim] == ["b"]
        assert isinstance(sim[0], WindowedGauge)


class TestSnapshot:
    def test_sections_keyed_by_series(self):
        plane = TelemetryPlane()
        plane.windowed_counter("c", [("tenant", "acme")]).inc(ts_s=0.0)
        plane.windowed_histogram("h").observe(1.0, ts_s=0.0)
        snap = plane.snapshot()
        assert 'c{tenant="acme"}' in snap["counters"]
        assert "h" in snap["histograms"]
        assert "events" in snap and "slo" in snap and "drift" in snap

    def test_clock_filtered_snapshot_omits_wall_state(self):
        plane = TelemetryPlane()
        plane.windowed_counter("wall-side").inc(ts_s=0.0)
        plane.windowed_counter("sim-side", clock="sim").inc(ts_s=0.0)
        snap = plane.snapshot(clock="sim")
        assert list(snap["counters"]) == ["sim-side"]
        # Events/SLO/drift are cross-clock: only the unfiltered
        # snapshot reports them.
        assert "events" not in snap

    def test_slo_and_drift_ride_along(self):
        plane = TelemetryPlane(
            drift=DriftConfig(
                baseline_window=1, window=2, min_samples=1
            )
        )
        tracker = plane.slo_tracker(
            SloPolicy(latency_target_ms=1.0, min_samples=1, window=2)
        )
        tracker.record("acme", 9.0, ts_s=0.0)
        plane.drift.record(0.1, ts_s=0.0)
        plane.drift.record(0.9, ts_s=1.0)
        snap = plane.snapshot()
        assert snap["slo"][0]["tenant"] == "acme"
        assert snap["slo"][0]["alerting"] is True
        assert snap["drift"]["drifting"] is True
        assert snap["events"] == {
            "cost_model_drift": 1,
            "slo_burn": 1,
        }

    def test_wall_now_is_monotone_and_relative(self):
        plane = TelemetryPlane()
        first = plane.wall_now()
        second = plane.wall_now()
        assert 0.0 <= first <= second < 60.0


class TestSerialParallelByteIdentity:
    """The tentpole determinism property, on a real session workload."""

    QUERIES = ("Q12", "Q3", "Q2", "All", "Q3", "Q12")

    @staticmethod
    def _sim_snapshot(processes):
        session = RaqoSession(scale_factor=10)
        session.workload(
            TestSerialParallelByteIdentity.QUERIES, processes=processes
        )
        return json.dumps(
            session.telemetry_snapshot(clock="sim"), sort_keys=True
        )

    def test_workload_sim_snapshots_are_byte_identical(self):
        serial = self._sim_snapshot(processes=0)
        sharded = self._sim_snapshot(processes=2)
        assert serial == sharded
        # And the snapshot is not trivially empty.
        payload = json.loads(serial)
        assert payload["counters"]
        assert payload["histograms"]
