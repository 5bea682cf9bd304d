"""Windowed instruments: bucketing, aggregates, order-independence.

The windowed layer's contract is that every per-bucket aggregate is a
pure function of the *set* of observations, never their order -- the
substrate of the serial==parallel snapshot byte-identity property.
"""

import json
import math
import random
import sys
import threading

import pytest

from repro.obs import windows
from repro.obs.windows import (
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
    exact_quantile,
    labels_key,
    normalize_labels,
)


class TestLabels:
    def test_normalize_sorts_and_stringifies(self):
        labels = normalize_labels([("b", 2), ("a", "x")])
        assert labels == (("a", "x"), ("b", "2"))

    def test_normalize_dedups_last_wins(self):
        labels = normalize_labels([("a", "1"), ("a", "2")])
        assert labels == (("a", "2"),)

    def test_none_and_empty_are_empty(self):
        assert normalize_labels(None) == ()
        assert normalize_labels([]) == ()

    def test_labels_key_rendering(self):
        assert labels_key(()) == ""
        assert labels_key((("a", "1"), ("b", "x"))) == '{a="1",b="x"}'


class TestExactQuantile:
    def test_empty_is_nan(self):
        assert math.isnan(exact_quantile([], 0.5))

    def test_nearest_rank(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(ordered, 0.50) == 2.0
        assert exact_quantile(ordered, 0.95) == 4.0
        assert exact_quantile(ordered, 0.0) == 1.0
        assert exact_quantile(ordered, 1.0) == 4.0


class TestWindowedCounter:
    def test_rejects_bad_clock_and_window(self):
        with pytest.raises(ValueError, match="clock"):
            WindowedCounter("c", clock="cpu")
        with pytest.raises(ValueError, match="window_s"):
            WindowedCounter("c", window_s=0.0)

    def test_rejects_negative_amounts(self):
        counter = WindowedCounter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1, ts_s=0.0)

    def test_buckets_by_timestamp(self):
        counter = WindowedCounter("c", window_s=10.0)
        counter.inc(ts_s=0.0)
        counter.inc(ts_s=9.999)
        counter.inc(2, ts_s=10.0)
        snap = counter.snapshot()
        assert counter.total == 4
        assert snap["total"] == 4
        assert snap["windows"] == [
            {"window": 0, "start_s": 0.0, "count": 2, "rate_per_s": 0.2},
            {"window": 1, "start_s": 10.0, "count": 2, "rate_per_s": 0.2},
        ]

    def test_snapshot_last_caps_trailing_windows(self):
        counter = WindowedCounter("c", window_s=1.0)
        for ts in (0.5, 1.5, 2.5):
            counter.inc(ts_s=ts)
        windows = counter.snapshot(last=2)["windows"]
        assert [w["window"] for w in windows] == [1, 2]

    def test_series_includes_labels(self):
        counter = WindowedCounter(
            "c", labels=normalize_labels([("tenant", "acme")])
        )
        assert counter.series == 'c{tenant="acme"}'


class TestWindowedGauge:
    def test_min_max_mean_per_bucket(self):
        gauge = WindowedGauge("g", window_s=10.0)
        for value in (1.0, 3.0, 2.0):
            gauge.record(value, ts_s=5.0)
        (window,) = gauge.snapshot()["windows"]
        assert window["samples"] == 3
        assert window["min"] == 1.0
        assert window["max"] == 3.0
        assert window["mean"] == 2.0

    def test_latest_is_mean_of_most_recent_bucket(self):
        gauge = WindowedGauge("g", window_s=1.0)
        assert gauge.reading() == 0.0
        gauge.record(10.0, ts_s=0.0)
        gauge.record(2.0, ts_s=5.0)
        gauge.record(4.0, ts_s=5.2)
        assert gauge.reading() == 3.0


class TestWindowedHistogram:
    def test_summary_over_all_windows(self):
        histogram = WindowedHistogram("h", window_s=1.0)
        for index in range(1, 101):
            histogram.observe(float(index), ts_s=index / 50.0)
        summary = histogram.summary()
        assert summary["count"] == 100.0
        assert summary["sum"] == 5050.0
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0

    def test_empty_summary(self):
        assert WindowedHistogram("h").summary() == {"count": 0.0}

    def test_snapshot_has_per_window_distributions(self):
        histogram = WindowedHistogram("h", window_s=10.0)
        histogram.observe(1.0, ts_s=0.0)
        histogram.observe(5.0, ts_s=15.0)
        snap = histogram.snapshot()
        assert [w["window"] for w in snap["windows"]] == [0, 1]
        assert snap["windows"][1]["p50"] == 5.0
        assert snap["summary"]["count"] == 2.0


class TestOrderIndependence:
    """Shuffled or threaded recording yields byte-identical snapshots."""

    @staticmethod
    def _observations(count=400, seed=7):
        rng = random.Random(seed)
        return [
            (rng.uniform(0.0, 50.0), rng.uniform(0.1, 100.0))
            for _ in range(count)
        ]

    def test_shuffled_observations_snapshot_identically(self):
        observations = self._observations()
        shuffled = list(observations)
        random.Random(11).shuffle(shuffled)
        snapshots = []
        for sequence in (observations, shuffled):
            histogram = WindowedHistogram("h", clock="sim", window_s=5.0)
            for ts, value in sequence:
                histogram.observe(value, ts_s=ts)
            snapshots.append(
                json.dumps(histogram.snapshot(), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1]

    def test_threaded_recording_snapshots_identically(self):
        observations = self._observations()
        serial = WindowedHistogram("h", clock="sim", window_s=5.0)
        for ts, value in observations:
            serial.observe(value, ts_s=ts)

        threaded = WindowedHistogram("h", clock="sim", window_s=5.0)
        chunk = len(observations) // 4

        def worker(part):
            for ts, value in part:
                threaded.observe(value, ts_s=ts)

        threads = [
            threading.Thread(
                target=worker,
                args=(observations[i * chunk : (i + 1) * chunk],),
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert json.dumps(serial.snapshot(), sort_keys=True) == json.dumps(
            threaded.snapshot(), sort_keys=True
        )

    def test_counter_threaded_totals_reconcile(self):
        counter = WindowedCounter("c", window_s=1.0)

        def worker():
            for index in range(500):
                counter.inc(ts_s=index / 100.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = counter.snapshot()
        assert counter.total == 2000
        assert sum(w["count"] for w in snap["windows"]) == 2000


class TestWindowRing:
    """Each series keeps a bounded ring of its newest windows."""

    CAP = 8
    #: A value cap that binds before the window cap in the tests below.
    VALUE_CAP = 45

    @pytest.fixture(autouse=True)
    def small_ring(self, monkeypatch):
        monkeypatch.setattr(windows, "_MAX_WINDOWS", self.CAP)

    def test_counter_keeps_newest_windows_and_lifetime_total(self):
        counter = WindowedCounter("c", window_s=1.0)
        for index in range(3 * self.CAP):
            counter.inc(2, ts_s=float(index))
        snap = counter.snapshot()
        assert [w["window"] for w in snap["windows"]] == list(
            range(2 * self.CAP, 3 * self.CAP)
        )
        assert counter.total == snap["total"] == 6 * self.CAP

    def test_older_window_of_a_full_ring_is_turned_away(self):
        counter = WindowedCounter("c", window_s=1.0)
        for index in range(self.CAP, 2 * self.CAP):
            counter.inc(ts_s=float(index))
        counter.inc(ts_s=0.0)
        counter.inc(ts_s=float(self.CAP) + 0.5)
        snap = counter.snapshot()
        assert snap["windows"][0] == {
            "window": self.CAP,
            "start_s": float(self.CAP),
            "count": 2,
            "rate_per_s": 2.0,
        }
        assert len(snap["windows"]) == self.CAP
        assert counter.total == self.CAP + 2

    def test_out_of_order_window_is_inserted_in_order(self):
        gauge = WindowedGauge("g", window_s=1.0)
        for ts in (0.0, 5.0, 2.0, 7.0):
            gauge.record(ts, ts_s=ts)
        assert [w["window"] for w in gauge.snapshot()["windows"]] == [
            0, 2, 5, 7,
        ]
        assert gauge.reading() == 7.0

    def test_gauge_evicts_oldest(self):
        gauge = WindowedGauge("g", window_s=1.0)
        for index in range(2 * self.CAP):
            gauge.record(float(index), ts_s=float(index))
        windows_ = gauge.snapshot()["windows"]
        assert [w["window"] for w in windows_] == list(
            range(self.CAP, 2 * self.CAP)
        )

    def test_histogram_lifetime_figures_and_retained_quantiles(self):
        histogram = WindowedHistogram("h", window_s=1.0)
        values = [float(index) for index in range(1, 4 * self.CAP + 1)]
        for value in values:
            histogram.observe(value, ts_s=value)
        summary = histogram.summary()
        retained = values[-self.CAP:]
        assert summary["count"] == float(len(values))
        assert summary["sum"] == math.fsum(values)
        assert summary["min"] == values[0]
        assert summary["max"] == values[-1]
        assert summary["p50"] == exact_quantile(retained, 0.5)
        assert histogram.snapshot()["summary"] == summary

    def test_count_and_sum_are_monotone_across_evictions(self):
        histogram = WindowedHistogram("h", window_s=1.0)
        seen = []
        for index in range(5 * self.CAP):
            histogram.observe(0.1, ts_s=float(index))
            summary = histogram.summary()
            seen.append((summary["count"], summary["sum"]))
        assert seen == sorted(seen)
        assert seen[-1] == (5.0 * self.CAP, math.fsum([0.1] * 5 * self.CAP))

    def test_survivors_and_sum_do_not_depend_on_order(self):
        rng = random.Random(5)
        observations = [
            (
                rng.uniform(0.0, 40.0),
                rng.uniform(-1e9, 1e9) * 10.0 ** rng.randint(-8, 8),
            )
            for _ in range(500)
        ]
        snapshots = set()
        for seed in range(6):
            shuffled = list(observations)
            random.Random(seed).shuffle(shuffled)
            histogram = WindowedHistogram("h", window_s=1.0)
            for ts, value in shuffled:
                histogram.observe(value, ts_s=ts)
            snapshots.add(json.dumps(histogram.snapshot(), sort_keys=True))
        assert len(snapshots) == 1
        summary = json.loads(snapshots.pop())["summary"]
        assert summary["sum"] == math.fsum(v for _, v in observations)

    def test_threaded_recording_keeps_the_same_ring(self):
        observations = [
            (float(index % 37), float(index)) for index in range(2000)
        ]
        serial = WindowedHistogram("h", window_s=1.0)
        for ts, value in observations:
            serial.observe(value, ts_s=ts)
        threaded = WindowedHistogram("h", window_s=1.0)

        def worker(part):
            for ts, value in part:
                threaded.observe(value, ts_s=ts)

        threads = [
            threading.Thread(target=worker, args=(observations[i::8],))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert json.dumps(serial.snapshot(), sort_keys=True) == json.dumps(
            threaded.snapshot(), sort_keys=True
        )

    def test_value_cap_survivors_do_not_depend_on_order(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            windows, "_RETAINED_OBSERVATIONS", self.VALUE_CAP
        )
        rng = random.Random(9)
        observations = [
            (rng.uniform(0.0, 40.0), rng.uniform(-1e6, 1e6))
            for _ in range(500)
        ]
        snapshots = set()
        for seed in range(6):
            shuffled = list(observations)
            random.Random(seed).shuffle(shuffled)
            histogram = WindowedHistogram("h", window_s=1.0)
            for ts, value in shuffled:
                histogram.observe(value, ts_s=ts)
            snapshots.add(json.dumps(histogram.snapshot(), sort_keys=True))
        assert len(snapshots) == 1
        snap = json.loads(snapshots.pop())
        kept = sum(w["count"] for w in snap["windows"])
        assert 0 < kept <= self.VALUE_CAP
        assert len(snap["windows"]) < self.CAP
        assert snap["summary"]["count"] == 500.0

    def test_value_cap_threaded_recording_keeps_the_same_ring(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            windows, "_RETAINED_OBSERVATIONS", self.VALUE_CAP
        )
        observations = [
            (float(index % 200), float(index)) for index in range(2000)
        ]
        serial = WindowedHistogram("h", window_s=1.0)
        for ts, value in observations:
            serial.observe(value, ts_s=ts)
        threaded = WindowedHistogram("h", window_s=1.0)

        def worker(part):
            for ts, value in part:
                threaded.observe(value, ts_s=ts)

        threads = [
            threading.Thread(target=worker, args=(observations[i::8],))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = serial.snapshot()
        # 10 values a window: the value cap keeps the newest four.
        assert [w["window"] for w in snap["windows"]] == [
            196, 197, 198, 199,
        ]
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            threaded.snapshot(), sort_keys=True
        )

    def test_non_finite_values_sum_like_fsum(self):
        for values in ([1.0, math.inf], [math.nan, 2.0]):
            histogram = WindowedHistogram("h")
            for value in values:
                histogram.observe(value, ts_s=0.0)
            expected = math.fsum(values)
            got = histogram.summary()["sum"]
            assert got == expected or (
                math.isnan(got) and math.isnan(expected)
            )


class TestRetentionCap:
    """The value cap at its real size, with the real window cap."""

    def test_twenty_thousand_values_keep_the_newest_within_the_cap(self):
        rng = random.Random(3)
        observations = [
            (rng.uniform(0.0, 40.0), rng.uniform(0.0, 1e3))
            for _ in range(20_000)
        ]
        histogram = WindowedHistogram("h", window_s=1.0)
        for ts, value in observations:
            histogram.observe(value, ts_s=ts)
        snap = histogram.snapshot()
        counts = {w["window"]: w["count"] for w in snap["windows"]}
        kept = sum(counts.values())
        newest = max(counts)
        cap = windows._RETAINED_OBSERVATIONS
        assert kept <= cap + counts[newest]
        assert kept <= cap
        # The survivors are the newest windows, as many as fit.
        assert sorted(counts) == list(range(newest - len(counts) + 1, 40))
        per_window = [0] * 40
        for ts, _ in observations:
            per_window[int(ts)] += 1
        oldest = min(counts)
        assert kept + per_window[oldest - 1] > cap
        # Lifetime figures still cover every value.
        assert snap["summary"]["count"] == 20_000.0
        assert snap["summary"]["sum"] == math.fsum(
            value for _, value in observations
        )
        # A value for an evicted window counts, but is not retained.
        histogram.observe(1.0, ts_s=float(oldest - 1))
        again = histogram.snapshot()
        assert again["windows"] == snap["windows"]
        assert again["summary"]["count"] == 20_001.0

    def test_the_newest_window_is_kept_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(windows, "_RETAINED_OBSERVATIONS", 4)
        histogram = WindowedHistogram("h", window_s=1.0)
        for value in range(3):
            histogram.observe(float(value), ts_s=0.5)
        for value in range(6):
            histogram.observe(float(value), ts_s=1.5)
        (window,) = histogram.snapshot()["windows"]
        assert window["window"] == 1
        assert window["count"] == 6.0
        histogram.observe(9.0, ts_s=0.5)
        assert len(histogram.snapshot()["windows"]) == 1
