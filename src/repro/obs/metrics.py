"""A tiny, dependency-free metrics registry (counters/gauges/histograms).

The registry captures the quantities the paper's evaluation keeps
returning to -- resource configurations evaluated, plan-cache hits and
misses, within-run memo hits, fault/retry/degradation counts -- plus the
predicted-vs-simulated cost error per operator that cost-model work
lives or dies on.

All instruments are thread-safe (one lock per registry; updates are
cheap and happen at aggregation points, not in the planner's inner
loop), and every export is deterministically ordered by metric name so
snapshots of identical runs compare byte-for-byte.
"""

from __future__ import annotations

import collections
import math
import threading
from typing import Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.windows import ExactSum

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

MetricValue = Union[int, float]

#: Observations a histogram keeps for its quantiles. A session records
#: ~8 per ``session.run``; keeping all of them grew a long session's
#: memory by ~330 bytes per run.
_RETAINED_OBSERVATIONS = 4096


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self._value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current value."""
        return self._value

    def set(self, value: float) -> None:
        """Set the gauge."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta``."""
        with self._lock:
            self._value += delta


class Histogram:
    """A distribution of observed values.

    ``count``, ``sum``, ``min``, ``max`` and ``mean`` cover every
    observation ever made (the sum is kept exactly, so it does not
    depend on recording order). Quantiles are exact over the most
    recent ``_RETAINED_OBSERVATIONS`` observations, which is all of
    them in any run shorter than that.
    """

    __slots__ = ("name", "_lock", "_values", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._values: Deque[float] = collections.deque(
            maxlen=_RETAINED_OBSERVATIONS
        )
        self._count = 0
        self._sum = ExactSum()
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._values.append(value)
            self._count += 1
            self._sum.add(value)
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations, ever."""
        return self._count

    @property
    def values(self) -> Tuple[float, ...]:
        """The retained (most recent) observations in recording order."""
        with self._lock:
            return tuple(self._values)

    def quantile(self, q: float) -> float:
        """The exact ``q``-quantile (nearest-rank); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._values:
                return math.nan
            ordered = sorted(self._values)
        return self._rank_value(ordered, q)

    @staticmethod
    def _rank_value(ordered: List[float], q: float) -> float:
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """count/sum/min/max/mean/p50/p95 of the distribution.

        The whole summary is read under a single lock acquisition, so
        the lifetime figures and the quantiles describe the same moment
        even while other threads keep observing.
        """
        with self._lock:
            values = list(self._values)
            count = self._count
            total = self._sum.value()
            low, high = self._min, self._max
        if not count:
            return {"count": 0.0}
        ordered = sorted(values)
        return {
            "count": float(count),
            "sum": total,
            "min": low,
            "max": high,
            "mean": total / count,
            "p50": self._rank_value(ordered, 0.5),
            "p95": self._rank_value(ordered, 0.95),
        }


class MetricsRegistry:
    """Get-or-create home for named instruments, with stable exports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(name, self._lock)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on demand)."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(name, self._lock)
                self._gauges[name] = instrument
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(name, self._lock)
                self._histograms[name] = instrument
            return instrument

    def increment_many(self, counts: Mapping[str, int]) -> None:
        """Bulk-increment counters (e.g. from PlanningCounters)."""
        for name in sorted(counts):
            self.counter(name).inc(counts[name])

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready, deterministically ordered dump of everything."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {
                name: gauges[name].value for name in sorted(gauges)
            },
            "histograms": {
                name: histograms[name].summary()
                for name in sorted(histograms)
            },
        }

    def render_text(self, title: Optional[str] = None) -> str:
        """A plain-text report of the registry's current state."""
        snap = self.snapshot()
        lines: List[str] = []
        if title:
            lines.append(title)
            lines.append("=" * len(title))
        counters = snap["counters"]
        gauges = snap["gauges"]
        histograms = snap["histograms"]
        assert isinstance(counters, dict)
        assert isinstance(gauges, dict)
        assert isinstance(histograms, dict)
        if counters:
            lines.append("counters:")
            for name, value in counters.items():
                lines.append(f"  {name} = {value}")
        if gauges:
            lines.append("gauges:")
            for name, value in gauges.items():
                lines.append(f"  {name} = {value:g}")
        if histograms:
            lines.append("histograms:")
            for name, summary in histograms.items():
                parts = " ".join(
                    f"{key}={summary[key]:g}" for key in sorted(summary)
                )
                lines.append(f"  {name}: {parts}")
        if len(lines) == (2 if title else 0):
            lines.append("(no metrics recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )
