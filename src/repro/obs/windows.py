"""Deterministic rolling-window instruments: the session's one metric store.

Every counter, gauge and histogram the library records lives here,
registered once on the :class:`~repro.obs.telemetry.TelemetryPlane`.
Each answers both "how much, in total?" (its lifetime figures) and
"how much, *when*?" -- request rates, windowed latency quantiles, and
occupancy levels as they evolve over a run.  Each observation carries
an explicit timestamp in one of the simulator's two clock domains:

- ``clock="sim"`` -- the simulated cluster clock (engine and cluster
  metrics), where window contents are a pure function of the seeded
  run;
- ``clock="wall"`` -- real wall time (planner, session and serving
  metrics), where window *shapes* are stable but values depend on
  machine speed.

Observations land in fixed-width buckets (``floor(ts / window_s)``).
Every per-bucket aggregate is **order-independent**: counts and min/max
commute trivially, sums are computed with :func:`math.fsum` (exact, so
addition order cannot perturb the float), and quantiles are taken over
the sorted bucket contents.  A workload recorded serially and the same
workload recorded from many threads therefore produce byte-identical
snapshots -- the contract the property suite pins, and the windowed
analog of the tracer's canonical-span-tree guarantee.

Retention is one rule for every instrument: a series keeps at most
``_MAX_WINDOWS`` windows holding at most ``_RETAINED_OBSERVATIONS``
values (a counter window holds one), evicting whole oldest windows but
always keeping the newest, and it turns away values for windows at or
below the highest evicted index.  The retained windows are then the
longest run of newest windows within both caps, a function of the set
of observations too.  Since the newest window stays, a series holds at
most ``_RETAINED_OBSERVATIONS`` values plus what one window holds past
that (its rate times ``window_s``). Lifetime figures are not windowed:
:attr:`WindowedCounter.total` and a histogram summary's
``count``/``sum``/``min``/``max`` cover every observation ever made
(the sum is kept exactly, so it stays order-independent), while the
summary's quantiles cover the retained windows only.
"""

from __future__ import annotations

import bisect
import collections
import math
import threading
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "CLOCKS",
    "LabelSet",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "exact_quantile",
    "labels_key",
    "normalize_labels",
]

#: The two clock domains windowed instruments record against.
CLOCKS = ("wall", "sim")

#: Label sets are canonicalized to a sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Windows one series retains. The sim clock advances ~84k s per
#: executed query, so every stage opens a fresh window there; unbounded,
#: the windows of a long session grew by ~1.7 KB per ``session.run``.
_MAX_WINDOWS = 512

#: Values one series retains across its windows. A session records ~8
#: per ``session.run``; keeping all of them grew a long session's
#: memory by ~330 bytes per run.
_RETAINED_OBSERVATIONS = 4096

#: Values an :class:`ExactSum` buffers before folding them.
_FOLD_AT = 64


def labels_key(labels: LabelSet) -> str:
    """The canonical ``{k="v",...}`` rendering of a label set.

    Used both as the instrument-registry key suffix and (identically)
    in the Prometheus exposition, so a series has exactly one spelling
    everywhere.
    """
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def normalize_labels(
    labels: Optional[Sequence[Tuple[str, str]]],
) -> LabelSet:
    """Sorted, deduplicated, stringified label pairs."""
    if not labels:
        return ()
    return tuple(
        sorted({str(key): str(value) for key, value in labels}.items())
    )


def exact_quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence."""
    if not ordered:
        return math.nan
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class ExactSum:
    """A float sum kept exactly, so it does not depend on the order the
    values arrive in.

    Finite values are buffered; every ``_FOLD_AT`` of them the buffer is
    folded into the few floats whose exact sum equals its exact sum.
    :meth:`value` is the :func:`math.fsum` of those, the correctly
    rounded exact total. Infinities and NaN are kept aside and summed
    as fsum would.
    """

    __slots__ = ("_parts", "_special")

    def __init__(self) -> None:
        self._parts: List[float] = []
        self._special: Set[float] = set()

    def add(self, value: float) -> None:
        """Add one value."""
        if math.isfinite(value):
            parts = self._parts
            parts.append(value)
            if len(parts) >= _FOLD_AT:
                self._parts = _exact_parts(parts)
        else:
            # One NaN object, so the set holds at most one.
            self._special.add(math.nan if math.isnan(value) else value)

    def value(self) -> float:
        """The correctly rounded sum of every value added."""
        if self._special:
            return math.fsum(self._special)
        return math.fsum(self._parts)


def _exact_parts(values: List[float]) -> List[float]:
    """A few floats whose exact sum is the exact sum of ``values``.

    Each :func:`math.fsum` rounds the exact remainder once; that is
    repeated until the remainder is exactly zero, which it reaches
    because every finite float is a whole multiple of 2**-1074.
    """
    parts: List[float] = []
    remainder = math.fsum(values)
    while remainder:
        parts.append(remainder)
        remainder = math.fsum(values + [-part for part in parts])
    return parts


class _WindowedInstrument:
    """Shared bucketing and retention: name, labels, clock, width, lock."""

    __slots__ = (
        "name",
        "labels",
        "clock",
        "window_s",
        "_lock",
        "_buckets",
        "_order",
        "_evicted",
        "_retained",
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        clock: str = "wall",
        window_s: float = 1.0,
    ) -> None:
        if clock not in CLOCKS:
            raise ValueError(
                f"clock must be one of {CLOCKS}, got {clock!r}"
            )
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.name = name
        self.labels = labels
        self.clock = clock
        self.window_s = window_s
        self._lock = threading.Lock()
        self._buckets: Dict[int, Any] = {}
        #: Retained window indices, ascending.
        self._order: Deque[int] = collections.deque()
        #: The highest evicted window index.
        self._evicted = -math.inf
        #: Values the retained windows hold.
        self._retained = 0

    @property
    def series(self) -> str:
        """The fully qualified series name (name plus rendered labels)."""
        return self.name + labels_key(self.labels)

    def bucket_of(self, ts_s: float) -> int:
        """The window index ``ts_s`` falls into."""
        return math.floor(ts_s / self.window_s)

    def _open(self, bucket: int, window: Any) -> bool:
        """Open window ``bucket`` holding ``window``, unless it is at or
        below the highest evicted index; the caller holds the lock and
        knows the window is not open.

        Time mostly moves forward, so a new window is usually appended:
        O(1).
        """
        if bucket <= self._evicted:
            return False
        order = self._order
        if not order or bucket > order[-1]:
            order.append(bucket)
        else:
            bisect.insort(order, bucket)
        self._buckets[bucket] = window
        return True

    def _retain(self) -> None:
        """Count one more retained value, then evict whole oldest
        windows while either cap is exceeded, always keeping the
        newest; the caller holds the lock."""
        self._retained += 1
        order = self._order
        while len(order) > 1 and (
            len(order) > _MAX_WINDOWS
            or self._retained > _RETAINED_OBSERVATIONS
        ):
            index = order.popleft()
            self._retained -= self._held(self._buckets.pop(index))
            self._evicted = index

    @staticmethod
    def _held(window: Any) -> int:
        """Values one window holds."""
        return len(window)

    def _append(self, bucket: int, value: float) -> None:
        """Add ``value`` to window ``bucket``'s list; the caller holds
        the lock."""
        window = self._buckets.get(bucket)
        if window is None:
            window = []
            if not self._open(bucket, window):
                return
        window.append(value)
        self._retain()

    def _meta(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "labels": {key: value for key, value in self.labels},
            "clock": self.clock,
            "window_s": self.window_s,
        }


class WindowedCounter(_WindowedInstrument):
    """A monotonically increasing count, bucketed by timestamp."""

    __slots__ = ("_total",)

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        clock: str = "wall",
        window_s: float = 1.0,
    ) -> None:
        super().__init__(name, labels, clock, window_s)
        self._total = 0

    def inc(self, amount: int = 1, *, ts_s: float) -> None:
        """Add ``amount`` (>= 0) at timestamp ``ts_s``."""
        if amount < 0:
            raise ValueError(
                f"windowed counter {self.name!r} cannot decrease "
                f"(got {amount})"
            )
        bucket = self.bucket_of(ts_s)
        with self._lock:
            self._total += amount
            buckets = self._buckets
            if bucket in buckets:
                buckets[bucket] += amount
            elif self._open(bucket, amount):
                self._retain()

    @staticmethod
    def _held(window: Any) -> int:
        return 1

    @property
    def total(self) -> int:
        """The all-time count, evicted windows included."""
        with self._lock:
            return self._total

    def reading(self) -> int:
        """The lifetime reading: :attr:`total`."""
        return self.total

    def snapshot(self, last: Optional[int] = None) -> Dict[str, object]:
        """JSON-ready bucket-by-bucket dump (most recent ``last``)."""
        with self._lock:
            buckets = dict(self._buckets)
            indices = list(self._order)
            total = self._total
        if last is not None:
            indices = indices[-last:]
        return {
            **self._meta(),
            "kind": "counter",
            "total": total,
            "windows": [
                {
                    "window": index,
                    "start_s": index * self.window_s,
                    "count": buckets[index],
                    "rate_per_s": buckets[index] / self.window_s,
                }
                for index in indices
            ],
        }


class WindowedGauge(_WindowedInstrument):
    """A sampled level (occupancy, queue depth), bucketed by timestamp.

    Each bucket keeps every sample so min/max/mean are exact and
    order-independent; "last write wins" is deliberately *not* offered
    -- under concurrent recording it would depend on thread scheduling.
    A level its owner already keeps exactly (a cache's live entries) is
    exported through :meth:`set_function` instead of being sampled.
    """

    __slots__ = ("_function",)

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        clock: str = "wall",
        window_s: float = 1.0,
    ) -> None:
        super().__init__(name, labels, clock, window_s)
        self._function: Optional[Callable[[], float]] = None

    def set_function(self, function: Callable[[], float]) -> None:
        """Make :meth:`reading` return ``function()``, the current
        level, rather than a mean of samples."""
        self._function = function

    def record(self, value: float, *, ts_s: float) -> None:
        """Sample the level at timestamp ``ts_s``."""
        value = float(value)
        bucket = self.bucket_of(ts_s)
        with self._lock:
            self._append(bucket, value)

    def snapshot(self, last: Optional[int] = None) -> Dict[str, object]:
        """JSON-ready per-bucket min/max/mean levels."""
        with self._lock:
            buckets = {
                index: list(values)
                for index, values in self._buckets.items()
            }
            indices = list(self._order)
        if last is not None:
            indices = indices[-last:]
        windows = []
        for index in indices:
            values = buckets[index]
            windows.append(
                {
                    "window": index,
                    "start_s": index * self.window_s,
                    "samples": len(values),
                    "min": min(values),
                    "max": max(values),
                    "mean": math.fsum(values) / len(values),
                }
            )
        return {**self._meta(), "kind": "gauge", "windows": windows}

    def reading(self) -> float:
        """The level :meth:`set_function` gave, else the mean level of
        the most recent bucket (0.0 before the first sample)."""
        function = self._function
        if function is not None:
            return float(function())
        with self._lock:
            if not self._order:
                return 0.0
            values = self._buckets[self._order[-1]]
            return math.fsum(values) / len(values)


class WindowedHistogram(_WindowedInstrument):
    """A distribution per window: exact quantiles, order-independent.

    ``count``/``sum``/``min``/``max`` of :meth:`summary` are lifetime
    figures, so a Prometheus scrape's ``_count``/``_sum`` never go
    down; its quantiles cover the retained windows only.
    """

    __slots__ = ("_count", "_sum", "_min", "_max")

    #: Quantiles reported per window and for the cumulative summary.
    QUANTILES: Tuple[Tuple[str, float], ...] = (
        ("p50", 0.50),
        ("p95", 0.95),
        ("p99", 0.99),
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        clock: str = "wall",
        window_s: float = 1.0,
    ) -> None:
        super().__init__(name, labels, clock, window_s)
        self._count = 0
        self._sum = ExactSum()
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float, *, ts_s: float) -> None:
        """Record one observation at timestamp ``ts_s``."""
        value = float(value)
        bucket = self.bucket_of(ts_s)
        with self._lock:
            self._count += 1
            self._sum.add(value)
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._append(bucket, value)

    def _copy(
        self,
    ) -> Tuple[Dict[int, List[float]], List[int], Dict[str, float]]:
        """Retained windows, their ascending indices and the lifetime
        figures, read under one lock acquisition."""
        with self._lock:
            buckets = {
                index: list(values)
                for index, values in self._buckets.items()
            }
            lifetime = {
                "count": float(self._count),
                "sum": self._sum.value(),
                "min": self._min,
                "max": self._max,
            }
            return buckets, list(self._order), lifetime

    @staticmethod
    def _summarize(values: List[float]) -> Dict[str, float]:
        ordered = sorted(values)
        summary = {
            "count": float(len(ordered)),
            "sum": math.fsum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
        }
        for label, q in WindowedHistogram.QUANTILES:
            summary[label] = exact_quantile(ordered, q)
        return summary

    @staticmethod
    def _cumulative(
        buckets: Dict[int, List[float]],
        indices: List[int],
        lifetime: Dict[str, float],
    ) -> Dict[str, float]:
        if not lifetime["count"]:
            return {"count": 0.0}
        ordered = sorted(v for index in indices for v in buckets[index])
        summary = dict(lifetime)
        for label, q in WindowedHistogram.QUANTILES:
            summary[label] = exact_quantile(ordered, q)
        return summary

    def summary(self) -> Dict[str, float]:
        """Lifetime count/sum/min/max, plus quantiles over the retained
        windows combined."""
        return self._cumulative(*self._copy())

    def reading(self) -> Dict[str, float]:
        """The lifetime reading: :meth:`summary` plus the mean."""
        summary = self.summary()
        if summary["count"]:
            summary["mean"] = summary["sum"] / summary["count"]
        return summary

    def snapshot(self, last: Optional[int] = None) -> Dict[str, object]:
        """JSON-ready per-window distributions plus the cumulative one."""
        buckets, indices, lifetime = self._copy()
        summary = self._cumulative(buckets, indices, lifetime)
        if last is not None:
            indices = indices[-last:]
        return {
            **self._meta(),
            "kind": "histogram",
            "summary": summary,
            "windows": [
                {
                    "window": index,
                    "start_s": index * self.window_s,
                    **self._summarize(buckets[index]),
                }
                for index in indices
            ],
        }

