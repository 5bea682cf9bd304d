"""The telemetry plane: metrics, events, SLOs, drift -- one home.

:class:`TelemetryPlane` is the session's one metric store, beside the
:class:`~repro.obs.tracing.Tracer`.  Where the tracer keeps structure,
the plane keeps totals and their **evolution**:

- a get-or-create registry of :mod:`windowed instruments
  <repro.obs.windows>` (counters, gauges, histograms) keyed by name +
  label set, each bound to one clock domain -- ``sim`` for engine and
  cluster signals, ``wall`` for session, planner and serving signals --
  and each registered once;
- the unified :class:`~repro.obs.events.EventLog`;
- the :class:`~repro.obs.drift.DriftMonitor` fed by the session's
  cost-error observations;
- any number of per-policy :class:`~repro.obs.slo.SloTracker`\\ s
  (the serving layer creates one per configured SLO).

Everything the plane aggregates serializes deterministically:
:meth:`snapshot` orders series by name, and ``sim``-domain snapshots of
a seeded run are byte-identical whether the run was serial or parallel.
:meth:`lifetime` is the one view of every series' lifetime reading that
the Prometheus exposition (:mod:`repro.obs.prometheus`), the text
reports and ``metrics.json`` read.
"""

from __future__ import annotations

import threading
import time
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.drift import DriftConfig, DriftMonitor
from repro.obs.events import EventLog
from repro.obs.slo import SloPolicy, SloTracker
from repro.obs.windows import (
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
    labels_key,
    normalize_labels,
)

__all__ = [
    "TelemetryPlane",
]

#: One windowed instrument of any kind.
WindowedInstrument = Union[
    WindowedCounter, WindowedGauge, WindowedHistogram
]

#: Default window widths per clock domain: serving traffic moves in
#: fractions of a second, simulated stages in tens of seconds.
DEFAULT_WINDOW_S = MappingProxyType({"wall": 0.5, "sim": 10.0})

#: The snapshot section of each instrument kind.
_SECTIONS = MappingProxyType(
    {
        WindowedCounter: "counters",
        WindowedGauge: "gauges",
        WindowedHistogram: "histograms",
    }
)


class TelemetryPlane:
    """Get-or-create home for windowed series, events, SLOs, drift."""

    def __init__(
        self,
        wall_window_s: float = DEFAULT_WINDOW_S["wall"],
        sim_window_s: float = DEFAULT_WINDOW_S["sim"],
        drift: Optional[DriftConfig] = None,
    ) -> None:
        self.events = EventLog()
        self.drift = DriftMonitor(drift, events=self.events)
        self.slo_trackers: List[SloTracker] = []
        self._window_s = {"wall": wall_window_s, "sim": sim_window_s}
        self._lock = threading.Lock()
        self._instruments: Dict[str, WindowedInstrument] = {}
        #: Wall timestamps are relative to plane creation, so bucket
        #: indices stay small and runs starting at different absolute
        #: times produce comparable window shapes.
        self._wall_epoch = time.perf_counter()

    # -- clocks ------------------------------------------------------------

    def wall_now(self) -> float:
        """Seconds of wall time since the plane was created."""
        return time.perf_counter() - self._wall_epoch

    def wall_at(self, perf_counter_s: float) -> float:
        """:meth:`wall_now` at an earlier ``time.perf_counter()`` read."""
        return perf_counter_s - self._wall_epoch

    # -- instruments -------------------------------------------------------

    def _get(
        self,
        kind: type,
        name: str,
        labels: Optional[Sequence[Tuple[str, str]]],
        clock: str,
        window_s: Optional[float],
    ) -> WindowedInstrument:
        canonical = normalize_labels(labels)
        series = name + labels_key(canonical)
        key = f"{kind.__name__}:{series}"
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                width = (
                    window_s
                    if window_s is not None
                    else self._window_s[clock]
                )
                # Built only on a miss: lookups are per request.
                instrument = kind(name, canonical, clock, width)
                self._instruments[key] = instrument
                return instrument
            if instrument.clock != clock:
                raise ValueError(
                    f"series {series!r} already registered on "
                    f"clock {instrument.clock!r}, not {clock!r}"
                )
            return instrument

    def windowed_counter(
        self,
        name: str,
        labels: Optional[Sequence[Tuple[str, str]]] = None,
        *,
        clock: str = "wall",
        window_s: Optional[float] = None,
    ) -> WindowedCounter:
        """The windowed counter for (name, labels), created on demand."""
        instrument = self._get(
            WindowedCounter, name, labels, clock, window_s
        )
        assert isinstance(instrument, WindowedCounter)
        return instrument

    def windowed_gauge(
        self,
        name: str,
        labels: Optional[Sequence[Tuple[str, str]]] = None,
        *,
        clock: str = "wall",
        window_s: Optional[float] = None,
    ) -> WindowedGauge:
        """The windowed gauge for (name, labels), created on demand."""
        instrument = self._get(
            WindowedGauge, name, labels, clock, window_s
        )
        assert isinstance(instrument, WindowedGauge)
        return instrument

    def windowed_histogram(
        self,
        name: str,
        labels: Optional[Sequence[Tuple[str, str]]] = None,
        *,
        clock: str = "wall",
        window_s: Optional[float] = None,
    ) -> WindowedHistogram:
        """The windowed histogram for (name, labels), on demand."""
        instrument = self._get(
            WindowedHistogram, name, labels, clock, window_s
        )
        assert isinstance(instrument, WindowedHistogram)
        return instrument

    def instruments(
        self, clock: Optional[str] = None
    ) -> Tuple[WindowedInstrument, ...]:
        """All registered instruments, sorted by (kind, series)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return tuple(
            instrument
            for _, instrument in items
            if clock is None or instrument.clock == clock
        )

    # -- SLO tracking ------------------------------------------------------

    def slo_tracker(self, policy: SloPolicy) -> SloTracker:
        """A new tracker for ``policy``, wired onto this plane's log."""
        tracker = SloTracker(policy, events=self.events)
        with self._lock:
            self.slo_trackers.append(tracker)
        return tracker

    # -- snapshots ---------------------------------------------------------

    def snapshot(
        self,
        clock: Optional[str] = None,
        last: Optional[int] = None,
    ) -> Dict[str, object]:
        """A JSON-ready, deterministically ordered dump of the plane.

        ``clock`` restricts the windowed series to one domain --
        ``snapshot(clock="sim")`` is the byte-identity substrate the
        determinism tests compare, since wall-domain values depend on
        machine speed.  ``last`` caps the number of trailing windows
        reported per series.
        """
        payload: Dict[str, object] = dict(
            self._sections(
                clock, lambda instrument: instrument.snapshot(last=last)
            )
        )
        if clock is None:
            payload["events"] = self.events.counts()
            payload["slo"] = [
                status.to_dict()
                for tracker in list(self.slo_trackers)
                for status in tracker.statuses()
            ]
            payload["drift"] = self.drift.snapshot()
        return payload

    def lifetime(self) -> Dict[str, Dict[str, object]]:
        """Every series' lifetime reading, keyed by series: counters'
        totals, gauges' latest levels and histograms' summaries
        (count/sum/min/max/mean over all time, quantiles over the
        retained windows)."""
        return self._sections(
            None, lambda instrument: instrument.reading()
        )

    def _sections(
        self,
        clock: Optional[str],
        read: Callable[[WindowedInstrument], object],
    ) -> Dict[str, Dict[str, object]]:
        """``read`` of each instrument on ``clock``, keyed by section
        and series."""
        sections: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for instrument in self.instruments(clock):
            sections[_SECTIONS[type(instrument)]][
                instrument.series
            ] = read(instrument)
        return sections

    def render_text(self, title: Optional[str] = None) -> str:
        """A plain-text report of :meth:`lifetime`."""
        view = self.lifetime()
        lines: List[str] = []
        if title:
            lines.append(title)
            lines.append("=" * len(title))
        counters, gauges = view["counters"], view["gauges"]
        if counters:
            lines.append("counters:")
            for name, value in counters.items():
                lines.append(f"  {name} = {value}")
        if gauges:
            lines.append("gauges:")
            for name, value in gauges.items():
                lines.append(f"  {name} = {value:g}")
        if view["histograms"]:
            lines.append("histograms:")
            for name, summary in view["histograms"].items():
                assert isinstance(summary, dict)
                parts = " ".join(
                    f"{key}={summary[key]:g}" for key in sorted(summary)
                )
                lines.append(f"  {name}: {parts}")
        if len(lines) == (2 if title else 0):
            lines.append("(no metrics recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._instruments)
        return (
            f"TelemetryPlane(instruments={count}, "
            f"events={len(self.events)})"
        )
