"""The unified structured event log: one JSONL stream for everything.

Spans answer "how long did this take?"; the event log answers "what
*happened*, in what order, to whom?".  Every noteworthy state change in
the system -- a fault injected, a retry scheduled, a BHJ degraded to
SMJ, a request admitted/rejected/coalesced, a cache entry evicted, an
SLO budget burning, the cost model drifting -- lands here as one
:class:`TelemetryEvent`, correlated back to the trace by span ID when
the change happened inside a traced span.

Two producers feed the log:

- **live emitters** (the serving layer, the SLO tracker, the drift
  monitor) call :meth:`EventLog.emit` as things happen, stamped on the
  wall clock;
- **span harvesting** (:meth:`EventLog.harvest_tracer`) lifts the
  fault/retry/degradation/speculation events the engine already records
  on its spans into the same stream, stamped on the simulated clock and
  carrying their span IDs -- so ``jq`` over one file sees the whole
  story.

Export order is deterministic: events sort by (clock domain, timestamp,
name, span ID, emission sequence), so same-seed simulated streams are
byte-identical regardless of thread scheduling.
"""

from __future__ import annotations

import collections
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.obs.tracing import AttrValue, Tracer

__all__ = [
    "EventLog",
    "TelemetryEvent",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured, timestamped fact about the run."""

    #: What happened: ``"rejection"``, ``"slo_burn"``, ``"fault"``...
    name: str
    #: When, on the clock named by ``clock``.
    ts_s: float
    #: ``"wall"`` (real time) or ``"sim"`` (simulated cluster clock).
    clock: str
    #: The tenant involved, for per-tenant accounting ("" when global).
    tenant: str = ""
    #: The span this event happened inside ("" when un-traced).
    span_id: str = ""
    #: Emission sequence within the log (assigned by :class:`EventLog`).
    seq: int = 0
    attributes: Mapping[str, AttrValue] = field(default_factory=dict)

    def sort_key(self) -> Tuple[str, float, str, str, int]:
        """The deterministic export ordering."""
        return (self.clock, self.ts_s, self.name, self.span_id, self.seq)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form with deterministically ordered attributes."""
        return {
            "name": self.name,
            "ts_s": self.ts_s,
            "clock": self.clock,
            "tenant": self.tenant,
            "span_id": self.span_id,
            "attributes": {
                key: self.attributes[key]
                for key in sorted(self.attributes)
            },
        }


class EventLog:
    """A thread-safe, append-only sink for telemetry events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[TelemetryEvent] = []
        #: (span_id, index) pairs already harvested, so repeated
        #: harvests of a growing tracer stay incremental.
        self._harvested: Set[Tuple[str, int]] = set()

    def emit(
        self,
        name: str,
        ts_s: float,
        *,
        clock: str = "wall",
        tenant: str = "",
        span_id: str = "",
        attributes: Optional[Mapping[str, AttrValue]] = None,
    ) -> TelemetryEvent:
        """Append one event; returns the recorded (sequenced) event."""
        if clock not in ("wall", "sim"):
            raise ValueError(
                f"clock must be 'wall' or 'sim', got {clock!r}"
            )
        with self._lock:
            event = TelemetryEvent(
                name=name,
                ts_s=float(ts_s),
                clock=clock,
                tenant=tenant,
                span_id=span_id,
                seq=len(self._events),
                attributes=dict(attributes or {}),
            )
            self._events.append(event)
        return event

    def harvest_tracer(self, tracer: Tracer) -> int:
        """Lift span events (faults, retries, ...) into the log.

        Each :class:`~repro.obs.tracing.SpanEvent` on a finished span
        becomes a ``sim``-clock telemetry event carrying the span's ID.
        Spans are visited in path order and events in recording order,
        so the harvest is deterministic for same-seed runs.  Returns
        the number of events harvested.
        """
        count = 0
        for span in tracer.spans():
            for index, span_event in enumerate(span.events):
                marker = (span.span_id, index)
                with self._lock:
                    if marker in self._harvested:
                        continue
                    self._harvested.add(marker)
                ts = (
                    span_event.sim_time_s
                    if span_event.sim_time_s is not None
                    else (span.sim_start_s or 0.0)
                )
                self.emit(
                    span_event.name,
                    ts,
                    clock="sim",
                    span_id=span.span_id,
                    attributes=span_event.attributes,
                )
                count += 1
        return count

    def events(self) -> Tuple[TelemetryEvent, ...]:
        """All events in deterministic export order."""
        with self._lock:
            recorded = list(self._events)
        recorded.sort(key=TelemetryEvent.sort_key)
        return tuple(recorded)

    def counts(self) -> Dict[str, int]:
        """Event totals by name (deterministically ordered)."""
        with self._lock:
            totals = collections.Counter(
                event.name for event in self._events
            )
        return {name: totals[name] for name in sorted(totals)}

    def to_jsonl(self) -> str:
        """The whole log as JSONL (one event per line, export order)."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True) + "\n"
            for event in self.events()
        )

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write the log as JSONL; returns the event count."""
        events = self.events()
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
        return len(events)

    def clear(self) -> None:
        """Drop every recorded event (and the harvest bookkeeping)."""
        with self._lock:
            self._events.clear()
            self._harvested.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return f"EventLog(events={len(self)})"
