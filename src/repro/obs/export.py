"""Exporters for recorded traces: JSONL, Chrome trace_event, text.

Three consumers, three formats:

- :func:`export_spans_jsonl` -- one JSON object per span, sorted by
  span path, for programmatic analysis (``jq``, pandas).
- :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  ``trace_event`` format (the ``{"traceEvents": [...]}`` flavour), which
  loads directly in ``chrome://tracing`` and `Perfetto
  <https://ui.perfetto.dev>`_.  Planner spans render on a wall-clock
  process lane; engine and cluster spans render on simulated-time lanes,
  with fault/retry instants and a container-occupancy counter track.
- :func:`render_text_report` -- a plain-text span tree with durations,
  for terminals and log files.

:func:`span_tree` is the *canonical* tree form used by the golden
determinism tests: it contains every deterministic field (names, IDs,
kinds, attributes, events, simulated-time windows) and excludes
wall-clock measurements (plus any attribute prefixed ``wall_``), so two
same-seed runs -- serial or parallel -- serialize byte-identically.
"""

from __future__ import annotations

import json
import types
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import Span, Tracer

__all__ = [
    "canonical_span_tree_json",
    "chrome_trace",
    "export_spans_jsonl",
    "render_text_report",
    "span_tree",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace_dir",
]

SpanSource = Union[Tracer, Sequence[Span]]

#: Process lanes in the Chrome trace, by span kind (read-only: the
#: proxy keeps worker threads from mutating shared module state).
_KIND_PIDS = types.MappingProxyType(
    {
        "planner": 1,
        "engine": 2,
        "cluster": 3,
    }
)
_PID_LABELS = types.MappingProxyType(
    {
        1: "planner (wall clock)",
        2: "engine (simulated time)",
        3: "cluster (simulated time)",
    }
)
#: Kinds whose spans carry simulated-time windows.
_SIM_KINDS = frozenset({"engine", "cluster"})


def _spans_of(source: SpanSource) -> Tuple[Span, ...]:
    if isinstance(source, Tracer):
        return source.spans()
    ordered = sorted(source, key=lambda span: span.path)
    return tuple(ordered)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def export_spans_jsonl(
    source: SpanSource, path: Union[str, Path]
) -> int:
    """Write one JSON object per span (path-sorted); returns the count."""
    spans = _spans_of(source)
    with Path(path).open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(span.to_dict(), sort_keys=True) + "\n"
            )
    return len(spans)


# ---------------------------------------------------------------------------
# Canonical tree (golden-test substrate)
# ---------------------------------------------------------------------------


def span_tree(source: SpanSource) -> List[Dict[str, object]]:
    """The canonical, wall-clock-free span forest.

    Children are ordered by their path component, so the result is a
    pure function of the recorded span set -- independent of completion
    order, thread scheduling, and machine speed.
    """
    spans = _spans_of(source)
    nodes: Dict[Tuple[str, ...], Dict[str, object]] = {}
    roots: List[Dict[str, object]] = []
    for span in spans:  # path-sorted: parents precede children
        node: Dict[str, object] = {
            "name": span.name,
            "kind": span.kind,
            "span_id": span.span_id,
            "component": span.path[-1],
            "attributes": {
                key: span.attributes[key]
                for key in sorted(span.attributes)
                if not key.startswith("wall_")
            },
            "events": [event.to_dict() for event in span.events],
            "sim_start_s": span.sim_start_s,
            "sim_end_s": span.sim_end_s,
            "children": [],
        }
        nodes[span.path] = node
        parent = nodes.get(span.path[:-1])
        if parent is None:
            roots.append(node)
        else:
            children = parent["children"]
            assert isinstance(children, list)
            children.append(node)
    return roots


def canonical_span_tree_json(source: SpanSource) -> str:
    """The canonical tree as a stable JSON string (byte-comparable)."""
    return json.dumps(
        span_tree(source),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def _lane_ids(spans: Sequence[Span]) -> Dict[str, int]:
    """Stable thread-lane numbers: one per root path component."""
    lanes = sorted({span.path[0] for span in spans})
    return {component: index + 1 for index, component in enumerate(lanes)}


def _span_window_us(
    span: Span, wall_origin_s: float
) -> Optional[Tuple[int, float, float]]:
    """(pid, ts_us, dur_us) for a span, or None when it has no window."""
    if span.sim_start_s is not None and span.sim_end_s is not None:
        pid = _KIND_PIDS.get(span.kind, _KIND_PIDS["engine"])
        start = span.sim_start_s * 1e6
        dur = (span.sim_end_s - span.sim_start_s) * 1e6
        return pid, start, dur
    if span.wall_start_s is not None and span.wall_end_s is not None:
        pid = _KIND_PIDS.get(span.kind, _KIND_PIDS["planner"])
        if pid in (2, 3):
            # A sim-domain span without a sim window has no meaningful
            # position on a simulated-time lane.
            return None
        start = (span.wall_start_s - wall_origin_s) * 1e6
        dur = (span.wall_end_s - span.wall_start_s) * 1e6
        return pid, start, dur
    return None


def _occupancy_events(
    spans: Sequence[Span],
) -> List[Dict[str, object]]:
    """Counter events tracking simultaneous container occupancy."""
    deltas: List[Tuple[float, int, float]] = []
    for span in spans:
        if span.kind not in _SIM_KINDS or span.name != "stage":
            continue
        if span.sim_start_s is None or span.sim_end_s is None:
            continue
        containers = span.attributes.get("num_containers")
        memory = span.attributes.get("total_memory_gb")
        if not isinstance(containers, (int, float)):
            continue
        gb = float(memory) if isinstance(memory, (int, float)) else 0.0
        deltas.append((span.sim_start_s, int(containers), gb))
        deltas.append((span.sim_end_s, -int(containers), -gb))
    # Releases sort before acquisitions at the same instant, so a
    # back-to-back stage boundary never shows double occupancy.
    deltas.sort(key=lambda item: (item[0], item[1]))
    events: List[Dict[str, object]] = []
    containers_now = 0
    memory_now = 0.0
    for time_s, container_delta, memory_delta in deltas:
        containers_now += container_delta
        memory_now += memory_delta
        events.append(
            {
                "ph": "C",
                "name": "container occupancy",
                "pid": _KIND_PIDS["engine"],
                "tid": 0,
                "ts": time_s * 1e6,
                "args": {
                    "containers": containers_now,
                    "memory_gb": round(memory_now, 6),
                },
            }
        )
    return events


def chrome_trace(
    source: SpanSource,
    metrics: Optional[TelemetryPlane] = None,
) -> Dict[str, object]:
    """Build a Chrome ``trace_event`` payload from recorded spans."""
    spans = _spans_of(source)
    lanes = _lane_ids(spans)
    events: List[Dict[str, object]] = []
    for pid in sorted(_PID_LABELS):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": _PID_LABELS[pid]},
            }
        )
    wall_starts = [
        span.wall_start_s
        for span in spans
        if span.wall_start_s is not None
    ]
    wall_origin_s = min(wall_starts) if wall_starts else 0.0
    for span in spans:
        tid = lanes[span.path[0]]
        window = _span_window_us(span, wall_origin_s)
        if window is not None:
            pid, ts_us, dur_us = window
            args: Dict[str, object] = {
                "span_id": span.span_id,
                "path": "/".join(span.path),
            }
            for key in sorted(span.attributes):
                args[key] = span.attributes[key]
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.kind,
                    "pid": pid,
                    "tid": tid,
                    "ts": ts_us,
                    "dur": max(dur_us, 0.0),
                    "args": args,
                }
            )
        else:
            pid = _KIND_PIDS.get(span.kind, 1)
            ts_us = 0.0
        for event in span.events:
            if event.sim_time_s is not None:
                event_pid = _KIND_PIDS.get(
                    span.kind, _KIND_PIDS["engine"]
                )
                event_ts = event.sim_time_s * 1e6
            else:
                event_pid, event_ts = pid, ts_us
            events.append(
                {
                    "ph": "i",
                    "name": event.name,
                    "cat": span.kind,
                    "pid": event_pid,
                    "tid": tid,
                    "ts": event_ts,
                    "s": "t",
                    "args": {
                        "span_id": span.span_id,
                        **{
                            key: event.attributes[key]
                            for key in sorted(event.attributes)
                        },
                    },
                }
            )
    events.extend(_occupancy_events(spans))
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        payload["otherData"] = {"metrics": metrics.lifetime()}
    return payload


def write_chrome_trace(
    source: SpanSource,
    path: Union[str, Path],
    metrics: Optional[TelemetryPlane] = None,
) -> Dict[str, object]:
    """Write (and return) the Chrome trace payload for ``source``."""
    payload = chrome_trace(source, metrics=metrics)
    validate_chrome_trace(payload)
    Path(path).write_text(
        json.dumps(payload, sort_keys=True), encoding="utf-8"
    )
    return payload


_VALID_PHASES = frozenset({"X", "B", "E", "i", "I", "C", "M"})


def validate_chrome_trace(payload: object) -> None:
    """Check a payload against the ``trace_event`` JSON-object format.

    Raises :class:`ValueError` describing the first violation; returns
    silently for valid payloads.  Covers the subset of the spec this
    exporter (and the tests) rely on: the ``traceEvents`` envelope,
    required per-phase fields, and non-negative timestamps/durations.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must carry a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where} has invalid phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where} is missing a string 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"{where} is missing integer {field!r}")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where} needs a timestamp 'ts' >= 0")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} needs a duration 'dur' >= 0")
        if phase in ("i", "I") and event.get("s") not in (
            None,
            "g",
            "p",
            "t",
        ):
            raise ValueError(f"{where} has invalid instant scope")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where} counter event needs 'args'")


# ---------------------------------------------------------------------------
# Plain text
# ---------------------------------------------------------------------------


def _format_node(
    node: Dict[str, object], depth: int, lines: List[str]
) -> None:
    indent = "  " * depth
    sim_start = node["sim_start_s"]
    sim_end = node["sim_end_s"]
    timing = ""
    if isinstance(sim_start, float) and isinstance(sim_end, float):
        timing = f"  [sim {sim_start:.2f}s .. {sim_end:.2f}s]"
    attrs = node["attributes"]
    assert isinstance(attrs, dict)
    summary = " ".join(
        f"{key}={attrs[key]}" for key in sorted(attrs)
    )
    name = node["component"]
    lines.append(
        f"{indent}{name}{timing}" + (f"  {summary}" if summary else "")
    )
    events = node["events"]
    assert isinstance(events, list)
    for event in events:
        event_name = event["name"]
        sim_time = event["sim_time_s"]
        stamp = (
            f" @ sim {sim_time:.2f}s"
            if isinstance(sim_time, float)
            else ""
        )
        lines.append(f"{indent}  ! {event_name}{stamp}")
    children = node["children"]
    assert isinstance(children, list)
    for child in children:
        _format_node(child, depth + 1, lines)


def render_text_report(
    source: SpanSource,
    metrics: Optional[TelemetryPlane] = None,
    title: str = "run report",
) -> str:
    """A human-readable span tree plus a metrics section."""
    lines: List[str] = [title, "=" * len(title), ""]
    forest = span_tree(source)
    if not forest:
        lines.append("(no spans recorded)")
    for root in forest:
        _format_node(root, 0, lines)
    if metrics is not None:
        lines.append("")
        lines.append(metrics.render_text("metrics"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bundled directory export (CLI --trace-dir)
# ---------------------------------------------------------------------------


def write_trace_dir(
    source: SpanSource,
    directory: Union[str, Path],
    metrics: Optional[TelemetryPlane] = None,
    title: str = "run report",
) -> Dict[str, Path]:
    """Write the full export bundle into ``directory``.

    Produces ``trace.json`` (Chrome trace), ``spans.jsonl``,
    ``report.txt``, and -- when a telemetry plane is given --
    ``metrics.json``, the plane's lifetime view.  Returns the mapping
    of artifact name to written path.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    trace_path = out / "trace.json"
    write_chrome_trace(source, trace_path, metrics=metrics)
    written["trace"] = trace_path
    spans_path = out / "spans.jsonl"
    export_spans_jsonl(source, spans_path)
    written["spans"] = spans_path
    report_path = out / "report.txt"
    report_path.write_text(
        render_text_report(source, metrics=metrics, title=title),
        encoding="utf-8",
    )
    written["report"] = report_path
    if metrics is not None:
        metrics_path = out / "metrics.json"
        metrics_path.write_text(
            json.dumps(metrics.lifetime(), sort_keys=True, indent=2),
            encoding="utf-8",
        )
        written["metrics"] = metrics_path
    return written
