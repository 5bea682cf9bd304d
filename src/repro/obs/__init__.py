"""Structured observability: tracing, metrics, telemetry, exporters.

Zero-dependency instrumentation substrate for the planner, engine,
cluster, fault, serving, and workload layers:

- :mod:`repro.obs.tracing` for the deterministic span model, and
  :mod:`repro.obs.export` for the JSONL / Chrome ``trace_event`` /
  plain-text exporters;
- the **telemetry plane** (:mod:`repro.obs.telemetry`), the one metric
  store: deterministic rolling-window instruments with lifetime totals
  (:mod:`repro.obs.windows`),
  the unified structured event log (:mod:`repro.obs.events`),
  per-tenant SLO tracking (:mod:`repro.obs.slo`), cost-model drift
  monitoring (:mod:`repro.obs.drift`), Prometheus text exposition
  (:mod:`repro.obs.prometheus`), and the ``repro top`` dashboard
  renderer (:mod:`repro.obs.dashboard`).
"""

from repro.obs.dashboard import (
    load_events_jsonl,
    render_dashboard,
    render_dashboard_from_files,
)
from repro.obs.drift import (
    DriftConfig,
    DriftMonitor,
    DriftStatus,
)
from repro.obs.events import (
    EventLog,
    TelemetryEvent,
)
from repro.obs.export import (
    canonical_span_tree_json,
    chrome_trace,
    export_spans_jsonl,
    render_text_report,
    span_tree,
    validate_chrome_trace,
    write_chrome_trace,
    write_trace_dir,
)
from repro.obs.prometheus import (
    MetricsServer,
    ParsedExposition,
    ParsedSample,
    parse_exposition,
    parse_metrics_addr,
    prometheus_exposition,
    prometheus_name,
    write_stats_file,
)
from repro.obs.slo import (
    SloPolicy,
    SloStatus,
    SloTracker,
)
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    SpanHandle,
    Tracer,
)
from repro.obs.windows import (
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
    exact_quantile,
    labels_key,
    normalize_labels,
)

__all__ = [
    "DriftConfig",
    "DriftMonitor",
    "DriftStatus",
    "EventLog",
    "MetricsServer",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "ParsedExposition",
    "ParsedSample",
    "SloPolicy",
    "SloStatus",
    "SloTracker",
    "Span",
    "SpanEvent",
    "SpanHandle",
    "TelemetryEvent",
    "TelemetryPlane",
    "Tracer",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "canonical_span_tree_json",
    "chrome_trace",
    "exact_quantile",
    "export_spans_jsonl",
    "labels_key",
    "load_events_jsonl",
    "normalize_labels",
    "parse_exposition",
    "parse_metrics_addr",
    "prometheus_exposition",
    "prometheus_name",
    "render_dashboard",
    "render_dashboard_from_files",
    "render_text_report",
    "span_tree",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_stats_file",
    "write_trace_dir",
]
