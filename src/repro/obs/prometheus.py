"""Prometheus text-format exposition for the telemetry plane.

Renders the lifetime readings of the
:class:`~repro.obs.telemetry.TelemetryPlane`'s series into the
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_,
without depending on any Prometheus client library:

- dotted metric names become underscore names under the ``raqo_``
  namespace (``serving.latency_ms`` -> ``raqo_serving_latency_ms``);
- counters gain the conventional ``_total`` suffix;
- histograms are exposed as *summaries* -- ``quantile``-labelled sample
  lines plus ``_sum`` and ``_count`` -- because the plane keeps exact
  quantiles rather than fixed buckets;
- each series carries its label set
  (``raqo_serving_tenant_latency_ms{tenant="acme",...}``), and every
  counter adds a ``raqo_..._rate_per_s`` gauge (rate over its most
  recent window).

The plane registers each series once, so each sample line appears once.

The module also ships :func:`parse_exposition`, a strict validating
parser used by the test suite and the CLI to prove that what we emit is
well-formed, plus :class:`MetricsServer`, the optional scrape endpoint
behind ``repro serve --metrics-addr``.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.obs.telemetry import TelemetryPlane
from repro.obs.windows import (
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
)

__all__ = [
    "MetricsServer",
    "ParsedExposition",
    "ParsedSample",
    "parse_exposition",
    "parse_metrics_addr",
    "prometheus_exposition",
    "prometheus_name",
    "write_stats_file",
]

#: Every exported metric lives under this namespace.
NAMESPACE = "raqo"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def prometheus_name(name: str) -> str:
    """The ``raqo_``-namespaced Prometheus spelling of a dotted name."""
    flat = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    candidate = f"{NAMESPACE}_{flat}"
    if not _NAME_OK.match(candidate):
        raise ValueError(f"cannot render metric name {name!r}")
    return candidate


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    for key, _ in labels:
        if not _LABEL_OK.match(key):
            raise ValueError(f"invalid label name {key!r}")
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Family:
    """One metric family: HELP/TYPE header plus its sample lines."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: List[str] = []

    def add(
        self,
        value: float,
        labels: Tuple[Tuple[str, str], ...] = (),
        suffix: str = "",
    ) -> None:
        line = (
            f"{self.name}{suffix}{_render_labels(labels)} "
            f"{_format_value(value)}"
        )
        self.samples.append(line)

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(self.samples)
        return lines


class _FamilySet:
    """Families keyed by name, rendered in sorted order."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def family(self, name: str, kind: str, help_text: str) -> _Family:
        existing = self._families.get(name)
        if existing is None:
            existing = _Family(name, kind, help_text)
            self._families[name] = existing
        elif existing.kind != kind:
            raise ValueError(
                f"metric family {name!r} registered as both "
                f"{existing.kind!r} and {kind!r}"
            )
        return existing

    def render(self) -> str:
        lines: List[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines) + ("\n" if lines else "")


def _add_summary(
    families: _FamilySet,
    base: str,
    help_text: str,
    summary: Dict[str, float],
    labels: Tuple[Tuple[str, str], ...],
) -> None:
    family = families.family(base, "summary", help_text)
    for key in sorted(summary):
        if not key.startswith("p") or not key[1:].isdigit():
            continue
        quantile = int(key[1:]) / 100.0
        family.add(
            summary[key],
            labels + (("quantile", _format_value(quantile)),),
        )
    family.add(summary.get("sum", 0.0), labels, suffix="_sum")
    family.add(summary.get("count", 0.0), labels, suffix="_count")


def _add_plane(families: _FamilySet, plane: TelemetryPlane) -> None:
    for instrument in plane.instruments():
        base = prometheus_name(instrument.name)
        labels = instrument.labels
        clock_note = f"({instrument.clock} clock, windowed)"
        if isinstance(instrument, WindowedCounter):
            family = families.family(
                base + "_total",
                "counter",
                f"Windowed counter {instrument.name} {clock_note}.",
            )
            family.add(float(instrument.reading()), labels)
            snap = instrument.snapshot(last=1)
            windows = snap["windows"]
            assert isinstance(windows, list)
            rate = windows[-1]["rate_per_s"] if windows else 0.0
            rate_family = families.family(
                base + "_rate_per_s",
                "gauge",
                f"Most-recent-window rate of {instrument.name} "
                f"{clock_note}.",
            )
            rate_family.add(float(rate), labels)
        elif isinstance(instrument, WindowedGauge):
            family = families.family(
                base,
                "gauge",
                f"Windowed gauge {instrument.name} {clock_note}.",
            )
            family.add(instrument.reading(), labels)
        elif isinstance(instrument, WindowedHistogram):
            summary = instrument.reading()
            _add_summary(
                families,
                base,
                f"Windowed histogram {instrument.name} {clock_note}.",
                summary,
                labels,
            )
    # SLO + drift state ride along as gauges so a scrape sees them.
    if plane.slo_trackers:
        burn = families.family(
            prometheus_name("slo.burn_rate"),
            "gauge",
            "Per-tenant SLO error-budget burn rate.",
        )
        alerting = families.family(
            prometheus_name("slo.alerting"),
            "gauge",
            "1 while the tenant's SLO burn alert is firing.",
        )
        for tracker in list(plane.slo_trackers):
            for status in tracker.statuses():
                labels = (("tenant", status.tenant),)
                burn.add(status.burn_rate, labels)
                alerting.add(1.0 if status.alerting else 0.0, labels)
    drift = plane.drift.status()
    if drift.observations:
        ratio = families.family(
            prometheus_name("cost_model.drift_ratio"),
            "gauge",
            "Rolling-vs-baseline cost error ratio.",
        )
        ratio.add(drift.ratio if math.isfinite(drift.ratio) else 0.0)
        drifting = families.family(
            prometheus_name("cost_model.drifting"),
            "gauge",
            "1 while the cost model is flagged as drifting.",
        )
        drifting.add(1.0 if drift.drifting else 0.0)


def prometheus_exposition(plane: TelemetryPlane) -> str:
    """The full text-format exposition of a plane."""
    families = _FamilySet()
    _add_plane(families, plane)
    return families.render()


def write_stats_file(path: Union[str, Path], plane: TelemetryPlane) -> str:
    """Write the exposition to ``path``; returns the rendered text."""
    text = prometheus_exposition(plane)
    Path(path).write_text(text, encoding="utf-8")
    return text


# -- validating parser ------------------------------------------------------


@dataclass(frozen=True)
class ParsedSample:
    """One sample line of a parsed exposition."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float
    #: The family's declared TYPE (``counter``/``gauge``/``summary``).
    kind: str = ""

    @property
    def labels_dict(self) -> Dict[str, str]:
        """The labels as a plain dict."""
        return dict(self.labels)


@dataclass
class ParsedExposition:
    """A validated exposition: families and their samples."""

    #: family name -> declared TYPE.
    types: Dict[str, str] = field(default_factory=dict)
    samples: List[ParsedSample] = field(default_factory=list)

    def series(self, name: str) -> List[ParsedSample]:
        """All samples whose metric name equals ``name``."""
        return [s for s in self.samples if s.name == name]

    def value(
        self, name: str, **labels: str
    ) -> Optional[float]:
        """The value of the sample matching ``name`` and ``labels``
        (label order is irrelevant)."""
        want = tuple(sorted(labels.items()))
        for sample in self.samples:
            if (
                sample.name == name
                and tuple(sorted(sample.labels)) == want
            ):
                return sample.value
        return None


def _family_of(sample_name: str, types: Dict[str, str]) -> Optional[str]:
    if sample_name in types:
        return sample_name
    for suffix in ("_sum", "_count", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in types:
                return base
    return None


def parse_exposition(text: str) -> ParsedExposition:
    """Parse and validate Prometheus text format; raises ``ValueError``.

    Strict on the properties the encoder guarantees: every sample line
    must parse, every sample must belong to a family declared with a
    ``# TYPE`` line *before* it, label names must be legal, a family
    may not be declared twice, and a series (name plus label set) may
    not be sampled twice.
    """
    parsed = ParsedExposition()
    seen: Set[Tuple[str, Tuple[Tuple[str, str], ...]]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, name, kind = parts
            if not _NAME_OK.match(name):
                raise ValueError(
                    f"line {lineno}: invalid family name {name!r}"
                )
            if kind not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                raise ValueError(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            if name in parsed.types:
                raise ValueError(
                    f"line {lineno}: family {name!r} declared twice"
                )
            parsed.types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {raw!r}")
        name = match.group("name")
        family = _family_of(name, parsed.types)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding "
                f"TYPE declaration"
            )
        labels: List[Tuple[str, str]] = []
        labels_blob = match.group("labels")
        if labels_blob:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(labels_blob):
                labels.append((pair.group("key"), pair.group("value")))
                consumed = pair.end()
                if consumed < len(labels_blob):
                    if labels_blob[consumed] != ",":
                        raise ValueError(
                            f"line {lineno}: malformed labels "
                            f"{labels_blob!r}"
                        )
                    consumed += 1
            if consumed != len(labels_blob):
                raise ValueError(
                    f"line {lineno}: malformed labels {labels_blob!r}"
                )
        series = (name, tuple(sorted(labels)))
        if series in seen:
            raise ValueError(
                f"line {lineno}: duplicate sample for series {name!r} "
                f"{dict(labels)}"
            )
        seen.add(series)
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value "
                f"{match.group('value')!r}"
            ) from exc
        parsed.samples.append(
            ParsedSample(
                name=name,
                labels=tuple(labels),
                value=value,
                kind=parsed.types[family],
            )
        )
    return parsed


# -- scrape endpoint --------------------------------------------------------


class MetricsServer:
    """A minimal ``/metrics`` HTTP endpoint over a render callback.

    Serves whatever ``render()`` returns at scrape time on a daemon
    thread; everything else 404s.  Used by ``repro serve
    --metrics-addr HOST:PORT`` (port 0 picks a free port).
    """

    def __init__(
        self, host: str, port: int, render: Callable[[], str]
    ) -> None:
        self._render = render

        server_ref = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                body = server_ref._render().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # scrapes should not spam the CLI's stderr

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="raqo-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- port resolved when 0 was asked."""
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    def close(self) -> None:
        """Stop serving and release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def parse_metrics_addr(addr: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (or bare ``:PORT``) into its parts."""
    host, sep, port_text = addr.rpartition(":")
    if not sep:
        raise ValueError(
            f"metrics address must look like HOST:PORT, got {addr!r}"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"invalid port in metrics address {addr!r}"
        ) from exc
    return (host or "127.0.0.1", port)
