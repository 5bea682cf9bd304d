"""Serving benchmark: replay Poisson and bursty traces, report latency.

Drives the multi-tenant :class:`~repro.serving.service.OptimizerService`
with the two arrival processes the paper's queueing story turns on --
steady Poisson load and duty-cycled bursts -- and records, per trace:

- **QPS** (completed requests per wall-clock second of replay), and
- **p50/p95/p99 end-to-end planning latency** plus queue-wait quantiles,
- cache traffic (hits/misses/inserts/evictions/entries/hit rate) and
  admission-control outcomes (rejections).

Writes ``BENCH_serving.json`` at the repository root, plus a Prometheus
stats file (``BENCH_serving_stats.prom``) snapshotting the telemetry
plane of the final trace's session so CI can archive the raw series
alongside the headline numbers.  The stats file is read back with the
strict :func:`~repro.obs.prometheus.parse_exposition`; a duplicate or
malformed series makes the run exit non-zero.  Standalone (not a pytest-benchmark
case) so CI can smoke it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py --quick
    PYTHONPATH=src python benchmarks/bench_serving.py --check BENCH_serving.json

``--check`` validates a report file against the golden schema snapshot
under ``tests/experiments/golden/bench_serving_schema.json`` (field
shape only, never timings), so format drift fails CI the way the
fig03/04/09 goldens do.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import RaqoSession  # noqa: E402
from repro.obs.prometheus import parse_exposition  # noqa: E402
from repro.serving import (  # noqa: E402
    ReplayConfig,
    build_requests,
    replay,
)

GOLDEN_SCHEMA_PATH = (
    REPO_ROOT / "tests" / "experiments" / "golden"
    / "bench_serving_schema.json"
)

#: Replay shapes: (label, arrival kind, full-size, quick-size).
TRACES = (
    ("poisson", "poisson", 400, 60),
    ("bursty", "bursty", 400, 60),
)


def schema_skeleton(value: object) -> object:
    """The type-shape of a JSON value: field names kept, values typed.

    Dicts map each key to its skeleton, lists collapse to their first
    element's skeleton (all report lists are homogeneous), scalars
    become type names.  Two reports with the same field structure have
    identical skeletons regardless of the numbers inside.
    """
    if isinstance(value, dict):
        return {key: schema_skeleton(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [schema_skeleton(value[0])] if value else []
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return "string"


def validate_report(
    report: Dict[str, object], schema_path: Path = GOLDEN_SCHEMA_PATH
) -> List[str]:
    """Mismatch descriptions between a report and the golden schema.

    A golden leaf may list alternatives, ``"number|null"``, for a field
    that is legitimately null in some reports.
    """
    golden = json.loads(schema_path.read_text())
    actual = schema_skeleton(report)

    problems: List[str] = []

    def walk(expected: object, got: object, path: str) -> None:
        if isinstance(expected, dict):
            if not isinstance(got, dict):
                problems.append(f"{path}: expected object, got {got!r}")
                return
            for key in expected:
                if key not in got:
                    problems.append(f"{path}.{key}: missing")
                else:
                    walk(expected[key], got[key], f"{path}.{key}")
            for key in got:
                if key not in expected:
                    problems.append(f"{path}.{key}: unexpected field")
        elif isinstance(expected, list):
            if not isinstance(got, list):
                problems.append(f"{path}: expected array, got {got!r}")
            elif expected and got:
                walk(expected[0], got[0], f"{path}[0]")
        elif got not in str(expected).split("|"):
            problems.append(
                f"{path}: expected {expected!r}, got {got!r}"
            )

    walk(golden, actual, "$")
    return problems


def check_stats_file(path: Path) -> Optional[str]:
    """Why ``path`` is not a valid exposition, or ``None`` if it is."""
    try:
        parse_exposition(path.read_text())
    except ValueError as exc:
        return str(exc)
    return None


def run_benchmark(
    quick: bool = False,
    workers: int = 4,
    seed: int = 0,
    stats_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Replay every trace shape; returns the BENCH_serving payload.

    When ``stats_path`` is given, the telemetry plane of the *final*
    trace's session is exported there as Prometheus text exposition
    (per-tenant serving series, windowed rates, cache counters) so CI
    can upload the raw series as a build artifact.
    """
    traces: Dict[str, object] = {}
    session: Optional[RaqoSession] = None
    for label, arrival, full, small in TRACES:
        session = RaqoSession(scale_factor=100, seed=seed)
        service = session.serve(
            workers=workers,
            max_queue=4096,
            max_batch=16,
        )
        config = ReplayConfig(
            num_requests=small if quick else full,
            arrival=arrival,
            num_tenants=4,
            seed=seed,
        )
        requests = build_requests(config, catalog=session.catalog)
        with service:
            report = replay(service, requests, label=label)
        payload = report.to_json_dict()
        payload["arrival"] = arrival
        payload["workers"] = workers
        traces[label] = payload
        print(
            f"{label:>8}: {report.completed}/{report.requests} ok "
            f"({report.rejected} rejected) | {report.qps:8.0f} qps | "
            f"latency p50 {report.latency_ms['p50']:7.2f} ms, "
            f"p95 {report.latency_ms['p95']:7.2f} ms, "
            f"p99 {report.latency_ms['p99']:7.2f} ms | "
            f"cache hit rate "
            f"{float(report.cache.get('hit_rate', 0.0)):.2f}"
        )
    if stats_path is not None and session is not None:
        session.write_stats_file(stats_path)
        print(f"stats file written: {stats_path}")
    return {
        "benchmark": "serving_replay",
        "schema_version": 1,
        "quick": quick,
        "seed": seed,
        "config": {
            "workers": workers,
            "num_tenants": 4,
            "scale_factor": 100,
        },
        "traces": traces,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small traces for CI smoke runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="service worker threads (default 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="trace seed (default 0)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_serving.json",
        help="report destination (default: repo-root BENCH_serving.json)",
    )
    parser.add_argument(
        "--stats-file",
        type=Path,
        default=REPO_ROOT / "BENCH_serving_stats.prom",
        help="Prometheus stats-file destination (default: repo-root "
        "BENCH_serving_stats.prom)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        metavar="FILE",
        default=None,
        help="validate FILE against the golden schema and exit "
        "(no benchmark run)",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        problems = validate_report(json.loads(args.check.read_text()))
        if problems:
            for problem in problems:
                print(f"schema mismatch: {problem}", file=sys.stderr)
            return 1
        print(f"{args.check}: schema ok")
        return 0

    report = run_benchmark(
        quick=args.quick,
        workers=args.workers,
        seed=args.seed,
        stats_path=args.stats_file,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nreport written: {args.output}")
    problem = check_stats_file(args.stats_file)
    if problem is not None:
        print(
            f"invalid stats file {args.stats_file}: {problem}",
            file=sys.stderr,
        )
        return 1
    print(f"{args.stats_file}: exposition ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
