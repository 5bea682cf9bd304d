"""Golden schema snapshot for ``BENCH_serving.json``.

The serving benchmark's numbers (QPS, latency quantiles) are
machine-dependent, so unlike the fig03/04/09 goldens there is nothing
numeric to pin.  What *is* pinned is the report's field structure: the
schema skeleton under ``tests/experiments/golden/
bench_serving_schema.json``.  Renaming, dropping, or retyping a field
in the benchmark payload fails here (and in the CI smoke step, which
runs ``bench_serving.py --check``) until the golden file is
deliberately regenerated::

    PYTHONPATH=src python - <<'PY'
    import json, sys
    sys.path.insert(0, "benchmarks")
    from bench_serving import GOLDEN_SCHEMA_PATH, run_benchmark, schema_skeleton
    skeleton = schema_skeleton(run_benchmark(quick=True, workers=2))
    GOLDEN_SCHEMA_PATH.write_text(json.dumps(skeleton, indent=2) + "\n")
    PY
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_serving  # noqa: E402
from bench_serving import (  # noqa: E402
    GOLDEN_SCHEMA_PATH,
    check_stats_file,
    main,
    run_benchmark,
    schema_skeleton,
    validate_report,
)


@pytest.fixture(scope="module")
def small_report():
    """One tiny benchmark run (2 workers, quick traces)."""
    return run_benchmark(quick=True, workers=2)


class TestSchemaSkeleton:
    def test_scalars_collapse_to_type_names(self):
        assert schema_skeleton(True) == "boolean"
        assert schema_skeleton(3) == "number"
        assert schema_skeleton(2.5) == "number"
        assert schema_skeleton("x") == "string"
        assert schema_skeleton(None) == "null"

    def test_dicts_keep_keys_and_sort_them(self):
        assert schema_skeleton({"b": 1, "a": "x"}) == {
            "a": "string",
            "b": "number",
        }

    def test_lists_collapse_to_first_element(self):
        assert schema_skeleton([1, 2, 3]) == ["number"]
        assert schema_skeleton([]) == []

    def test_skeleton_ignores_the_numbers(self):
        left = schema_skeleton({"qps": 100.0, "label": "a"})
        right = schema_skeleton({"qps": 9999.9, "label": "b"})
        assert left == right


class TestGoldenSchema:
    def test_golden_file_exists_and_is_sorted_json(self):
        golden = json.loads(GOLDEN_SCHEMA_PATH.read_text())
        assert list(golden) == sorted(golden)
        assert "traces" in golden

    def test_fresh_report_matches_the_golden_schema(self, small_report):
        problems = validate_report(small_report)
        assert problems == []

    def test_drift_is_detected(self, small_report):
        mutated = dict(small_report)
        mutated["surprise_field"] = 1
        del mutated["seed"]
        problems = validate_report(mutated)
        assert any("surprise_field" in p for p in problems)
        assert any("seed" in p and "missing" in p for p in problems)

    def test_retyped_field_is_detected(self, small_report):
        mutated = dict(small_report)
        mutated["seed"] = "zero"  # number -> string
        problems = validate_report(mutated)
        assert any("seed" in p for p in problems)


class TestBenchmarkPayload:
    def test_both_trace_shapes_are_reported(self, small_report):
        assert set(small_report["traces"]) == {"poisson", "bursty"}
        for label, trace in small_report["traces"].items():
            assert trace["completed"] + trace["rejected"] == (
                trace["requests"]
            )
            assert trace["qps"] > 0
            for quantile in ("p50", "p95", "p99", "mean", "max"):
                assert trace["latency_ms"][quantile] >= 0.0

    def test_cache_section_reconciles(self, small_report):
        for trace in small_report["traces"].values():
            cache = trace["cache"]
            assert cache["entries"] == (
                cache["inserts"] - cache["evictions"]
            )
            assert cache["hits"] + cache["misses"] >= cache["inserts"]


class TestStatsFile:
    def test_written_stats_file_parses(self, tmp_path):
        path = tmp_path / "stats.prom"
        run_benchmark(quick=True, workers=2, stats_path=path)
        assert check_stats_file(path) is None

    def test_repeated_series_is_reported(self, tmp_path):
        path = tmp_path / "stats.prom"
        path.write_text(
            "# TYPE raqo_x counter\nraqo_x 1\nraqo_x 2\n"
        )
        assert check_stats_file(path) is not None

    def test_invalid_stats_file_fails_the_run(self, tmp_path, monkeypatch):
        def fake_run(stats_path, **_):
            stats_path.write_text("raqo_undeclared 1\n")
            return {}

        monkeypatch.setattr(bench_serving, "run_benchmark", fake_run)
        argv = [
            "--output", str(tmp_path / "report.json"),
            "--stats-file", str(tmp_path / "stats.prom"),
        ]
        assert main(argv) == 1
