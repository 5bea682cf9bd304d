"""Golden schema snapshot for ``BENCH_planning.json``.

Like ``test_bench_serving_golden.py``: the planning benchmark's rates
are machine-dependent, so the golden pins the report's *field
structure* (``tests/experiments/golden/bench_planning_schema.json``),
not its numbers.  Renaming, dropping, or retyping a field -- including
the ``pareto_frontiers`` section the ``--assert-overhead`` gate reads
-- fails here until the golden is deliberately regenerated::

    PYTHONPATH=src python benchmarks/bench_planning_throughput.py \
        --quick --output /tmp/bench.json
    PYTHONPATH=src python - <<'PY'
    import json, sys
    sys.path.insert(0, "benchmarks")
    from bench_planning_throughput import GOLDEN_SCHEMA_PATH, schema_skeleton
    report = json.load(open("/tmp/bench.json"))
    GOLDEN_SCHEMA_PATH.write_text(
        json.dumps(schema_skeleton(report), indent=2) + "\n"
    )
    PY

then set ``workload_sharding.processes_overtake_at`` back to
``"number|null"``: the skeleton of one report sees only one of the two.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_planning_throughput import (  # noqa: E402
    GOLDEN_SCHEMA_PATH,
    validate_planning_report,
)

BASELINE_PATH = REPO_ROOT / "BENCH_planning.json"


class TestGoldenSchema:
    def test_golden_file_exists_and_is_sorted_json(self):
        golden = json.loads(GOLDEN_SCHEMA_PATH.read_text())
        assert list(golden) == sorted(golden)
        assert "pareto_frontiers" in golden
        assert "subplan_throughput" in golden

    def test_checked_in_baseline_matches_the_golden_schema(self):
        baseline = json.loads(BASELINE_PATH.read_text())
        assert validate_planning_report(baseline) == []

    def test_drift_is_detected(self):
        baseline = json.loads(BASELINE_PATH.read_text())
        mutated = dict(baseline)
        mutated["surprise_field"] = 1
        del mutated["pareto_frontiers"]
        problems = validate_planning_report(mutated)
        assert any("surprise_field" in p for p in problems)
        assert any(
            "pareto_frontiers" in p and "missing" in p for p in problems
        )

    def test_retyped_field_is_detected(self):
        baseline = json.loads(BASELINE_PATH.read_text())
        mutated = dict(baseline)
        mutated["pareto_frontiers"] = dict(mutated["pareto_frontiers"])
        mutated["pareto_frontiers"]["pareto_frontiers_per_s"] = "fast"
        problems = validate_planning_report(mutated)
        assert any("pareto_frontiers_per_s" in p for p in problems)

    def test_overtake_size_may_be_null(self):
        # A run whose sizes are all too small for processes to win
        # records null; that is a value, not schema drift.
        baseline = json.loads(BASELINE_PATH.read_text())
        mutated = dict(baseline)
        mutated["workload_sharding"] = dict(mutated["workload_sharding"])
        mutated["workload_sharding"]["processes_overtake_at"] = None
        assert validate_planning_report(mutated) == []
        mutated["workload_sharding"]["processes_overtake_at"] = "100"
        problems = validate_planning_report(mutated)
        assert any("processes_overtake_at" in p for p in problems)


class TestBaselinePayload:
    """Sections the CI overhead gate depends on are present and sane."""

    def test_gated_sections_present(self):
        baseline = json.loads(BASELINE_PATH.read_text())
        assert baseline["subplan_throughput"]["batched"][
            "sub_plans_per_s"
        ] > 0
        assert set(baseline["overhead_gate"]["time_vs_probe"]) == {
            "batched",
            "batched_memoized",
            "hill_climb",
            "pareto",
        }
        pareto = baseline["pareto_frontiers"]
        assert pareto["pareto_frontiers_per_s"] > 0
        assert pareto["frontier_points"] >= pareto["frontiers"]
        assert pareto["overhead_vs_fastest"] > 0
