"""Good/bad fixture snippets for the per-module rules (RAQO001-008, RAQO010)."""

from repro.analysis import ModuleInfo
from repro.analysis.framework import resolve_rules, run_analysis_on_modules


def _ids(findings):
    return [f.rule_id for f in findings]


class TestUnseededRandomRAQO001:
    def test_stdlib_random_call_is_flagged(self, lint):
        findings = lint(
            """
            import random

            x = random.random()
            """,
            rule="RAQO001",
        )
        assert _ids(findings) == ["RAQO001"]
        assert "global RNG" in findings[0].message

    def test_from_random_import_is_flagged(self, lint):
        findings = lint("from random import shuffle\n", rule="RAQO001")
        assert _ids(findings) == ["RAQO001"]

    def test_numpy_legacy_global_rng_is_flagged(self, lint):
        findings = lint(
            """
            import numpy as np

            x = np.random.rand(3)
            """,
            rule="RAQO001",
        )
        assert _ids(findings) == ["RAQO001"]

    def test_unseeded_default_rng_is_flagged(self, lint):
        findings = lint(
            """
            from numpy.random import default_rng

            rng = default_rng()
            """,
            rule="RAQO001",
        )
        assert _ids(findings) == ["RAQO001"]
        assert "seed" in findings[0].message

    def test_seeded_generator_is_clean(self, lint):
        findings = lint(
            """
            import numpy as np

            rng = np.random.default_rng(42)
            gen = np.random.Generator(np.random.PCG64(7))
            """,
            rule="RAQO001",
        )
        assert findings == []


class TestWallClockRAQO002:
    def test_time_time_is_flagged(self, lint):
        findings = lint(
            """
            import time

            start = time.time()
            """,
            rule="RAQO002",
        )
        assert _ids(findings) == ["RAQO002"]

    def test_datetime_now_is_flagged(self, lint):
        findings = lint(
            """
            from datetime import datetime

            stamp = datetime.now()
            """,
            rule="RAQO002",
        )
        assert _ids(findings) == ["RAQO002"]

    def test_bare_time_import_alias_is_flagged(self, lint):
        findings = lint(
            """
            from time import time as wall

            t = wall()
            """,
            rule="RAQO002",
        )
        assert _ids(findings) == ["RAQO002"]

    def test_perf_counter_is_allowed(self, lint):
        findings = lint(
            """
            import time

            t = time.perf_counter()
            """,
            rule="RAQO002",
        )
        assert findings == []


class TestSetIterationOrderRAQO003:
    def test_for_loop_over_set_is_flagged(self, lint):
        findings = lint(
            """
            for item in {1, 2, 3}:
                print(item)
            """,
            rule="RAQO003",
        )
        assert _ids(findings) == ["RAQO003"]

    def test_min_over_set_call_is_flagged(self, lint):
        findings = lint(
            "best = min(set(candidates))\n", rule="RAQO003"
        )
        assert _ids(findings) == ["RAQO003"]

    def test_comprehension_over_set_is_flagged(self, lint):
        findings = lint(
            "names = [t for t in {'a', 'b'}]\n", rule="RAQO003"
        )
        assert _ids(findings) == ["RAQO003"]

    def test_sorted_set_is_allowed(self, lint):
        findings = lint(
            """
            for item in sorted({1, 2, 3}):
                print(item)
            best = min(sorted(set(candidates)))
            """,
            rule="RAQO003",
        )
        assert findings == []


class TestFloatCostCompareRAQO004:
    def test_raw_equality_on_cost_is_flagged(self, lint):
        findings = lint("tie = cost == best_cost\n", rule="RAQO004")
        assert _ids(findings) == ["RAQO004"]
        assert "costs_equal" in findings[0].message

    def test_inequality_on_attribute_is_flagged(self, lint):
        findings = lint(
            "changed = a.time_s != b.time_s\n", rule="RAQO004"
        )
        assert _ids(findings) == ["RAQO004"]

    def test_scalar_call_result_is_cost_valued(self, lint):
        findings = lint(
            "same = left.scalar(weights) == right.scalar(weights)\n",
            rule="RAQO004",
        )
        assert _ids(findings) == ["RAQO004"]

    def test_ordering_comparisons_are_allowed(self, lint):
        findings = lint(
            """
            better = cost < best_cost
            worse = a.time_s >= b.time_s
            """,
            rule="RAQO004",
        )
        assert findings == []

    def test_non_cost_names_are_allowed(self, lint):
        findings = lint("same = name == other_name\n", rule="RAQO004")
        assert findings == []

    def test_sanctioned_numeric_module_may_compare(self, repo_root):
        # The helpers themselves live in repro.core.numeric and must be
        # allowed to spell out raw float comparisons.
        path = repo_root / "src" / "repro" / "core" / "numeric.py"
        info = ModuleInfo.parse(
            path,
            source=(
                "def eq(cost: float, other_cost: float) -> bool:\n"
                "    return cost == other_cost\n"
            ),
        )
        assert info.module == "repro.core.numeric"
        findings = run_analysis_on_modules(
            [info], rules=resolve_rules(["RAQO004"])
        )
        assert findings == []


class TestSharedMutableStateRAQO005:
    def test_module_level_dict_is_flagged(self, lint):
        findings = lint("CACHE = {}\n", rule="RAQO005")
        assert _ids(findings) == ["RAQO005"]
        assert "guarded-by" in findings[0].message

    def test_class_level_list_is_flagged(self, lint):
        findings = lint(
            """
            class Registry:
                entries = []
            """,
            rule="RAQO005",
        )
        assert _ids(findings) == ["RAQO005"]
        assert "Registry" in findings[0].message

    def test_guard_pragma_with_real_lock_is_clean(self, lint):
        findings = lint(
            """
            import threading

            LOCK = threading.Lock()
            CACHE = {}  # lint: guarded-by=LOCK
            """,
            rule="RAQO005",
        )
        assert findings == []

    def test_guard_pragma_naming_missing_lock_is_flagged(self, lint):
        findings = lint(
            "CACHE = {}  # lint: guarded-by=GHOST_LOCK\n",
            rule="RAQO005",
        )
        assert _ids(findings) == ["RAQO005"]
        assert "GHOST_LOCK" in findings[0].message

    def test_immutable_bindings_are_clean(self, lint):
        findings = lint(
            """
            from types import MappingProxyType

            EDGES = (("a", "b"), ("b", "c"))
            ROWS = MappingProxyType({"a": 1})
            """,
            rule="RAQO005",
        )
        assert findings == []


class TestMutableDefaultArgRAQO006:
    def test_list_default_is_flagged(self, lint):
        findings = lint(
            """
            def accumulate(item, acc=[]):
                acc.append(item)
                return acc
            """,
            rule="RAQO006",
        )
        assert _ids(findings) == ["RAQO006"]
        assert "accumulate" in findings[0].message

    def test_kwonly_dict_default_is_flagged(self, lint):
        findings = lint(
            """
            def configure(*, options={}):
                return options
            """,
            rule="RAQO006",
        )
        assert _ids(findings) == ["RAQO006"]

    def test_lambda_default_is_flagged(self, lint):
        findings = lint("collect = lambda acc=[]: acc\n", rule="RAQO006")
        assert _ids(findings) == ["RAQO006"]

    def test_none_and_immutable_defaults_are_clean(self, lint):
        findings = lint(
            """
            def accumulate(item, acc=None, tags=()):
                acc = [] if acc is None else acc
                acc.append(item)
                return acc
            """,
            rule="RAQO006",
        )
        assert findings == []


class TestPositionalDimensionIndexRAQO007:
    def test_constant_index_into_dimensions_is_flagged(self, lint):
        findings = lint("memory = cluster.dimensions[1]\n", rule="RAQO007")
        assert _ids(findings) == ["RAQO007"]
        assert "by name" in findings[0].message

    def test_constant_index_into_dims_is_flagged(self, lint):
        findings = lint("first = dims[0]\n", rule="RAQO007")
        assert _ids(findings) == ["RAQO007"]

    def test_as_vector_constant_index_is_flagged(self, lint):
        findings = lint("gb = config.as_vector()[1]\n", rule="RAQO007")
        assert _ids(findings) == ["RAQO007"]

    def test_loop_variable_index_is_allowed(self, lint):
        findings = lint(
            """
            for index in range(len(step_sizes)):
                step = step_sizes[index]
            """,
            rule="RAQO007",
        )
        assert findings == []

    def test_by_name_lookup_is_allowed(self, lint):
        findings = lint(
            "memory = cluster.dimension('container_gb')\n",
            rule="RAQO007",
        )
        assert findings == []


class TestUntypedPublicApiRAQO008:
    def test_unannotated_public_function_yields_two_findings(self, lint):
        findings = lint(
            """
            def run(workload):
                return workload
            """,
            rule="RAQO008",
        )
        assert _ids(findings) == ["RAQO008", "RAQO008"]
        messages = "\n".join(f.message for f in findings)
        assert "workload" in messages
        assert "return" in messages

    def test_unannotated_method_skips_self(self, lint):
        findings = lint(
            """
            class Runner:
                def run(self, workload) -> None:
                    pass
            """,
            rule="RAQO008",
        )
        assert _ids(findings) == ["RAQO008"]
        assert "workload" in findings[0].message

    def test_unannotated_varargs_are_flagged(self, lint):
        findings = lint(
            """
            def spread(*args, **kwargs) -> None:
                pass
            """,
            rule="RAQO008",
        )
        assert _ids(findings) == ["RAQO008"]
        assert "*args" in findings[0].message
        assert "**kwargs" in findings[0].message

    def test_private_nested_and_dunder_are_exempt(self, lint):
        findings = lint(
            """
            def _helper(x):
                return x


            def outer() -> None:
                def inner(x):
                    return x


            class Runner:
                def __repr__(self):
                    return "Runner"
            """,
            rule="RAQO008",
        )
        assert findings == []

    def test_fully_annotated_api_is_clean(self, lint):
        findings = lint(
            """
            class Runner:
                def __init__(self, retries: int = 3) -> None:
                    self.retries = retries

                @staticmethod
                def parse(text: str) -> int:
                    return int(text)


            def run(workload: list, *, label: str = "raqo") -> int:
                return len(workload)
            """,
            rule="RAQO008",
        )
        assert findings == []


class TestPerCandidateCostingLoopRAQO010:
    def test_scalar_costing_loop_is_flagged(self, lint):
        findings = lint(
            """
            def search(candidates, coster, context):
                best = None
                for left, right, algorithm in candidates:
                    cost, resources = coster.join_cost(
                        left, right, algorithm, context
                    )
                    if best is None or cost < best:
                        best = cost
                return best
            """,
            rule="RAQO010",
        )
        assert _ids(findings) == ["RAQO010"]
        assert "join_cost" in findings[0].message
        assert "cost_batch" in findings[0].message

    def test_grid_costing_loop_is_flagged(self, lint):
        findings = lint(
            """
            def sweep(model, rows, grid):
                return [
                    model.predict_time_grid(a, s, l, grid)
                    for (a, s, l) in rows
                ]
            """,
            rule="RAQO010",
        )
        assert _ids(findings) == ["RAQO010"]
        assert "predict_time_grid" in findings[0].message

    def test_finding_anchors_at_innermost_loop(self, lint):
        findings = lint(
            """
            def search(levels, coster, context):
                for level in levels:
                    for candidate in level:
                        coster.join_cost(*candidate, context)
            """,
            rule="RAQO010",
        )
        assert _ids(findings) == ["RAQO010"]
        assert findings[0].line == 4  # the inner for, not the outer

    def test_batched_call_outside_loop_is_clean(self, lint):
        findings = lint(
            """
            def extend_level(batch, coster, context):
                costed = coster.cost_batch(batch, context)
                return costed
            """,
            rule="RAQO010",
        )
        assert findings == []

    def test_single_call_outside_loop_is_clean(self, lint):
        findings = lint(
            """
            def one(coster, left, right, algorithm, context):
                return coster.join_cost(left, right, algorithm, context)
            """,
            rule="RAQO010",
        )
        assert findings == []

    def test_closure_defined_in_loop_is_clean(self, lint):
        """A function *defined* inside a loop is not driven by it."""
        findings = lint(
            """
            def build(coster, items, context):
                thunks = []
                for item in items:
                    def thunk(item=item):
                        return coster.join_cost(*item, context)
                    thunks.append(thunk)
                return thunks
            """,
            rule="RAQO010",
        )
        assert findings == []

    def test_pragma_on_loop_line_suppresses(self, lint):
        findings = lint(
            """
            def reference(batch, coster, context):
                out = []
                for index in range(len(batch)):  # lint: disable=RAQO010
                    out.append(coster.join_cost(*batch[index], context))
                return out
            """,
            rule="RAQO010",
        )
        assert findings == []

    def test_non_planner_module_is_out_of_scope(self, lint, repo_root):
        source = """
        def recompute(model, winners, context):
            for algorithm, small, large, config in winners:
                model.predict_time(algorithm, small, large, config)
        """
        # The same loop inside a planner search module is a finding...
        planner_path = repo_root / "src/repro/planner/selinger.py"
        flagged = lint(source, rule="RAQO010", path=planner_path)
        assert _ids(flagged) == ["RAQO010"]
        # ... but coster internals (repro.core.raqo) are out of scope.
        coster_path = repo_root / "src/repro/core/raqo.py"
        assert lint(source, rule="RAQO010", path=coster_path) == []

    def test_source_tree_is_clean(self, repo_root):
        from repro.analysis.framework import resolve_rules, run_analysis

        src = repo_root / "src" / "repro"
        findings = run_analysis(
            [src], rules=resolve_rules(["RAQO010"])
        )
        assert findings == []
