"""RAQO010 per-candidate-costing-loop: DP levels are costed as batches.

The lattice-level batching work costs every candidate of a DP level
(and every join of a randomized candidate plan) through one stacked
``cost_batch`` call. A Python ``for``/``while`` loop (or comprehension)
in the planner search paths that invokes the scalar costing surface --
``join_cost``, ``predict_time`` or ``predict_time_grid`` -- per
candidate reintroduces exactly the per-candidate interpreter overhead
the batch kernel removed, and such regressions are invisible to the
bit-identity tests (the scalar path produces the same answers, just
slowly). There is no in-tree exemption: every coster implements
``cost_batch``, and the planners' per-candidate reference lives in the
test suite. Anything else is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.framework import (
    AnalysisSession,
    Finding,
    ModuleInfo,
    Rule,
    register_rule,
)
from repro.analysis.rules._ast_utils import dotted_name

#: Scalar costing entry points that must not be driven per candidate
#: from a planner search loop.
_SCALAR_COSTING_CALLS = frozenset(
    {"join_cost", "predict_time", "predict_time_grid"}
)

#: The planner search-path modules the rule polices, by exact dotted
#: name (not import-reachability: package ``__init__`` re-exports make
#: the reachable set of any planner module span most of the tree). The
#: coster implementations (``repro.core.raqo``) legitimately loop --
#: e.g. over the sequential tail of a batch -- as do explain/metrics
#: paths that cost a handful of already-chosen operators; the rule
#: guards the DP/search layers that should hand whole levels to
#: ``cost_batch``. Standalone fixture files (no module name) are
#: checked so the test suite can exercise the rule.
PLANNER_SEARCH_MODULES = frozenset(
    {
        "repro.planner.selinger",
        "repro.planner.randomized",
        "repro.planner.bushy",
        "repro.planner.cost_interface",
    }
)

#: Syntactic loop constructs, including comprehension forms.
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


@register_rule
class PerCandidateCostingLoopRule(Rule):
    """RAQO010: no per-candidate scalar costing loops in planners."""

    id = "RAQO010"
    name = "per-candidate-costing-loop"
    description = (
        "planner search paths must cost DP levels through one "
        "cost_batch call; a Python loop invoking join_cost / "
        "predict_time / predict_time_grid per candidate reintroduces "
        "the per-candidate overhead lattice batching removed"
    )
    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        if (
            info.module is not None
            and info.module not in PLANNER_SEARCH_MODULES
        ):
            return
        yield from self._visit(info, info.tree, [])

    def _visit(
        self, info: ModuleInfo, node: ast.AST, loops: List[ast.AST]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            tail = name.rsplit(".", 1)[-1] if name else None
            if loops and tail in _SCALAR_COSTING_CALLS:
                # Anchor at the innermost enclosing loop so one
                # ``lint: disable=RAQO010`` on the loop line covers
                # every scalar call the loop drives.
                yield self.finding(
                    info,
                    loops[-1],
                    f"per-candidate loop calls scalar {tail}(); cost "
                    "the whole level through one cost_batch "
                    "(CandidateBatch) call instead",
                )
        entered = isinstance(node, _LOOP_NODES)
        if entered:
            loops = loops + [node]
        # Nested functions start a fresh loop context: a closure body
        # is not executed by the loop that lexically surrounds its
        # definition.
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            loops = []
        for child in ast.iter_child_nodes(node):
            yield from self._visit(info, child, loops)
