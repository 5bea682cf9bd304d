"""Shared AST helpers for the concrete rules."""

from __future__ import annotations

import ast
from typing import Optional, Set, Tuple

#: Call targets that build a mutable container.
MUTABLE_FACTORIES: Set[str] = {
    "dict",
    "list",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
}

#: The modules the paper's determinism story depends on: everything the
#: planners, cost models and the simulated engine can execute while
#: producing and running a plan.
PLANNER_COST_ROOTS: Tuple[str, ...] = (
    "repro.core.raqo",
    "repro.core.resource_planner",
    "repro.core.cost_model",
    "repro.planner.selinger",
    "repro.planner.randomized",
    "repro.planner.bushy",
    "repro.engine.executor",
    "repro.engine.runtime",
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def is_mutable_literal(node: ast.AST) -> bool:
    """True for expressions that construct a mutable container."""
    if isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in MUTABLE_FACTORIES
    return False


def is_set_expression(node: ast.AST) -> bool:
    """True for syntactically-recognizable set values (literal or call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted name a call targets, when statically resolvable."""
    return dotted_name(node.func)
