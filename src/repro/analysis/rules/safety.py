"""Thread-safety passes: RAQO005 shared-mutable-state and RAQO006
mutable-default-arg.

The :class:`~repro.serving.service.OptimizerService` worker pool plans
on one :meth:`RaqoPlanner.clone` per worker thread, so *instance* state
is isolated by construction.  What clones cannot isolate is state
attached to a module or a class object -- that is shared by every
thread in the process.  RAQO005 flags any mutable module-/class-level
binding in code reachable from the service unless the binding
declares, via ``# lint: guarded-by=<LOCK>``, which module-level
``threading.Lock`` / ``RLock`` serializes access to it (the rule
verifies the lock exists).

RAQO006 is the classic mutable-default-argument trap: a shared default
``[]``/``{}`` is exactly the kind of cross-call (and cross-thread)
leakage the clone isolation is meant to rule out.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import (
    AnalysisSession,
    Finding,
    ModuleInfo,
    Rule,
    register_rule,
)
from repro.analysis.rules._ast_utils import dotted_name, is_mutable_literal


def _module_locks(tree: ast.Module) -> Set[str]:
    """Names bound at module level to a threading Lock/RLock."""
    locks: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not isinstance(value, ast.Call):
            continue
        name = dotted_name(value.func)
        if name is None or name.rsplit(".", 1)[-1] not in ("Lock", "RLock"):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                locks.add(target.id)
    return locks


def _mutable_bindings(
    body: List[ast.stmt],
) -> Iterator[Tuple[ast.stmt, str]]:
    """(statement, bound name) for mutable container bindings in a body."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                continue
            value = stmt.value
            targets = [stmt.target]
        else:
            continue
        if not is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not (
                target.id.startswith("__") and target.id.endswith("__")
            ):
                yield stmt, target.id


@register_rule
class SharedMutableStateRule(Rule):
    """RAQO005: shared mutable state must be lock-guarded."""

    id = "RAQO005"
    name = "shared-mutable-state"
    description = (
        "module- and class-level mutable containers in code reachable "
        "from the OptimizerService are shared across its worker "
        "threads; guard them with a module-level threading.Lock "
        "declared via '# lint: guarded-by=<LOCK>' (or suppress with a "
        "rationale)"
    )
    scope_roots = ("repro.serving.service",)

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        locks = _module_locks(info.tree)

        def verdicts(
            stmts: List[ast.stmt], owner: str
        ) -> Iterator[Finding]:
            for stmt, name in _mutable_bindings(stmts):
                guard = info.guard_on_line(stmt.lineno)
                if guard is not None:
                    if guard in locks:
                        continue
                    yield self.finding(
                        info,
                        stmt,
                        f"'{name}' declares guarded-by={guard} but no "
                        f"module-level threading.Lock named '{guard}' "
                        "exists",
                    )
                    continue
                yield self.finding(
                    info,
                    stmt,
                    f"{owner} mutable binding '{name}' is shared by "
                    "every worker thread of the optimizer service; guard "
                    "it with a threading.Lock and declare "
                    "'# lint: guarded-by=<LOCK>'",
                )

        yield from verdicts(info.tree.body, "module-level")
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ClassDef):
                yield from verdicts(node.body, f"class-level ({node.name})")


@register_rule
class MutableDefaultArgRule(Rule):
    """RAQO006: no mutable default argument values."""

    id = "RAQO006"
    name = "mutable-default-arg"
    description = (
        "default argument values are evaluated once and shared across "
        "calls (and threads); use None plus an in-body default, or an "
        "immutable value"
    )

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                defaults = [
                    *node.args.defaults,
                    *[d for d in node.args.kw_defaults if d is not None],
                ]
                for default in defaults:
                    if is_mutable_literal(default):
                        label = (
                            node.name
                            if not isinstance(node, ast.Lambda)
                            else "<lambda>"
                        )
                        yield self.finding(
                            info,
                            default,
                            f"mutable default argument in '{label}'; "
                            "use None and construct inside the body",
                        )
