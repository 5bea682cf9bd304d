"""Thread-safety passes: RAQO005 shared-mutable-state, RAQO006
mutable-default-arg and RAQO012 unverified-lock-guard.

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

RAQO012 checks what RAQO005 trusts: every mutation of a
``guarded-by`` binding inside a function body must be lexically
dominated by ``with <LOCK>:`` (module-level statements are exempt --
they run once, under the import lock).  It also audits
``lint: disable=RAQO005`` suppressions: a suppressed binding that is
mutated from functions with no lock held at all is a verified
thread-safety hole, not a style choice.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


#: Method calls that mutate the common container types.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "extend",
        "insert",
        "remove",
        "discard",
    }
)

#: binding name -> [(line, detail, locks held)] mutation sites.
_MutationSites = Dict[str, List[Tuple[int, str, Set[str]]]]


@dataclass(frozen=True)
class GuardViolation:
    """One unguarded mutation of a guard-claimed binding."""

    binding: str
    lock: Optional[str]  # the claimed lock; None for RAQO005 suppressions
    line: int
    detail: str


def _guard_claims(info: ModuleInfo) -> List[Tuple[str, Optional[str]]]:
    """(binding, claimed lock) for guard pragmas and RAQO005 suppressions.

    The lock is None for a suppression: it claims thread safety
    without naming a lock.
    """
    claims: List[Tuple[str, Optional[str]]] = []
    for top in info.tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for stmt in members:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            lock = info.guard_on_line(stmt.lineno)
            suppressed = info.line_suppressions.get(stmt.lineno, set())
            if lock is not None:
                claims.extend((name, lock) for name in names)
            elif {"RAQO005", "shared-mutable-state"} & suppressed:
                claims.extend((name, None) for name in names)
    return claims


def verify_guards(info: ModuleInfo) -> List[GuardViolation]:
    """All guard violations in one module."""
    claims = _guard_claims(info)
    if not claims:
        return []
    mutations = _function_mutations(info)
    violations: List[GuardViolation] = []
    for binding, lock in claims:
        sites = mutations.get(binding, [])
        if lock is not None:
            violations.extend(
                GuardViolation(binding, lock, line, detail)
                for line, detail, held in sites
                if lock not in held
            )
        elif sites and not any(held for _, _, held in sites):
            # A RAQO005 suppression is refuted when every mutation
            # site runs with no lock held at all.
            line, detail, _ = sites[0]
            violations.append(GuardViolation(binding, None, line, detail))
    return sorted(violations, key=lambda v: (v.line, v.binding, v.detail))


def _function_mutations(info: ModuleInfo) -> _MutationSites:
    """Mutation sites of module-level names inside function bodies.

    Module-level initialization runs once at import time and does not
    count.  Mutations of a *local* variable that merely shadows the
    module binding (a parameter or an in-function rebinding, without
    ``global``) are skipped.
    """
    sites: _MutationSites = {}
    for node in ast.walk(info.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _walk_function(node, _local_names(node), sites)
    return sites


def _local_names(
    function: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Set[str]:
    """Names the function binds locally (minus ``global`` escapes)."""
    local: Set[str] = set()
    globals_declared: Set[str] = set()
    args = function.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *filter(None, (args.vararg, args.kwarg)),
    ]:
        local.add(arg.arg)
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested functions have their own scope
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                local.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    local.add(item.optional_vars.id)
    return local - globals_declared


def _held_locks(stack: List["ast.With | ast.AsyncWith"]) -> Set[str]:
    """Lock names (bare and dotted) held by the enclosing ``with``s."""
    held: Set[str] = set()
    for with_node in stack:
        for item in with_node.items:
            name = dotted_name(item.context_expr)
            if name is None and isinstance(item.context_expr, ast.Call):
                name = dotted_name(item.context_expr.func)
            if name is not None:
                held.add(name.rsplit(".", 1)[-1])
                held.add(name)
    return held


def _walk_function(
    function: ast.AST, locals_bound: Set[str], sites: _MutationSites
) -> None:
    def visit(
        node: ast.AST, stack: List["ast.With | ast.AsyncWith"]
    ) -> None:
        if node is not function and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return  # handled by its own _walk_function pass
        if isinstance(node, (ast.With, ast.AsyncWith)):
            stack = stack + [node]
        target = _mutation_target(node)
        if target is not None and target[0] not in locals_bound:
            sites.setdefault(target[0], []).append(
                (getattr(node, "lineno", 1), target[1], _held_locks(stack))
            )
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(function, [])


def _mutation_target(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(binding, detail) when ``node`` mutates a module-level name."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                return (
                    target.value.id,
                    f"{target.value.id}[...] assignment",
                )
            if isinstance(target, ast.Name) and isinstance(
                node, ast.Assign
            ):
                # Rebinds only count when the name escapes via
                # ``global`` -- locally-shadowed names are filtered by
                # the caller's local-scope table.
                return (target.id, f"rebinding of {target.id}")
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                return (target.value.id, f"del {target.value.id}[...]")
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in _MUTATOR_METHODS
        ):
            return (func.value.id, f"{func.value.id}.{func.attr}(...)")
    return None


@register_rule
class UnverifiedLockGuardRule(Rule):
    """RAQO012: guard claims must match actual lock dominance."""

    id = "RAQO012"
    name = "unverified-lock-guard"
    description = (
        "a '# lint: guarded-by=<LOCK>' pragma (or a RAQO005 "
        "suppression) claims thread safety, but the binding is "
        "mutated from a function body without that lock held; the "
        "pragma documents a guarantee the code does not provide"
    )

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        for violation in verify_guards(info):
            anchor = ast.Pass(lineno=violation.line, col_offset=0)
            if violation.lock is not None:
                message = (
                    f"'{violation.binding}' is declared guarded-by="
                    f"{violation.lock}, but this mutation "
                    f"({violation.detail}) runs without "
                    f"'with {violation.lock}:' held"
                )
            else:
                message = (
                    f"'{violation.binding}' suppresses RAQO005, but "
                    f"every mutation site ({violation.detail} here) "
                    "runs with no lock held at all; the suppression "
                    "hides a real thread-safety hole"
                )
            yield self.finding(info, anchor, message)
