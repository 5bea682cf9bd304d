"""Determinism passes: RAQO001 unseeded-random, RAQO002 wall-clock,
RAQO003 set-iteration-order.

The paper's switch-point surfaces and plan/resource comparisons only
reproduce when two identical planner invocations return identical
plans.  Three classic nondeterminism sources are banned at the source
level:

- *module-level RNG state* (``random.random()``, ``np.random.rand()``,
  or an unseeded ``np.random.default_rng()``): every random draw must
  flow through a seeded ``numpy.random.Generator`` handed in by the
  caller;
- *wall-clock reads in plan-affecting code* (``time.time()``,
  ``datetime.now()``): timing may be *measured* (``time.perf_counter``
  inside :class:`~repro.planner.cost_interface.Stopwatch`) but must
  never feed a planning decision;
- *set iteration feeding order-sensitive consumers* (``for`` loops,
  ``min``/``max``/``next``/``list``/``tuple``): set order is stable
  within one process but not across processes (hash randomization), so
  plan tie-breaks must sort first (``sorted(...)`` is fine).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.analysis.framework import (
    AnalysisSession,
    Finding,
    ModuleInfo,
    Rule,
    register_rule,
)
from repro.analysis.rules._ast_utils import (
    PLANNER_COST_ROOTS,
    dotted_name,
    is_set_expression,
)

#: numpy.random attributes that construct *seeded, caller-owned*
#: generators and are therefore allowed.
_ALLOWED_NP_RANDOM = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "default_rng",
}


def _alias_tables(
    tree: ast.Module,
) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
    """(stdlib-random, numpy, numpy.random, default_rng) alias names."""
    random_aliases: Set[str] = set()
    numpy_aliases: Set[str] = set()
    np_random_aliases: Set[str] = set()
    rng_factories: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "random":
                    random_aliases.add(bound)
                elif alias.name == "numpy":
                    numpy_aliases.add(bound)
                elif alias.name == "numpy.random":
                    if alias.asname:
                        np_random_aliases.add(alias.asname)
                    else:
                        numpy_aliases.add("numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        np_random_aliases.add(alias.asname or alias.name)
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name == "default_rng":
                        rng_factories.add(alias.asname or alias.name)
    return random_aliases, numpy_aliases, np_random_aliases, rng_factories


@register_rule
class UnseededRandomRule(Rule):
    """RAQO001: ban module-level RNG state; require seeded Generators."""

    id = "RAQO001"
    name = "unseeded-random"
    description = (
        "random draws must come from a seeded numpy.random.Generator "
        "passed in by the caller, never from module-level RNG state"
    )

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        randoms, numpys, np_randoms, rng_factories = _alias_tables(
            info.tree
        )
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield self.finding(
                        info,
                        node,
                        "import from the stdlib 'random' module; its "
                        "functions share hidden global RNG state",
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _ALLOWED_NP_RANDOM:
                            yield self.finding(
                                info,
                                node,
                                f"'from numpy.random import {alias.name}' "
                                "uses the legacy global RNG; construct a "
                                "seeded Generator via default_rng(seed)",
                            )
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    info, node, randoms, numpys, np_randoms, rng_factories
                )

    def _check_call(
        self,
        info: ModuleInfo,
        node: ast.Call,
        randoms: Set[str],
        numpys: Set[str],
        np_randoms: Set[str],
        rng_factories: Set[str],
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if (
            len(parts) == 1
            and parts[0] in rng_factories
            and not node.args
            and not node.keywords
        ):
            yield self.finding(
                info,
                node,
                "default_rng() without a seed is nondeterministic; "
                "pass an explicit seed",
            )
            return
        if len(parts) >= 2 and parts[0] in randoms:
            yield self.finding(
                info,
                node,
                f"call to '{name}' uses the stdlib global RNG; draw "
                "from a seeded numpy.random.Generator instead",
            )
            return
        attr = None
        if (
            len(parts) >= 3
            and parts[0] in numpys
            and parts[1] == "random"
        ):
            attr = parts[2]
        elif len(parts) >= 2 and parts[0] in np_randoms:
            attr = parts[1]
        if attr is None:
            return
        if attr not in _ALLOWED_NP_RANDOM:
            yield self.finding(
                info,
                node,
                f"call to '{name}' uses numpy's legacy global RNG; "
                "draw from a seeded Generator (default_rng(seed))",
            )
        elif attr == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                info,
                node,
                "default_rng() without a seed is nondeterministic; "
                "pass an explicit seed",
            )


def _banned_clock_calls(tree: ast.Module) -> Dict[str, str]:
    """Dotted call name -> why it is banned, per this module's imports."""
    banned: Dict[str, str] = {}
    wall = "reads the wall clock; planning code must be deterministic"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "time":
                    banned[f"{bound}.time"] = wall
                elif alias.name == "datetime":
                    for chain in (
                        f"{bound}.datetime.now",
                        f"{bound}.datetime.utcnow",
                        f"{bound}.datetime.today",
                        f"{bound}.date.today",
                    ):
                        banned[chain] = wall
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        banned[alias.asname or alias.name] = wall
            elif node.module == "datetime":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "datetime":
                        for attr in ("now", "utcnow", "today"):
                            banned[f"{bound}.{attr}"] = wall
                    elif alias.name == "date":
                        banned[f"{bound}.today"] = wall
    return banned


@register_rule
class WallClockRule(Rule):
    """RAQO002: no wall-clock reads in planner/cost paths."""

    id = "RAQO002"
    name = "wall-clock"
    description = (
        "time.time()/datetime.now() are banned in code reachable from "
        "the planners, cost models and simulated engine "
        "(time.perf_counter, used only for reported wall-time "
        "measurements, is allowed)"
    )
    scope_roots = PLANNER_COST_ROOTS

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        banned = _banned_clock_calls(info.tree)
        if not banned:
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in banned:
                yield self.finding(
                    info, node, f"call to '{name}' {banned[name]}"
                )


#: Builtins whose result depends on the *iteration order* of their
#: argument (min/max/next only through tie-breaks, which is exactly
#: where planner runs diverge).
_ORDER_SENSITIVE_CONSUMERS = {
    "min",
    "max",
    "next",
    "list",
    "tuple",
    "enumerate",
}


@register_rule
class SetIterationOrderRule(Rule):
    """RAQO003: set iteration must not feed order-sensitive consumers."""

    id = "RAQO003"
    name = "set-iteration-order"
    description = (
        "iterating a set into an order-sensitive consumer (for loops, "
        "min/max/next/list/tuple) makes plan tie-breaks depend on hash "
        "order; sort first (sorted(...) is always allowed)"
    )
    scope_roots = PLANNER_COST_ROOTS

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_expression(node.iter):
                    yield self.finding(
                        info,
                        node.iter,
                        "for-loop over a set: iteration order is "
                        "hash-dependent; iterate sorted(...) instead",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if is_set_expression(generator.iter):
                        yield self.finding(
                            info,
                            generator.iter,
                            "comprehension over a set: iteration order "
                            "is hash-dependent; iterate sorted(...) "
                            "instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_CONSUMERS
                    and node.args
                    and is_set_expression(node.args[0])
                ):
                    yield self.finding(
                        info,
                        node,
                        f"'{func.id}(...)' over a set depends on hash "
                        "iteration order for ties; sort first",
                    )
