"""Static analysis for the RAQO reproduction's project invariants.

RAQO's headline results (switch-point surfaces, the 2x plan/resource
gap, cache-hit equivalence) only reproduce if the planner is
deterministic and the vectorized fast paths stay bit-identical to the
scalar reference.  Tests assert those invariants on examples; this
package *enforces* them on the source itself:

- :mod:`repro.analysis.framework` -- a small AST-based analysis
  framework: rule registry, per-module parse + suppression comments,
  an intra-package import graph for scoping rules to the code actually
  reachable from the planner or the serving worker pool, and a findings
  reporter with ``file:line:col`` output.
- :mod:`repro.analysis.rules` -- the concrete passes codifying the
  project invariants (determinism, float comparisons, thread safety,
  mutable defaults, positional resource indexing, public-API typing).
- :mod:`repro.analysis.plan_checks` -- a *runtime* semantic checker for
  plan well-formedness (tree shape, operator arity, table disjointness,
  by-name resource-dimension validation), callable from the CLI and
  from library code.

Run it as ``python -m repro.analysis src`` or ``repro lint``; exit code
0 means the tree is invariant-clean, 1 means findings were reported.
"""

from repro.analysis.framework import (
    AnalysisError,
    AnalysisSession,
    Finding,
    ModuleInfo,
    Rule,
    all_rules,
    iter_python_files,
    register_rule,
    run_analysis,
)
from repro.analysis.plan_checks import (
    PlanInvariantError,
    PlanIssue,
    check_plan,
    validate_plan,
)

# Importing the rule modules registers every concrete pass.
from repro.analysis import rules as _rules  # noqa: F401  (registration)

__all__ = [
    "AnalysisError",
    "AnalysisSession",
    "Finding",
    "ModuleInfo",
    "PlanInvariantError",
    "PlanIssue",
    "Rule",
    "all_rules",
    "check_plan",
    "iter_python_files",
    "register_rule",
    "run_analysis",
    "validate_plan",
]
