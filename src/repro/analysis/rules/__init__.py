"""Concrete analysis passes codifying the project invariants.

Importing this package registers every rule with the framework's
registry (see :func:`repro.analysis.framework.register_rule`):

- :mod:`determinism` -- RAQO001 unseeded-random, RAQO002 wall-clock,
  RAQO003 set-iteration-order;
- :mod:`comparisons` -- RAQO004 float-cost-compare;
- :mod:`safety` -- RAQO005 shared-mutable-state, RAQO006
  mutable-default-arg;
- :mod:`plan_shape` -- RAQO007 positional-dimension-index;
- :mod:`typing_gate` -- RAQO008 untyped-public-api;
- :mod:`batching` -- RAQO010 per-candidate-costing-loop;
- :mod:`whole_program` -- RAQO011 transitive-nondeterminism, RAQO012
  unverified-lock-guard, RAQO013 unit-mismatch, RAQO014
  unpicklable-process-state, RAQO015 dead-suppression (whole-program
  passes over the shared call graph, see :mod:`repro.analysis.flow`).
"""

from repro.analysis.rules import (  # noqa: F401  (registration imports)
    batching,
    comparisons,
    determinism,
    plan_shape,
    safety,
    typing_gate,
    whole_program,
)

__all__ = [
    "batching",
    "comparisons",
    "determinism",
    "plan_shape",
    "safety",
    "typing_gate",
    "whole_program",
]
