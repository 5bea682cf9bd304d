"""Concrete analysis passes codifying the project invariants.

Importing this package registers every rule with the framework's
registry (see :func:`repro.analysis.framework.register_rule`):

- :mod:`determinism` -- RAQO001 unseeded-random, RAQO002 wall-clock,
  RAQO003 set-iteration-order;
- :mod:`comparisons` -- RAQO004 float-cost-compare;
- :mod:`safety` -- RAQO005 shared-mutable-state, RAQO006
  mutable-default-arg, RAQO012 unverified-lock-guard;
- :mod:`plan_shape` -- RAQO007 positional-dimension-index;
- :mod:`typing_gate` -- RAQO008 untyped-public-api;
- :mod:`batching` -- RAQO010 per-candidate-costing-loop;
- :mod:`suppressions` -- RAQO015 dead-suppression.
"""

from repro.analysis.rules import (  # noqa: F401  (registration imports)
    batching,
    comparisons,
    determinism,
    plan_shape,
    safety,
    suppressions,
    typing_gate,
)

__all__ = [
    "batching",
    "comparisons",
    "determinism",
    "plan_shape",
    "safety",
    "suppressions",
    "typing_gate",
]
