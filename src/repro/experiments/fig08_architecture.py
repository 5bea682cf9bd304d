"""Fig 8: the big data system stack, current practice vs the RAQO vision.

The paper's architecture figure as a structural description mapping
each layer of both stacks to the package that implements it in this
reproduction -- the evidence that the RAQO layer exists as one component
here rather than two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.claims import Figure, Table

#: (layer, examples, implementing package) for the current-practice stack.
CURRENT_STACK: Tuple[Tuple[str, str, str], ...] = (
    (
        "Declarative System [Query Optimization]",
        "SCOPE, Hive, SparkSQL",
        "repro.planner (Selinger, FastRandomized)",
    ),
    (
        "Dataflow/Runtime [Resource Configuration]",
        "Dryad, Tez, SparkCore",
        "repro.engine (executor, dataflow)",
    ),
    (
        "Resource Manager",
        "Apollo, YARN, Mesos",
        "repro.cluster (resource_manager, rm_api)",
    ),
    (
        "Physical Resources",
        "Azure, EC2, GoogleCompute",
        "repro.cluster (containers, cluster)",
    ),
)

#: The RAQO stack: one combined optimization layer.
RAQO_STACK: Tuple[Tuple[str, str, str], ...] = (
    (
        "Declarative Language",
        "SCOPE, HiveQL, SparkSQL",
        "repro.catalog (queries)",
    ),
    (
        "Resource & Query Optimization (RAQO)",
        "this paper",
        "repro.core (raqo, rules, resource_planner, plan_cache)",
    ),
    (
        "Dataflow/Runtime",
        "Dryad, Tez, SparkCore",
        "repro.engine (executor, runtime)",
    ),
    (
        "Resource Manager",
        "Apollo, YARN, Mesos",
        "repro.cluster (resource_manager, scheduler, rm_api)",
    ),
    (
        "Physical Resources",
        "Azure, EC2, GoogleCompute",
        "repro.cluster (containers, cluster)",
    ),
)


@dataclass(frozen=True)
class ArchitectureResult:
    """Both stacks plus the layer -> package mapping."""

    current: Tuple[Tuple[str, str, str], ...]
    raqo: Tuple[Tuple[str, str, str], ...]

    def package_mapping(self) -> Dict[str, str]:
        """Layer name -> implementing package for the RAQO stack."""
        return {layer: package for layer, _, package in self.raqo}

    @property
    def optimization_layers_current(self) -> int:
        """Layers performing optimization in the two-step stack."""
        return sum(
            1 for layer, _, _ in self.current if "Optimiz" in layer
            or "Configuration" in layer
        )

    @property
    def optimization_layers_raqo(self) -> int:
        """Layers performing optimization in the RAQO stack (one)."""
        return sum(
            1 for layer, _, _ in self.raqo if "Optimization" in layer
        )


def run() -> ArchitectureResult:
    """Return the structural Fig 8 description."""
    return ArchitectureResult(current=CURRENT_STACK, raqo=RAQO_STACK)


FIGURE = Figure(
    "fig08",
    run,
    tables=(
        Table(
            "(a) Current practice: two separate steps",
            ("layer", "e.g.", "implemented by"),
            lambda r: r.current,
        ),
        Table(
            "(b) The RAQO vision: one combined layer",
            ("layer", "e.g.", "implemented by"),
            lambda r: r.raqo,
        ),
    ),
)
