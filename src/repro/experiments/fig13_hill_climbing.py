"""Fig 13: hill climbing vs brute force resource planning on TPC-H.

"Figure 13(a) shows the number of resource configurations explored using
hill climbing and brute force respectively. In general, hill climbing
explores 4 times less resource configurations than brute force ... We
observe similar improvements in runtime as well."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.catalog import tpch
from repro.catalog.queries import Query
from repro.core.raqo import RaqoPlanner, ResourcePlanningMethod
from repro.experiments.fig12_tpch_planning import SCALE_FACTOR
from repro.experiments.report import print_table
from repro.planner.cost_interface import PlanningResult


@dataclass(frozen=True)
class HillClimbRow:
    """One query's brute-force vs hill-climbing comparison."""

    query: str
    brute_force_iterations: int
    hill_climb_iterations: int
    brute_force_ms: float
    hill_climb_ms: float

    @property
    def iteration_reduction(self) -> float:
        """Fewer configurations explored by HC (paper: ~4x)."""
        if self.hill_climb_iterations == 0:
            return float("inf")
        return self.brute_force_iterations / self.hill_climb_iterations

    @property
    def runtime_reduction(self) -> float:
        """Runtime improvement from HC (paper: similar to iterations)."""
        if self.hill_climb_ms == 0:
            return float("inf")
        return self.brute_force_ms / self.hill_climb_ms


@dataclass(frozen=True)
class HillClimbResult:
    """The Fig 13 series."""

    rows: Tuple[HillClimbRow, ...]

    @property
    def mean_iteration_reduction(self) -> float:
        """Average explored-configuration reduction across queries."""
        reductions = [row.iteration_reduction for row in self.rows]
        return sum(reductions) / len(reductions)


def run(
    queries: Tuple[Query, ...] = tpch.EVALUATION_QUERIES,
) -> HillClimbResult:
    """Compare both resource-planning methods per query.

    Each query gets fresh planners: a reused one would serve searches
    from its cross-query memo, and later queries' timings would then
    depend on the ones planned before them.
    """
    catalog = tpch.tpch_catalog(SCALE_FACTOR)

    def plan(
        query: Query, method: ResourcePlanningMethod
    ) -> PlanningResult:
        planner = RaqoPlanner(
            catalog, resource_method=method, cache_mode=None
        )
        return planner.optimize(query)

    rows = []
    for query in queries:
        brute = plan(query, ResourcePlanningMethod.BRUTE_FORCE)
        climb = plan(query, ResourcePlanningMethod.HILL_CLIMB)
        rows.append(
            HillClimbRow(
                query=query.name,
                brute_force_iterations=brute.resource_iterations,
                hill_climb_iterations=climb.resource_iterations,
                brute_force_ms=brute.wall_time_s * 1000.0,
                hill_climb_ms=climb.wall_time_s * 1000.0,
            )
        )
    return HillClimbResult(rows=tuple(rows))


def main() -> HillClimbResult:
    """Print the Fig 13 series."""
    result = run()
    print_table(
        [
            "query",
            "brute force iters",
            "hill climb iters",
            "reduction",
            "brute force (ms)",
            "hill climb (ms)",
        ],
        [
            (
                r.query,
                r.brute_force_iterations,
                r.hill_climb_iterations,
                f"{r.iteration_reduction:.1f}x",
                r.brute_force_ms,
                r.hill_climb_ms,
            )
            for r in result.rows
        ],
        title="Fig 13: hill climbing vs brute force (Selinger planner)",
    )
    print(
        "mean explored-configuration reduction: "
        f"{result.mean_iteration_reduction:.1f}x (paper: ~4x)"
    )
    return result


if __name__ == "__main__":
    main()
