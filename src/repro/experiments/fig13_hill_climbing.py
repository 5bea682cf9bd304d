"""Fig 13: hill climbing vs brute force resource planning on TPC-H.

"Figure 13(a) shows the number of resource configurations explored using
hill climbing and brute force respectively. In general, hill climbing
explores 4 times less resource configurations than brute force ... We
observe similar improvements in runtime as well."
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Tuple

from repro.catalog import tpch
from repro.catalog.queries import Query
from repro.core.raqo import RaqoPlanner, ResourcePlanningMethod
from repro.experiments.claims import EXACT, TIMING, Claim, Figure, Table
from repro.experiments.fig12_tpch_planning import SCALE_FACTOR
from repro.planner.cost_interface import PlanningResult

#: Timed runs per method and query; each runtime is their median.
REPETITIONS = 5


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

    Each runtime is the median of :data:`REPETITIONS` runs, the two
    methods taking turns, after one untimed warm-up of each (the first
    ``optimize`` pays one-time costs). Every run gets a fresh planner:
    a reused one would serve searches from its cross-query memo, and
    later runs' timings would then depend on the ones before them.
    """
    if not queries:
        raise ValueError("queries must be non-empty")
    catalog = tpch.tpch_catalog(SCALE_FACTOR)
    methods = (
        ResourcePlanningMethod.BRUTE_FORCE,
        ResourcePlanningMethod.HILL_CLIMB,
    )

    def plan(
        query: Query, method: ResourcePlanningMethod
    ) -> PlanningResult:
        planner = RaqoPlanner(
            catalog, resource_method=method, cache_mode=None
        )
        return planner.optimize(query)

    rows = []
    for query in queries:
        brute, climb = (plan(query, method) for method in methods)
        runs: List[List[float]] = [[], []]
        for _ in range(REPETITIONS):
            for method, times in zip(methods, runs):
                times.append(plan(query, method).wall_time_s)
        brute_ms, climb_ms = (
            statistics.median(times) * 1000.0 for times in runs
        )
        rows.append(
            HillClimbRow(
                query=query.name,
                brute_force_iterations=brute.resource_iterations,
                hill_climb_iterations=climb.resource_iterations,
                brute_force_ms=brute_ms,
                hill_climb_ms=climb_ms,
            )
        )
    return HillClimbResult(rows=tuple(rows))


FIGURE = Figure(
    "fig13",
    run,
    tables=(
        Table(
            "Fig 13: hill climbing vs brute force (Selinger planner)",
            (
                "query",
                "brute force iters",
                "hill climb iters",
                "reduction",
                "brute force (ms)",
                "hill climb (ms)",
            ),
            lambda result: [
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
        ),
    ),
    claims=(
        Claim(
            "fig13.iteration_reduction",
            "explored-configuration reduction, mean over queries", "~4x",
            lambda r: r.mean_iteration_reduction, ">", 2.0, EXACT,
        ),
        Claim(
            "fig13.runtime_reduction",
            "brute force over hill climbing planning time, per query",
            "similar to the iteration reduction",
            lambda r: tuple(row.runtime_reduction for row in r.rows),
            ">", 1.0, TIMING, deviation="ROADMAP item 2",
        ),
    ),
)
