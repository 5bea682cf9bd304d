"""Fig 17 (extension): latency/dollar Pareto frontiers per query.

The paper's Sec VII collapses the latency-vs-money trade-off to one
scalarised argmin per query; this experiment shows the *shape* of the
trade-off the scalar knob hides. For each TPC-H evaluation query and
each cluster size, the joint plan's full per-stage resource frontier is
computed (:func:`repro.core.pareto.compute_frontier` via
``objective=PlanObjective.pareto()``) and summarised: how many
non-dominated operating points exist, how far apart the fastest and
cheapest points sit (the latency span you can sell for dollars), and
how many dominated (stage x configuration) candidates the skyline
pruned to get there.

Two regularities the table makes visible:

- Bigger clusters widen the frontier: more feasible configurations per
  stage means more distinct trade-off points and a larger
  fastest-to-cheapest dollar ratio.
- Deeper plans (more joins) multiply frontier points through the
  Minkowski fold of per-stage frontiers -- the trade-off is richer for
  exactly the queries where resource planning matters most.

Everything is a pure function of the catalog, cluster grid, and cost
model, so the table is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api import PlanObjective, RaqoSession
from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.pareto import ParetoPlanningResult
from repro.core.raqo import ResourcePlanningMethod
from repro.experiments.claims import Figure, Table

#: Cluster sizes swept: (max_containers, max_container_gb).
CLUSTER_SIZES: Tuple[Tuple[int, float], ...] = (
    (10, 4.0),
    (20, 6.0),
    (40, 8.0),
)

#: TPC-H scale factor (the paper's evaluation scale).
SCALE_FACTOR = 100.0


@dataclass(frozen=True)
class FrontierPoint:
    """One (query, cluster) cell: the frontier's summary statistics."""

    query: str
    max_containers: int
    max_container_gb: float
    frontier_size: int
    fastest_s: float
    fastest_dollars: float
    cheapest_s: float
    cheapest_dollars: float
    dominated_pruned: int

    @property
    def dollar_ratio(self) -> float:
        """How much the fastest point costs over the cheapest."""
        if self.cheapest_dollars <= 0.0:
            return 1.0
        return self.fastest_dollars / self.cheapest_dollars


@dataclass(frozen=True)
class FrontierResult:
    """The full sweep: (query, containers) -> frontier summary."""

    points: Tuple[FrontierPoint, ...]


def run(
    cluster_sizes: Tuple[Tuple[int, float], ...] = CLUSTER_SIZES,
    scale_factor: float = SCALE_FACTOR,
) -> FrontierResult:
    """Compute frontier summaries for every evaluation query/cluster."""
    catalog = tpch.tpch_catalog(scale_factor)
    points: List[FrontierPoint] = []
    for max_containers, max_container_gb in cluster_sizes:
        session = RaqoSession(
            catalog,
            cluster=ClusterConditions(
                max_containers=max_containers,
                max_container_gb=max_container_gb,
            ),
            resource_method=ResourcePlanningMethod.BRUTE_FORCE,
            objective=PlanObjective.pareto(),
        )
        for query in tpch.EVALUATION_QUERIES:
            result = session.plan(query)
            assert isinstance(result, ParetoPlanningResult)
            frontier = result.frontier
            assert frontier is not None and frontier.points
            fastest = frontier.points[0]
            cheapest = frontier.points[-1]
            points.append(
                FrontierPoint(
                    query=query.name,
                    max_containers=max_containers,
                    max_container_gb=max_container_gb,
                    frontier_size=len(frontier),
                    fastest_s=fastest.time_s,
                    fastest_dollars=fastest.money,
                    cheapest_s=cheapest.time_s,
                    cheapest_dollars=cheapest.money,
                    dominated_pruned=frontier.dominated_pruned,
                )
            )
    return FrontierResult(points=tuple(points))


FIGURE = Figure(
    "fig17",
    run,
    tables=(
        Table(
            "Fig 17: latency/dollar Pareto frontier per query",
            (
                "query",
                "cluster",
                "points",
                "fastest (s)",
                "$ fastest",
                "cheapest (s)",
                "$ cheapest",
                "$ ratio",
                "pruned",
            ),
            lambda r: [
                (
                    point.query,
                    f"{point.max_containers}x{point.max_container_gb:g}GB",
                    point.frontier_size,
                    f"{point.fastest_s:.1f}",
                    f"${point.fastest_dollars:.3f}",
                    f"{point.cheapest_s:.1f}",
                    f"${point.cheapest_dollars:.3f}",
                    f"{point.dollar_ratio:.2f}x",
                    point.dominated_pruned,
                )
                for point in r.points
            ],
        ),
    ),
)
