"""Fig 5: join order decisions over varying resources in Hive.

The paper's two-way join query (a simplified TPC-H Q3):
``select * from customer, orders, lineitem where c_custkey = o_custkey
and l_orderkey = o_orderkey``, with ``orders`` subsampled to 850 MB "so
that we can employ more BHJs, and make the plan choice more interesting".

- **Plan 1** first performs a BHJ between lineitem and orders (broadcasting
  orders), then a BHJ with customer.
- **Plan 2** follows a different join order: a BHJ between orders and
  customer, then an SMJ with lineitem.

Paper findings reproduced: container size barely affects either plan and
plan 1 wins across the container-size sweep (but has an OOM wall at small
containers), while growing the number of concurrent containers eventually
makes plan 2 the winner (the paper's crossover is at 32 containers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.catalog.join_graph import JoinEdge, JoinGraph
from repro.catalog.schema import Catalog, Schema, Table
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.containers import ResourceConfiguration
from repro.engine.executor import execute_plan
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.experiments import claims
from repro.experiments.claims import EXACT, SHAPE, Claim, Figure
from repro.planner.plan import JoinNode, PlanNode, ScanNode

#: SF-100 cardinalities; orders subsampled to ~850 MB as in the paper.
FULL_ORDERS_ROWS = 150_000_000
SAMPLED_ORDERS_ROWS = 7_540_000  # ~850 MB at 121 B/row
CUSTOMER_ROWS = 15_000_000
LINEITEM_ROWS = 600_000_000


def q3_catalog(
    sampled_orders_rows: int = SAMPLED_ORDERS_ROWS,
) -> Catalog:
    """The paper's Fig 5 catalog: customer, sampled orders, lineitem.

    The lineitem-orders selectivity stays ``1/|full orders|`` -- sampling
    orders removes matching lineitems rather than densifying the join.
    """
    schema = Schema(
        "fig5",
        tables=[
            Table("customer", CUSTOMER_ROWS, row_width_bytes=179),
            Table("orders", sampled_orders_rows, row_width_bytes=121),
            Table("lineitem", LINEITEM_ROWS, row_width_bytes=129),
        ],
    )
    graph = JoinGraph(
        edges=[
            JoinEdge(
                "orders",
                "customer",
                selectivity=1.0 / CUSTOMER_ROWS,
                left_column="o_custkey",
                right_column="c_custkey",
            ),
            JoinEdge(
                "lineitem",
                "orders",
                selectivity=1.0 / FULL_ORDERS_ROWS,
                left_column="l_orderkey",
                right_column="o_orderkey",
            ),
        ]
    )
    return Catalog(schema=schema, join_graph=graph)


def plan_one() -> PlanNode:
    """Plan 1: BHJ(lineitem, orders) then BHJ with customer."""
    return JoinNode(
        left=JoinNode(
            left=ScanNode("lineitem"),
            right=ScanNode("orders"),
            algorithm=JoinAlgorithm.BROADCAST_HASH,
        ),
        right=ScanNode("customer"),
        algorithm=JoinAlgorithm.BROADCAST_HASH,
    )


def plan_two() -> PlanNode:
    """Plan 2: BHJ(orders, customer) then SMJ with lineitem."""
    return JoinNode(
        left=JoinNode(
            left=ScanNode("orders"),
            right=ScanNode("customer"),
            algorithm=JoinAlgorithm.BROADCAST_HASH,
        ),
        right=ScanNode("lineitem"),
        algorithm=JoinAlgorithm.SORT_MERGE,
    )


@dataclass(frozen=True)
class JoinOrderPoint:
    """Both plans' execution times at one configuration."""

    config: ResourceConfiguration
    plan1_time_s: float
    plan2_time_s: float

    @property
    def winner(self) -> str:
        """The faster plan at this point."""
        if not math.isfinite(self.plan1_time_s):
            return "Plan 2"
        return (
            "Plan 1"
            if self.plan1_time_s <= self.plan2_time_s
            else "Plan 2"
        )


@dataclass(frozen=True)
class JoinOrderResult:
    """Both Fig 5 sweeps."""

    container_size_sweep: Tuple[JoinOrderPoint, ...]
    container_count_sweep: Tuple[JoinOrderPoint, ...]

    def crossover_containers(self) -> Optional[int]:
        """The container count where plan 2 overtakes (paper: 32)."""
        for point in self.container_count_sweep:
            if point.winner == "Plan 2" and math.isfinite(
                point.plan1_time_s
            ):
                return point.config.num_containers
        return None


def run(profile: EngineProfile = HIVE_PROFILE) -> JoinOrderResult:
    """Execute both plans over both resource sweeps."""
    estimator = StatisticsEstimator(q3_catalog())

    def point(config: ResourceConfiguration) -> JoinOrderPoint:
        one = execute_plan(
            plan_one(), estimator, profile, default_resources=config
        )
        two = execute_plan(
            plan_two(), estimator, profile, default_resources=config
        )
        return JoinOrderPoint(
            config=config,
            plan1_time_s=one.time_s,
            plan2_time_s=two.time_s,
        )

    size_sweep = tuple(
        point(ResourceConfiguration(num_containers=10, container_gb=size))
        for size in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    )
    count_sweep = tuple(
        point(ResourceConfiguration(num_containers=count, container_gb=3.0))
        for count in (8, 12, 16, 20, 24, 28, 32, 36, 40, 44)
    )
    return JoinOrderResult(
        container_size_sweep=size_sweep,
        container_count_sweep=count_sweep,
    )


def _plan2_size_spread(result: JoinOrderResult) -> float:
    """Plan 2's slowest over fastest time across container sizes."""
    times = [p.plan2_time_s for p in result.container_size_sweep]
    return max(times) / min(times)


def _plan1_min_feasible_gb(result: JoinOrderResult) -> float:
    """The smallest container size plan 1 fits in."""
    return min(
        p.config.container_gb
        for p in result.container_size_sweep
        if math.isfinite(p.plan1_time_s)
    )


def _plan1_wins_where_feasible(result: JoinOrderResult) -> bool:
    return all(
        p.winner == "Plan 1"
        for p in result.container_size_sweep
        if math.isfinite(p.plan1_time_s)
    )


FIGURE = Figure(
    "fig05",
    run,
    tables=(
        claims.Table(
            "Fig 5(a): join orders over container size (nc=10)",
            ("container size (GB)", "Plan 1 (s)", "Plan 2 (s)", "winner"),
            lambda r: [
                (
                    p.config.container_gb,
                    p.plan1_time_s,
                    p.plan2_time_s,
                    p.winner,
                )
                for p in r.container_size_sweep
            ],
        ),
        claims.Table(
            "Fig 5(b): join orders over #containers (cs=3 GB)",
            ("#containers", "Plan 1 (s)", "Plan 2 (s)", "winner"),
            lambda r: [
                (
                    p.config.num_containers,
                    p.plan1_time_s,
                    p.plan2_time_s,
                    p.winner,
                )
                for p in r.container_count_sweep
            ],
        ),
    ),
    claims=(
        Claim(
            "fig05.plan2_size_spread",
            "plan 2 slowest/fastest over container size", "insignificant",
            _plan2_size_spread, "<", 1.1, EXACT,
        ),
        Claim(
            "fig05.plan1_wins_sizes",
            "plan 1 wins across container sizes (where it fits)", "yes",
            _plan1_wins_where_feasible, "==", True, SHAPE,
        ),
        Claim(
            "fig05.plan1_min_feasible_gb",
            "smallest container size plan 1 fits in (GB)", "6 GB",
            _plan1_min_feasible_gb, ">", 2.0, EXACT,
        ),
        Claim(
            "fig05.crossover", "plan 2 overtakes at (#containers)", "32",
            lambda r: r.crossover_containers(), "[]", (24, 44), EXACT,
        ),
    ),
)
