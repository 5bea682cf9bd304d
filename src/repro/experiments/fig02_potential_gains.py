"""Fig 2: potential gains of joint query and resource optimization.

The paper runs a join on TPC-H with different join implementations and
resource configurations in Hive and SparkSQL, and compares the plan the
*default* optimizer picks (the resource-oblivious 10 MB broadcast rule)
against the best plan for each configuration. "The plans chosen by the
default optimizer are up to twice slower and twice more resource demanding
than those chosen by picking the best plan for the given set of
resources."

For every resource configuration we report execution time and resources
used (TB*s) of both choices, plus the worst-case ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.containers import ResourceConfiguration
from repro.core.rules import DefaultThresholdRule
from repro.engine.joins import best_join, join_execution
from repro.engine.profiles import EngineProfile, HIVE_PROFILE, SPARK_PROFILE
from repro.experiments import workload
from repro.experiments.claims import EXACT, Claim, Figure, Table


@dataclass(frozen=True)
class GainPoint:
    """Default-choice vs best-choice at one resource configuration."""

    config: ResourceConfiguration
    default_time_s: float
    default_tb_s: float
    best_time_s: float
    best_tb_s: float

    @property
    def time_ratio(self) -> float:
        """How much slower the default optimizer's plan is."""
        return self.default_time_s / self.best_time_s

    @property
    def resource_ratio(self) -> float:
        """How much more resource-hungry the default plan is."""
        return self.default_tb_s / self.best_tb_s


@dataclass(frozen=True)
class PotentialGainsResult:
    """The Fig 2 series for one engine."""

    engine: str
    points: Tuple[GainPoint, ...]

    @property
    def max_time_ratio(self) -> float:
        """Worst slowdown from ignoring resources (paper: up to 2x)."""
        return max(point.time_ratio for point in self.points)

    @property
    def max_resource_ratio(self) -> float:
        """Worst resource overhead (paper: up to 2x)."""
        return max(point.resource_ratio for point in self.points)


def _engine_sizes(profile: EngineProfile) -> Tuple[float, float]:
    """(small, large) input sizes scaled to the engine's switch range."""
    if profile.name == "spark":
        # Spark switch points live in the hundreds-of-MB range (Fig 9b).
        return (0.4, 10.0)
    return (workload.ORDERS_LARGE_GB, workload.LINEITEM_GB)


def run(profile: EngineProfile = HIVE_PROFILE) -> PotentialGainsResult:
    """Sweep resource configurations, comparing default vs best choice."""
    small_gb, large_gb = _engine_sizes(profile)
    rule = DefaultThresholdRule(profile.default_broadcast_threshold_gb)
    points: List[GainPoint] = []
    configs = [
        ResourceConfiguration(num_containers=count, container_gb=size)
        for count in (5, 10, 20, 40)
        for size in (2.0, 3.0, 5.0, 7.0, 9.0, 10.0)
    ]
    for config in configs:
        default_algorithm = rule.choose(small_gb, large_gb, config)
        default_run = join_execution(
            default_algorithm, small_gb, large_gb, config, profile
        )
        best_run = best_join(small_gb, large_gb, config, profile)
        if not default_run.feasible or not best_run.feasible:
            continue
        points.append(
            GainPoint(
                config=config,
                default_time_s=default_run.time_s,
                default_tb_s=config.gb_seconds(default_run.time_s)
                / 1024.0,
                best_time_s=best_run.time_s,
                best_tb_s=config.gb_seconds(best_run.time_s) / 1024.0,
            )
        )
    return PotentialGainsResult(engine=profile.name, points=tuple(points))


def _gains_table(index: int, engine: str) -> Table:
    return Table(
        f"Fig 2 ({engine}): default optimizer vs "
        "query & resource optimization",
        (
            "config",
            "default time (s)",
            "best time (s)",
            "default TB*s",
            "best TB*s",
        ),
        lambda results: [
            (
                str(p.config),
                p.default_time_s,
                p.best_time_s,
                p.default_tb_s,
                p.best_tb_s,
            )
            for p in results[index].points
        ],
    )


FIGURE = Figure(
    "fig02",
    lambda: (run(HIVE_PROFILE), run(SPARK_PROFILE)),
    tables=(_gains_table(0, "hive"), _gains_table(1, "spark")),
    claims=(
        Claim(
            "fig02.hive_time_ratio", "Hive default plan slower by (worst)",
            "up to 2x", lambda r: r[0].max_time_ratio, ">=", 1.3, EXACT,
        ),
        Claim(
            "fig02.spark_time_ratio", "Spark default plan slower by (worst)",
            "up to 2x", lambda r: r[1].max_time_ratio, ">=", 1.2, EXACT,
        ),
        Claim(
            "fig02.hive_resource_ratio",
            "Hive default plan more resource-demanding by (worst)",
            "up to 2x", lambda r: r[0].max_resource_ratio, ">=", 1.3, EXACT,
        ),
    ),
)
