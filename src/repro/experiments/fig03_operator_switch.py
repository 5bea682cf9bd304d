"""Fig 3: BHJ vs SMJ over varying resources in Hive (fixed data).

(a) a 5.1 GB orders table on 10 containers of 2-10 GB: "SMJ outperforms
BHJ for container sizes up to 7 GB, while BHJ is better for bigger
container sizes ... below 5 GB containers, BHJ is not an option as it
runs out of memory."

(b) a 3.4 GB orders table on 3 GB containers, 5-45 of them: "BHJ is
better than SMJ for less than 20 containers, SMJ benefits more from
increased parallelism and is twice faster than BHJ for 40 containers."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.containers import ResourceConfiguration
from repro.engine.joins import bhj_execution, smj_execution
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.experiments import workload
from repro.experiments.claims import EXACT, Claim, Figure, Table


@dataclass(frozen=True)
class SweepPoint:
    """SMJ and BHJ execution times at one resource configuration."""

    config: ResourceConfiguration
    smj_time_s: float
    bhj_time_s: float

    @property
    def bhj_feasible(self) -> bool:
        """False where BHJ hits its OOM wall."""
        return math.isfinite(self.bhj_time_s)

    @property
    def winner(self) -> str:
        """Which implementation is faster here."""
        return "BHJ" if self.bhj_time_s < self.smj_time_s else "SMJ"


@dataclass(frozen=True)
class OperatorSwitchResult:
    """Both Fig 3 sweeps."""

    container_size_sweep: Tuple[SweepPoint, ...]
    container_count_sweep: Tuple[SweepPoint, ...]

    def switch_container_gb(self) -> Optional[float]:
        """The container size where BHJ first beats SMJ (paper: ~7 GB)."""
        for point in self.container_size_sweep:
            if point.bhj_feasible and point.winner == "BHJ":
                return point.config.container_gb
        return None

    def switch_container_count(self) -> Optional[int]:
        """The container count where SMJ first beats BHJ (paper: ~20)."""
        for point in self.container_count_sweep:
            if point.winner == "SMJ":
                return point.config.num_containers
        return None


def _sweep_point(
    small_gb: float,
    large_gb: float,
    config: ResourceConfiguration,
    profile: EngineProfile,
) -> SweepPoint:
    return SweepPoint(
        config=config,
        smj_time_s=smj_execution(
            small_gb, large_gb, config, profile
        ).time_s,
        bhj_time_s=bhj_execution(
            small_gb, large_gb, config, profile
        ).time_s,
    )


def run(profile: EngineProfile = HIVE_PROFILE) -> OperatorSwitchResult:
    """Run both Fig 3 sweeps against the engine simulator."""
    size_sweep = tuple(
        _sweep_point(
            workload.ORDERS_LARGE_GB,
            workload.LINEITEM_GB,
            config,
            profile,
        )
        for config in workload.container_size_configs()
    )
    count_sweep = tuple(
        _sweep_point(
            workload.ORDERS_SMALL_GB,
            workload.LINEITEM_GB,
            config,
            profile,
        )
        for config in workload.container_count_configs()
    )
    return OperatorSwitchResult(
        container_size_sweep=size_sweep,
        container_count_sweep=count_sweep,
    )


def _bhj_min_feasible_gb(result: OperatorSwitchResult) -> float:
    """The smallest container size where BHJ fits (paper: 5 GB)."""
    return min(
        p.config.container_gb
        for p in result.container_size_sweep
        if p.bhj_feasible
    )


def _smj_speedup_at_40(result: OperatorSwitchResult) -> float:
    """BHJ time over SMJ time at 40 containers (paper: ~2x)."""
    (point,) = [
        p
        for p in result.container_count_sweep
        if p.config.num_containers == 40
    ]
    return point.bhj_time_s / point.smj_time_s


def _smj_size_spread(result: OperatorSwitchResult) -> float:
    """Slowest over fastest SMJ time across the container-size sweep."""
    times = [p.smj_time_s for p in result.container_size_sweep]
    return max(times) / min(times)


FIGURE = Figure(
    "fig03",
    run,
    tables=(
        Table(
            "Fig 3(a): varying container size "
            f"(orders={workload.ORDERS_LARGE_GB} GB, "
            f"nc={workload.CONTAINER_SIZE_SWEEP_NC})",
            ("container size (GB)", "SMJ (s)", "BHJ (s)", "winner"),
            lambda r: [
                (p.config.container_gb, p.smj_time_s, p.bhj_time_s, p.winner)
                for p in r.container_size_sweep
            ],
        ),
        Table(
            "Fig 3(b): varying #containers "
            f"(orders={workload.ORDERS_SMALL_GB} GB, "
            f"cs={workload.CONTAINER_COUNT_SWEEP_GB} GB)",
            ("#containers", "SMJ (s)", "BHJ (s)", "winner"),
            lambda r: [
                (
                    p.config.num_containers,
                    p.smj_time_s,
                    p.bhj_time_s,
                    p.winner,
                )
                for p in r.container_count_sweep
            ],
        ),
    ),
    claims=(
        Claim(
            "fig03.switch_gb", "(a) switch container size (GB)", "7 GB",
            lambda r: r.switch_container_gb(), "==", 7.0, EXACT,
        ),
        Claim(
            "fig03.bhj_min_feasible_gb",
            "(a) smallest container size BHJ fits in (GB)", "5 GB",
            _bhj_min_feasible_gb, "==", 5.0, EXACT,
        ),
        Claim(
            "fig03.switch_count", "(b) switch container count", "20",
            lambda r: r.switch_container_count(), "==", 20, EXACT,
        ),
        Claim(
            "fig03.smj_speedup_40", "(b) SMJ speedup over BHJ at 40",
            "~2x", _smj_speedup_at_40, ">=", 1.6, EXACT,
        ),
        Claim(
            "fig03.smj_size_spread",
            "(a) SMJ slowest/fastest over container size",
            "relatively stable", _smj_size_spread, "<", 1.01, EXACT,
        ),
    ),
)
