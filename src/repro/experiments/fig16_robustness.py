"""Fig 16 (extension): plan robustness under deterministic fault injection.

The paper argues resource-aware plans are better placed on shared,
volatile clusters; this experiment makes that claim measurable. A seeded
workload is planned twice -- jointly (RAQO) and with the two-step
baseline (join order first, static default resources later) -- and both
plan sets execute under increasing fault intensity: container
preemptions, memory-pressure-scaled OOM kills, and stragglers, with the
stock recovery policy (capped-backoff retries, speculation, BHJ -> SMJ
degradation).

Because injected OOM kills scale with how close an operator sits to its
hash-budget wall, plans that chose containers with memory headroom (the
resource-aware ones) are structurally less exposed: they see fewer OOM
kills, degrade fewer BHJ stages, and their slowdown-vs-fault-free curve
rises more slowly than the baseline's. Every number is a pure function
of the seeds, so the sweep is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.api import RaqoSession
from repro.catalog import tpch
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.experiments.claims import Figure, Table
from repro.faults.model import FaultPlan, FaultSpec
from repro.faults.recovery import DEFAULT_RECOVERY
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.runner import WorkloadReport

#: Fault intensities swept (the base OOM rate; preemption and straggler
#: rates scale at half intensity).
FAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4)

#: Workload generator / fault seed.
SEED = 11

#: Queries in the robustness workload.
NUM_QUERIES = 10


def fault_spec_for(intensity: float, seed: int = SEED) -> FaultSpec:
    """The fault mix at one sweep intensity."""
    return FaultSpec(
        seed=seed,
        preemption_rate=intensity / 2.0,
        oom_rate=intensity,
        straggler_rate=intensity / 2.0,
        straggler_slowdown=3.0,
    )


@dataclass(frozen=True)
class RobustnessPoint:
    """One (planner, intensity) cell of the sweep."""

    label: str
    intensity: float
    executed_time_s: float
    gb_seconds: float
    faults_injected: int
    retries: int
    degraded_stages: int
    failed_queries: int
    #: Executed time over the same planner's fault-free time.
    slowdown: float


@dataclass(frozen=True)
class RobustnessResult:
    """The full sweep: planner label -> ordered intensity points."""

    series: Dict[str, Tuple[RobustnessPoint, ...]]

    def slowdown_at(self, label: str, intensity: float) -> float:
        """The slowdown of one planner at one intensity."""
        for point in self.series[label]:
            if point.intensity == intensity:
                return point.slowdown
        raise KeyError(f"no point at intensity {intensity} for {label}")

    def max_slowdown(self, label: str) -> float:
        """The worst slowdown a planner's plans suffered in the sweep."""
        return max(point.slowdown for point in self.series[label])


def _point(
    label: str, intensity: float, report: WorkloadReport, base_time_s: float
) -> RobustnessPoint:
    return RobustnessPoint(
        label=label,
        intensity=intensity,
        executed_time_s=report.total_executed_time_s,
        gb_seconds=sum(
            o.executed_gb_seconds for o in report.outcomes
        ),
        faults_injected=report.total_faults_injected,
        retries=report.total_retries,
        degraded_stages=report.total_degraded_stages,
        failed_queries=report.infeasible_queries,
        slowdown=(
            report.total_executed_time_s / base_time_s
            if base_time_s > 0
            else float("inf")
        ),
    )


def run(
    profile: EngineProfile = HIVE_PROFILE,
    intensities: Tuple[float, ...] = FAULT_INTENSITIES,
    num_queries: int = NUM_QUERIES,
    seed: int = SEED,
) -> RobustnessResult:
    """Sweep fault intensity against plan choice."""
    catalog = tpch.tpch_catalog(100)
    queries = generate_workload(
        catalog,
        WorkloadSpec(num_queries=num_queries),
        np.random.default_rng(seed),
    )
    sessions = {
        "raqo": RaqoSession(catalog, profile),
        "two_step": RaqoSession(catalog, profile, resource_aware=False),
    }
    series: Dict[str, Tuple[RobustnessPoint, ...]] = {}
    for label, session in sessions.items():
        points: List[RobustnessPoint] = []
        base_time_s = 0.0
        for intensity in intensities:
            spec = fault_spec_for(intensity, seed)
            report = session.workload(
                queries,
                label=label,
                faults=FaultPlan(spec),
                recovery=DEFAULT_RECOVERY,
            )
            if intensity == 0.0:
                base_time_s = report.total_executed_time_s
            points.append(
                _point(label, intensity, report, base_time_s)
            )
        series[label] = tuple(points)
    return RobustnessResult(series=series)


FIGURE = Figure(
    "fig16",
    run,
    tables=(
        Table(
            "Fig 16: executed-time degradation under fault injection "
            f"({NUM_QUERIES} queries, seed {SEED})",
            (
                "planner",
                "intensity",
                "time (s)",
                "slowdown",
                "faults",
                "retries",
                "degraded",
                "failed",
            ),
            lambda r: [
                (
                    label,
                    point.intensity,
                    round(point.executed_time_s, 1),
                    round(point.slowdown, 3),
                    point.faults_injected,
                    point.retries,
                    point.degraded_stages,
                    point.failed_queries,
                )
                for label, points in r.series.items()
                for point in points
            ],
        ),
    ),
)
