"""Fig 14: effectiveness of the resource plan cache on TPC-H.

"Figures 14(a) and 14(b) show the number of resource configurations
explored and the planner runtime with and without the resource plan
cache ... (i) resource plan caching becomes more effective as we increase
the interpolation [threshold], and (ii) both the number of resources
configurations and the planner runtime decrease significantly with
resource plan caching (up to 10x planner time reduction for 0.1GB
threshold)."

All measurements use the TPC-H ``All`` query, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.catalog import tpch
from repro.catalog.queries import Query
from repro.core.plan_cache import LookupMode
from repro.core.raqo import RaqoPlanner
from repro.experiments.claims import EXACT, SHAPE, TIMING, Claim, Figure, Table
from repro.experiments.fig12_tpch_planning import SCALE_FACTOR

#: The paper's x-axis: data-delta thresholds in GB (0 = exact only).
THRESHOLDS_GB = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class CachePoint:
    """One (variant, threshold) measurement."""

    variant: str
    threshold_gb: float
    resource_iterations: int
    runtime_ms: float
    cache_hits: int
    cache_misses: int


@dataclass(frozen=True)
class PlanCacheResult:
    """The Fig 14 series."""

    baseline_iterations: int
    baseline_runtime_ms: float
    points: Tuple[CachePoint, ...]

    def best_iteration_reduction(self) -> float:
        """Largest explored-configuration reduction over the baseline."""
        best = min(
            point.resource_iterations for point in self.points
        )
        if best == 0:
            return float("inf")
        return self.baseline_iterations / best


def _measure(
    planner: RaqoPlanner, query: Query, repetitions: int
) -> Tuple[int, float, int, int]:
    iterations = hits = misses = 0
    total_s = 0.0
    for _ in range(repetitions):
        result = planner.optimize(query)
        iterations = result.resource_iterations
        hits = result.counters.cache_hits
        misses = result.counters.cache_misses
        total_s += result.wall_time_s
    return iterations, total_s / repetitions * 1000.0, hits, misses


def run(
    query: Query = tpch.QUERY_ALL, repetitions: int = 3
) -> PlanCacheResult:
    """Measure HC alone vs HC + caching variants over thresholds."""
    catalog = tpch.tpch_catalog(SCALE_FACTOR)
    # The within-run memo is disabled throughout so the figure isolates
    # the resource plan cache's contribution, as in the paper.
    baseline = RaqoPlanner(
        catalog, cache_mode=None, memoize_within_run=False
    )
    base_iters, base_ms, _, _ = _measure(baseline, query, repetitions)

    points = []
    for mode, variant in (
        (LookupMode.NEAREST, "HC+Caching_NN"),
        (LookupMode.WEIGHTED_AVERAGE, "HC+Caching_WA"),
    ):
        for threshold in THRESHOLDS_GB:
            planner = RaqoPlanner(
                catalog,
                cache_mode=mode,
                cache_threshold_gb=threshold,
                memoize_within_run=False,
            )
            iters, ms, hits, misses = _measure(
                planner, query, repetitions
            )
            points.append(
                CachePoint(
                    variant=variant,
                    threshold_gb=threshold,
                    resource_iterations=iters,
                    runtime_ms=ms,
                    cache_hits=hits,
                    cache_misses=misses,
                )
            )
    return PlanCacheResult(
        baseline_iterations=base_iters,
        baseline_runtime_ms=base_ms,
        points=tuple(points),
    )


def _runtime_reduction(result: PlanCacheResult) -> float:
    """Baseline over cached planner runtime at the 0.1 GB threshold
    (the better of the two lookup variants)."""
    fastest = min(
        p.runtime_ms for p in result.points if p.threshold_gb == 0.1
    )
    return result.baseline_runtime_ms / fastest


def _never_explores_more(result: PlanCacheResult) -> bool:
    """A larger threshold never explores more configurations."""
    series = [
        [p.resource_iterations for p in result.points if p.variant == v]
        for v in ("HC+Caching_NN", "HC+Caching_WA")
    ]
    return all(s == sorted(s, reverse=True) for s in series)


FIGURE = Figure(
    "fig14",
    run,
    tables=(
        Table(
            "Fig 14: resource plan cache effectiveness (TPC-H All)",
            (
                "variant",
                "threshold (GB)",
                "#resource iters",
                "runtime (ms)",
                "hits",
                "misses",
            ),
            lambda r: [
                (
                    "HillClimbing (no cache)",
                    "-",
                    r.baseline_iterations,
                    r.baseline_runtime_ms,
                    "-",
                    "-",
                )
            ]
            + [
                (
                    p.variant,
                    f"{p.threshold_gb:g}",
                    p.resource_iterations,
                    p.runtime_ms,
                    p.cache_hits,
                    p.cache_misses,
                )
                for p in r.points
            ],
        ),
    ),
    claims=(
        Claim(
            "fig14.iteration_reduction",
            "resource-planning overhead reduction (explored configs)",
            "up to 16x", lambda r: r.best_iteration_reduction(), ">", 4.0,
            EXACT,
        ),
        Claim(
            "fig14.runtime_reduction",
            "planner runtime reduction at 0.1 GB threshold", "up to 10x",
            _runtime_reduction, ">", 2.0, TIMING,
        ),
        Claim(
            "fig14.threshold_monotone",
            "a larger threshold never explores more configurations",
            "caching more effective as threshold grows",
            _never_explores_more, "==", True, SHAPE,
        ),
    ),
)
