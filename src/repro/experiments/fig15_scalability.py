"""Fig 15: RAQO scalability over schema size and cluster size.

(a) "To evaluate the scalability with schema sizes, we used the randomly
generated schema (consisting of 100 tables), and ran queries with
increasingly larger number of relations ... The cached version of RAQO
improves over the non-cached version by almost 6x, while it is slower
than the plain QO only by a factor of 1.29x on average."

(b) "We took the largest query ... and increased the maximum cluster
capacity from 100 to 100K containers (in multiples of 10) with maximum
container size from 10GB to 100GB ... Such across-query caching is indeed
useful after 10K containers, with almost 30% improvements in planner
runtime."

The FastRandomized planner drives both sweeps (Selinger's dynamic
programming cannot reach 100-relation queries). Hill-climb step sizes come
from the cluster conditions (Algorithm 1's ``GetDiscreteSteps``): the
driver scales the container-count step so each axis keeps ~100 discrete
levels as the cluster grows to 100K containers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.catalog.random_schema import (
    RandomSchemaConfig,
    random_catalog,
    random_query,
)
from repro.catalog.schema import Catalog
from repro.cluster.cluster import ClusterConditions
from repro.core.plan_cache import LookupMode
from repro.core.raqo import PlannerKind, RaqoPlanner
from repro.experiments.claims import EXACT, TIMING, Claim, Figure, Table

#: Default query-size sweep (paper: 1..100 relations on a 100-table
#: schema; the default keeps the pure-Python run short -- pass
#: ``full=True`` for the paper's full range).
DEFAULT_SIZES = (2, 5, 10, 15, 20, 25, 30)
FULL_SIZES = (2, 8, 15, 22, 29, 36, 43, 50, 58, 66, 72, 86, 100)

#: Fig 15(b) cluster scaling: containers x10 each step, sizes +10 GB.
DEFAULT_CONTAINER_SCALE = (100, 1_000, 10_000, 100_000)
DEFAULT_SIZE_SCALE_GB = (10.0, 40.0, 70.0, 100.0)


@dataclass(frozen=True)
class SchemaScalePoint:
    """One query size's planner runtimes (ms)."""

    query_size: int
    qo_ms: float
    raqo_ms: float
    raqo_cached_ms: float
    raqo_iterations: int
    raqo_cached_iterations: int


@dataclass(frozen=True)
class SchemaScaleResult:
    """The Fig 15(a) series."""

    points: Tuple[SchemaScalePoint, ...]

    @property
    def mean_cache_speedup(self) -> float:
        """Cached over non-cached RAQO runtime (paper: ~6x)."""
        ratios = [
            p.raqo_ms / p.raqo_cached_ms
            for p in self.points
            if p.raqo_cached_ms > 0
        ]
        return sum(ratios) / len(ratios)

    @property
    def mean_overhead_vs_qo(self) -> float:
        """Cached RAQO over plain QO runtime (paper: ~1.29x)."""
        ratios = [
            p.raqo_cached_ms / p.qo_ms
            for p in self.points
            if p.qo_ms > 0
        ]
        return sum(ratios) / len(ratios)


def _make_planner(
    catalog: Catalog,
    cluster: ClusterConditions,
    resource_aware: bool,
    cache_mode: Optional[LookupMode],
    cache_threshold_gb: float = 0.05,
    clear_cache: bool = True,
    iterations: int = 2,
    seed: int = 0,
) -> RaqoPlanner:
    return RaqoPlanner(
        catalog,
        cluster=cluster,
        planner_kind=PlannerKind.FAST_RANDOMIZED,
        resource_aware=resource_aware,
        cache_mode=cache_mode,
        cache_threshold_gb=cache_threshold_gb,
        clear_cache_between_queries=clear_cache,
        randomized_iterations=iterations,
        seed=seed,
        # Isolate the resource plan cache's contribution: the within-run
        # memo would absorb the exact-repeat hits the figure measures.
        memoize_within_run=False,
    )


def run_schema_scaling(
    sizes: Sequence[int] = DEFAULT_SIZES,
    num_tables: int = 100,
    seed: int = 7,
    iterations: int = 2,
) -> SchemaScaleResult:
    """Fig 15(a): QO vs RAQO vs RAQO+cache over query sizes."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    rng = np.random.default_rng(seed)
    catalog = random_catalog(
        RandomSchemaConfig(num_tables=num_tables), rng
    )
    cluster = ClusterConditions(max_containers=100, max_container_gb=10.0)
    qo = _make_planner(catalog, cluster, False, None, iterations=iterations)
    raqo = _make_planner(
        catalog, cluster, True, None, iterations=iterations
    )
    cached = _make_planner(
        catalog,
        cluster,
        True,
        LookupMode.NEAREST,
        iterations=iterations,
    )
    points = []
    for size in sizes:
        query = random_query(catalog, size, rng)
        qo_result = qo.optimize(query)
        raqo_result = raqo.optimize(query)
        cached_result = cached.optimize(query)
        points.append(
            SchemaScalePoint(
                query_size=size,
                qo_ms=qo_result.wall_time_s * 1000.0,
                raqo_ms=raqo_result.wall_time_s * 1000.0,
                raqo_cached_ms=cached_result.wall_time_s * 1000.0,
                raqo_iterations=raqo_result.resource_iterations,
                raqo_cached_iterations=(
                    cached_result.resource_iterations
                ),
            )
        )
    return SchemaScaleResult(points=tuple(points))


@dataclass(frozen=True)
class ResourceScalePoint:
    """One cluster condition's planner runtimes (ms)."""

    max_containers: int
    max_container_gb: float
    qo_ms: float
    raqo_ms: float
    raqo_across_query_ms: float
    raqo_iterations: int


@dataclass(frozen=True)
class ResourceScaleResult:
    """The Fig 15(b) series."""

    query_size: int
    points: Tuple[ResourceScalePoint, ...]

    def across_query_gain_at_scale(self) -> float:
        """Across-query caching speedup at the largest clusters
        (paper: ~30% after 10K containers)."""
        big = [
            p
            for p in self.points
            if p.max_containers >= 10_000 and p.raqo_across_query_ms > 0
        ]
        if not big:
            return 1.0
        ratios = [p.raqo_ms / p.raqo_across_query_ms for p in big]
        return sum(ratios) / len(ratios)


def scaled_cluster(
    max_containers: int, max_container_gb: float
) -> ClusterConditions:
    """Cluster conditions whose discrete granularity grows with scale.

    Algorithm 1 takes its step sizes from the cluster conditions
    (``GetDiscreteSteps``). Production-scale clusters expose coarser
    allocation steps, but the number of discrete levels still grows with
    the cluster (about 100 levels at 100 containers, ~3000 at 100K), so
    the resource-planning overhead rises with cluster size as in the
    paper's Fig 15(b).
    """
    levels = max(100, int(100 * (max_containers / 100) ** 0.5))
    return ClusterConditions(
        max_containers=max_containers,
        max_container_gb=max_container_gb,
        container_step=max(1, max_containers // levels),
        container_gb_step=max(1.0, max_container_gb / 100.0),
    )


def run_resource_scaling(
    query_size: int = 30,
    num_tables: int = 100,
    container_scale: Sequence[int] = DEFAULT_CONTAINER_SCALE,
    size_scale_gb: Sequence[float] = DEFAULT_SIZE_SCALE_GB,
    seed: int = 7,
    iterations: int = 1,
) -> ResourceScaleResult:
    """Fig 15(b): planner runtimes over growing cluster conditions."""
    if not container_scale or not size_scale_gb:
        raise ValueError(
            "container_scale and size_scale_gb must be non-empty"
        )
    rng = np.random.default_rng(seed)
    catalog = random_catalog(
        RandomSchemaConfig(num_tables=num_tables), rng
    )
    query = random_query(catalog, query_size, rng)
    points = []
    across = None  # built once; keeps its cache across conditions
    for max_containers in container_scale:
        for max_gb in size_scale_gb:
            cluster = scaled_cluster(max_containers, max_gb)
            qo = _make_planner(
                catalog, cluster, False, None, iterations=iterations
            )
            raqo = _make_planner(
                catalog,
                cluster,
                True,
                LookupMode.NEAREST,
                iterations=iterations,
            )
            if across is None:
                across = _make_planner(
                    catalog,
                    cluster,
                    True,
                    LookupMode.NEAREST,
                    clear_cache=False,
                    iterations=iterations,
                )
            qo_result = qo.optimize(query)
            raqo_result = raqo.optimize(query)
            across_result = across.replan(query, cluster)
            points.append(
                ResourceScalePoint(
                    max_containers=max_containers,
                    max_container_gb=max_gb,
                    qo_ms=qo_result.wall_time_s * 1000.0,
                    raqo_ms=raqo_result.wall_time_s * 1000.0,
                    raqo_across_query_ms=(
                        across_result.wall_time_s * 1000.0
                    ),
                    raqo_iterations=raqo_result.resource_iterations,
                )
            )
    return ResourceScaleResult(
        query_size=query_size, points=tuple(points)
    )


FIGURE = Figure(
    "fig15",
    lambda: (run_schema_scaling(), run_resource_scaling()),
    tables=(
        Table(
            "Fig 15(a): scalability over schema size",
            (
                "query size",
                "QO (ms)",
                "RAQO (ms)",
                "RAQO+cache (ms)",
                "RAQO iters",
                "cached iters",
            ),
            lambda r: [
                (
                    p.query_size,
                    p.qo_ms,
                    p.raqo_ms,
                    p.raqo_cached_ms,
                    p.raqo_iterations,
                    p.raqo_cached_iterations,
                )
                for p in r[0].points
            ],
        ),
        Table(
            "Fig 15(b): scalability over cluster conditions "
            "(30-relation query)",
            (
                "max containers",
                "max GB",
                "QO (ms)",
                "RAQO (ms)",
                "RAQO across-query (ms)",
                "RAQO iters",
            ),
            lambda r: [
                (
                    p.max_containers,
                    p.max_container_gb,
                    p.qo_ms,
                    p.raqo_ms,
                    p.raqo_across_query_ms,
                    p.raqo_iterations,
                )
                for p in r[1].points
            ],
        ),
    ),
    claims=(
        Claim(
            "fig15.cache_speedup", "(a) cached RAQO over non-cached",
            "~6x faster", lambda r: r[0].mean_cache_speedup, ">", 2.0,
            TIMING,
        ),
        Claim(
            "fig15.overhead_vs_qo", "(a) cached RAQO over plain QO",
            "1.29x slower", lambda r: r[0].mean_overhead_vs_qo, "<", 2.0,
            TIMING,
        ),
        Claim(
            "fig15.iterations_grow",
            "(b) explored configs, 100K over 100 containers",
            "negligible -> 5x overhead",
            lambda r: r[1].points[-1].raqo_iterations
            / r[1].points[0].raqo_iterations,
            ">", 1.0, EXACT,
        ),
        Claim(
            "fig15.across_query_gain",
            "(b) across-query caching speedup at >= 10K containers",
            "~30%", lambda r: r[1].across_query_gain_at_scale(), ">", 1.0,
            TIMING,
        ),
    ),
)
