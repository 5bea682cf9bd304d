"""The costing seam between query planners and (resource-aware) cost models.

The paper integrates resource planning into query planning through a single
method: "we extended the ``getPlanCost`` method of our cost model to first
perform the resource planning (or lookup in the cache) and then return the
sub-plan cost" (Sec VI-C). :class:`PlanCoster` is that seam: both the
Selinger and the FastRandomized planner only ever talk to a coster, so the
plain query optimizer (fixed resources) and cost-based RAQO (per-operator
resource planning) are interchangeable.

:class:`PlanningContext` carries everything a costing call may need --
catalog statistics, current cluster conditions -- and the counters the
paper's evaluation reports (#resource configurations explored, planner
wall-clock time).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.catalog.queries import Query
from repro.catalog.statistics import StatisticsEstimator
from repro.units import GB
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.engine.joins import JoinAlgorithm
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.planner.plan import CandidateBatch, JoinNode, PlanNode

#: The payload carried alongside a :class:`Cost` in frontier entries
#: (a plan, a configuration tuple -- :func:`frontier` never inspects it).
T = TypeVar("T")


@dataclass(frozen=True)
class Cost:
    """A multi-objective plan cost: execution time and monetary cost.

    Planners minimizing a single objective use :meth:`scalar`; the
    multi-objective FastRandomized planner uses Pareto :meth:`dominates`.
    """

    time_s: float
    money: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.time_s + other.time_s, self.money + other.money)

    def scalar(self, time_weight: float = 1.0, money_weight: float = 0.0) -> float:
        """Weighted scalarisation of the cost vector."""
        return time_weight * self.time_s + money_weight * self.money

    def dominates(self, other: "Cost") -> bool:
        """Strict Pareto dominance: no worse in both, strictly better in one.

        The boundary case matters: a cost that is *equal* to ``other``
        in both objectives does **not** dominate it -- dominance is
        irreflexive (``c.dominates(c)`` is always ``False``).  Weak
        dominance (``<=`` in both without the strict clause) would let
        two equal costs eliminate each other, leaving Pareto frontiers
        dependent on comparison order; every frontier in this codebase
        (:func:`frontier`, the skyline pass in :mod:`repro.core.pareto`,
        and the randomized planner's approximate frontier) builds on the
        strict form.
        """
        return (
            self.time_s <= other.time_s
            and self.money <= other.money
            and (self.time_s < other.time_s or self.money < other.money)
        )

    @property
    def is_finite(self) -> bool:
        """False when the plan is infeasible under the given resources."""
        return math.isfinite(self.time_s) and math.isfinite(self.money)


def frontier(
    entries: Sequence[Tuple[T, Cost]],
) -> List[Tuple[T, Cost]]:
    """The exact Pareto frontier of ``(item, cost)`` pairs.

    Returns the pairs no other entry :meth:`Cost.dominates`, sorted by
    ascending ``time_s`` (and therefore strictly descending ``money``).
    Infeasible costs are dropped.  When several entries carry exactly
    equal ``(time_s, money)`` vectors -- none dominates the others --
    only the first in input order survives, so the result is
    deterministic and duplicate-free regardless of how candidates were
    enumerated.

    This is the single reference implementation both Pareto consumers
    defer to: the randomized planner's
    :meth:`~repro.planner.randomized.ParetoFrontier.entries` and the
    scalar tail of the vectorized skyline pass in
    :mod:`repro.core.pareto`, so the two cannot drift.
    """
    ordered = sorted(
        (cost.time_s, cost.money, index)
        for index, (_, cost) in enumerate(entries)
        if cost.is_finite
    )
    kept: List[int] = []
    best_money = math.inf
    for _, money, index in ordered:
        # Sorted by (time, money, input order): a strict money
        # improvement is exactly non-domination by everything earlier;
        # ties in both objectives fall to the first-seen entry.
        if money < best_money:
            kept.append(index)
            best_money = money
    return [entries[index] for index in kept]


#: The cost of an infeasible sub-plan (e.g. BHJ past its OOM wall).
INFEASIBLE_COST = Cost(time_s=math.inf, money=math.inf)

#: Free sub-plans (scan leaves; scans are folded into the join models).
ZERO_COST = Cost(time_s=0.0, money=0.0)


@dataclass
class PlanningCounters:
    """The accounting the paper's Figs 12-15 report."""

    #: Cost-model invocations made while exploring resource configurations
    #: (the paper's "#Resource-Iterations").
    resource_iterations: int = 0
    #: Individual join-operator costings requested by the query planner.
    join_costings: int = 0
    #: Resource plan cache hits / misses (Fig 14).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Within-run memo hits: identical (algorithm, ss, ls) costings
    #: served without touching the resource planner or the plan cache.
    memo_hits: int = 0
    #: Candidate batches submitted through the batched costing entry
    #: point (one per DP level / per whole-plan costing).
    batched_calls: int = 0
    #: Memo hits served during batch-aware partitioning, before the
    #: stacked kernel ran (a subset of ``memo_hits``).
    batch_memo_hits: int = 0
    #: Candidate (stage x configuration) points discarded by the
    #: Pareto skyline passes of :mod:`repro.core.pareto` because some
    #: other candidate dominated them (or duplicated them exactly).
    dominated_pruned: int = 0
    #: Points on the Pareto frontiers computed during this run.
    frontier_points: int = 0

    def merge(self, other: "PlanningCounters") -> None:
        """Accumulate another counter set into this one."""
        for counter_field in dataclasses.fields(self):
            name = counter_field.name
            setattr(
                self, name, getattr(self, name) + getattr(other, name)
            )


@dataclass
class PlanningContext:
    """Catalog, cluster conditions, and counters for one planning run."""

    estimator: StatisticsEstimator
    cluster: ClusterConditions
    counters: PlanningCounters = field(default_factory=PlanningCounters)
    #: Per-run scratch space for the RAQO coster's sub-plan memo, as
    #: ``(time_s, money, config)`` per key: one planning run = one
    #: context = one memo lifetime, so entries can never leak across
    #: queries or changed cluster conditions.
    resource_plan_memo: Dict[
        Tuple, Tuple[float, float, Optional[ResourceConfiguration]]
    ] = field(default_factory=dict)
    #: Observability sink for this planning run; the shared null tracer
    #: by default, so uninstrumented callers pay one attribute check.
    tracer: Tracer = NULL_TRACER
    #: Sizes of the candidate batches costed during this run (feeds the
    #: session's ``planner.batch_size`` histogram).
    batch_sizes: List[int] = field(default_factory=list)
    #: Output size in GB of every relation this run has costed, by
    #: table set: the estimator is read once per relation per run, and
    #: a candidate's sizes are two lookups by the planner's frozensets.
    relation_gb: Dict[FrozenSet[str], GB] = field(default_factory=dict)

    def join_io_gb(
        self, left_tables: Iterable[str], right_tables: Iterable[str]
    ) -> Tuple[GB, GB]:
        """(smaller, larger) input sizes in GB for a candidate join.

        The values of :meth:`StatisticsEstimator.join_io_gb`, read
        through :attr:`relation_gb`. A stand-in estimator without
        ``stats_for`` answers each call itself.
        """
        left, right = frozenset(left_tables), frozenset(right_tables)
        sizes = self.relation_gb
        left_gb, right_gb = sizes.get(left), sizes.get(right)
        if left_gb is None or right_gb is None:
            stats_for = getattr(self.estimator, "stats_for", None)
            if stats_for is None:
                return self.estimator.join_io_gb(left, right)
            if left_gb is None:
                left_gb = sizes[left] = GB(stats_for(left).size_gb)
            if right_gb is None:
                right_gb = sizes[right] = GB(stats_for(right).size_gb)
        return (min(left_gb, right_gb), max(left_gb, right_gb))


class PlanCoster(Protocol):
    """What a query planner needs from a cost model.

    Implementations: the plain query-optimizer coster (fixed default
    resources) and the RAQO coster (per-operator resource planning);
    see :mod:`repro.core.raqo`.
    """

    def join_cost(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        algorithm: JoinAlgorithm,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional["ResourceConfiguration"]]:  # noqa: F821
        """Cost one join operator; optionally return planned resources."""
        ...

    def cost_batch(
        self, batch: CandidateBatch, context: PlanningContext
    ) -> "BatchCostResult":
        """Cost a whole candidate batch; see :class:`BatchCostResult`."""
        ...


@dataclass(frozen=True)
class BatchCostResult:
    """Per-candidate costs for one :class:`CandidateBatch`, as parallel
    arrays (struct-of-arrays, mirroring the batch itself).

    ``time_s``/``money`` hold the exact float values the scalar
    ``join_cost`` path would have produced (``inf`` for infeasible
    candidates); ``feasible`` is the derived mask; ``configs`` carries
    the planned per-operator resources (``None`` for infeasible
    candidates and for costers that do not plan resources).
    """

    time_s: np.ndarray
    money: np.ndarray
    feasible: np.ndarray
    configs: Tuple[Optional["ResourceConfiguration"], ...]  # noqa: F821

    def pair(
        self, index: int
    ) -> Tuple[Cost, Optional["ResourceConfiguration"]]:  # noqa: F821
        """Candidate ``index`` in ``join_cost`` return form."""
        return (
            Cost(
                time_s=float(self.time_s[index]),
                money=float(self.money[index]),
            ),
            self.configs[index],
        )

    def __len__(self) -> int:
        return len(self.configs)


def get_plan_cost(
    plan: PlanNode, coster: PlanCoster, context: PlanningContext
) -> Tuple[PlanNode, Cost]:
    """Cost a whole plan; returns the plan annotated with resources.

    The total cost of a plan is the sum of its join operators' costs
    (Sec VI-A: "the total cost of a query plan is the sum of costs of all
    join operators in that plan"). All of the plan's joins are gathered
    bottom-up into one :class:`CandidateBatch`, costed in a single
    batched call, and folded back onto the tree in that order: each
    join node is annotated with the resources the coster picked, and
    the total sums the per-join costs bottom-up.
    """
    joins = list(plan.joins_postorder())
    if not joins:
        return plan, ZERO_COST
    batch = CandidateBatch.build(
        [
            (join.left.tables, join.right.tables, join.algorithm)
            for join in joins
        ],
        context.join_io_gb,
    )
    result = coster.cost_batch(batch, context)
    total = ZERO_COST
    indexes = iter(range(len(joins)))

    def cost_one(join: JoinNode) -> JoinNode:
        nonlocal total
        cost, resources = result.pair(next(indexes))
        total = total + cost
        return join.with_resources(resources)

    annotated = plan.map_joins(cost_one)
    return annotated, total


@dataclass(frozen=True)
class PlanningResult:
    """The outcome of one optimizer run, with the paper's metrics."""

    query: Query
    plan: PlanNode
    cost: Cost
    wall_time_s: float
    counters: PlanningCounters
    planner_name: str
    #: Candidate-batch sizes this run pushed through ``cost_batch``;
    #: feeds the session batch histogram.
    batch_sizes: Tuple[int, ...] = ()

    @property
    def resource_iterations(self) -> int:
        """Shorthand for the headline Fig 12/13 metric."""
        return self.counters.resource_iterations


class Stopwatch:
    """Tiny wall-clock helper so planners report comparable timings."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed_s(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start
