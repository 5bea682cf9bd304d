"""Workload execution: run a batch of queries through a planner.

Aggregates both sides of the paper's story per workload: the planning
overheads (wall time, resource configurations explored, cache behaviour)
and the simulated execution outcomes (time, resources used, dollars) when
the produced plans run on the engine simulator.

The paper plans each query of a workload on its own, so a workload can
be split by query: ``run(processes=N)`` fans it out over a *process
pool*.  Each worker process rebuilds the planner from its picklable
constructor state (catalog, fitted cost model, knobs) once, then plans
its share of the queries free of the GIL.  Traced runs give each worker
a same-seed child tracer and graft the finished spans back onto the
parent tracer, and the parent lands each query's stages on its
telemetry plane, so the merged canonical span tree and the sim-domain
telemetry are byte-identical to a serial run.

Results always come back in submission order, and with the default
``clear_cache_between_queries=True`` planner the sharded report is
identical to the serial one except for wall-clock timings.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.queries import Query
from repro.cluster.containers import ResourceConfiguration
from repro.core.pareto import frontier_counts
from repro.core.raqo import DEFAULT_QO_RESOURCES, RaqoPlanner
from repro.engine.executor import (
    ExecutionResult,
    JoinRunReport,
    execute_plan,
    replay_stage_telemetry,
)
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.faults.model import FaultPlan
from repro.faults.recovery import RecoveryPolicy
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import SpanHandle, Tracer


@dataclass(frozen=True)
class QueryOutcome:
    """Planning + execution result for one workload query."""

    query: Query
    planning_ms: float
    resource_iterations: int
    cache_hits: int
    cache_misses: int
    predicted_time_s: float
    executed_time_s: float
    executed_gb_seconds: float
    executed_dollars: float
    executed_feasible: bool = True
    #: Fault/recovery counters (all zero without fault injection).
    retries: int = 0
    faults_injected: int = 0
    degraded_stages: int = 0
    #: The rest of the planning run's counters, named as on
    #: :class:`~repro.planner.cost_interface.PlanningCounters`, so the
    #: session records a workload query's planning as it records a
    #: single plan.
    join_costings: int = 0
    memo_hits: int = 0
    batched_calls: int = 0
    batch_memo_hits: int = 0
    batch_sizes: Tuple[int, ...] = ()
    #: Points on the selected Pareto frontier and the candidates it
    #: pruned as dominated; ``None`` and 0 without a frontier.
    frontier_size: Optional[int] = None
    frontier_pruned: int = 0


@dataclass(frozen=True)
class WorkloadReport:
    """Aggregated workload metrics."""

    label: str
    outcomes: Tuple[QueryOutcome, ...]

    @property
    def total_planning_ms(self) -> float:
        """Total optimizer wall time across the workload."""
        return sum(o.planning_ms for o in self.outcomes)

    @property
    def total_resource_iterations(self) -> int:
        """Total resource configurations explored."""
        return sum(o.resource_iterations for o in self.outcomes)

    @property
    def total_executed_time_s(self) -> float:
        """Total simulated execution time."""
        return sum(o.executed_time_s for o in self.outcomes)

    @property
    def total_dollars(self) -> float:
        """Total simulated monetary cost."""
        return sum(o.executed_dollars for o in self.outcomes)

    @property
    def cache_hit_total(self) -> int:
        """Total resource-plan-cache hits."""
        return sum(o.cache_hits for o in self.outcomes)

    @property
    def cache_miss_total(self) -> int:
        """Total resource-plan-cache misses."""
        return sum(o.cache_misses for o in self.outcomes)

    @property
    def total_retries(self) -> int:
        """Total fault-recovery retries across the workload."""
        return sum(o.retries for o in self.outcomes)

    @property
    def total_faults_injected(self) -> int:
        """Total injected faults across the workload."""
        return sum(o.faults_injected for o in self.outcomes)

    @property
    def total_degraded_stages(self) -> int:
        """Total BHJ -> SMJ degradations across the workload."""
        return sum(o.degraded_stages for o in self.outcomes)

    @property
    def infeasible_queries(self) -> int:
        """Queries whose simulated execution never completed."""
        return sum(1 for o in self.outcomes if not o.executed_feasible)

    def summary_row(self) -> Tuple:
        """A printable aggregate row."""
        return (
            self.label,
            len(self.outcomes),
            self.total_planning_ms,
            self.total_resource_iterations,
            self.total_executed_time_s,
            self.total_dollars,
        )


#: Per-worker-process runner installed by :func:`_init_workload_worker`.
#: One per process, so workload shards never share mutable planner state.
_WORKER_RUNNER: Optional["WorkloadRunner"] = None


def _init_workload_worker(payload: Dict[str, object]) -> None:
    """Process-pool initializer: rebuild the runner from picklable state.

    Runs once per worker process; the rebuilt planner (and its
    deterministically re-fitted statistics) then serves every query the
    pool hands this worker.
    """
    global _WORKER_RUNNER
    kwargs = dict(payload["planner_kwargs"])
    tracer_seed = payload["tracer_seed"]
    if tracer_seed is not None:
        kwargs["tracer"] = Tracer(seed=tracer_seed)
    planner = RaqoPlanner(payload["catalog"], **kwargs)
    _WORKER_RUNNER = WorkloadRunner(
        planner,
        profile=payload["profile"],
        default_resources=payload["default_resources"],
        faults=payload["faults"],
        recovery=payload["recovery"],
    )


def _run_workload_item(
    item: Tuple[int, Query, str],
) -> Tuple[
    QueryOutcome,
    Tuple[JoinRunReport, ...],
    Tuple[Dict[str, object], ...],
]:
    """Plan and execute one workload query in a worker process.

    Returns the outcome, the executed stages (for the parent's telemetry
    plane) and the spans this query produced (as picklable dicts, for
    the parent tracer to adopt).  The worker's ``workload`` span handle
    is created but never entered: it only anchors the query subtree at
    the same deterministic path the parent's real workload root has, so
    grafted span IDs line up.
    """
    index, query, label = item
    runner = _WORKER_RUNNER
    assert runner is not None, "worker used before initialization"
    tracer = runner.planner.tracer
    workload_span = tracer.span("workload", kind="planner", key=label)
    outcome, execution = runner._run_query(query, workload_span, index)
    spans = tuple(span.to_dict() for span in tracer.spans())
    tracer.clear()
    return outcome, execution.joins, spans


def _process_pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the fitted model cache);
    the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkloadRunner:
    """Runs workloads through one planner configuration."""

    def __init__(
        self,
        planner: RaqoPlanner,
        profile: EngineProfile = HIVE_PROFILE,
        default_resources: ResourceConfiguration = DEFAULT_QO_RESOURCES,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
        telemetry: Optional[TelemetryPlane] = None,
    ) -> None:
        self.planner = planner
        self.profile = profile
        self.default_resources = default_resources
        #: Shipped to every worker process: FaultPlan decisions are pure
        #: functions of (seed, stage, attempt), so sharded runs stay
        #: identical to serial ones.
        self.faults = faults
        self.recovery = recovery
        #: Every windowed record carries an explicit sim timestamp (each
        #: query's plan clock starts at 0).  The plane is not picklable,
        #: so process shards return their stage reports and the parent
        #: lands them here in submission order, which keeps sim-domain
        #: snapshots byte-identical to a serial run.
        self.telemetry = telemetry

    def _run_query(
        self,
        query: Query,
        workload_span: SpanHandle,
        index: int,
    ) -> Tuple[QueryOutcome, ExecutionResult]:
        """Plan and execute one query inside its ``query`` span.

        The span is keyed by the query's workload position and parented
        explicitly on the workload root, so its ID -- and those of the
        plan/run subtrees opened beneath it -- do not depend on which
        process planned the query.
        """
        planner = self.planner
        tracer = planner.tracer
        with tracer.span(
            "query",
            kind="planner",
            parent=workload_span,
            key=str(index),
        ) as span:
            result = planner.optimize(query)
            # Scope faults per query (by its stable name): two queries
            # sharing a join stage draw independent fault fates, while
            # decisions stay order-independent so serial == sharded.
            faults = (
                self.faults.scoped(query.name)
                if self.faults is not None
                else None
            )
            frontier_size, frontier_pruned = frontier_counts(result)
            execution = execute_plan(
                result.plan,
                planner.estimator,
                self.profile,
                default_resources=self.default_resources,
                faults=faults,
                recovery=self.recovery,
                tracer=tracer,
                telemetry=self.telemetry,
            )
            outcome = QueryOutcome(
                query=query,
                planning_ms=result.wall_time_s * 1000.0,
                resource_iterations=result.resource_iterations,
                cache_hits=result.counters.cache_hits,
                cache_misses=result.counters.cache_misses,
                predicted_time_s=result.cost.time_s,
                executed_time_s=execution.time_s,
                executed_gb_seconds=execution.gb_seconds,
                executed_dollars=execution.dollars,
                executed_feasible=execution.feasible,
                retries=execution.retries,
                faults_injected=execution.faults_injected,
                degraded_stages=execution.degraded_stages,
                join_costings=result.counters.join_costings,
                memo_hits=result.counters.memo_hits,
                batched_calls=result.counters.batched_calls,
                batch_memo_hits=result.counters.batch_memo_hits,
                batch_sizes=result.batch_sizes,
                frontier_size=frontier_size,
                frontier_pruned=frontier_pruned,
            )
            if span.active:
                span.set_attributes(
                    {
                        "index": index,
                        "query": query.name,
                        "feasible": outcome.executed_feasible,
                        "retries": outcome.retries,
                        "faults_injected": outcome.faults_injected,
                        "degraded_stages": outcome.degraded_stages,
                        "wall_planning_ms": outcome.planning_ms,
                    }
                )
                if math.isfinite(outcome.executed_time_s):
                    span.set_attribute(
                        "executed_time_s", outcome.executed_time_s
                    )
            return outcome, execution

    def run(
        self,
        queries: Sequence[Query],
        label: str = "workload",
        processes: int = 0,
    ) -> WorkloadReport:
        """Plan and execute every query; returns the aggregate report.

        By default the queries run one after another on this runner's
        planner.  ``processes > 0`` shards them over a process pool
        instead: each worker process rebuilds the planner once from
        :meth:`RaqoPlanner.picklable_init_kwargs` and plans its share
        without sharing the GIL.  Pool start-up costs tens of
        milliseconds, so sharding pays only on workloads of many
        queries (``BENCH_planning.json``'s ``workload_sharding`` row
        records the size at which it overtakes serial).  Outcomes come
        back in submission order either way.

        Tracing rides the planner's tracer: an active tracer gets one
        ``workload`` root span (keyed by ``label``) with a ``query``
        child per entry.  Because fault decisions and span keys are
        order-independent, the same seed produces byte-identical span
        trees, reports (timings aside) and sim-domain telemetry whether
        the workload runs serially or on processes (for the default
        clear-cache-between-queries planner, whose counters do not
        depend on execution order).
        """
        if processes < 0:
            raise ValueError(
                f"processes must be >= 0, got {processes}"
            )
        with self.planner.tracer.span(
            "workload", kind="planner", key=label
        ) as workload_span:
            if workload_span.active:
                workload_span.set_attributes(
                    {
                        "label": label,
                        "queries": len(queries),
                        "faulted": self.faults is not None,
                    }
                )
            if processes:
                outcomes = self._run_sharded(queries, label, processes)
            else:
                outcomes = [
                    self._run_query(query, workload_span, index)[0]
                    for index, query in enumerate(queries)
                ]
            report = WorkloadReport(
                label=label, outcomes=tuple(outcomes)
            )
            if workload_span.active:
                workload_span.set_attributes(
                    {
                        "infeasible": report.infeasible_queries,
                        "total_retries": report.total_retries,
                        "total_faults_injected": (
                            report.total_faults_injected
                        ),
                    }
                )
        return report

    def _run_sharded(
        self,
        queries: Sequence[Query],
        label: str,
        processes: int,
    ) -> List[QueryOutcome]:
        """Outcomes of ``queries`` planned on a process pool.

        The workers' spans are grafted onto this planner's tracer and
        their stages landed on this runner's telemetry plane, one query
        at a time in submission order.
        """
        tracer = self.planner.tracer
        payload = {
            "catalog": self.planner.catalog,
            "planner_kwargs": self.planner.picklable_init_kwargs(),
            "profile": self.profile,
            "default_resources": self.default_resources,
            "faults": self.faults,
            "recovery": self.recovery,
            "tracer_seed": tracer.seed if tracer.active else None,
        }
        items = [
            (index, query, label)
            for index, query in enumerate(queries)
        ]
        outcomes: List[QueryOutcome] = []
        with ProcessPoolExecutor(
            processes,
            mp_context=_process_pool_context(),
            initializer=_init_workload_worker,
            initargs=(payload,),
        ) as pool:
            for outcome, stages, spans in pool.map(
                _run_workload_item, items
            ):
                tracer.adopt(spans)
                if self.telemetry is not None:
                    replay_stage_telemetry(self.telemetry, stages)
                outcomes.append(outcome)
        return outcomes


def compare_planners(
    planners: Dict[str, RaqoPlanner],
    queries: Sequence[Query],
    profile: EngineProfile = HIVE_PROFILE,
    faults: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> List[WorkloadReport]:
    """Run the same workload through several planner configurations.

    ``faults``/``recovery`` apply identically to every planner's
    execution, so the comparison isolates how *plan choice* affects
    robustness (the fig16 experiment's question).
    """
    return [
        WorkloadRunner(
            planner, profile, faults=faults, recovery=recovery
        ).run(queries, label=label)
        for label, planner in planners.items()
    ]
