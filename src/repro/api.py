"""The stable public facade: one session object over the whole stack.

Everything the CLI, the experiment drivers, and downstream users need --
planning, simulated execution, workloads, explanations, tracing, and
metrics -- hangs off one :class:`RaqoSession`::

    from repro.api import RaqoSession

    session = RaqoSession(scale_factor=100)
    result = session.run("Q3")
    print(result.planning.plan.explain())
    print(result.execution.time_s)

The session owns a :class:`~repro.obs.telemetry.TelemetryPlane` (its one
metric store) and (optionally) a :class:`~repro.obs.tracing.Tracer`;
every call records
the paper's headline counters (resource iterations, cache behaviour,
fault recovery) plus a per-operator predicted-vs-simulated cost-error
histogram, and the recorded spans export to Chrome trace / JSONL via
:meth:`RaqoSession.write_trace` and friends.

Compatibility contract: the names exported here (see ``__all__``) are
the supported surface.  Deeper imports (``repro.core.raqo`` etc.) keep
working but may reorganise between releases; this module will not.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:
    from repro.serving.service import OptimizerService, ServiceConfig

from repro.catalog import tpch
from repro.catalog.queries import Query
from repro.catalog.schema import Catalog
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.core.explain import explain as _explain
from repro.core.pareto import PlanObjective, frontier_counts
from repro.core.raqo import (
    DEFAULT_QO_RESOURCES,
    PlannerKind,
    RaqoPlanner,
    ResourcePlanningMethod,
)
from repro.engine.executor import ExecutionResult, execute_plan
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.faults.model import FaultPlan, FaultSpec
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.obs.export import (
    export_spans_jsonl,
    render_text_report,
    write_chrome_trace,
    write_trace_dir,
)
from repro.obs.prometheus import prometheus_exposition, write_stats_file
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.obs.windows import WindowedCounter
from repro.planner.cost_interface import PlanningCounters, PlanningResult
from repro.workloads.runner import (
    QueryOutcome,
    WorkloadReport,
    WorkloadRunner,
)

__all__ = [
    "PlanObjective",
    "QueryLike",
    "RaqoSession",
    "RunResult",
]

#: Queries are accepted as objects or as TPC-H evaluation-query names.
QueryLike = Union[Query, str]

#: Fault injection is accepted pre-built or as a ``key=value`` spec
#: string (the CLI's ``--faults`` format).
FaultsLike = Union[FaultPlan, FaultSpec, str]

_TPCH_QUERIES = types.MappingProxyType(
    {q.name: q for q in tpch.EVALUATION_QUERIES}
)


@dataclass(frozen=True)
class RunResult:
    """Planning plus simulated execution for one query."""

    planning: PlanningResult
    execution: ExecutionResult

    @property
    def query(self) -> Query:
        """The optimized query."""
        return self.planning.query

    @property
    def predicted_time_s(self) -> float:
        """The optimizer's predicted execution time."""
        return self.planning.cost.time_s

    @property
    def simulated_time_s(self) -> float:
        """What the engine simulator actually charged."""
        return self.execution.time_s

    @property
    def prediction_error(self) -> float:
        """Relative cost-model error, ``|predicted - simulated| /
        simulated`` (``inf`` when the run never finished)."""
        if (
            not math.isfinite(self.simulated_time_s)
            or self.simulated_time_s <= 0.0
            or not math.isfinite(self.predicted_time_s)
        ):
            return math.inf
        return (
            abs(self.predicted_time_s - self.simulated_time_s)
            / self.simulated_time_s
        )


class RaqoSession:
    """The one-object entry point to the RAQO reproduction.

    ``catalog``, ``profile``, and ``cluster`` configure the world the
    session plans against (defaults: TPC-H at ``scale_factor``, the
    Hive profile, the paper's 100 x 10 GB cluster); everything else is
    keyword-only.  Pass a :class:`~repro.obs.tracing.Tracer` to record
    spans for every call made through the session -- the same tracer is
    shared with the serving layer's planner clones, and process-sharded
    workloads graft their spans onto it, so everything lands in one
    trace.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        profile: EngineProfile = HIVE_PROFILE,
        cluster: Optional[ClusterConditions] = None,
        *,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        scale_factor: float = 100.0,
        planner: PlannerKind = PlannerKind.SELINGER,
        resource_method: ResourcePlanningMethod = (
            ResourcePlanningMethod.HILL_CLIMB
        ),
        resource_aware: bool = True,
        objective: Optional[PlanObjective] = None,
        default_resources: ResourceConfiguration = DEFAULT_QO_RESOURCES,
    ) -> None:
        self.catalog = (
            catalog
            if catalog is not None
            else tpch.tpch_catalog(scale_factor)
        )
        self.profile = profile
        self.seed = seed
        self.tracer: Tracer = (
            tracer if tracer is not None else NULL_TRACER
        )
        #: The telemetry plane: every metric series, the structured
        #: event log, per-tenant SLO trackers, and the cost-model
        #: drift monitor, all shared by everything the session runs.
        self.telemetry = TelemetryPlane()
        self._resolve_series()
        #: Cumulative simulated seconds across this session's runs --
        #: the sim-clock timeline drift observations are stamped on.
        self._sim_elapsed_s = 0.0
        self.default_resources = default_resources
        planner_kwargs = dict(
            planner_kind=planner,
            resource_method=resource_method,
            resource_aware=resource_aware,
            objective=objective,
            default_resources=default_resources,
            seed=seed,
            tracer=self.tracer,
        )
        if cluster is not None:
            planner_kwargs["cluster"] = cluster
        self.planner = RaqoPlanner(self.catalog, **planner_kwargs)
        self.objective = self.planner.objective
        self.cluster = self.planner.cluster
        #: Per-call ``objective=`` overrides plan on cached clones of
        #: the session planner (one per distinct objective).
        self._objective_planners: Dict[str, RaqoPlanner] = {}

    # -- query resolution --------------------------------------------------

    def resolve_query(self, query: QueryLike) -> Query:
        """Accept a :class:`Query` or a TPC-H evaluation-query name."""
        if isinstance(query, Query):
            return query
        try:
            return _TPCH_QUERIES[query]
        except KeyError:
            known = ", ".join(sorted(_TPCH_QUERIES))
            raise KeyError(
                f"unknown query {query!r}; TPC-H evaluation queries "
                f"are: {known}"
            ) from None

    def _resolve_faults(
        self, faults: Optional[FaultsLike]
    ) -> Optional[FaultPlan]:
        if faults is None or isinstance(faults, FaultPlan):
            return faults
        if isinstance(faults, FaultSpec):
            return FaultPlan(faults)
        return FaultPlan(FaultSpec.parse(faults))

    def _planner_for(
        self, objective: Optional[PlanObjective]
    ) -> RaqoPlanner:
        """The session planner, re-targeted at a per-call objective.

        Clones are cached by objective fingerprint, so repeated calls
        with the same override reuse one planner (and its warm model).
        """
        if objective is None or objective == self.planner.objective:
            return self.planner
        key = objective.fingerprint()
        planner = self._objective_planners.get(key)
        if planner is None:
            planner = self.planner.with_objective(objective)
            self._objective_planners[key] = planner
        return planner

    # -- the four verbs ----------------------------------------------------

    def plan(
        self,
        query: QueryLike,
        *,
        objective: Optional[PlanObjective] = None,
    ) -> PlanningResult:
        """Jointly optimize one query; records planning metrics.

        ``objective`` overrides the session objective for this call::

            session.plan("Q3", objective=PlanObjective.cheapest())
        """
        result = self._planner_for(objective).optimize(
            self.resolve_query(query)
        )
        self._record_planning(result)
        return result

    def run(
        self,
        query: QueryLike,
        *,
        objective: Optional[PlanObjective] = None,
        faults: Optional[FaultsLike] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> RunResult:
        """Optimize and simulate one query end to end.

        ``faults`` turns on deterministic fault injection (accepts a
        plan, a spec, or the CLI's ``"seed=7,oom=0.2"`` string); the
        default recovery policy applies whenever faults are injected.
        ``objective`` overrides the session objective for this call.
        """
        planning = self.plan(query, objective=objective)
        fault_plan = self._resolve_faults(faults)
        if recovery is None and fault_plan is not None:
            recovery = DEFAULT_RECOVERY
        execution = execute_plan(
            planning.plan,
            self.planner.estimator,
            self.profile,
            default_resources=self.default_resources,
            faults=fault_plan,
            recovery=recovery,
            tracer=self.tracer,
            telemetry=self.telemetry,
            sim_epoch_s=self._sim_elapsed_s,
        )
        self._record_execution(execution)
        return RunResult(planning=planning, execution=execution)

    def workload(
        self,
        queries: Sequence[QueryLike],
        *,
        objective: Optional[PlanObjective] = None,
        processes: int = 0,
        label: str = "workload",
        faults: Optional[FaultsLike] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> WorkloadReport:
        """Plan and simulate a batch of queries.

        ``processes`` > 0 shards the queries across a *process pool*
        (see :meth:`~repro.workloads.runner.WorkloadRunner.run`); it
        pays a pool start-up cost, so it wins only on workloads of many
        queries.  Reports, span trees and sim-domain telemetry are
        identical to a serial run either way, timings aside.
        """
        resolved = [self.resolve_query(q) for q in queries]
        fault_plan = self._resolve_faults(faults)
        if recovery is None and fault_plan is not None:
            recovery = DEFAULT_RECOVERY
        runner = WorkloadRunner(
            self._planner_for(objective),
            self.profile,
            default_resources=self.default_resources,
            faults=fault_plan,
            recovery=recovery,
            telemetry=self.telemetry,
        )
        report = runner.run(
            resolved,
            label=label,
            processes=processes,
        )
        self._record_workload(report)
        return report

    def explain(self, query: QueryLike) -> str:
        """Optimize and render the full joint-plan explanation."""
        return _explain(self.planner, self.resolve_query(query))

    def serve(
        self, config: Optional["ServiceConfig"] = None, **knobs: object
    ) -> "OptimizerService":
        """A multi-tenant optimizer service over this session.

        Pass a full :class:`~repro.serving.service.ServiceConfig` or
        individual knobs (``workers=4, max_queue=256, ...``).  The
        service plans on clones of this session's planner, shares its
        tracer, and registers its cache and latency series on this
        session's telemetry plane -- so
        :meth:`metrics_snapshot` reports serving cache hits, misses,
        evictions, and live entries alongside the planning counters.
        Call :meth:`~repro.serving.service.OptimizerService.start` (or
        use the service as a context manager) before awaiting plans.
        """
        from repro.serving.service import OptimizerService, ServiceConfig

        if config is not None and knobs:
            raise ValueError(
                "pass a ServiceConfig or individual knobs, not both"
            )
        if config is None:
            config = ServiceConfig(**knobs)  # type: ignore[arg-type]
        return OptimizerService(self, config)

    # -- metrics -----------------------------------------------------------

    def _resolve_series(self) -> None:
        """Register the session's wall-clock series once, so recording
        a call costs no plane lookups."""
        counter = self.telemetry.windowed_counter
        histogram = self.telemetry.windowed_histogram
        self._counters: Dict[str, WindowedCounter] = {
            instrument.name: instrument
            for instrument in (
                counter("planning.queries"),
                counter("planning.resource_iterations"),
                counter("planning.join_costings"),
                counter("planning.cache_hits"),
                counter("planning.cache_misses"),
                counter("planning.memo_hits"),
                counter("planner.batched_calls"),
                counter("planner.batch_memo_hits"),
                counter("planner.dominated_pruned"),
                counter("execution.runs"),
                counter("execution.retries"),
                counter("execution.faults_injected"),
                counter("execution.degraded_stages"),
                counter("execution.speculative_stages"),
                counter("execution.infeasible"),
                counter("workload.batches"),
                counter("workload.queries"),
                counter("workload.infeasible"),
            )
        }
        self._planning_wall_ms = histogram("planning.wall_ms")
        self._frontier_size = histogram("planner.frontier_size")
        self._batch_size = histogram("planner.batch_size")
        self._execution_time_s = histogram("execution.time_s")

    def _count(self, now: float, amounts: Dict[str, int]) -> None:
        """Add each amount to its session counter, skipping zeros."""
        counters = self._counters
        for name, amount in amounts.items():
            if amount:
                counters[name].inc(amount, ts_s=now)

    def _record_planning(self, result: PlanningResult) -> None:
        frontier_size, frontier_pruned = frontier_counts(result)
        self._record_plan(
            self.telemetry.wall_now(),
            result.counters,
            wall_ms=result.wall_time_s * 1000.0,
            batch_sizes=result.batch_sizes,
            frontier_size=frontier_size,
            frontier_pruned=frontier_pruned,
        )

    def _record_plan(
        self,
        now: float,
        counts: Union[PlanningCounters, QueryOutcome],
        *,
        wall_ms: float,
        batch_sizes: Sequence[int],
        frontier_size: Optional[int],
        frontier_pruned: int,
    ) -> None:
        """Record one optimizer run; ``counts`` carries its counters
        under their :class:`PlanningCounters` names."""
        self._count(
            now,
            {
                "planning.queries": 1,
                "planning.resource_iterations": (
                    counts.resource_iterations
                ),
                "planning.join_costings": counts.join_costings,
                "planning.cache_hits": counts.cache_hits,
                "planning.cache_misses": counts.cache_misses,
                "planning.memo_hits": counts.memo_hits,
                "planner.batched_calls": counts.batched_calls,
                "planner.batch_memo_hits": counts.batch_memo_hits,
                "planner.dominated_pruned": frontier_pruned,
            },
        )
        self._planning_wall_ms.observe(wall_ms, ts_s=now)
        if frontier_size is not None:
            self._frontier_size.observe(float(frontier_size), ts_s=now)
        for size in batch_sizes:
            self._batch_size.observe(float(size), ts_s=now)

    def _record_execution(self, execution: ExecutionResult) -> None:
        now = self.telemetry.wall_now()
        self._count(
            now,
            {
                "execution.runs": 1,
                "execution.retries": execution.retries,
                "execution.faults_injected": execution.faults_injected,
                "execution.degraded_stages": execution.degraded_stages,
                "execution.speculative_stages": (
                    execution.speculative_stages
                ),
                "execution.infeasible": (
                    0 if execution.feasible else 1
                ),
            },
        )
        if execution.feasible:
            self._execution_time_s.observe(execution.time_s, ts_s=now)
            self._sim_elapsed_s += execution.time_s
        self._record_cost_errors(execution)

    def _record_cost_errors(self, execution: ExecutionResult) -> None:
        """Per-operator predicted-vs-simulated relative time error.

        Each error lands once on the sim-clock
        ``execution.cost_error_rel`` series and feeds the cost-model
        :class:`~repro.obs.drift.DriftMonitor`, which emits
        ``cost_model_drift`` events when calibration decays online.
        """
        windowed = self.telemetry.windowed_histogram(
            "execution.cost_error_rel", clock="sim"
        )
        model = self.planner.cost_model
        estimator = self.planner.estimator
        for report in execution.joins:
            if not report.feasible or report.time_s <= 0.0:
                continue
            small_gb, large_gb = estimator.join_io_gb(
                report.left_tables, report.right_tables
            )
            predicted = model.predict_time(
                report.algorithm, small_gb, large_gb, report.resources
            )
            if not math.isfinite(predicted):
                continue
            error = abs(predicted - report.time_s) / report.time_s
            windowed.observe(error, ts_s=self._sim_elapsed_s)
            self.telemetry.drift.record(
                error, ts_s=self._sim_elapsed_s
            )

    def _record_workload(self, report: WorkloadReport) -> None:
        now = self.telemetry.wall_now()
        queries = len(report.outcomes)
        self._count(
            now,
            {
                "workload.batches": 1,
                "workload.queries": queries,
                "workload.infeasible": report.infeasible_queries,
                "execution.retries": report.total_retries,
                "execution.faults_injected": (
                    report.total_faults_injected
                ),
                "execution.degraded_stages": (
                    report.total_degraded_stages
                ),
            },
        )
        for outcome in report.outcomes:
            self._record_plan(
                now,
                outcome,
                wall_ms=outcome.planning_ms,
                batch_sizes=outcome.batch_sizes,
                frontier_size=outcome.frontier_size,
                frontier_pruned=outcome.frontier_pruned,
            )
            if outcome.executed_feasible and math.isfinite(
                outcome.executed_time_s
            ):
                self._execution_time_s.observe(
                    outcome.executed_time_s, ts_s=now
                )

    def metrics_snapshot(self) -> Dict[str, object]:
        """Every series' lifetime reading, in the deterministic
        ``{"counters", "gauges", "histograms"}`` shape of
        :meth:`~repro.obs.telemetry.TelemetryPlane.lifetime`."""
        return self.telemetry.lifetime()

    def telemetry_snapshot(
        self, clock: Optional[str] = None
    ) -> Dict[str, object]:
        """The telemetry plane's deterministic snapshot.

        ``clock="sim"`` restricts to the simulated-clock series, whose
        snapshots are byte-identical for same-seed runs whether a workload
        ran serially or sharded over processes.
        """
        return self.telemetry.snapshot(clock=clock)

    def exposition(self) -> str:
        """The Prometheus text-format exposition of all metrics."""
        return prometheus_exposition(self.telemetry)

    def write_stats_file(self, path: Union[str, Path]) -> Path:
        """Write the Prometheus exposition to ``path``."""
        write_stats_file(path, self.telemetry)
        return Path(path)

    def write_events(self, path: Union[str, Path]) -> int:
        """Write the unified event log as JSONL; returns event count.

        Span events recorded by the engine (faults, retries,
        degradations, speculation) are harvested into the stream first,
        so the file carries the whole story, span-ID-correlated.
        """
        self.telemetry.events.harvest_tracer(self.tracer)
        return self.telemetry.events.write_jsonl(path)

    # -- trace export ------------------------------------------------------

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Write the recorded spans as Chrome ``trace_event`` JSON."""
        destination = Path(path)
        write_chrome_trace(
            self.tracer, destination, metrics=self.telemetry
        )
        return destination

    def write_spans(self, path: Union[str, Path]) -> int:
        """Write the recorded spans as JSONL; returns the span count."""
        return export_spans_jsonl(self.tracer, path)

    def write_trace_dir(
        self, directory: Union[str, Path], title: str = "raqo session"
    ) -> Dict[str, Path]:
        """Write trace.json + spans.jsonl + report.txt + metrics.json."""
        return write_trace_dir(
            self.tracer, directory, metrics=self.telemetry, title=title
        )

    def report(self) -> str:
        """Plain-text span tree plus the metrics summary."""
        lines: List[str] = [render_text_report(self.tracer)]
        rendered = self.telemetry.render_text()
        if rendered:
            lines.extend(["", rendered])
        return "\n".join(lines)
