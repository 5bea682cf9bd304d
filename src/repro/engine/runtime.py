"""Adaptive runtime: stage-wise execution with mid-query re-planning.

Paper Sec IV/VIII: "If the cluster conditions change until or during the
execution of the query, the dataflow/runtime can further adjust the
query/resource plan by consulting the optimizer" and "from the moment a
query gets optimized until the moment its execution begins, the condition
of the cluster might change ... we might need to adapt/re-optimize the
query."

:class:`AdaptiveRuntime` executes a joint plan one join stage at a time.
Before each stage it takes a fresh :class:`~repro.cluster.rm_api.
ClusterSnapshot`; if the stage's planned resources no longer fit the
offered envelope (or the envelope grew enough to be worth exploiting), it
re-plans that operator's resources through the RAQO coster before
launching the stage.

With fault injection enabled (``faults=``/``recovery=``), each stage
additionally runs through the deterministic attempt loop of
:mod:`repro.faults.injection`. The runtime is where degradation gets the
full paper treatment: a BHJ stage that OOMs falls back to SMJ and is
*re-costed through the RAQO coster* under the live cluster conditions,
so the fallback runs on resources chosen for the sort-merge plan rather
than on the doomed broadcast configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.cluster.pricing import PriceModel
from repro.cluster.rm_api import RmClient
from repro.core.raqo import RaqoCoster
from repro.engine.executor import ExecutionError, oom_pressure
from repro.engine.joins import (
    JoinAlgorithm,
    JoinExecution,
    join_execution,
)
from repro.engine.profiles import EngineProfile
from repro.faults.injection import run_stage_with_faults
from repro.faults.model import (
    AttemptRecord,
    FaultPlan,
    stage_key_for_join,
)
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, SpanHandle, Tracer
from repro.planner.cost_interface import PlanningContext
from repro.planner.plan import JoinNode, PlanNode


@dataclass(frozen=True)
class StageRecord:
    """One executed join stage."""

    tables: frozenset
    planned: ResourceConfiguration
    executed: ResourceConfiguration
    replanned: bool
    time_s: float
    gb_seconds: float
    #: Fault-era bookkeeping; quiet defaults keep fault-free runs
    #: identical to the historical records.
    attempts: Tuple[AttemptRecord, ...] = ()
    retries: int = 0
    degraded: bool = False
    faults_injected: int = 0


@dataclass(frozen=True)
class AdaptiveRunReport:
    """The outcome of one adaptive execution."""

    stages: Tuple[StageRecord, ...]
    time_s: float
    gb_seconds: float
    dollars: float
    replanned_stages: int
    feasible: bool
    retries: int = 0
    faults_injected: int = 0
    degraded_stages: int = 0


class AdaptiveRuntime:
    """Executes joint plans stage by stage against a live RM."""

    def __init__(
        self,
        estimator: StatisticsEstimator,
        profile: EngineProfile,
        coster: RaqoCoster,
        rm_client: RmClient,
        price_model: Optional[PriceModel] = None,
        #: The envelope the plan was optimized under; defaults to the
        #: first snapshot the runtime takes.
        planned_under: Optional[ClusterConditions] = None,
        #: Re-plan when the live envelope's maxima drift from the
        #: planning-time envelope by more than this relative slack.
        improvement_slack: float = 0.25,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if improvement_slack < 0:
            raise ValueError(
                f"improvement_slack must be >= 0, got {improvement_slack}"
            )
        self.tracer = tracer
        self.estimator = estimator
        self.profile = profile
        self.coster = coster
        self.rm_client = rm_client
        self.price_model = price_model or PriceModel()
        self.planned_under = planned_under
        self.improvement_slack = improvement_slack
        if faults is not None and recovery is None:
            recovery = DEFAULT_RECOVERY
        self.faults = faults
        self.recovery = recovery

    def _should_replan(
        self,
        planned: ResourceConfiguration,
        conditions: ClusterConditions,
    ) -> bool:
        """Re-plan when the stage's configuration no longer fits, or
        when the envelope drifted materially since planning time."""
        if not conditions.contains(planned):
            return True
        baseline = self.planned_under
        if baseline is None:
            return False
        slack = self.improvement_slack
        count_drift = abs(
            conditions.max_containers - baseline.max_containers
        ) / baseline.max_containers
        size_drift = abs(
            conditions.max_container_gb - baseline.max_container_gb
        ) / baseline.max_container_gb
        return count_drift > slack or size_drift > slack

    def run(
        self,
        plan: PlanNode,
        now_s: float = 0.0,
        on_stage: Optional[Callable[[StageRecord], None]] = None,
    ) -> AdaptiveRunReport:
        """Execute ``plan``, adapting each stage to fresh conditions.

        ``on_stage`` (if given) is invoked after every stage -- the hook
        a monitoring UI or the paper's "explain" discussion would use.
        """
        stages: List[StageRecord] = []
        clock = now_s
        total_gb_seconds = 0.0
        feasible = True

        if self.planned_under is None:
            self.planned_under = self.rm_client.snapshot(
                now_s=clock
            ).conditions

        with self.tracer.span(
            "adaptive-run", kind="engine"
        ) as run_span:
            for stage_id, join in enumerate(plan.joins_postorder()):
                planned = join.resources
                stage_span = self.tracer.span(
                    "stage",
                    kind="engine",
                    parent=run_span,
                    key=str(stage_id),
                )
                with stage_span:
                    if planned is None:
                        raise ExecutionError(
                            "adaptive runtime needs a joint plan; "
                            "operator has no resources",
                            stage_id=stage_id,
                            tables=frozenset(join.tables),
                            span_id=stage_span.span_id or None,
                            trace_id=self.tracer.trace_id or None,
                        )
                    snapshot = self.rm_client.snapshot(now_s=clock)
                    executed = planned
                    replanned = False
                    if self._should_replan(planned, snapshot.conditions):
                        executed = self._replan_stage(
                            join, snapshot.conditions
                        )
                        replanned = True
                        stage_span.event(
                            "replan",
                            sim_time_s=clock,
                            attributes={
                                "num_containers": (
                                    executed.num_containers
                                ),
                                "container_gb": executed.container_gb,
                            },
                        )
                    record = self._run_stage(
                        join,
                        planned,
                        executed,
                        snapshot.conditions,
                        replanned,
                        stage_span=stage_span,
                        sim_start_s=clock,
                    )
                    if stage_span.active:
                        self._annotate_stage_span(
                            stage_span, stage_id, record, clock
                        )
                stages.append(record)
                if on_stage is not None:
                    on_stage(record)
                stage_feasible = math.isfinite(record.time_s)
                feasible = feasible and stage_feasible
                clock += record.time_s if stage_feasible else 0.0
                total_gb_seconds += record.gb_seconds
            if run_span.active:
                run_span.set_attributes(
                    {
                        "stages": len(stages),
                        "feasible": feasible,
                        "replanned_stages": sum(
                            1 for s in stages if s.replanned
                        ),
                    }
                )
                if feasible:
                    run_span.set_sim_window(now_s, clock)

        total_time = sum(stage.time_s for stage in stages)
        return AdaptiveRunReport(
            stages=tuple(stages),
            time_s=total_time,
            gb_seconds=total_gb_seconds,
            dollars=(
                self.price_model.cost_of_gb_seconds(total_gb_seconds)
                if feasible
                else math.inf
            ),
            replanned_stages=sum(1 for s in stages if s.replanned),
            feasible=feasible,
            retries=sum(s.retries for s in stages),
            faults_injected=sum(s.faults_injected for s in stages),
            degraded_stages=sum(1 for s in stages if s.degraded),
        )

    def _annotate_stage_span(
        self,
        stage_span: SpanHandle,
        stage_id: int,
        record: StageRecord,
        sim_start_s: float,
    ) -> None:
        """Attach one stage's outcome to its span (traced runs only)."""
        stage_span.set_attributes(
            {
                "stage_id": stage_id,
                "tables": ",".join(sorted(record.tables)),
                "num_containers": record.executed.num_containers,
                "container_gb": record.executed.container_gb,
                "total_memory_gb": record.executed.total_memory_gb,
                "replanned": record.replanned,
                "degraded": record.degraded,
                "retries": record.retries,
                "faults_injected": record.faults_injected,
            }
        )
        if math.isfinite(record.time_s) and math.isfinite(sim_start_s):
            stage_span.set_sim_window(
                sim_start_s, sim_start_s + record.time_s
            )
            stage_span.set_attribute("time_s", record.time_s)

    def _run_stage(
        self,
        join: JoinNode,
        planned: ResourceConfiguration,
        executed: ResourceConfiguration,
        conditions: ClusterConditions,
        replanned: bool,
        stage_span: SpanHandle = NULL_SPAN,
        sim_start_s: float = 0.0,
    ) -> StageRecord:
        """Run one stage, with or without the fault layer."""
        small_gb, large_gb = self.estimator.join_io_gb(
            join.left.tables, join.right.tables
        )
        if self.faults is None and self.recovery is None:
            execution = join_execution(
                join.algorithm,
                small_gb,
                large_gb,
                executed,
                self.profile,
            )
            gb_seconds = (
                executed.gb_seconds(execution.time_s)
                if execution.feasible
                else math.inf
            )
            return StageRecord(
                tables=frozenset(join.tables),
                planned=planned,
                executed=executed,
                replanned=replanned,
                time_s=execution.time_s,
                gb_seconds=gb_seconds,
            )

        def run_attempt(
            algorithm: JoinAlgorithm, config: ResourceConfiguration
        ) -> JoinExecution:
            return join_execution(
                algorithm, small_gb, large_gb, config, self.profile
            )

        def pressure(
            algorithm: JoinAlgorithm, config: ResourceConfiguration
        ) -> float:
            return oom_pressure(
                algorithm, small_gb, config, self.profile
            )

        def replan_on_degrade(
            algorithm: JoinAlgorithm,
        ) -> Optional[ResourceConfiguration]:
            # The paper's recovery story: consult the optimizer for the
            # fallback implementation under the live envelope.
            return self._recost_degraded(join, algorithm, conditions)

        outcome = run_stage_with_faults(
            stage_key=stage_key_for_join(
                join.left.tables, join.right.tables, join.algorithm
            ),
            algorithm=join.algorithm,
            resources=executed,
            run_attempt=run_attempt,
            oom_pressure=pressure,
            faults=self.faults,
            recovery=self.recovery,
            replan_on_degrade=replan_on_degrade,
            tracer=self.tracer,
            stage_span=stage_span,
            sim_start_s=sim_start_s,
        )
        return StageRecord(
            tables=frozenset(join.tables),
            planned=planned,
            executed=outcome.resources,
            replanned=replanned or outcome.degraded,
            time_s=outcome.elapsed_s,
            gb_seconds=outcome.gb_seconds,
            attempts=outcome.attempts,
            retries=outcome.retries,
            degraded=outcome.degraded,
            faults_injected=outcome.faults_injected,
        )

    def _recost_degraded(
        self,
        join: JoinNode,
        algorithm: JoinAlgorithm,
        conditions: ClusterConditions,
    ) -> Optional[ResourceConfiguration]:
        """Resources for ``algorithm`` on ``join`` under ``conditions``,
        via the coster; None when the operator is infeasible there."""
        context = PlanningContext(
            estimator=self.estimator,
            cluster=conditions,
            tracer=self.tracer,
        )
        cost, resources = self.coster.join_cost(
            join.left.tables,
            join.right.tables,
            algorithm,
            context,
        )
        if resources is not None and cost.is_finite:
            return resources
        return None

    def _replan_stage(
        self, join: JoinNode, conditions: ClusterConditions
    ) -> ResourceConfiguration:
        """Consult the optimizer for one stage under new conditions."""
        resources = self._recost_degraded(join, join.algorithm, conditions)
        if resources is not None:
            return resources
        # The operator is infeasible under the new envelope (e.g. a BHJ
        # whose broadcast no longer fits): fall back to the clamped
        # original and let the engine surface the failure.
        return conditions.clamp(join.resources)
