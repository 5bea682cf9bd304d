"""Simulated execution of physical plans: time, resources used, dollars.

This is the substitute for actually running Hive/SparkSQL on a YARN
cluster. A plan executes its join operators sequentially at shuffle
boundaries (child joins before parents), each on its own per-operator
resource configuration when RAQO planned one, or on a global default
otherwise. The executor reports the paper's three evaluation metrics:
execution time, total resources used ("the product of the total memory and
the total execution time", Sec I), and serverless monetary cost.

Fault injection (``faults=``/``recovery=``) threads every stage through
the deterministic attempt loop in :mod:`repro.faults.injection`:
container preemptions and OOM kills waste work and trigger capped
exponential-backoff retries, stragglers stretch (and may speculatively
re-execute) a stage, and a BHJ that OOMs degrades to SMJ instead of
failing the query. A zero-fault plan is bit-identical to running without
fault injection at all -- the contract the property suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.containers import ResourceConfiguration
from repro.cluster.pricing import PriceModel
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
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, SpanHandle, Tracer
from repro.planner.plan import JoinNode, PlanNode


class ExecutionError(Exception):
    """Raised when a plan cannot be executed as specified.

    Carries the failing stage's context so callers (and logs) can tell
    *which* operator, on *which* attempt, under *which* envelope broke:
    ``stage_id`` (postorder index), ``tables``, ``attempt`` (0-based),
    and ``resources`` (None when the stage had no envelope at all).
    When the run was traced, ``span_id``/``trace_id`` join the failure
    back to the stage's span in the exported trace file.
    """

    def __init__(
        self,
        message: str,
        stage_id: Optional[int] = None,
        tables: Optional[FrozenSet[str]] = None,
        attempt: int = 0,
        resources: Optional[ResourceConfiguration] = None,
        span_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.stage_id = stage_id
        self.tables = tables
        self.attempt = attempt
        self.resources = resources
        self.span_id = span_id
        self.trace_id = trace_id
        parts = [message]
        if stage_id is not None:
            parts.append(f"stage={stage_id}")
        if tables is not None:
            parts.append(f"tables={sorted(tables)}")
        if stage_id is not None or tables is not None:
            parts.append(f"attempt={attempt}")
            parts.append(
                f"resources={resources}"
                if resources is not None
                else "resources=<none>"
            )
        if span_id:
            parts.append(f"span={span_id}")
        super().__init__(" | ".join(parts))


@dataclass(frozen=True)
class JoinRunReport:
    """Simulated execution of one join operator.

    The fault-era fields default to their quiet values so fault-free
    runs (and zero-fault injected runs) produce reports identical to the
    pre-fault executor's.
    """

    left_tables: FrozenSet[str]
    right_tables: FrozenSet[str]
    algorithm: JoinAlgorithm
    resources: ResourceConfiguration
    feasible: bool
    time_s: float
    gb_seconds: float
    #: Per-attempt history; empty unless a fault, retry, degradation, or
    #: speculative copy touched this stage.
    attempts: Tuple[AttemptRecord, ...] = ()
    retries: int = 0
    #: True when a BHJ fell back to SMJ (``algorithm`` then reports the
    #: SMJ that actually ran).
    degraded: bool = False
    speculative: bool = False
    faults_injected: int = 0

    @property
    def tables(self) -> FrozenSet[str]:
        """All tables covered by this join."""
        return self.left_tables | self.right_tables


@dataclass(frozen=True)
class ExecutionResult:
    """End-to-end simulated execution of a plan."""

    time_s: float
    gb_seconds: float
    dollars: float
    feasible: bool
    joins: Tuple[JoinRunReport, ...]
    #: Aggregate fault/recovery counters (all zero for fault-free runs).
    retries: int = 0
    faults_injected: int = 0
    degraded_stages: int = 0
    speculative_stages: int = 0

    @property
    def tb_seconds(self) -> float:
        """The paper's Fig 2 unit: resources used in TB * seconds."""
        return self.gb_seconds / 1024.0


def oom_pressure(
    algorithm: JoinAlgorithm,
    small_gb: float,
    resources: ResourceConfiguration,
    profile: EngineProfile,
) -> float:
    """Memory-budget utilisation of a join stage (scales OOM kills).

    For BHJ this is the broadcast table over the per-container hash
    budget -- the quantity whose crossing 1.0 is the paper's OOM wall.
    SMJ streams and spills, so its injected OOM pressure is zero.
    """
    if algorithm is not JoinAlgorithm.BROADCAST_HASH:
        return 0.0
    budget = profile.hash_memory_fraction * resources.container_gb
    if budget <= 0:
        return math.inf
    return small_gb / budget


def execute_plan(
    plan: PlanNode,
    estimator: StatisticsEstimator,
    profile: EngineProfile,
    default_resources: Optional[ResourceConfiguration] = None,
    price_model: Optional[PriceModel] = None,
    num_reducers: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
    tracer: Tracer = NULL_TRACER,
    telemetry: Optional[TelemetryPlane] = None,
    sim_epoch_s: float = 0.0,
) -> ExecutionResult:
    """Simulate ``plan`` and account its time, resources, and cost.

    Every join uses its own annotated
    :class:`~repro.cluster.containers.ResourceConfiguration` when present,
    else ``default_resources`` (an :class:`ExecutionError` if neither is
    available). Infeasible joins (BHJ OOM) make the whole result
    infeasible with infinite time, mirroring a failed job -- unless a
    ``recovery`` policy allows the BHJ -> SMJ fallback.

    ``faults`` injects deterministic preemptions, OOM kills, and
    stragglers (see :mod:`repro.faults`); ``recovery`` defaults to
    :data:`~repro.faults.recovery.DEFAULT_RECOVERY` whenever ``faults``
    is given, and may also be passed alone to enable degradation without
    injected faults.

    ``tracer`` (the no-op null tracer by default) records a ``run`` span
    with one ``stage`` span per join operator -- simulated-time windows
    on the plan's cumulative clock -- and, on the fault path, per
    ``attempt`` child spans with fault/retry events.

    ``telemetry`` additionally lands each stage on the plane's
    simulated-clock windowed series (stage counts, stage-time
    distributions, container occupancy) stamped at ``sim_epoch_s`` plus
    the plan's cumulative clock, and emits ``stage_degraded`` /
    ``stage_infeasible`` events into the unified event log.  Because
    every record carries an explicit simulated timestamp, the windowed
    snapshots of a seeded run are byte-identical however the run was
    scheduled.
    """
    price_model = price_model or PriceModel()
    if faults is not None and recovery is None:
        recovery = DEFAULT_RECOVERY
    reports = []
    total_time = 0.0
    total_gb_seconds = 0.0
    feasible = True

    with tracer.span("run", kind="engine") as run_span:
        for stage_id, join in enumerate(plan.joins_postorder()):
            stage_span = tracer.span(
                "stage", kind="engine", parent=run_span, key=str(stage_id)
            )
            with stage_span:
                resources = join.resources or default_resources
                if resources is None:
                    stage_span.set_attribute("error", "no-resources")
                    raise ExecutionError(
                        "join has no resources and no default was "
                        "provided",
                        stage_id=stage_id,
                        tables=frozenset(join.tables),
                        span_id=stage_span.span_id or None,
                        trace_id=tracer.trace_id or None,
                    )
                small_gb, large_gb = estimator.join_io_gb(
                    join.left.tables, join.right.tables
                )
                if faults is None and recovery is None:
                    report = _run_stage_plain(
                        join,
                        resources,
                        small_gb,
                        large_gb,
                        profile,
                        num_reducers,
                    )
                else:
                    report = _run_stage_faulty(
                        join,
                        resources,
                        small_gb,
                        large_gb,
                        profile,
                        num_reducers,
                        faults,
                        recovery,
                        tracer=tracer,
                        stage_span=stage_span,
                        sim_start_s=total_time,
                    )
                if stage_span.active:
                    _annotate_stage_span(
                        stage_span, stage_id, report, total_time
                    )
            reports.append(report)
            feasible = feasible and report.feasible
            total_time += report.time_s
            total_gb_seconds += report.gb_seconds
            if telemetry is not None:
                _record_stage_telemetry(
                    telemetry,
                    stage_id,
                    report,
                    _stage_end_s(sim_epoch_s, total_time),
                )
        if run_span.active:
            run_span.set_attributes(
                {
                    "stages": len(reports),
                    "feasible": feasible,
                    "retries": sum(r.retries for r in reports),
                    "faults_injected": sum(
                        r.faults_injected for r in reports
                    ),
                }
            )
            if feasible:
                run_span.set_sim_window(0.0, total_time)
                run_span.set_attribute(
                    "gb_seconds", total_gb_seconds
                )

    dollars = (
        price_model.cost_of_gb_seconds(total_gb_seconds)
        if feasible
        else math.inf
    )
    return ExecutionResult(
        time_s=total_time,
        gb_seconds=total_gb_seconds,
        dollars=dollars,
        feasible=feasible,
        joins=tuple(reports),
        retries=sum(r.retries for r in reports),
        faults_injected=sum(r.faults_injected for r in reports),
        degraded_stages=sum(1 for r in reports if r.degraded),
        speculative_stages=sum(1 for r in reports if r.speculative),
    )


def replay_stage_telemetry(
    telemetry: TelemetryPlane,
    stages: Sequence[JoinRunReport],
) -> None:
    """Land already-simulated stages on ``telemetry``.

    Records exactly what :func:`execute_plan` records with
    ``telemetry=`` set and the default ``sim_epoch_s=0``, for a plan
    simulated where the plane could not go (a worker process of the
    sharded workload runner).
    """
    total_time = 0.0
    for stage_id, report in enumerate(stages):
        total_time += report.time_s
        _record_stage_telemetry(
            telemetry, stage_id, report, _stage_end_s(0.0, total_time)
        )


def _stage_end_s(sim_epoch_s: float, total_time: float) -> float:
    """Sim timestamp of a stage that ends ``total_time`` into its plan.

    An infeasible (infinite) plan clock stamps at the epoch, so its
    records still land in a finite window.
    """
    return sim_epoch_s + (total_time if math.isfinite(total_time) else 0.0)


def _record_stage_telemetry(
    telemetry: TelemetryPlane,
    stage_id: int,
    report: JoinRunReport,
    stage_end_s: float,
) -> None:
    """Land one finished stage on the sim-clock windowed series."""
    telemetry.windowed_counter(
        "execution.stages", clock="sim"
    ).inc(ts_s=stage_end_s)
    telemetry.windowed_gauge(
        "execution.stage_containers", clock="sim"
    ).record(float(report.resources.num_containers), ts_s=stage_end_s)
    if report.feasible and math.isfinite(report.time_s):
        telemetry.windowed_histogram(
            "execution.stage_time_s", clock="sim"
        ).observe(report.time_s, ts_s=stage_end_s)
    if report.degraded:
        telemetry.events.emit(
            "stage_degraded",
            stage_end_s,
            clock="sim",
            attributes={
                "stage_id": stage_id,
                "algorithm": report.algorithm.value,
                "tables": ",".join(sorted(report.tables)),
            },
        )
    if not report.feasible:
        telemetry.events.emit(
            "stage_infeasible",
            stage_end_s,
            clock="sim",
            attributes={
                "stage_id": stage_id,
                "algorithm": report.algorithm.value,
                "tables": ",".join(sorted(report.tables)),
                "container_gb": report.resources.container_gb,
            },
        )


def _annotate_stage_span(
    stage_span: SpanHandle,
    stage_id: int,
    report: JoinRunReport,
    sim_start_s: float,
) -> None:
    """Attach a stage's outcome to its span (traced runs only)."""
    stage_span.set_attributes(
        {
            "stage_id": stage_id,
            "algorithm": report.algorithm.value,
            "tables": ",".join(sorted(report.tables)),
            "num_containers": report.resources.num_containers,
            "container_gb": report.resources.container_gb,
            "total_memory_gb": report.resources.total_memory_gb,
            "feasible": report.feasible,
            "retries": report.retries,
            "degraded": report.degraded,
            "speculative": report.speculative,
            "faults_injected": report.faults_injected,
        }
    )
    if math.isfinite(report.time_s) and math.isfinite(sim_start_s):
        stage_span.set_sim_window(
            sim_start_s, sim_start_s + report.time_s
        )
        stage_span.set_attribute("time_s", report.time_s)


def _run_stage_plain(
    join: JoinNode,
    resources: ResourceConfiguration,
    small_gb: float,
    large_gb: float,
    profile: EngineProfile,
    num_reducers: Optional[int],
) -> JoinRunReport:
    """The historical fault-free fast path (bit-for-bit preserved)."""
    execution = join_execution(
        join.algorithm,
        small_gb,
        large_gb,
        resources,
        profile,
        num_reducers=num_reducers,
    )
    gb_seconds = (
        resources.gb_seconds(execution.time_s)
        if execution.feasible
        else math.inf
    )
    return JoinRunReport(
        left_tables=frozenset(join.left.tables),
        right_tables=frozenset(join.right.tables),
        algorithm=join.algorithm,
        resources=resources,
        feasible=execution.feasible,
        time_s=execution.time_s,
        gb_seconds=gb_seconds,
    )


def _run_stage_faulty(
    join: JoinNode,
    resources: ResourceConfiguration,
    small_gb: float,
    large_gb: float,
    profile: EngineProfile,
    num_reducers: Optional[int],
    faults: Optional[FaultPlan],
    recovery: Optional[RecoveryPolicy],
    tracer: Tracer = NULL_TRACER,
    stage_span: SpanHandle = NULL_SPAN,
    sim_start_s: float = 0.0,
) -> JoinRunReport:
    """One stage through the fault-aware attempt loop."""

    def run_attempt(
        algorithm: JoinAlgorithm, config: ResourceConfiguration
    ) -> JoinExecution:
        return join_execution(
            algorithm,
            small_gb,
            large_gb,
            config,
            profile,
            num_reducers=num_reducers,
        )

    def pressure(
        algorithm: JoinAlgorithm, config: ResourceConfiguration
    ) -> float:
        return oom_pressure(algorithm, small_gb, config, profile)

    outcome = run_stage_with_faults(
        stage_key=stage_key_for_join(
            join.left.tables, join.right.tables, join.algorithm
        ),
        algorithm=join.algorithm,
        resources=resources,
        run_attempt=run_attempt,
        oom_pressure=pressure,
        faults=faults,
        recovery=recovery,
        tracer=tracer,
        stage_span=stage_span,
        sim_start_s=sim_start_s,
    )
    return JoinRunReport(
        left_tables=frozenset(join.left.tables),
        right_tables=frozenset(join.right.tables),
        algorithm=outcome.algorithm,
        resources=outcome.resources,
        feasible=outcome.feasible,
        time_s=outcome.elapsed_s,
        gb_seconds=outcome.gb_seconds,
        attempts=outcome.attempts,
        retries=outcome.retries,
        degraded=outcome.degraded,
        speculative=outcome.speculative,
        faults_injected=outcome.faults_injected,
    )
