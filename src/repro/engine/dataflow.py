"""Dataflow DAG view of a physical plan (Tez/Spark style vertices).

Big data engines execute SQL plans as DAGs of stages ("a DAG consists of
vertices (or stages) that correspond to dataflow operators ... each vertex
consists of a set of tasks that can be executed in parallel", paper
footnote 1). This module lowers a physical join plan into that stage DAG:
an SMJ becomes a map vertex feeding a reduce vertex across a shuffle
boundary; a BHJ becomes a broadcast vertex feeding a probe (map-side join)
vertex. The DAG is what a runtime would hand to the resource manager, and
what the executor accounts resources against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.catalog.statistics import StatisticsEstimator
from repro.engine.joins import (
    JoinAlgorithm,
    default_num_reducers,
    num_map_tasks,
)
from repro.engine.profiles import EngineProfile
from repro.planner.plan import PlanNode


class StageKind(enum.Enum):
    """The vertex types our engines emit."""

    MAP = "map"
    REDUCE = "reduce"
    BROADCAST = "broadcast"
    PROBE = "probe"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Stage:
    """One DAG vertex: a parallel set of identical tasks."""

    name: str
    kind: StageKind
    num_tasks: int
    input_gb: float
    output_gb: float

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError(
                f"stage {self.name!r} needs >= 1 task, got {self.num_tasks}"
            )
        if self.input_gb < 0 or self.output_gb < 0:
            raise ValueError(
                f"stage {self.name!r} has negative data volumes"
            )


class DataflowDAG:
    """A DAG of stages with shuffle/broadcast edges."""

    def __init__(self) -> None:
        self._stages: Dict[str, Stage] = {}
        #: Stage -> downstream stages; both levels keep insertion order,
        #: which fixes the topological order of :meth:`stages`.
        self._successors: Dict[str, Dict[str, None]] = {}

    def add_stage(self, stage: Stage) -> None:
        """Register a stage vertex."""
        if stage.name in self._stages:
            raise ValueError(f"duplicate stage {stage.name!r}")
        self._stages[stage.name] = stage
        self._successors[stage.name] = {}

    def add_edge(self, upstream: str, downstream: str) -> None:
        """Add a data dependency between two stages."""
        for name in (upstream, downstream):
            if name not in self._stages:
                raise ValueError(f"unknown stage {name!r}")
        if self._reaches(downstream, upstream):
            raise ValueError(
                f"edge {upstream!r} -> {downstream!r} creates a cycle"
            )
        self._successors[upstream][downstream] = None

    def _reaches(self, source: str, target: str) -> bool:
        """True when a path (possibly empty) leads from source to target."""
        seen = {source}
        pending = [source]
        while pending:
            name = pending.pop()
            if name == target:
                return True
            for child in self._successors[name]:
                if child not in seen:
                    seen.add(child)
                    pending.append(child)
        return False

    def stage(self, name: str) -> Stage:
        """Lookup a stage by name."""
        return self._stages[name]

    def stages(self) -> List[Stage]:
        """All stages in topological order.

        Kahn's algorithm by generations: the stages with no pending
        upstream in insertion order, then the stages they release, in
        the order their edges were added.
        """
        indegree = dict.fromkeys(self._successors, 0)
        for children in self._successors.values():
            for child in children:
                indegree[child] += 1
        generation = [name for name, count in indegree.items() if not count]
        order: List[str] = []
        while generation:
            order.extend(generation)
            released: List[str] = []
            for name in generation:
                for child in self._successors[name]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        released.append(child)
            generation = released
        return [self._stages[name] for name in order]

    def successors(self, name: str) -> List[str]:
        """Downstream stage names."""
        return sorted(self._successors[name])

    @property
    def total_tasks(self) -> int:
        """Total task count across all vertices."""
        return sum(stage.num_tasks for stage in self._stages.values())

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages())


def plan_to_dag(
    plan: PlanNode,
    estimator: StatisticsEstimator,
    profile: EngineProfile,
    num_reducers: Optional[int] = None,
) -> DataflowDAG:
    """Lower a physical plan into its stage DAG.

    Join operators sit at shuffle boundaries (Sec VI-A assumption), so
    each join contributes its own vertices; child joins feed the parent's
    first vertex.
    """
    dag = DataflowDAG()
    final_stage_of: Dict[FrozenSetKey, str] = {}

    for index, join in enumerate(plan.joins_postorder()):
        small_gb, large_gb = estimator.join_io_gb(
            join.left.tables, join.right.tables
        )
        output_gb = estimator.stats_for(join.tables).size_gb
        data_gb = small_gb + large_gb
        prefix = f"join{index}"

        if join.algorithm is JoinAlgorithm.SORT_MERGE:
            reducers = num_reducers or default_num_reducers(
                data_gb, profile
            )
            first = Stage(
                name=f"{prefix}.map",
                kind=StageKind.MAP,
                num_tasks=num_map_tasks(data_gb, profile),
                input_gb=data_gb,
                output_gb=data_gb,
            )
            last = Stage(
                name=f"{prefix}.reduce",
                kind=StageKind.REDUCE,
                num_tasks=reducers,
                input_gb=data_gb,
                output_gb=output_gb,
            )
        else:
            first = Stage(
                name=f"{prefix}.broadcast",
                kind=StageKind.BROADCAST,
                num_tasks=1,
                input_gb=small_gb,
                output_gb=small_gb,
            )
            last = Stage(
                name=f"{prefix}.probe",
                kind=StageKind.PROBE,
                num_tasks=num_map_tasks(large_gb, profile),
                input_gb=large_gb,
                output_gb=output_gb,
            )
        dag.add_stage(first)
        dag.add_stage(last)
        dag.add_edge(first.name, last.name)

        for child in (join.left, join.right):
            child_key = frozenset(child.tables)
            child_final = final_stage_of.get(child_key)
            if child_final is not None:
                dag.add_edge(child_final, first.name)
        final_stage_of[frozenset(join.tables)] = last.name

    return dag


FrozenSetKey = frozenset
