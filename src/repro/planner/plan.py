"""Physical plan trees: scans and binary joins, with per-operator resources.

A plan is an immutable binary tree. Each join node carries its physical
implementation (:class:`~repro.engine.joins.JoinAlgorithm`) and, once RAQO
has planned it, a per-operator
:class:`~repro.cluster.containers.ResourceConfiguration` -- the paper's
joint query/resource plan ("the optimizer ... emits a joint query and
resource plan, which contains both the operator DAG ... and the resources
to be requested to the RM for each operator in the DAG", Sec IV).
"""

from __future__ import annotations

import dataclasses
import types
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.containers import ResourceConfiguration
from repro.engine.joins import JoinAlgorithm
from repro.planner.operators import JOIN_IMPLEMENTATIONS

#: Stable operator codes for the struct-of-arrays candidate batch
#: (enum order is part of the planner's deterministic iteration order).
#: Read-only so worker threads can share it without a lock.
ALGORITHM_CODES: Mapping[JoinAlgorithm, int] = types.MappingProxyType(
    dict((algorithm, code) for code, algorithm in enumerate(JoinAlgorithm))
)

#: The operator codes of ``JOIN_IMPLEMENTATIONS``, in that order.
_JOIN_CODES = tuple(
    ALGORITHM_CODES[algorithm] for algorithm in JOIN_IMPLEMENTATIONS
)


class PlanError(Exception):
    """Raised for malformed plan trees."""


@dataclass(frozen=True)
class PlanNode:
    """Base class for plan tree nodes."""

    @property
    def tables(self) -> FrozenSet[str]:
        """All base tables under this node."""
        raise NotImplementedError

    @property
    def is_join(self) -> bool:
        """True for join nodes."""
        return isinstance(self, JoinNode)

    def joins_postorder(self) -> Iterator["JoinNode"]:
        """All join nodes below (and including) this one, children first."""
        if isinstance(self, JoinNode):
            yield from self.left.joins_postorder()
            yield from self.right.joins_postorder()
            yield self

    def scans(self) -> Iterator["ScanNode"]:
        """All scan leaves, left to right."""
        if isinstance(self, ScanNode):
            yield self
        elif isinstance(self, JoinNode):
            yield from self.left.scans()
            yield from self.right.scans()

    @property
    def num_joins(self) -> int:
        """Number of join nodes in the subtree."""
        return sum(1 for _ in self.joins_postorder())

    def map_joins(
        self, transform: Callable[["JoinNode"], "JoinNode"]
    ) -> "PlanNode":
        """Rebuild the tree, applying ``transform`` to each join bottom-up.

        ``transform`` receives a join node whose children have already been
        transformed, and must return a join node over the same children.
        """
        if isinstance(self, ScanNode):
            return self
        if isinstance(self, JoinNode):
            rebuilt = dataclasses.replace(
                self,
                left=self.left.map_joins(transform),
                right=self.right.map_joins(transform),
            )
            result = transform(rebuilt)
            if result.tables != self.tables:
                raise PlanError(
                    "map_joins transform changed the table set "
                    f"({sorted(self.tables)} -> {sorted(result.tables)})"
                )
            return result
        raise PlanError(f"unknown node type {type(self).__name__}")

    def explain(self, indent: int = 0) -> str:
        """A readable multi-line rendering of the plan."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.explain()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """A full scan of one base table."""

    table: str

    def __post_init__(self) -> None:
        if not self.table:
            raise PlanError("scan table name must be non-empty")

    @property
    def tables(self) -> FrozenSet[str]:
        return frozenset((self.table,))

    def explain(self, indent: int = 0) -> str:
        return " " * indent + f"Scan({self.table})"


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """A binary join with an implementation and (optionally) resources.

    By convention the *build/broadcast* side of a BHJ is whichever input
    is smaller -- the simulator and cost models take (smaller, larger)
    sizes, so left/right order encodes join order, not build side.
    """

    left: PlanNode
    right: PlanNode
    algorithm: JoinAlgorithm = JoinAlgorithm.SORT_MERGE
    resources: Optional[ResourceConfiguration] = None
    #: The subtree's tables, computed once from the children's (not
    #: rebuilt from the whole subtree on every read); outside ``==``,
    #: ``hash`` and ``repr``, and recomputed by ``dataclasses.replace``.
    _tables: FrozenSet[str] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        left, right = self.left.tables, self.right.tables
        overlap = left & right
        if overlap:
            raise PlanError(
                f"join children overlap on tables {sorted(overlap)}"
            )
        object.__setattr__(self, "_tables", left | right)

    @property
    def tables(self) -> FrozenSet[str]:
        return self._tables

    def with_algorithm(self, algorithm: JoinAlgorithm) -> "JoinNode":
        """A copy using a different join implementation."""
        return dataclasses.replace(self, algorithm=algorithm)

    def with_resources(
        self, resources: Optional[ResourceConfiguration]
    ) -> "JoinNode":
        """A copy annotated with a per-operator resource configuration."""
        return dataclasses.replace(self, resources=resources)

    def explain(self, indent: int = 0) -> str:
        pad = " " * indent
        resources = f" @ {self.resources}" if self.resources else ""
        lines = [
            f"{pad}{self.algorithm.name}{resources}",
            self.left.explain(indent + 2),
            self.right.explain(indent + 2),
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class CandidateBatch:
    """A struct-of-arrays batch of join candidates awaiting costing.

    One entry per (left input, right input, join implementation) triple,
    in the exact order the planner would have costed them one at a time
    -- batched costing replays this order, which is what keeps champion
    selection (and therefore the chosen plans) bit-identical to the
    scalar path. The numeric columns are parallel numpy arrays so a
    coster can feed a whole DP level (or a whole bushy plan's joins)
    into one stacked kernel call; the table sets stay as Python
    frozensets for plan reconstruction.
    """

    #: Per-candidate table sets (parallel to the arrays below).
    left_tables: Tuple[FrozenSet[str], ...]
    right_tables: Tuple[FrozenSet[str], ...]
    algorithms: Tuple[JoinAlgorithm, ...]
    #: Operator codes (``ALGORITHM_CODES``) as one int array.
    algorithm_codes: np.ndarray
    #: Candidate (smaller, larger) input sizes in GB.
    small_gb: np.ndarray
    large_gb: np.ndarray

    @classmethod
    def build(
        cls,
        candidates: Sequence[
            Tuple[FrozenSet[str], FrozenSet[str], JoinAlgorithm]
        ],
        join_io_gb: Callable[
            [FrozenSet[str], FrozenSet[str]], Tuple[float, float]
        ],
    ) -> "CandidateBatch":
        """Assemble a batch, deriving sizes via ``join_io_gb``.

        ``join_io_gb`` is typically
        :meth:`~repro.planner.cost_interface.PlanningContext.join_io_gb`;
        it is a pure function of the (left, right) pair, so the batch
        evaluates it once per distinct pair (planners enumerate every
        join implementation per pair, so this saves a constant factor
        of ``len(JoinAlgorithm)`` without changing any value).
        """
        lefts: List[FrozenSet[str]] = []
        rights: List[FrozenSet[str]] = []
        algorithms: List[JoinAlgorithm] = []
        codes: List[int] = []
        small: List[float] = []
        large: List[float] = []
        sizes: Dict[
            Tuple[FrozenSet[str], FrozenSet[str]], Tuple[float, float]
        ] = {}
        for left, right, algorithm in candidates:
            lefts.append(left)
            rights.append(right)
            algorithms.append(algorithm)
            codes.append(ALGORITHM_CODES[algorithm])
            pair = (left, right)
            io_gb = sizes.get(pair)
            if io_gb is None:
                io_gb = join_io_gb(left, right)
                sizes[pair] = io_gb
            ss, ls = io_gb
            small.append(ss)
            large.append(ls)
        return cls(
            left_tables=tuple(lefts),
            right_tables=tuple(rights),
            algorithms=tuple(algorithms),
            algorithm_codes=np.asarray(codes, dtype=np.int8),
            small_gb=np.asarray(small, dtype=float),
            large_gb=np.asarray(large, dtype=float),
        )

    @classmethod
    def of_pairs(
        cls,
        lefts: Sequence[FrozenSet[str]],
        rights: Sequence[FrozenSet[str]],
        sizes: Sequence[Tuple[float, float]],
    ) -> "CandidateBatch":
        """Every ``JOIN_IMPLEMENTATIONS`` candidate of each (left,
        right) pair, pair by pair, given each pair's (smaller, larger)
        input sizes: the DP planners meet each pair once per level."""
        width = len(JOIN_IMPLEMENTATIONS)
        small_gb, large_gb = np.repeat(
            np.asarray(sizes, dtype=float), width, axis=0
        ).T
        return cls(
            left_tables=tuple(x for x in lefts for _ in range(width)),
            right_tables=tuple(x for x in rights for _ in range(width)),
            algorithms=JOIN_IMPLEMENTATIONS * len(lefts),
            algorithm_codes=np.array(
                _JOIN_CODES * len(lefts), dtype=np.int8
            ),
            small_gb=small_gb,
            large_gb=large_gb,
        )

    def __len__(self) -> int:
        return len(self.algorithms)


def left_deep_plan(
    tables: Sequence[str],
    algorithms: Optional[Sequence[JoinAlgorithm]] = None,
) -> PlanNode:
    """Build a left-deep plan joining ``tables`` in the given order.

    ``algorithms[i]`` is the implementation of the i-th join from the
    bottom; defaults to SMJ everywhere.
    """
    if not tables:
        raise PlanError("cannot build a plan over zero tables")
    if algorithms is not None and len(algorithms) != len(tables) - 1:
        raise PlanError(
            f"need {len(tables) - 1} algorithms, got {len(algorithms)}"
        )
    node: PlanNode = ScanNode(tables[0])
    for index, table in enumerate(tables[1:]):
        algorithm = (
            algorithms[index]
            if algorithms is not None
            else JoinAlgorithm.SORT_MERGE
        )
        node = JoinNode(
            left=node, right=ScanNode(table), algorithm=algorithm
        )
    return node


def plan_signature(node: PlanNode) -> Tuple:
    """A hashable structural signature (for dedup in randomized search)."""
    if isinstance(node, ScanNode):
        return ("scan", node.table)
    if isinstance(node, JoinNode):
        return (
            "join",
            node.algorithm.value,
            plan_signature(node.left),
            plan_signature(node.right),
        )
    raise PlanError(f"unknown node type {type(node).__name__}")


def join_order(node: PlanNode) -> List[str]:
    """The base-table order of the plan's leaves, left to right."""
    return [scan.table for scan in node.scans()]
