"""System R (Selinger) style bottom-up join ordering for left-deep trees.

"For System R style optimization, we implemented the Selinger algorithm for
left deep trees" (Sec VII-A). Dynamic programming over connected relation
subsets: the best plan for a set is the cheapest extension of a best plan
for one of its subsets by a single base relation, considering every join
implementation. All costing goes through the
:class:`~repro.planner.cost_interface.PlanCoster` seam, so the same planner
runs as a plain query optimizer or as cost-based RAQO.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.catalog.queries import Query
from repro.planner.cost_interface import (
    Cost,
    PlanCoster,
    PlanningContext,
    PlanningCounters,
    PlanningResult,
    Stopwatch,
    ZERO_COST,
)
from repro.planner.operators import JOIN_IMPLEMENTATIONS
from repro.planner.plan import (
    CandidateBatch,
    JoinNode,
    PlanNode,
    ScanNode,
)


class PlanningError(Exception):
    """Raised when no feasible plan exists for a query."""


class SelingerPlanner:
    """Left-deep bottom-up dynamic programming join-order optimizer.

    Every DP level -- all single-relation extensions of all connected
    subsets of one size -- is costed as one stacked
    :class:`~repro.planner.plan.CandidateBatch` through the coster's
    ``cost_batch`` entry point. Extensions of size-``k`` subsets only
    read ``best`` entries of size ``k - 1``, so batching a level never
    reorders any observable work: candidates are collected and
    champions compared in exactly the order a per-candidate loop would
    use, and plans, costs, counters and span trees are bit-identical to
    costing one candidate at a time.
    """

    name = "selinger"

    def __init__(
        self,
        coster: PlanCoster,
        time_weight: float = 1.0,
        money_weight: float = 0.0,
    ) -> None:
        self._coster = coster
        self._time_weight = time_weight
        self._money_weight = money_weight

    def plan(
        self, query: Query, context: PlanningContext
    ) -> PlanningResult:
        """Optimize ``query``; returns the paper's planning metrics.

        Counters accumulate into ``context.counters`` (so across-query
        caching experiments can aggregate); the returned result carries
        only this run's deltas.
        """
        query.validate(context.estimator.catalog)
        watch = Stopwatch()
        start = dataclasses.replace(context.counters)
        batches_before = len(context.batch_sizes)

        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]] = {}
        for table in query.tables:
            best[frozenset((table,))] = (ScanNode(table), ZERO_COST)

        all_tables = frozenset(query.tables)
        for size in range(2, len(query.tables) + 1):
            self._extend_level(size, all_tables, best, context)

        if all_tables not in best:
            raise PlanningError(
                f"no connected left-deep plan found for query "
                f"{query.name!r}"
            )
        plan, cost = best[all_tables]
        delta = _counters_delta(start, context.counters)
        return PlanningResult(
            query=query,
            plan=plan,
            cost=cost,
            wall_time_s=watch.elapsed_s(),
            counters=delta,
            planner_name=self.name,
            batch_sizes=tuple(context.batch_sizes[batches_before:]),
        )

    def _extend_level(
        self,
        size: int,
        all_tables: FrozenSet[str],
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]],
        context: PlanningContext,
    ) -> None:
        """Cost one whole DP level as a single candidate batch.

        Collects every (subset, extension relation) pair of this level
        in sorted-combination order and costs all of their join
        implementations in one ``cost_batch`` call. Champions are then
        picked from float arrays: each candidate's total is its rest
        cost plus its join cost, lane by lane (the IEEE adds of
        ``Cost.__add__``), scalarised with the ``Cost.scalar``
        expression, and scanned in candidate order, skipping infeasible
        totals; a strict ``<`` keeps the first of equal scalars. Only
        each subset's final champion becomes a ``JoinNode`` and a
        ``Cost``.
        """
        graph = context.estimator.join_graph
        #: (subset, rest, new table) per joinable pair, in candidate order.
        pairs: List[Tuple[FrozenSet[str], FrozenSet[str], str]] = []
        for combo in itertools.combinations(sorted(all_tables), size):
            subset = frozenset(combo)
            if not graph.is_connected(subset):
                continue
            for table in combo:  # sorted
                rest = subset - {table}
                # Left-deep: the new relation is always the right
                # input, and must actually join (no cross products).
                if rest in best and graph.joinable(rest, (table,)):
                    pairs.append((subset, rest, table))
        if not pairs:
            return
        width = len(JOIN_IMPLEMENTATIONS)
        context.counters.join_costings += len(pairs) * width
        batch = CandidateBatch.build(
            [
                (rest, frozenset((table,)), algorithm)
                for _, rest, table in pairs
                for algorithm in JOIN_IMPLEMENTATIONS
            ],
            context.join_io_gb,
        )
        costed = self._coster.cost_batch(batch, context)
        rest_costs = [best[rest][1] for _, rest, _ in pairs]
        # A 0 * inf or an overflow can only come from an infeasible
        # total, which the scan below skips; Python floats do not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            time_s = np.repeat(
                [cost.time_s for cost in rest_costs], width
            ) + costed.time_s
            money = np.repeat(
                [cost.money for cost in rest_costs], width
            ) + costed.money
            scalars = (
                self._time_weight * time_s + self._money_weight * money
            ).tolist()
        feasible = np.flatnonzero(np.isfinite(time_s) & np.isfinite(money))
        #: Subset -> (candidate index, scalar) of its champion so far.
        champions: Dict[FrozenSet[str], Tuple[int, float]] = {}
        for index in feasible.tolist():
            subset = pairs[index // width][0]
            champion = champions.get(subset)
            if champion is None or scalars[index] < champion[1]:
                champions[subset] = (index, scalars[index])
        for subset, (index, _) in champions.items():
            _, rest, table = pairs[index // width]
            node = JoinNode(
                left=best[rest][0],
                right=ScanNode(table),
                algorithm=batch.algorithms[index],
                resources=costed.configs[index],
            )
            best[subset] = (
                node,
                Cost(time_s=float(time_s[index]), money=float(money[index])),
            )


def _counters_delta(
    start: PlanningCounters, end: PlanningCounters
) -> PlanningCounters:
    """Per-run counter deltas (context counters keep accumulating)."""
    return PlanningCounters(
        **{
            f.name: getattr(end, f.name) - getattr(start, f.name)
            for f in dataclasses.fields(PlanningCounters)
        }
    )
