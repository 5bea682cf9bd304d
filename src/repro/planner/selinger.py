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
import math
from typing import Dict, FrozenSet, List, Tuple

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


#: A DP subset's champion, keyed by its table mask: its plan, cost,
#: table set, and the mask of every table that joins one of its tables.
Best = Tuple[PlanNode, Cost, FrozenSet[str], int]
#: One join pair of a DP level: the subset's, left and right input's
#: masks, and the inputs' summed time and money.
Pair = Tuple[int, int, int, float, float]


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
    costing one candidate at a time. Subsets are int masks over the
    query's tables (:func:`_scans`); frozensets are built only for
    subsets that win a champion.
    """

    name = "selinger"
    #: The plan shape the DP searches (named when no plan exists).
    shape = "left-deep"

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

        best = _scans(query, context)
        bits = list(best)
        for size in range(2, len(bits) + 1):
            pairs = self._level_pairs(size, bits, best)
            if pairs:
                self._cost_level(pairs, best, context)

        full = sum(bits)
        if full not in best:
            raise PlanningError(
                f"no connected {self.shape} plan found for query "
                f"{query.name!r}"
            )
        plan, cost, _, _ = best[full]
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

    def _level_pairs(
        self, size: int, bits: List[int], best: Dict[int, Best]
    ) -> List[Pair]:
        """Every (subset, extension relation) pair of one DP level, in
        sorted-combination order.

        A pair qualifies when its rest has a plan and the new relation
        joins it; that also makes the subset connected, so no separate
        connectivity test runs.
        """
        pairs: List[Pair] = []
        for combo in itertools.combinations(bits, size):
            subset = sum(combo)
            for bit in combo:  # sorted
                rest = subset ^ bit
                entry = best.get(rest)
                # Left-deep: the new relation is always the right
                # input, and must actually join (no cross products).
                if entry is not None and entry[3] & bit:
                    cost = entry[1]
                    pairs.append(
                        (subset, rest, bit, cost.time_s, cost.money)
                    )
        return pairs

    def _cost_level(
        self,
        pairs: List[Pair],
        best: Dict[int, Best],
        context: PlanningContext,
    ) -> None:
        """Cost one DP level's pairs in one ``cost_batch`` call and
        record each subset's champion in ``best``.

        Each pair's inputs are sized once through ``context.join_io_gb``.
        Champions are picked over Python floats: each lane's total is
        the pair's base cost plus its join cost (the IEEE adds of
        ``Cost.__add__``), scalarised with the ``Cost.scalar``
        expression, and scanned in candidate order, skipping infeasible
        totals; a strict ``<`` keeps the first of equal scalars. Only
        each subset's final champion becomes a ``JoinNode`` and a
        ``Cost``.
        """
        width = len(JOIN_IMPLEMENTATIONS)
        context.counters.join_costings += len(pairs) * width
        lefts = [best[pair[1]][2] for pair in pairs]
        rights = [best[pair[2]][2] for pair in pairs]
        sizes = list(map(context.join_io_gb, lefts, rights))
        batch = CandidateBatch.of_pairs(lefts, rights, sizes)
        costed = self._coster.cost_batch(batch, context)
        times = costed.time_s.tolist()
        moneys = costed.money.tolist()
        time_weight, money_weight = self._time_weight, self._money_weight
        #: Subset -> (lane, scalar, time, money) of its champion so far.
        champions: Dict[int, Tuple[int, float, float, float]] = {}
        for index, (subset, _, _, base_time, base_money) in enumerate(
            pairs
        ):
            for lane in range(index * width, index * width + width):
                time_s = base_time + times[lane]
                money = base_money + moneys[lane]
                if not (math.isfinite(time_s) and math.isfinite(money)):
                    continue
                scalar = time_weight * time_s + money_weight * money
                champion = champions.get(subset)
                if champion is None or scalar < champion[1]:
                    champions[subset] = (lane, scalar, time_s, money)
        for subset, (lane, _, time_s, money) in champions.items():
            _, left, right, _, _ = pairs[lane // width]
            left_plan, _, left_tables, left_reach = best[left]
            right_plan, _, right_tables, right_reach = best[right]
            node = JoinNode(
                left=left_plan,
                right=right_plan,
                algorithm=batch.algorithms[lane],
                resources=costed.configs[lane],
            )
            best[subset] = (
                node,
                Cost(time_s=time_s, money=money),
                left_tables | right_tables,
                left_reach | right_reach,
            )


def _scans(query: Query, context: PlanningContext) -> Dict[int, Best]:
    """The DP's size-1 entries, keyed by each table's bit.

    Bit ``i`` is the ``i``-th table name in sorted order, so
    ``itertools.combinations`` over the bits enumerates subsets in
    sorted-name order, the candidate order champion ties depend on.
    """
    names = sorted(frozenset(query.tables))
    bits = {name: 1 << index for index, name in enumerate(names)}
    graph = context.estimator.join_graph
    return {
        bits[name]: (
            ScanNode(name),
            ZERO_COST,
            frozenset((name,)),
            sum(bits.get(other, 0) for other in graph.neighbors(name)),
        )
        for name in names
    }


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
