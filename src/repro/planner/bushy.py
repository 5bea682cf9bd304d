"""Bushy dynamic-programming join ordering (DPsize).

The paper's Selinger prototype is left-deep ("we implemented the Selinger
algorithm for left deep trees"), while its FastRandomized planner searches
bushy trees. This module completes the picture with the classic
DPsize-style exhaustive bushy optimizer: for every connected relation
subset, the best plan is the cheapest join of two connected,
complementary sub-plans. It shares the :class:`~repro.planner.
cost_interface.PlanCoster` seam, so it runs as a plain query optimizer or
as cost-based RAQO, and bounds the quality of both other planners on
small queries (see the planner-agreement tests).
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.catalog.queries import Query
from repro.planner.cost_interface import PlanningContext, PlanningResult
from repro.planner.selinger import (
    Best,
    Pair,
    PlanningError,
    SelingerPlanner,
)

#: Exhaustive bushy enumeration is exponential; refuse silly inputs.
MAX_BUSHY_RELATIONS = 12


class BushyPlanner(SelingerPlanner):
    """Exhaustive bushy join-order optimizer (DPsize).

    The :class:`~repro.planner.selinger.SelingerPlanner` DP over table
    masks, with every (left, right) partition of a connected subset as
    a candidate instead of single-relation extensions. Each level is
    costed through a single ``cost_batch`` call: size-``k`` entries
    only read strictly smaller ``best`` entries, so a batched level is
    bit-identical to costing its candidates one at a time.
    """

    name = "bushy_dp"
    shape = "bushy"

    def plan(
        self, query: Query, context: PlanningContext
    ) -> PlanningResult:
        """Optimize ``query`` over the full bushy plan space."""
        if len(query.tables) > MAX_BUSHY_RELATIONS:
            raise PlanningError(
                f"bushy DP is exhaustive; {len(query.tables)} relations "
                f"exceed the {MAX_BUSHY_RELATIONS}-relation limit -- use "
                "the FastRandomized planner"
            )
        return super().plan(query, context)

    def _level_pairs(
        self, size: int, bits: List[int], best: Dict[int, Best]
    ) -> List[Pair]:
        """Every partition of every subset of one DPsize level.

        Subsets come in sorted-combination order, each subset's
        partitions by growing left side, which holds the subset's
        lowest bit (so each unordered partition is met once). A
        partition qualifies when both sides have plans and an edge
        joins them; that also makes the subset connected.
        """
        pairs: List[Pair] = []
        for combo in itertools.combinations(bits, size):
            subset = sum(combo)
            anchor, others = combo[0], combo[1:]
            for picked_size in range(len(others)):
                for picked in itertools.combinations(others, picked_size):
                    left = anchor + sum(picked)
                    right = subset ^ left
                    left_entry = best.get(left)
                    right_entry = best.get(right)
                    if left_entry is None or right_entry is None:
                        continue
                    if not left_entry[3] & right:
                        continue
                    left_cost, right_cost = left_entry[1], right_entry[1]
                    pairs.append(
                        (
                            subset,
                            left,
                            right,
                            left_cost.time_s + right_cost.time_s,
                            left_cost.money + right_cost.money,
                        )
                    )
        return pairs
