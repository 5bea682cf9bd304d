"""The per-candidate planning reference the identity suites compare against.

Production plans through one path: the planners cost each DP level (or
each whole candidate plan) through one ``cost_batch`` call, and the RAQO
coster's resource searches cost the whole configuration grid at once.
This module keeps the per-candidate forms those paths replaced, as
oracles. Plans, ``Cost`` bits, counters (other than ``batched_calls`` /
``batch_memo_hits``) and canonical span trees must match them exactly.

Production's RAQO coster opens one ``cost-batch`` span per
``cost_batch`` call. The per-candidate forms open the same span, with
the same attributes, around the candidates production costs in one
call (:func:`reference_batch`): one span per non-empty DP level,
randomized candidate plan or :func:`cost_batch_per_candidate` call.

- :class:`FrozensetSelingerPlanner` and :class:`FrozensetBushyPlanner`
  are the DPs over frozenset table sets that the production planners'
  int-mask DPs replaced, one ``cost_batch`` call per level: every
  ``cost_batch`` call must receive the same candidates in the same
  order from both.
- :class:`ReferenceSelingerPlanner` and :class:`ReferenceBushyPlanner`
  run those DPs but pick every subset's champion with one ``join_cost``
  call per candidate.
- :class:`ReferenceFastRandomizedPlanner` costs each candidate plan join
  by join (:func:`get_plan_cost_per_join`).
- :func:`reference_planner` builds a :class:`RaqoPlanner` whose query
  planner is the per-candidate twin of the one it would use.
- :func:`scalar_resource_search` swaps the resource searches bound in
  :mod:`repro.core.raqo` for their scalar forms (no ``grid_cost_fn``).
- :func:`cost_batch_per_candidate` is ``cost_batch`` as one
  ``join_cost`` call per candidate; :class:`PerCandidateCoster` gives
  test doubles that only define ``join_cost`` a ``cost_batch`` through
  it.
"""

import contextlib
import copy
import dataclasses
import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.catalog.queries import Query
from repro.core import raqo
from repro.planner.bushy import MAX_BUSHY_RELATIONS, BushyPlanner
from repro.planner.cost_interface import (
    BatchCostResult,
    Cost,
    PlanningContext,
    PlanningResult,
    Stopwatch,
    ZERO_COST,
)
from repro.planner.operators import JOIN_IMPLEMENTATIONS
from repro.planner.plan import CandidateBatch, JoinNode, PlanNode, ScanNode
from repro.planner.randomized import FastRandomizedPlanner
from repro.planner.selinger import (
    PlanningError,
    SelingerPlanner,
    _counters_delta,
)

Best = Dict[FrozenSet[str], Tuple[PlanNode, Cost]]


class _ReferenceBatch:
    """The candidates production would cost in one ``cost_batch`` call,
    costed one ``join_cost`` call at a time and tallied."""

    def __init__(self, coster, context):
        self.coster = coster
        self.context = context
        self.before = dataclasses.replace(context.counters)
        self.candidates = 0
        self.feasible = 0

    def join_cost(self, left, right, algorithm):
        cost, config = self.coster.join_cost(
            left, right, algorithm, self.context
        )
        self.candidates += 1
        self.feasible += cost.is_finite
        return cost, config


@contextlib.contextmanager
def reference_batch(coster, context):
    """Cost one production batch's candidates inside the block through
    the yielded tally's ``join_cost``; then, for a RAQO coster under a
    real tracer, open the ``cost-batch`` span ``cost_batch`` would have.

    Its attributes are the candidates, the feasible ones, and the
    block's counter deltas. The per-candidate costing opens no span of
    its own, so opening it after the block gives the span the place in
    the tree it has in production. A block that costed nothing opens no
    span: production sends no empty DP level or join-free plan to
    ``cost_batch``.
    """
    tally = _ReferenceBatch(coster, context)
    yield tally
    tracer = context.tracer
    if not tally.candidates or not tracer.active:
        return
    if not isinstance(coster, raqo.RaqoCoster):
        return
    before, after = tally.before, context.counters
    with tracer.span("cost-batch", kind="planner") as span:
        span.set_attributes(
            {
                "candidates": tally.candidates,
                "memo_hits": after.memo_hits - before.memo_hits,
                "cache_hits": after.cache_hits - before.cache_hits,
                "cache_misses": after.cache_misses - before.cache_misses,
                "resource_iterations": (
                    after.resource_iterations - before.resource_iterations
                ),
                "feasible": tally.feasible,
            }
        )


def get_plan_cost_per_join(plan, coster, context):
    """Cost a whole plan with one ``join_cost`` call per join.

    Joins are costed bottom-up and each join node is annotated with the
    resources the coster picked.
    """
    total = ZERO_COST

    with reference_batch(coster, context) as batch:

        def cost_one(join: JoinNode) -> JoinNode:
            nonlocal total
            cost, resources = batch.join_cost(
                join.left.tables, join.right.tables, join.algorithm
            )
            total = total + cost
            return join.with_resources(resources)

        annotated = plan.map_joins(cost_one)
    return annotated, total


def cost_batch_per_candidate(coster, batch, context):
    """``cost_batch`` as per-candidate ``join_cost`` calls, in batch
    order, so spans and counters are those of costing the candidates
    one at a time (plus the batch's ``batched_calls`` and size)."""
    context.counters.batched_calls += 1
    context.batch_sizes.append(len(batch))
    times = np.empty(len(batch))
    money = np.empty(len(batch))
    configs = []
    with reference_batch(coster, context) as tally:
        for index in range(len(batch)):
            cost, config = tally.join_cost(
                batch.left_tables[index],
                batch.right_tables[index],
                batch.algorithms[index],
            )
            times[index] = cost.time_s
            money[index] = cost.money
            configs.append(config)
    return BatchCostResult(
        time_s=times,
        money=money,
        feasible=np.isfinite(times) & np.isfinite(money),
        configs=tuple(configs),
    )


class PerCandidateCoster:
    """A base for test costers that define only ``join_cost``."""

    def cost_batch(self, batch, context):
        return cost_batch_per_candidate(self, batch, context)


class FrozensetSelingerPlanner(SelingerPlanner):
    """The left-deep DP over frozenset table sets, one ``cost_batch``
    call per level: the candidate-order oracle of the mask DP."""

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


class ReferenceSelingerPlanner(FrozensetSelingerPlanner):
    """Left-deep DP choosing each subset's champion candidate by
    candidate."""

    def _scalar(self, cost: Cost) -> float:
        return cost.scalar(self._time_weight, self._money_weight)

    def _extend_level(self, size, all_tables, best, context):
        graph = context.estimator.join_graph
        with reference_batch(self._coster, context) as batch:
            for combo in itertools.combinations(sorted(all_tables), size):
                subset = frozenset(combo)
                if size > 1 and not graph.is_connected(subset):
                    continue
                entry = self._best_extension(subset, best, batch)
                if entry is not None:
                    best[subset] = entry

    def _best_extension(
        self,
        subset: FrozenSet[str],
        best: Best,
        batch: _ReferenceBatch,
    ) -> Optional[Tuple[PlanNode, Cost]]:
        """The cheapest way to build ``subset`` by adding one relation."""
        context = batch.context
        graph = context.estimator.join_graph
        champion: Optional[Tuple[PlanNode, Cost]] = None
        for table in sorted(subset):
            rest = subset - {table}
            rest_entry = best.get(rest)
            if rest_entry is None:
                continue
            # Left-deep: the new relation is always the right input, and
            # must actually join (no cross products).
            if not graph.joinable(rest, (table,)):
                continue
            rest_plan, rest_cost = rest_entry
            for algorithm in JOIN_IMPLEMENTATIONS:
                context.counters.join_costings += 1
                cost, resources = batch.join_cost(
                    rest, frozenset((table,)), algorithm
                )
                total = rest_cost + cost
                if not total.is_finite:
                    continue
                if champion is None or self._scalar(total) < self._scalar(
                    champion[1]
                ):
                    node = JoinNode(
                        left=rest_plan,
                        right=ScanNode(table),
                        algorithm=algorithm,
                        resources=resources,
                    )
                    champion = (node, total)
        return champion


class FrozensetBushyPlanner(BushyPlanner):
    """DPsize over frozenset table sets, one ``cost_batch`` call per
    level: the candidate-order oracle of the mask DP."""

    def _scalar(self, cost: Cost) -> float:
        return cost.scalar(self._time_weight, self._money_weight)

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
        query.validate(context.estimator.catalog)
        watch = Stopwatch()
        start = dataclasses.replace(context.counters)
        batches_before = len(context.batch_sizes)

        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]] = {}
        for table in query.tables:
            best[frozenset((table,))] = (ScanNode(table), ZERO_COST)

        all_tables = frozenset(query.tables)
        for size in range(2, len(query.tables) + 1):
            self._split_level(size, all_tables, best, context)

        if all_tables not in best:
            raise PlanningError(
                f"no connected bushy plan found for {query.name!r}"
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

    def _split_level(
        self,
        size: int,
        all_tables: FrozenSet[str],
        best: Dict[FrozenSet[str], Tuple[PlanNode, Cost]],
        context: PlanningContext,
    ) -> None:
        """Cost one whole DPsize level as a single candidate batch.

        Candidates are collected subset by subset, each subset's
        partitions by growing left side, costed in one ``cost_batch``
        call, and the per-subset champion comparisons made in that
        order: a strict ``<`` keeps the first of equal scalars.
        """
        graph = context.estimator.join_graph
        #: (subset, left plan, left cost, right plan, right cost,
        #: algorithm) rows, parallel to the batch.
        rows: List[Tuple] = []
        candidates = []
        for combo in itertools.combinations(sorted(all_tables), size):
            subset = frozenset(combo)
            if not graph.is_connected(subset):
                continue
            names = sorted(subset)
            # Enumerate proper subsets containing the smallest element,
            # so each unordered partition is considered exactly once.
            anchor = names[0]
            restnames = names[1:]
            for mask_size in range(0, len(restnames)):
                for picked in itertools.combinations(
                    restnames, mask_size
                ):
                    left = frozenset((anchor,) + picked)
                    right = subset - left
                    left_entry = best.get(left)
                    right_entry = best.get(right)
                    if left_entry is None or right_entry is None:
                        continue
                    if not graph.joinable(left, right):
                        continue
                    for algorithm in JOIN_IMPLEMENTATIONS:
                        context.counters.join_costings += 1
                        rows.append(
                            (subset, *left_entry, *right_entry, algorithm)
                        )
                        candidates.append((left, right, algorithm))
        if not rows:
            return
        batch = CandidateBatch.build(candidates, context.join_io_gb)
        costed = self._coster.cost_batch(batch, context)
        champions: Dict[FrozenSet[str], Tuple[PlanNode, Cost]] = {}
        for index, (
            subset,
            left_plan,
            left_cost,
            right_plan,
            right_cost,
            algorithm,
        ) in enumerate(rows):
            cost, resources = costed.pair(index)
            total = left_cost + right_cost + cost
            if not total.is_finite:
                continue
            champion = champions.get(subset)
            if champion is None or self._scalar(total) < self._scalar(
                champion[1]
            ):
                node = JoinNode(
                    left=left_plan,
                    right=right_plan,
                    algorithm=algorithm,
                    resources=resources,
                )
                champions[subset] = (node, total)
        best.update(champions)


class ReferenceBushyPlanner(FrozensetBushyPlanner):
    """DPsize choosing each subset's champion candidate by candidate."""

    def _split_level(self, size, all_tables, best, context):
        graph = context.estimator.join_graph
        with reference_batch(self._coster, context) as batch:
            for combo in itertools.combinations(sorted(all_tables), size):
                subset = frozenset(combo)
                if not graph.is_connected(subset):
                    continue
                entry = self._best_split(subset, best, batch)
                if entry is not None:
                    best[subset] = entry

    def _best_split(
        self,
        subset: FrozenSet[str],
        best: Best,
        batch: _ReferenceBatch,
    ) -> Optional[Tuple[PlanNode, Cost]]:
        """The cheapest (left, right) partition of ``subset``."""
        context = batch.context
        graph = context.estimator.join_graph
        names = sorted(subset)
        champion: Optional[Tuple[PlanNode, Cost]] = None
        # Enumerate proper subsets containing the smallest element, so
        # each unordered partition is considered exactly once.
        anchor = names[0]
        rest = names[1:]
        for mask_size in range(0, len(rest)):
            for picked in itertools.combinations(rest, mask_size):
                left = frozenset((anchor,) + picked)
                right = subset - left
                left_entry = best.get(left)
                right_entry = best.get(right)
                if left_entry is None or right_entry is None:
                    continue
                if not graph.joinable(left, right):
                    continue
                left_plan, left_cost = left_entry
                right_plan, right_cost = right_entry
                for algorithm in JOIN_IMPLEMENTATIONS:
                    context.counters.join_costings += 1
                    cost, resources = batch.join_cost(
                        left, right, algorithm
                    )
                    total = left_cost + right_cost + cost
                    if not total.is_finite:
                        continue
                    if champion is None or self._scalar(
                        total
                    ) < self._scalar(champion[1]):
                        node = JoinNode(
                            left=left_plan,
                            right=right_plan,
                            algorithm=algorithm,
                            resources=resources,
                        )
                        champion = (node, total)
        return champion


class ReferenceFastRandomizedPlanner(FastRandomizedPlanner):
    """FastRandomized costing every candidate plan join by join."""

    def _cost_plan(self, plan, context):
        return get_plan_cost_per_join(plan, self._coster, context)


_REFERENCE_CLASSES = {
    SelingerPlanner: ReferenceSelingerPlanner,
    BushyPlanner: ReferenceBushyPlanner,
    FastRandomizedPlanner: ReferenceFastRandomizedPlanner,
}


def as_reference(query_planner):
    """The per-candidate twin of a production query planner: same
    coster, weights, seed and search settings."""
    reference = copy.copy(query_planner)
    reference.__class__ = _REFERENCE_CLASSES[type(query_planner)]
    return reference


def reference_planner(catalog, **kwargs):
    """A :class:`RaqoPlanner` (same keywords) planning per candidate."""
    planner = raqo.RaqoPlanner(catalog, **kwargs)
    planner.query_planner = as_reference(planner.query_planner)
    return planner


@contextlib.contextmanager
def scalar_resource_search():
    """Within the block, the RAQO coster's resource searches ignore
    ``grid_cost_fn``: brute force scans the grid and hill climbing
    climbs config by config, one cost-function call per read.

    The per-candidate ``join_cost`` path, which also runs every hill
    climb of ``cost_batch``, searches through these functions; brute
    force's stacked kernel does not.
    """
    brute_force = raqo.brute_force_resource_plan
    hill_climb = raqo.hill_climb_resource_plan

    def scalar_brute_force(cost_fn, cluster, grid_cost_fn=None):
        return brute_force(cost_fn, cluster)

    def scalar_hill_climb(cost_fn, cluster, start=None, grid_cost_fn=None):
        return hill_climb(cost_fn, cluster, start=start)

    raqo.brute_force_resource_plan = scalar_brute_force
    raqo.hill_climb_resource_plan = scalar_hill_climb
    try:
        yield
    finally:
        raqo.brute_force_resource_plan = brute_force
        raqo.hill_climb_resource_plan = hill_climb
