"""Resource planning: brute force and hill climbing (paper Algorithm 1).

Given a cost function over resource configurations (the learned cost model
evaluated for one operator's data characteristics), pick the configuration
with minimal cost inside the current cluster conditions.

- :func:`brute_force_resource_plan` exhaustively scans the discrete grid
  (Sec VI-B1) -- the baseline whose explored-configuration count Fig 13
  compares against.
- :func:`hill_climb_resource_plan` is a faithful implementation of the
  paper's Algorithm 1: start from the smallest configuration and greedily
  step forward/backward along each resource dimension until no candidate
  step improves the cost.

Both report how many resource configurations they explored (cost-function
evaluations), which is the paper's "#Resource-Iterations" metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import (
    ClusterConditions,
    ConfigurationGrid,
    ResourceDimension,
)
from repro.cluster.containers import ResourceConfiguration

#: A per-operator cost function over resource configurations.
CostFunction = Callable[[ResourceConfiguration], float]

#: A batched cost function over a whole configuration grid; returns one
#: cost per grid row (``inf`` for infeasible configurations).
GridCostFunction = Callable[[ConfigurationGrid], np.ndarray]

#: Candidate steps considered along each dimension (Algorithm 1, line 2).
CANDIDATE_STEPS: Tuple[float, float] = (-1.0, 1.0)


class ResourcePlanningError(Exception):
    """Raised when resource planning cannot produce a configuration."""


@dataclass(frozen=True)
class ResourcePlanOutcome:
    """The result of one resource-planning call."""

    config: ResourceConfiguration
    cost: float
    #: Number of resource configurations whose cost was evaluated.
    iterations: int


def brute_force_resource_plan(
    cost_fn: CostFunction,
    cluster: ClusterConditions,
    grid_cost_fn: Optional[GridCostFunction] = None,
) -> ResourcePlanOutcome:
    """Exhaustively search the discrete resource grid for the cheapest
    configuration.

    Ties break toward fewer containers, then smaller containers, so the
    result is deterministic and favours the cheaper allocation.

    ``grid_cost_fn`` (e.g. a cost model's ``predict_time_grid``) costs
    the whole grid in one batched call and the winner is picked by
    argmin. Because the grid enumerates configurations in exactly
    :meth:`ClusterConditions.iter_configurations` order and argmin
    returns the first occurrence of the minimum, the winner (including
    tie-breaks) is identical to the scan over ``cost_fn`` that runs
    without it, given lanes equal to ``cost_fn`` bit for bit.
    """
    if grid_cost_fn is not None:
        return _grid_brute_force(grid_cost_fn, cluster)
    best_config: Optional[ResourceConfiguration] = None
    best_cost = math.inf
    iterations = 0
    for config in cluster.iter_configurations():
        iterations += 1
        cost = cost_fn(config)
        if cost < best_cost:
            best_cost = cost
            best_config = config
    if best_config is None:
        raise ResourcePlanningError("cluster offers no configurations")
    return ResourcePlanOutcome(
        config=best_config, cost=best_cost, iterations=iterations
    )


def _grid_brute_force(
    grid_cost_fn: GridCostFunction, cluster: ClusterConditions
) -> ResourcePlanOutcome:
    """Batched grid costing + argmin; see brute_force_resource_plan."""
    grid = cluster.config_grid()
    if grid.num_configs == 0:
        raise ResourcePlanningError("cluster offers no configurations")
    costs = np.asarray(grid_cost_fn(grid), dtype=float)
    if costs.shape != (grid.num_configs,):
        raise ResourcePlanningError(
            f"grid cost function returned shape {costs.shape}, "
            f"expected ({grid.num_configs},)"
        )
    # NaN costs behave like inf in the scalar scan (never strictly less).
    costs = np.where(np.isnan(costs), math.inf, costs)
    best = int(np.argmin(costs))
    best_cost = float(costs[best])
    if not math.isfinite(best_cost):
        raise ResourcePlanningError("cluster offers no configurations")
    return ResourcePlanOutcome(
        config=grid.config_at(best),
        cost=best_cost,
        iterations=grid.num_configs,
    )


def hill_climb_resource_plan(
    cost_fn: CostFunction,
    cluster: ClusterConditions,
    start: Optional[ResourceConfiguration] = None,
    grid_cost_fn: Optional[GridCostFunction] = None,
) -> ResourcePlanOutcome:
    """The paper's Algorithm 1: greedy per-dimension hill climbing.

    ``start`` defaults to the cluster's minimum configuration ("given
    that the users want to minimize the resources used ... start from the
    smallest resource configuration and then climb", Sec VI-B2). Callers
    planning a BHJ should pass a start that already satisfies the
    operator's memory wall, otherwise the climb can be stuck at an
    infinite-cost plateau.

    An evaluation memo makes revisited resource vectors free: the climb
    re-evaluates its current position every round and neighbouring
    rounds overlap, so the memo removes 30-50% of the cost-function
    invocations without changing the path. ``iterations`` counts
    distinct evaluations, which is still the paper's
    "#Resource-Iterations" metric (cost model invocations).

    The climb stops after a round that did not move (lines 20-21). It
    needs no visited set: a move needs ``temp < best <= current``, so
    the cost falls strictly with every round that moves, and a moving
    round can never return to a configuration already visited. A NaN
    start never moves, so it ends too. Otherwise the algorithm follows
    the pseudocode line by line.

    ``grid_cost_fn`` (e.g. a cost model's ``predict_time_grid``) costs
    the whole configuration grid in one batched call; the climb is then
    replayed over grid indices, reading those costs instead of calling
    ``cost_fn``. That is only equivalent when the climb cannot leave
    the grid, so it requires a start on the grid and step-exact axes
    (:attr:`ClusterConditions.step_exact`); otherwise the scalar climb
    runs. Given a ``grid_cost_fn`` whose lanes equal ``cost_fn`` bit
    for bit, the outcome -- configuration, cost and ``iterations`` -- is
    identical on both paths: ``iterations`` counts the configurations
    Algorithm 1 reads, not the grid lanes costed.
    """
    if start is not None and not cluster.contains(start):
        raise ResourcePlanningError(
            f"start {start} lies outside the cluster conditions"
        )
    current: List[float] = list(
        (start or cluster.minimum_configuration).as_vector()
    )
    dims = cluster.dimensions
    if grid_cost_fn is not None and cluster.step_exact:
        position = [
            index
            for index in map(ResourceDimension.index_of, dims, current)
            if index is not None
        ]
        if len(position) == len(dims):  # the start lies on the grid
            return _grid_hill_climb(grid_cost_fn, cluster, position)
    steps = cluster.step_sizes  # Algorithm 1 line 1: GetDiscreteSteps
    iterations = 0
    memo: Dict[Tuple[float, ...], float] = {}

    def evaluate(vector: List[float]) -> float:
        nonlocal iterations
        key = tuple(vector)
        cached = memo.get(key)
        if cached is not None:
            return cached
        iterations += 1
        value = cost_fn(ResourceConfiguration.from_vector(key))
        memo[key] = value
        return value

    while True:
        current_cost = evaluate(current)  # line 5
        best_cost = current_cost  # line 6
        stepped = False
        for dim_index in range(len(dims)):  # line 7
            best_candidate = -1  # line 8
            for candidate_index, direction in enumerate(
                CANDIDATE_STEPS
            ):  # line 9
                delta = steps[dim_index] * direction  # line 10
                moved = current[dim_index] + delta
                if (
                    dims[dim_index].minimum
                    <= moved
                    <= dims[dim_index].maximum
                ):  # line 11
                    current[dim_index] = moved  # line 12
                    temp = evaluate(current)  # line 13
                    current[dim_index] -= delta  # line 14
                    if temp < best_cost:  # line 15
                        best_cost = temp  # line 16
                        best_candidate = candidate_index  # line 17
            if best_candidate != -1:  # line 18
                current[dim_index] += (
                    steps[dim_index] * CANDIDATE_STEPS[best_candidate]
                )  # line 19
                stepped = True
        if not stepped:  # line 20-21: no better neighbour
            return ResourcePlanOutcome(
                config=ResourceConfiguration.from_vector(tuple(current)),
                cost=current_cost,
                iterations=iterations,
            )


def _grid_hill_climb(
    grid_cost_fn: GridCostFunction,
    cluster: ClusterConditions,
    position: List[int],
) -> ResourcePlanOutcome:
    """Algorithm 1 replayed over grid indices; see
    :func:`hill_climb_resource_plan`.

    On step-exact axes a +/-step move is a +/-1 index move, so each
    round below is the scalar round line for line, with ``current``
    held as an index per axis (and ``at``, its row in the grid) and
    every evaluation a read of the once-costed grid.

    A round that moves exactly one step along one axis is usually the
    first of a run of identical rounds (a climb from 1 to 100
    containers makes 99). :func:`_monotone_run` measures the run with
    a few array comparisons and the climb jumps to its end, where the
    scalar round resumes.
    """
    grid = cluster.config_grid()
    lane_costs = np.asarray(grid_cost_fn(grid), dtype=float)
    if lane_costs.shape != (grid.num_configs,):
        raise ResourcePlanningError(
            f"grid cost function returned shape {lane_costs.shape}, "
            f"expected ({grid.num_configs},)"
        )
    cost_at = lane_costs.item
    lengths = [dim.num_values for dim in cluster.dimensions]
    # Row-major over the axes, like ClusterConditions.config_grid().
    strides = [math.prod(lengths[d + 1 :]) for d in range(len(lengths))]
    axes = list(zip(range(len(lengths)), strides, lengths))
    at = sum(index * stride for index, stride in zip(position, strides))
    #: The scalar rounds' reads, one entry each (the scalar climb's
    #: ``evaluate`` calls), and the runs' reads as index ranges.
    reads: List[int] = []
    read = reads.append
    run_spans: List[slice] = []
    while True:
        read(at)
        current_cost = cost_at(at)  # line 5
        best_cost = current_cost  # line 6
        moves: List[Tuple[int, int]] = []
        for dim_index, stride, length in axes:  # line 7
            index = position[dim_index]
            best_move = 0  # line 8
            # Lines 9-17 for CANDIDATE_STEPS = (-1.0, 1.0), in order.
            if index > 0:
                read(at - stride)
                temp = cost_at(at - stride)
                if temp < best_cost:
                    best_cost = temp
                    best_move = -1
            if index + 1 < length:
                read(at + stride)
                temp = cost_at(at + stride)
                if temp < best_cost:
                    best_cost = temp
                    best_move = 1
            if best_move:  # line 18
                position[dim_index] = index + best_move  # line 19
                at += best_move * stride
                moves.append((dim_index, best_move))
        if not moves:  # line 20-21
            break
        if len(moves) == 1:
            dim_index, direction = moves[0]
            rounds, spans = _monotone_run(
                lane_costs, position, at, dim_index, direction, axes
            )
            if rounds:
                position[dim_index] += rounds * direction
                at += rounds * direction * strides[dim_index]
                run_spans.extend(spans)
    # Distinct reads are what the scalar climb's memo costs.
    seen = np.zeros(grid.num_configs, dtype=bool)
    seen[reads] = True
    for span in run_spans:
        seen[span] = True
    return ResourcePlanOutcome(
        config=grid.config_at(at),
        cost=current_cost,
        iterations=int(np.count_nonzero(seen)),
    )


def _monotone_run(
    lane_costs: np.ndarray,
    position: List[int],
    at: int,
    axis: int,
    direction: int,
    axes: List[Tuple[int, int, int]],
) -> Tuple[int, List[slice]]:
    """How many rounds from ``at`` repeat the move that led to it.

    The previous round moved one step along ``axis`` in ``direction``
    and nowhere else. A round from ``here`` repeats that move exactly
    when ``ahead`` (the next cell along the line) costs less than
    ``here``, no side probe wins first -- the axes before ``axis`` are
    probed around ``here`` -- and no side probe wins after the move --
    the axes after it are probed around ``ahead``. The probe back
    towards the previous cell never wins: a move needs ``temp < best
    <= current``, so costs fall strictly along the path. NaN compares
    false, so it ends a run like any other non-improvement.

    Returns the run length and the run's reads as index ranges: the
    line from the previous cell to the run's end, which the rounds read
    three times over (back, here, ahead), and one range per side line.
    """
    _, stride, length = axes[axis]
    index = position[axis]
    limit = length - 1 - index if direction > 0 else index
    if not limit:
        return 0, []
    step = direction * stride
    here = lane_costs[_line(at, limit, step)]
    ahead = lane_costs[_line(at + step, limit, step)]
    repeats = ahead < here
    #: The first cell of each side line the rounds probe.
    sides: List[int] = []
    for side_axis, side_stride, side_length in axes:
        if side_axis == axis:
            continue
        # Probes before the move start from here, after it from ahead.
        if side_axis < axis:
            base, reference = at, here
        else:
            base, reference = at + step, ahead
        side_index = position[side_axis]
        for start, exists in (
            (base - side_stride, side_index > 0),
            (base + side_stride, side_index + 1 < side_length),
        ):
            if exists:
                sides.append(start)
                side = lane_costs[_line(start, limit, step)]
                repeats &= ~(side < reference)
    rounds = int(repeats.argmin())
    if repeats[rounds]:
        rounds = limit
    if not rounds:
        return 0, []
    spans = [_line(at - step, rounds + 2, step)]
    spans.extend(_line(start, rounds, step) for start in sides)
    return rounds, spans


def _line(start: int, count: int, step: int) -> slice:
    """``count`` flat grid indices from ``start`` in steps of ``step``."""
    stop = start + count * step
    return slice(start, stop if stop >= 0 else None, step)


def feasible_bhj_start(
    small_gb: float,
    hash_memory_fraction: float,
    cluster: ClusterConditions,
) -> Optional[ResourceConfiguration]:
    """The smallest configuration whose containers fit a BHJ hash table.

    Returns None when even the largest container cannot hold the
    broadcast relation (the operator is infeasible on this cluster).
    """
    if small_gb < 0:
        raise ResourcePlanningError(
            f"small_gb must be >= 0, got {small_gb}"
        )
    needed_gb = small_gb / hash_memory_fraction
    # Look the memory axis up by name: positional indexing would silently
    # pick the wrong axis if the dimension list is reordered or extended.
    dim = cluster.dimension("container_gb")
    # The wall is the largest size on the grid, not the axis maximum: a
    # maximum between two steps (say 10.5 with step 1) is not offered.
    largest_gb = dim.largest
    if needed_gb > largest_gb:
        return None
    # Round the needed size up to the next discrete step.
    if needed_gb <= dim.minimum:
        container_gb = dim.minimum
    else:
        steps_up = math.ceil((needed_gb - dim.minimum) / dim.step - 1e-12)
        container_gb = min(dim.minimum + steps_up * dim.step, largest_gb)
    return ResourceConfiguration(
        num_containers=cluster.min_containers,
        container_gb=container_gb,
    )
