"""Cost-based RAQO: resource planning inside the query planner (Sec VI-C).

Two :class:`~repro.planner.cost_interface.PlanCoster` implementations:

- :class:`QueryOptimizerCoster` ("QO") -- the current practice: the query
  planner costs sub-plans against one fixed resource configuration chosen
  up front, resources are not part of the search.
- :class:`RaqoCoster` ("RAQO") -- the paper's approach: every time the
  query planner asks for a sub-plan cost, the coster first *plans the
  resources* for that operator (brute force or Algorithm 1 hill climbing,
  with an optional resource plan cache) and returns the cost at the chosen
  configuration, annotating the join with it.

:class:`RaqoPlanner` is the user-facing facade wiring a catalog, cluster
conditions, a cost model, a query planner (Selinger or FastRandomized) and
a coster together, including the adaptive re-planning flow of Sec IV
("if the cluster conditions change ... the runtime can further adjust the
query/resource plan by consulting the optimizer").
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import enum
import math
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.catalog.queries import Query
from repro.catalog.schema import Catalog
from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.cluster import ClusterConditions, ConfigurationGrid
from repro.cluster.containers import ResourceConfiguration
from repro.cluster.pricing import PriceModel
from repro.core.cost_model import (
    CostModelSuite,
    EXTENDED_FEATURES,
    FeatureMap,
    JoinCostEstimator,
    SimulatorCostModel,
)
from repro.core.pareto import (
    ParetoPlanningResult,
    PlanObjective,
    compute_frontier,
)
from repro.core.plan_cache import LookupMode, ResourcePlanCache
from repro.core.resource_planner import (
    ResourcePlanOutcome,
    ResourcePlanningError,
    brute_force_resource_plan,
    feasible_bhj_start,
    hill_climb_resource_plan,
)
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.engine.joins import JoinAlgorithm
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.planner.cost_interface import (
    BatchCostResult,
    Cost,
    INFEASIBLE_COST,
    PlanningContext,
    PlanningResult,
)
from repro.planner.plan import ALGORITHM_CODES, CandidateBatch
from repro.planner.randomized import FastRandomizedPlanner
from repro.planner.selinger import SelingerPlanner, _counters_delta

#: The fixed configuration the two-step baseline costs plans against
#: (a typical static Hive deployment default: 10 x 4 GB containers).
DEFAULT_QO_RESOURCES = ResourceConfiguration(
    num_containers=10, container_gb=4.0
)

#: The paper's Sec VII evaluation cluster: 100 containers of up to 10 GB,
#: discrete steps of 1 on both axes.
DEFAULT_CLUSTER = ClusterConditions(
    max_containers=100, max_container_gb=10.0
)

#: Entries the cross-query search memo of one :class:`RaqoCoster` keeps
#: before it evicts the oldest. The paper's resource plan cache is a
#: sorted key array searched by bisection (Sec VI-B3); the memo's cold
#: tier is built the same way, at 48 bytes an entry, so the cap holds a
#: whole ``fleet-pareto`` window of searches (one 1,400-query trace ran
#: 43,284 distinct ones) in ~3 MB. A FIFO memo of this size serves as
#: many of that trace's kernel rows as an unbounded one (77%).
_SEARCH_MEMO_CAP = 65_536

#: Entries the memo's hot tier keeps as Python objects after a merge: the
#: newest searches, looked up by one dict probe. 2,000 ad-hoc TPC-H
#: queries search only 125 distinct inputs on one cluster, so their hill
#: climbs never leave this tier. The tier grows to twice this size
#: before its oldest half merges into the cold tier in one batch.
_HOT_TIER_CAP = 256

#: Estimated bytes of one hot entry: its dict slot, key tuple and two
#: floats, the entry tuple with its floats, and its order record.
_HOT_ENTRY_BYTES = 350


class _SearchEntry(NamedTuple):
    """A memoized search: the outcome's fields plus the winner's
    unweighted predicted time (infinite when the search found no
    feasible configuration). ``config`` is None at the BHJ memory wall.

    A tuple, not a :class:`ResourcePlanOutcome`, because the stacked
    kernel builds one per searched row and a frozen dataclass costs
    three times as much to build.
    """

    config: Optional[ResourceConfiguration]
    cost: float
    iterations: int
    time_s: float


#: What the search memo holds for an operator at the BHJ memory wall.
_WALL_ENTRY = _SearchEntry(None, math.inf, 0, math.inf)

_GroupKey = Tuple[JoinAlgorithm, ClusterConditions]

#: Join algorithms by :data:`ALGORITHM_CODES` code.
_BY_CODE: Tuple[JoinAlgorithm, ...] = tuple(ALGORITHM_CODES)

#: Column dtypes of a cold tier: the ``small_gb + large_gb * 1j`` key,
#: the index into the memo's configuration table, the objective cost,
#: ``iterations``, the winner's time and the insertion sequence
#: number (48 bytes a row).
_COLD_DTYPES = (
    np.complex128,
    np.int32,
    np.float64,
    np.int32,
    np.float64,
    np.int64,
)


def _complex_keys(
    small_gb: Union[np.ndarray, List[float]],
    large_gb: Union[np.ndarray, List[float]],
) -> np.ndarray:
    """Cold-tier keys. Assigned part by part: ``small + 1j * large``
    would turn an infinite ``large_gb`` into a NaN real part."""
    keys = np.empty(len(small_gb), dtype=np.complex128)
    keys.real = small_gb
    keys.imag = large_gb
    return keys


class _MemoGroup:
    """The entries of one ``(algorithm, cluster)`` group.

    ``hot`` maps ``(small_gb, large_gb)`` to an entry. ``cold`` is a
    tuple of parallel arrays (:data:`_COLD_DTYPES`) sorted by key, and
    may still hold rows evicted since this group last merged.
    """

    __slots__ = ("hot", "cold")

    def __init__(self) -> None:
        self.hot: Dict[Tuple[float, float], _SearchEntry] = {}
        self.cold: Tuple[np.ndarray, ...] = tuple(
            np.empty(0, dtype=dtype) for dtype in _COLD_DTYPES
        )

    def keep(self, mask: np.ndarray) -> int:
        """Keep the cold rows ``mask`` selects; returns how many went."""
        dropped = len(mask) - int(np.count_nonzero(mask))
        if dropped:
            self.cold = tuple(column[mask] for column in self.cold)
        return dropped


@dataclass(frozen=True)
class SearchMemoStats:
    """What the cross-query search memo of one coster holds and served.

    ``hot_hits`` and ``cold_hits`` count the lookups each tier served;
    ``searched`` counts the searches the coster ran with the memo on
    (misses and NaN-sized inputs). ``merged`` counts entries moved from the hot tier into the
    cold tier, ``evicted`` entries dropped at the cap. ``bytes`` is the
    cold tier's array ``nbytes`` plus an estimate for the hot tier's
    Python objects.
    """

    entries: int
    hot_entries: int
    cold_entries: int
    hot_hits: int
    cold_hits: int
    searched: int
    merged: int
    evicted: int
    bytes: int


class _SearchMemo:
    """The cross-query search memo of one :class:`RaqoCoster`.

    Entries are grouped by ``(algorithm, cluster)`` and keyed within a
    group by ``(small_gb, large_gb)``. The enum and the dataclass hash
    in Python code, so the stacked kernel hashes them once per
    algorithm group, not once per row.

    Two tiers. The hot tier holds the newest entries in one dict per
    group, in one FIFO order across groups. Once it holds twice
    ``_HOT_TIER_CAP`` entries, its oldest ``_HOT_TIER_CAP`` merge into
    the groups' cold tiers in one batch: per group, a sorted
    ``complex128`` key array and parallel value arrays, looked up by
    ``np.searchsorted``. Configurations live once in a per-memo table
    of every distinct one stored, all grid points (index 0 stands for
    the BHJ wall's ``None``).

    Every stored entry takes the next sequence number, and callers
    store only keys the memo does not hold, so the memo holds exactly
    the entries numbered from ``_floor`` up: eviction at
    ``_SEARCH_MEMO_CAP`` only raises ``_floor``. Lookups ignore cold
    rows below it; a merge drops its group's, and once they amount to
    an eighth of the cap a sweep drops all of them, along with groups
    left with no entries. Hot entries are never below the floor, so a
    cap smaller than the hot tier evicts hot entries as they fall
    under it, and a group whose last entry is evicted is dropped.
    """

    def __init__(self) -> None:
        self.clear()

    def __len__(self) -> int:
        return self._next_seq - self._floor

    def clear(self) -> None:
        self._groups: Dict[_GroupKey, _MemoGroup] = {}
        #: The hot tier's insertion order: (group key, group, key).
        self._order: Deque[
            Tuple[_GroupKey, _MemoGroup, Tuple[float, float]]
        ] = collections.deque()
        self._next_seq = 0
        self._floor = 0
        #: Rows in all cold tiers, evicted ones included.
        self._cold_rows = 0
        self._configs: List[Optional[ResourceConfiguration]] = [None]
        self._config_ids: Dict[ResourceConfiguration, int] = {}
        self.hot_hits = 0
        self.cold_hits = 0
        self.searched = 0
        self.merged = 0
        self.evicted = 0

    def group(
        self, algorithm: JoinAlgorithm, cluster: ClusterConditions
    ) -> Optional[_MemoGroup]:
        """One group's tiers, read-only; None when it holds nothing."""
        return self._groups.get((algorithm, cluster))

    def get(
        self,
        algorithm: JoinAlgorithm,
        cluster: ClusterConditions,
        key: Tuple[float, float],
    ) -> Optional[_SearchEntry]:
        """The entry for one key, from either tier; None on a miss."""
        group = self._groups.get((algorithm, cluster))
        if group is None:
            return None
        entry = group.hot.get(key)
        if entry is not None:
            self.hot_hits += 1
            return entry
        keys, configs, costs, iterations, times, seqs = group.cold
        if not keys.size:
            return None
        needle = complex(*key)
        at = int(np.searchsorted(keys, needle))
        if at == keys.size or keys[at] != needle or seqs[at] < self._floor:
            return None
        self.cold_hits += 1
        return _SearchEntry(
            self._configs[configs[at]],
            float(costs[at]),
            int(iterations[at]),
            float(times[at]),
        )

    def cold_lookup(
        self, group: _MemoGroup, small_gb: np.ndarray, large_gb: np.ndarray
    ) -> Tuple[np.ndarray, List[_SearchEntry]]:
        """Look many keys up in one group's cold tier at once.

        Returns a hit mask over the keys and the hits' entries, in key
        order. The cold tier must not be empty.
        """
        keys, configs, costs, iterations, times, seqs = group.cold
        needles = _complex_keys(small_gb, large_gb)
        at = np.searchsorted(keys, needles)
        np.minimum(at, keys.size - 1, out=at)
        # NaN never equals itself: a NaN key never hits.
        hit = (keys[at] == needles) & (seqs[at] >= self._floor)
        at = at[hit]
        self.cold_hits += len(at)
        table = self._configs
        entries = [
            _SearchEntry(table[index], cost, iters, time_s)
            for index, cost, iters, time_s in zip(
                configs[at].tolist(),
                costs[at].tolist(),
                iterations[at].tolist(),
                times[at].tolist(),
            )
        ]
        return hit, entries

    def store(
        self,
        algorithm: JoinAlgorithm,
        cluster: ClusterConditions,
        entries: List[Tuple[Tuple[float, float], _SearchEntry]],
    ) -> None:
        """Add entries the memo does not hold, in order; then evict the
        oldest beyond the cap and merge the hot tier's overflow."""
        cap = _SEARCH_MEMO_CAP
        if len(entries) > cap:
            # The older ones would be evicted before this call returns.
            self.evicted += len(entries) - cap
            entries = entries[-cap:]
        group_key = (algorithm, cluster)
        group = self._groups.get(group_key)
        if group is None:
            group = self._groups[group_key] = _MemoGroup()
        hot = group.hot
        order = self._order
        for key, entry in entries:
            hot[key] = entry
            order.append((group_key, group, key))
        self._next_seq += len(entries)
        excess = len(self) - cap
        if excess > 0:
            self._floor += excess
            self.evicted += excess
            # Cold rows are older than every hot entry; hot entries fall
            # under the floor only once no cold row is left above it.
            while len(order) > len(self):
                old_key, old_group, key = order.popleft()
                del old_group.hot[key]
                if not old_group.hot and not old_group.cold[0].size:
                    del self._groups[old_key]
        hot_cap = _HOT_TIER_CAP
        if len(order) >= 2 * hot_cap:
            self._merge(len(order) - hot_cap)
        if self._cold_rows - (len(self) - len(order)) > cap // 8:
            self._sweep()

    def _config_id(self, config: Optional[ResourceConfiguration]) -> int:
        if config is None:
            return 0
        index = self._config_ids.get(config)
        if index is None:
            index = self._config_ids[config] = len(self._configs)
            self._configs.append(config)
        return index

    def _merge(self, count: int) -> None:
        """Move the oldest ``count`` hot entries into the cold tiers:
        per group, one ``searchsorted`` merge of the sorted batch."""
        order = self._order
        seq = self._next_seq - len(order)
        batches: Dict[_GroupKey, Tuple[_MemoGroup, List]] = {}
        for _ in range(count):
            group_key, group, key = order.popleft()
            entry = group.hot.pop(key)
            batches.setdefault(group_key, (group, []))[1].append(
                (key, entry, seq)
            )
            seq += 1
        self.merged += count
        floor = self._floor
        for group, rows in batches.values():
            new = (
                _complex_keys(
                    [key[0] for key, _, _ in rows],
                    [key[1] for key, _, _ in rows],
                ),
                np.array(
                    [self._config_id(entry.config) for _, entry, _ in rows],
                    dtype=np.int32,
                ),
                np.array([entry.cost for _, entry, _ in rows]),
                np.array(
                    [entry.iterations for _, entry, _ in rows],
                    dtype=np.int32,
                ),
                np.array([entry.time_s for _, entry, _ in rows]),
                np.array([seq for _, _, seq in rows], dtype=np.int64),
            )
            by_key = np.argsort(new[0], kind="stable")
            new = tuple(column[by_key] for column in new)
            # A key stored again after its eviction must not meet its
            # evicted row: drop this group's evicted rows first.
            self._cold_rows -= group.keep(group.cold[5] >= floor)
            old = group.cold
            size = len(old[0]) + len(rows)
            slots = np.searchsorted(old[0], new[0]) + np.arange(len(rows))
            kept = np.ones(size, dtype=bool)
            kept[slots] = False
            merged = []
            for old_column, new_column in zip(old, new):
                column = np.empty(size, dtype=old_column.dtype)
                column[slots] = new_column
                column[kept] = old_column
                merged.append(column)
            group.cold = tuple(merged)
            self._cold_rows += len(rows)

    def _sweep(self) -> None:
        """Drop every evicted cold row, and the groups left empty."""
        floor = self._floor
        for group_key, group in list(self._groups.items()):
            self._cold_rows -= group.keep(group.cold[5] >= floor)
            if not group.hot and not group.cold[0].size:
                del self._groups[group_key]

    def items(self) -> Iterator[Tuple[Tuple, _SearchEntry]]:
        """``((algorithm, small_gb, large_gb, cluster), entry)``, oldest
        first across both tiers."""
        floor = self._floor
        cold = []
        for (algorithm, cluster), group in self._groups.items():
            keys, configs, costs, iterations, times, seqs = group.cold
            for row in zip(
                seqs.tolist(),
                keys.tolist(),
                configs.tolist(),
                costs.tolist(),
                iterations.tolist(),
                times.tolist(),
            ):
                seq, key, config, cost, iters, time_s = row
                if seq >= floor:
                    entry = _SearchEntry(
                        self._configs[config], cost, iters, time_s
                    )
                    cold.append(
                        (seq, (algorithm, key.real, key.imag, cluster), entry)
                    )
        cold.sort(key=lambda row: row[0])
        for _, key, entry in cold:
            yield key, entry
        for (algorithm, cluster), group, key in self._order:
            yield (algorithm, *key, cluster), group.hot[key]

    def stats(self) -> SearchMemoStats:
        hot = len(self._order)
        arrays = sum(
            column.nbytes
            for group in self._groups.values()
            for column in group.cold
        )
        return SearchMemoStats(
            entries=len(self),
            hot_entries=hot,
            cold_entries=len(self) - hot,
            hot_hits=self.hot_hits,
            cold_hits=self.cold_hits,
            searched=self.searched,
            merged=self.merged,
            evicted=self.evicted,
            bytes=arrays + hot * _HOT_ENTRY_BYTES,
        )


class _PendingKeys:
    """Smaller-input keys of batch candidates that may still insert into
    the plan cache, indexed per model key.

    :meth:`near` answers ``any(abs(key - other) <= threshold)`` over the
    keys added so far -- whether a lookup of ``key`` could see one of
    their inserts -- without scanning them all. A zero threshold is a
    set membership test; a positive one bisects a sorted list and
    re-checks the two neighbours with that same expression (the rounded
    difference is monotone in ``other``, so the nearest key on each side
    decides). NaN and infinite keys never pass the expression at a
    finite threshold, so they are set aside and only scanned when the
    key or the threshold is itself not finite.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self._exact: Dict[str, Set[float]] = {}
        self._sorted: Dict[str, List[float]] = {}
        self._non_finite: Dict[str, List[float]] = {}

    def add(self, model_key: str, key: float) -> None:
        if not math.isfinite(key):
            self._non_finite.setdefault(model_key, []).append(key)
        elif self.threshold == 0:
            self._exact.setdefault(model_key, set()).add(key)
        else:
            bisect.insort(self._sorted.setdefault(model_key, []), key)

    def near(self, model_key: str, key: float) -> bool:
        threshold = self.threshold
        if threshold == 0:
            # abs(key - other) <= 0 holds only for equal finite keys.
            return key in self._exact.get(model_key, ())
        keys = self._sorted.get(model_key, [])
        if math.isfinite(key) and math.isfinite(threshold):
            position = bisect.bisect_left(keys, key)
            return any(
                abs(key - other) <= threshold
                for other in keys[max(position - 1, 0):position + 1]
            )
        return any(
            abs(key - other) <= threshold
            for other in keys + self._non_finite.get(model_key, [])
        )


class ResourcePlanningMethod(enum.Enum):
    """How the RAQO coster searches the resource space."""

    HILL_CLIMB = "hill_climb"
    BRUTE_FORCE = "brute_force"

    def __str__(self) -> str:
        return self.value


class PlannerKind(enum.Enum):
    """Which query planner drives the join-order search."""

    SELINGER = "selinger"
    FAST_RANDOMIZED = "fast_randomized"

    def __str__(self) -> str:
        return self.value


@dataclass
class QueryOptimizerCoster:
    """The two-step baseline: cost plans at one fixed configuration."""

    model: JoinCostEstimator
    default_resources: ResourceConfiguration = DEFAULT_QO_RESOURCES
    price_model: PriceModel = field(default_factory=PriceModel)

    def join_cost(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        algorithm: JoinAlgorithm,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        """Cost one join at the fixed default resources."""
        small_gb, large_gb = context.join_io_gb(left_tables, right_tables)
        config = context.cluster.clamp(self.default_resources)
        time_s = self.model.predict_time(
            algorithm, small_gb, large_gb, config
        )
        if not math.isfinite(time_s):
            return INFEASIBLE_COST, None
        money = self.price_model.cost_of_gb_seconds(
            config.gb_seconds(time_s)
        )
        # The two-step baseline does not emit per-operator resources;
        # they are chosen later, outside the optimizer.
        return Cost(time_s=time_s, money=money), None

    def cost_batch(
        self, batch: CandidateBatch, context: PlanningContext
    ) -> BatchCostResult:
        """:meth:`join_cost` for a whole batch, at the clamped default
        configuration: one scalar ``predict_time`` per candidate, priced
        lane for lane as ``cost_of_gb_seconds(config.gb_seconds(t))``."""
        context.counters.batched_calls += 1
        n = len(batch)
        context.batch_sizes.append(n)
        config = context.cluster.clamp(self.default_resources)
        predict = self.model.predict_time
        times = np.array(
            [
                predict(algorithm, small_gb, large_gb, config)
                for algorithm, small_gb, large_gb in zip(
                    batch.algorithms,
                    batch.small_gb.tolist(),
                    batch.large_gb.tolist(),
                )
            ],
            dtype=float,
        )
        # As in join_cost, a time that is not finite is infeasible: an
        # infinite time and price.
        times[~np.isfinite(times)] = math.inf
        money = (
            config.total_memory_gb
            * times
            / 3600.0
            * self.price_model.dollars_per_gb_hour
        )
        return BatchCostResult(
            time_s=times,
            money=money,
            feasible=np.isfinite(times) & np.isfinite(money),
            configs=(None,) * n,
        )


@dataclass
class RaqoCoster:
    """The RAQO coster: ``getPlanCost`` extended with resource planning.

    ``money_weight``/``time_weight`` scalarise the resource-planning
    objective (``time_weight * time + money_weight * money``); the
    default optimizes execution time as in the paper's main
    experiments, and :class:`PlanObjective` derives both weights for
    the planner facade (``cheapest`` plans with ``time_weight=0``).

    Three fast-path layers sit around the resource planner:

    - ``memoize``: a per-planning-run memo keyed by ``(algorithm, ss,
      ls)``. Query planners request the same sub-plan costing many times
      (Selinger re-extends overlapping subsets; the randomized planner
      revisits joins across restarts); repeats return the previously
      planned cost without touching the plan cache or the planner.
      The memo lives on the :class:`PlanningContext`, so its lifetime is
      exactly one planning run.
    - the cross-query search memo: below the resource plan cache, each
      search's outcome (or the BHJ memory wall) and the winner's
      time are kept for the coster's lifetime, keyed by
      ``(algorithm, small_gb, large_gb, cluster)``; method, model and
      weights are fixed per coster. The search is a pure function of
      that key, so a repeat replays the stored outcome. The scalar
      searches and the ``cost_batch`` kernel share the one memo: a
      kernel row that hits skips its search, and a scalar search can
      replay what the kernel stored, and the reverse. A
      replay charges the same ``resource_iterations``, and plan-cache
      lookups and inserts run as before. Plans, costs, counters, cache
      statistics and canonical span trees are those of a fresh search;
      only the wall-clock changes. ``memoize=False`` turns it off too.
      Its newest entries sit in a hot tier of Python dicts; older ones
      merge in batches into a cold tier of sorted arrays per
      ``(algorithm, cluster)``, the layout of the paper's plan cache.
      It holds at most ``_SEARCH_MEMO_CAP`` entries in total, evicting
      the oldest first, and a coster built by :meth:`RaqoPlanner.clone`
      or :meth:`RaqoPlanner.with_objective` starts with it empty.
      :meth:`search_memo_stats` reports what it holds and served.
    - grid costing: resource planning costs the whole configuration
      grid through the model's batched ``predict_time_grid`` (a few
      array operations for learned models) instead of one scalar call
      per configuration. Brute force takes the argmin; hill climbing
      replays Algorithm 1 over the costed grid (see
      :func:`hill_climb_resource_plan`) and still charges
      ``resource_iterations`` with the configurations the climb reads.
      Plans, costs and counters are bit-identical to the scalar
      searches; only the wall-clock changes.
    """

    model: JoinCostEstimator
    method: ResourcePlanningMethod = ResourcePlanningMethod.HILL_CLIMB
    cache: Optional[ResourcePlanCache] = None
    price_model: PriceModel = field(default_factory=PriceModel)
    money_weight: float = 0.0
    time_weight: float = 1.0
    memoize: bool = True
    #: The cross-query search memo, shared by the ``cost_batch``
    #: kernel and the scalar searches.
    _search_memo: _SearchMemo = field(
        default_factory=_SearchMemo, init=False, repr=False, compare=False
    )

    def search_memo_stats(self) -> SearchMemoStats:
        """Entries, hits per tier, searches, merges, evictions and bytes
        of the cross-query search memo, read-only."""
        return self._search_memo.stats()

    def join_cost(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        algorithm: JoinAlgorithm,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        """Plan resources for this operator, then cost it there."""
        small_gb, large_gb = context.join_io_gb(left_tables, right_tables)
        memo_key = None
        if self.memoize:
            memo_key = (
                self.model.model_key(algorithm),
                small_gb,
                large_gb,
                self.money_weight,
                self.time_weight,
            )
            memoized = context.resource_plan_memo.get(memo_key)
            if memoized is not None:
                context.counters.memo_hits += 1
                time_s, money, config = memoized
                return Cost(time_s=time_s, money=money), config
        cost, config = self._plan_and_cost(
            algorithm, small_gb, large_gb, context
        )
        if memo_key is not None:
            context.resource_plan_memo[memo_key] = (
                cost.time_s,
                cost.money,
                config,
            )
        return cost, config

    # What :meth:`cost_batch`'s tail walk does with a candidate. DONE
    # candidates were finished before it: memo hits, within-batch
    # aliases, plan-cache hits and BHJs at the memory wall in the
    # partition, and the brute-force kernel's rows. TAIL candidates wait
    # until the kernel has inserted, since their cache lookup may see an
    # earlier candidate's insert: the tail walk serves their cache hits
    # like the partition does. SCALAR candidates are hill-climbing
    # misses, which :meth:`join_cost` costs in the tail walk, one climb
    # per candidate as Algorithm 1 runs.
    _DONE, _TAIL, _SCALAR = range(3)

    def cost_batch(
        self, batch: CandidateBatch, context: PlanningContext
    ) -> BatchCostResult:
        """Cost a whole candidate batch: one in-order partition, then the
        brute-force kernel, then an in-order tail walk.

        The partition visits candidates *in candidate order*. Each one
        is a within-run memo hit or a within-batch alias; or it waits in
        a tail, because its plan-cache lookup could observe an insert
        made by an *earlier* candidate of the batch; or its lookup hits
        (a peek at the cache as it stood before the batch, which is
        what the lookup returns until the first insert) and it is
        costed there at once with the scalar ``predict_time``; or it is
        a BHJ at the memory wall; or it needs a resource search.

        Brute-force searches run in the kernel (:meth:`_run_kernel`),
        which replays the rows whose search the cross-query search memo
        holds and costs the rest in one stacked ``predict_time_grid``
        call per algorithm. Hill climbing reads the grid one neighbour
        at a time, so each of its searches is left to
        :meth:`join_cost`. The tail is then walked in
        candidate order: a tail peek that finds a feasible configuration
        is served like a partition hit; a hill-climbing search, a tail
        miss and an infeasible tail hit go through :meth:`join_cost`
        (which looks the cache up, plans, inserts and memoizes). Every
        observable -- chosen configurations, costs, counters and cache
        statistics -- is bit-identical to costing the candidates one at
        a time, except ``batch_memo_hits``, which only batches count.

        With a real tracer, the call is one ``cost-batch`` span. Its
        attributes are the call's ``candidates`` and ``feasible`` lanes
        and its deltas of ``memo_hits``, ``cache_hits``,
        ``cache_misses`` and ``resource_iterations``; the searches and
        cache lookups inside it open no spans of their own.
        """
        counters = context.counters
        tracer = context.tracer
        traced = tracer.active
        if traced:
            start = dataclasses.replace(counters)
        with tracer.span("cost-batch", kind="planner") as span:
            counters.batched_calls += 1
            n = len(batch)
            context.batch_sizes.append(n)
            cache = self.cache
            cluster = context.cluster
            model = self.model
            rate = self.price_model.dollars_per_gb_hour
            # Result columns as Python lists, converted to arrays once.
            times = [math.inf] * n
            money = [math.inf] * n
            configs: List[Optional[ResourceConfiguration]] = [None] * n
            kinds = [self._DONE] * n
            alias_of: Dict[int, int] = {}
            memo = context.resource_plan_memo if self.memoize else None
            memo_keys: List[Optional[Tuple]] = [None] * n
            #: First in-batch candidate computing each memo key.
            batch_first: Dict[Tuple, int] = {}

            def commit(
                index: int,
                config: Optional[ResourceConfiguration],
                time_s: float,
            ) -> None:
                """Record one candidate's outcome, priced as the scalar path
                prices it: ``cost_of_gb_seconds(config.gb_seconds(time_s))``,
                inlined. No configuration, or a time that is not finite, is
                infeasible."""
                if config is None or not math.isfinite(time_s):
                    config, time_s, money_usd = None, math.inf, math.inf
                else:
                    money_usd = (
                        config.num_containers
                        * config.container_gb
                        * time_s
                        / 3600.0
                        * rate
                    )
                times[index] = time_s
                money[index] = money_usd
                configs[index] = config
                memo_key = memo_keys[index]
                if memo is not None and memo_key is not None:
                    memo[memo_key] = (time_s, money_usd, config)

            # Model keys are pure per-algorithm strings, looked up by the
            # batch's operator codes; the BHJ wall is
            # `feasible_bhj_start(...) is None`, which only compares
            # small_gb / hash_memory_fraction against the largest container
            # size on the grid. Per-candidate columns as Python lists
            # (tolist() keeps every float's bits).
            algorithms = batch.algorithms
            codes = batch.algorithm_codes.tolist()
            model_keys = [model.model_key(algorithm) for algorithm in _BY_CODE]
            smalls = batch.small_gb.tolist()
            larges = batch.large_gb.tolist()
            bhj = JoinAlgorithm.BROADCAST_HASH
            bhj_fraction = model.hash_memory_fraction
            bhj_max_gb = cluster.dimension("container_gb").largest
            hill_climb = self.method is ResourcePlanningMethod.HILL_CLIMB
            money_weight, time_weight = self.money_weight, self.time_weight
            pending = _PendingKeys(
                cache.threshold_gb
                if cache is not None and cache.mode is not LookupMode.EXACT
                else 0.0
            )
            # Memo hits, cache lookups, configurations found and hits
            # served, counted locally and added once the partition is done.
            memo_hits = looked = found = served = 0
            kernel_rows: List[int] = []
            has_tail = False
            for i, code in enumerate(codes):
                model_key = model_keys[code]
                small_gb = smalls[i]
                if memo is not None:
                    memo_key = (
                        model_key,
                        small_gb,
                        larges[i],
                        money_weight,
                        time_weight,
                    )
                    memoized = memo.get(memo_key)
                    if memoized is not None:
                        memo_hits += 1
                        times[i], money[i], configs[i] = memoized
                        continue
                    first = batch_first.get(memo_key)
                    if first is not None:
                        # A duplicate of a still-pending candidate: by the
                        # time the scalar loop reached it, the first
                        # occurrence's result would be memoized.
                        memo_hits += 1
                        alias_of[i] = first
                        continue
                    batch_first[memo_key] = i
                    memo_keys[i] = memo_key
                algorithm = algorithms[i]
                config = None
                if cache is not None:
                    if pending.near(model_key, small_gb):
                        # The scalar loop would have inserted the pending
                        # candidate's configuration before this lookup ran.
                        kinds[i] = self._TAIL
                        pending.add(model_key, small_gb)
                        has_tail = True
                        continue
                    looked += 1
                    config = cache.peek(model_key, small_gb, cluster)
                    if config is not None:
                        found += 1
                        time_s = model.predict_time(
                            algorithm, small_gb, larges[i], config
                        )
                        if math.isfinite(time_s):
                            served += 1
                            commit(i, config, time_s)
                            continue
                        # A neighbour's configuration violates this
                        # operator's memory wall: a miss, as in
                        # _cached_config.
                if algorithm is bhj:
                    if small_gb < 0:
                        raise ResourcePlanningError(
                            f"small_gb must be >= 0, got {small_gb}"
                        )
                    if small_gb / bhj_fraction > bhj_max_gb:
                        commit(i, None, math.inf)
                        continue
                if hill_climb:
                    kinds[i] = self._SCALAR
                    has_tail = True
                    if cache is not None:
                        # join_cost repeats this lookup, and counts it.
                        looked -= 1
                        found -= config is not None
                else:
                    kernel_rows.append(i)
                if cache is not None:
                    pending.add(model_key, small_gb)
            counters.memo_hits += memo_hits
            counters.batch_memo_hits += memo_hits
            if cache is not None:
                # The cache's statistics count an infeasible hit as a hit,
                # the counters as a miss.
                cache.stats.hits += found
                cache.stats.misses += looked - found
                counters.cache_hits += served
                counters.cache_misses += looked - served

            if kernel_rows:
                self._run_kernel(
                    batch,
                    kernel_rows,
                    codes,
                    model_keys,
                    smalls,
                    larges,
                    context,
                    commit,
                )

            # The tail walk, in candidate order.
            if has_tail:
                for i in range(n):
                    kind = kinds[i]
                    if kind == self._TAIL and cache is not None:
                        config = cache.peek(
                            model_keys[codes[i]], smalls[i], cluster
                        )
                        if config is not None:
                            time_s = model.predict_time(
                                algorithms[i], smalls[i], larges[i], config
                            )
                            if math.isfinite(time_s):
                                cache.stats.hits += 1
                                counters.cache_hits += 1
                                commit(i, config, time_s)
                                continue
                        kind = self._SCALAR
                    if kind == self._SCALAR:
                        # join_cost misses the within-run memo (this is the
                        # key's first candidate) and memoizes the outcome.
                        cost, configs[i] = self.join_cost(
                            batch.left_tables[i],
                            batch.right_tables[i],
                            algorithms[i],
                            context,
                        )
                        times[i] = cost.time_s
                        money[i] = cost.money
            for i, source in alias_of.items():
                times[i] = times[source]
                money[i] = money[source]
                configs[i] = configs[source]
            time_column = np.array(times)
            money_column = np.array(money)
            feasible = np.isfinite(time_column) & np.isfinite(money_column)
            if traced:
                span.set_attributes(
                    {
                        "candidates": n,
                        "memo_hits": counters.memo_hits - start.memo_hits,
                        "cache_hits": counters.cache_hits - start.cache_hits,
                        "cache_misses": (
                            counters.cache_misses - start.cache_misses
                        ),
                        "resource_iterations": (
                            counters.resource_iterations
                            - start.resource_iterations
                        ),
                        "feasible": int(np.count_nonzero(feasible)),
                    }
                )
        return BatchCostResult(
            time_s=time_column,
            money=money_column,
            feasible=feasible,
            configs=tuple(configs),
        )

    def _run_kernel(
        self,
        batch: CandidateBatch,
        kernel_rows: List[int],
        codes: List[int],
        model_keys: List[str],
        smalls: List[float],
        larges: List[float],
        context: PlanningContext,
        commit: Callable[[int, Optional[ResourceConfiguration], float], None],
    ) -> None:
        """Brute-force or replay all kernel rows, one group per algorithm.

        The rows of an algorithm are looked up in the cross-query search
        memo first (:meth:`_replay_rows`): one dict probe per row in the
        hot tier, then one ``np.searchsorted`` over the cold tier for
        all the rows the hot tier missed. Only the rows neither tier
        holds are costed, in one stacked ``predict_time_grid`` call
        (:meth:`_search_rows`), and their outcomes fill the memo.
        Everything else -- the ``resource_iterations`` charge, the
        plan-cache inserts and the commits, in row order -- runs the
        same for hits and misses.
        """
        cluster = context.cluster
        counters = context.counters
        by_code: Dict[int, List[int]] = {}
        for i in kernel_rows:
            by_code.setdefault(codes[i], []).append(i)
        memo = self._search_memo if self.memoize else None
        cache = self.cache
        for code, rows in by_code.items():
            algorithm = _BY_CODE[code]
            #: Each row's search outcome, replayed or fresh.
            chosen: Dict[int, _SearchEntry] = {}
            misses = rows
            if memo is not None:
                group = memo.group(algorithm, cluster)
                if group is not None:
                    misses = self._replay_rows(
                        group, rows, smalls, larges, batch, chosen
                    )
                memo.searched += len(misses)
            if misses:
                searched = self._search_rows(
                    batch, algorithm, misses, cluster
                )
                entries = []
                for i, entry in zip(misses, searched):
                    chosen[i] = entry
                    small_gb = smalls[i]
                    large_gb = larges[i]
                    # NaN never equals itself: a NaN size is never
                    # memoized.
                    if (
                        memo is not None
                        and small_gb == small_gb
                        and large_gb == large_gb
                    ):
                        entries.append(((small_gb, large_gb), entry))
                if memo is not None and entries:
                    memo.store(algorithm, cluster, entries)
            model_key = model_keys[code]
            for i in rows:
                # A brute-force winner always has a finite cost (the
                # search raises otherwise).
                config, _, iterations, time_s = chosen[i]
                counters.resource_iterations += iterations
                if cache is not None:
                    cache.insert(model_key, smalls[i], config)
                commit(i, config, time_s)

    def _replay_rows(
        self,
        group: _MemoGroup,
        rows: List[int],
        smalls: List[float],
        larges: List[float],
        batch: CandidateBatch,
        chosen: Dict[int, _SearchEntry],
    ) -> List[int]:
        """Serve kernel rows of one algorithm from the search memo.

        Each row probes the hot tier's dict; the rows it misses go to
        the cold tier in one ``searchsorted``. A hit's entry goes into
        ``chosen``. Returns the rows neither tier holds, in row order.
        """
        memo = self._search_memo
        hot = group.hot
        rest = []
        for i in rows:
            entry = hot.get((smalls[i], larges[i]))
            if entry is None:
                rest.append(i)
            else:
                chosen[i] = entry
        memo.hot_hits += len(rows) - len(rest)
        if not rest or not group.cold[0].size:
            return rest
        hit, entries = memo.cold_lookup(
            group, batch.small_gb[rest], batch.large_gb[rest]
        )
        served = hit.tolist()
        chosen.update(
            zip([i for i, ok in zip(rest, served) if ok], entries)
        )
        return [i for i, ok in zip(rest, served) if not ok]

    def _search_rows(
        self,
        batch: CandidateBatch,
        algorithm: JoinAlgorithm,
        rows: List[int],
        cluster: ClusterConditions,
    ) -> List[_SearchEntry]:
        """Brute-force the rows of one algorithm in one stacked call.

        Returns each row's search outcome in row order; raises before
        returning anything if a row has no finite winner. A winner's
        time is its lane of the stacked grid, which equals the scalar
        ``predict_time`` the scalar search re-predicts bit for bit.
        """
        grid = cluster.config_grid()
        num_configs = grid.num_configs
        if num_configs == 0:
            raise ResourcePlanningError("cluster offers no configurations")
        times = self.model.predict_time_grid(
            algorithm, batch.small_gb[rows], batch.large_gb[rows], grid
        )
        objective = self._grid_objective(times, grid)
        # First-occurrence argmin per row = the scalar tie-break.
        best = np.argmin(objective, axis=1)
        positions = np.arange(len(rows))
        best_costs = objective[positions, best].tolist()
        best_times = times[positions, best].tolist()
        #: Winners cluster on few grid points; materialise each once.
        config_cache: Dict[int, ResourceConfiguration] = {}
        entries = []
        for best_index, best_cost, time_s in zip(
            best.tolist(), best_costs, best_times
        ):
            if not math.isfinite(best_cost):
                raise ResourcePlanningError(
                    "cluster offers no configurations"
                )
            config = config_cache.get(best_index)
            if config is None:
                config = grid.config_at(best_index)
                config_cache[best_index] = config
            entries.append(
                _SearchEntry(config, best_cost, num_configs, time_s)
            )
        return entries

    def _grid_objective(
        self, times: np.ndarray, grid: ConfigurationGrid
    ) -> np.ndarray:
        """The search objective over predicted times of any shape whose
        last axis is ``grid``: ``time_weight * t + money_weight * money``
        with NaN washed to ``inf``, each lane equal to the scalar
        objective at that configuration bit for bit (``1.0 * t`` is
        ``t``). Money is ``PriceModel.cost_of_gb_seconds`` inlined, as
        it rejects arrays."""
        times = np.where(np.isnan(times), math.inf, times)
        if not self.money_weight:
            return times
        money = (
            grid.total_memory_gb
            * times
            / 3600.0
            * self.price_model.dollars_per_gb_hour
        )
        # 0 * inf is NaN when time_weight vanishes (the cheapest
        # objective); the wash keeps infeasible lanes infeasible.
        with np.errstate(invalid="ignore"):
            weighted = self.time_weight * times + self.money_weight * money
        return np.where(np.isnan(weighted), math.inf, weighted)

    def _plan_and_cost(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Tuple[Cost, Optional[ResourceConfiguration]]:
        """The memo-miss path: cache lookup, then resource planning."""
        cached = self._cached_config(
            algorithm, small_gb, large_gb, context
        )
        if cached is not None:
            # The feasibility check already predicted at this config.
            config, time_s = cached
        else:
            searched = self._plan_resources(
                algorithm, small_gb, large_gb, context
            )
            config = searched.config
            if config is None or not math.isfinite(searched.cost):
                return INFEASIBLE_COST, None
            time_s = searched.time_s
            if self.cache is not None:
                self.cache.insert(
                    self.model.model_key(algorithm), small_gb, config
                )
        if not math.isfinite(time_s):
            return INFEASIBLE_COST, None
        money = self.price_model.cost_of_gb_seconds(
            config.gb_seconds(time_s)
        )
        return Cost(time_s=time_s, money=money), config

    def _cached_config(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Optional[Tuple[ResourceConfiguration, float]]:
        """Try the resource plan cache; validates feasibility on hits.

        Returns the hit's configuration with the (finite) time predicted
        there, or None on a miss.
        """
        if self.cache is None:
            return None
        config = self.cache.lookup(
            self.model.model_key(algorithm), small_gb, context.cluster
        )
        if config is None:
            context.counters.cache_misses += 1
            return None
        time_s = self.model.predict_time(
            algorithm, small_gb, large_gb, config
        )
        if not math.isfinite(time_s):
            # A neighbour's configuration may violate this operator's
            # memory wall; fall back to planning.
            context.counters.cache_misses += 1
            return None
        context.counters.cache_hits += 1
        return config, time_s

    def _plan_resources(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> _SearchEntry:
        """Run brute force or Algorithm 1 for one operator, or replay
        the memoized search of the same input."""
        key = None
        memo = self._search_memo
        if self.memoize:
            # NaN never equals itself: a NaN size is never memoized.
            if small_gb == small_gb and large_gb == large_gb:
                key = (small_gb, large_gb)
                memoized = memo.get(algorithm, context.cluster, key)
                if memoized is not None:
                    context.counters.resource_iterations += (
                        memoized.iterations
                    )
                    return memoized
            memo.searched += 1
        outcome = self._search(algorithm, small_gb, large_gb, context)
        if outcome is None:
            searched = _WALL_ENTRY
        else:
            time_s = math.inf
            if math.isfinite(outcome.cost):
                time_s = self.model.predict_time(
                    algorithm, small_gb, large_gb, outcome.config
                )
            searched = _SearchEntry(
                outcome.config, outcome.cost, outcome.iterations, time_s
            )
        if key is not None:
            memo.store(algorithm, context.cluster, [(key, searched)])
        return searched

    def _search(
        self,
        algorithm: JoinAlgorithm,
        small_gb: float,
        large_gb: float,
        context: PlanningContext,
    ) -> Optional[ResourcePlanOutcome]:
        """Search the resource space for one operator; None at the BHJ
        memory wall."""
        cluster = context.cluster

        def objective(config: ResourceConfiguration) -> float:
            time_s = self.model.predict_time(
                algorithm, small_gb, large_gb, config
            )
            if not math.isfinite(time_s):
                return math.inf
            if self.money_weight:
                money = self.price_model.cost_of_gb_seconds(
                    config.gb_seconds(time_s)
                )
                # time_s is finite here, so no 0 * inf hazard.
                return (
                    self.time_weight * time_s
                    + self.money_weight * money
                )
            return time_s

        def grid_objective(grid: ConfigurationGrid) -> np.ndarray:
            # One model call for the whole grid; each lane equals
            # `objective` at that configuration bit for bit.
            return self._grid_objective(
                self.model.predict_time_grid(
                    algorithm, small_gb, large_gb, grid
                ),
                grid,
            )

        start: Optional[ResourceConfiguration] = None
        if algorithm is JoinAlgorithm.BROADCAST_HASH:
            start = feasible_bhj_start(
                small_gb, self.model.hash_memory_fraction, cluster
            )
            if start is None:
                return None

        if self.method is ResourcePlanningMethod.BRUTE_FORCE:
            outcome = brute_force_resource_plan(
                objective, cluster, grid_cost_fn=grid_objective
            )
        else:
            outcome = hill_climb_resource_plan(
                objective,
                cluster,
                start=start,
                grid_cost_fn=grid_objective,
            )
        # The configurations the search read: the whole grid for brute
        # force, Algorithm 1's reads for a climb (not the grid lanes it
        # costed), on the grid and scalar searches alike.
        context.counters.resource_iterations += outcome.iterations
        return outcome


# Trained default models are expensive to fit; share them per profile.
# The cache is module-level state and therefore shared by every worker
# thread of the parallel WorkloadRunner, so all access is serialized.
_MODEL_CACHE_LOCK = threading.Lock()
_DEFAULT_MODEL_CACHE: Dict[Tuple[str, str], CostModelSuite] = {}  # lint: guarded-by=_MODEL_CACHE_LOCK


def default_cost_model(
    profile: EngineProfile = HIVE_PROFILE,
    feature_map: FeatureMap = EXTENDED_FEATURES,
) -> CostModelSuite:
    """The default learned cost model for an engine profile (memoised).

    Thread-safe: concurrent first calls for the same key serialize on
    the cache lock, so exactly one suite is fitted and every caller
    (including the parallel workload runner's workers) shares it.
    Training is deterministic, so holding the lock across the fit
    trades a one-time wait for never fitting the same model twice.
    """
    key = (profile.name, feature_map.name)
    with _MODEL_CACHE_LOCK:
        suite = _DEFAULT_MODEL_CACHE.get(key)
        if suite is None:
            suite = CostModelSuite.train_from_profile(
                profile, feature_map=feature_map
            )
            _DEFAULT_MODEL_CACHE[key] = suite
        return suite


class RaqoPlanner:
    """The joint Resource-And-Query-Optimization planner facade.

    Wires together a catalog, the current cluster conditions, a cost
    model, a coster (RAQO or the two-step baseline), and a query planner.
    ``optimize`` returns a
    :class:`~repro.planner.cost_interface.PlanningResult` whose plan
    carries per-operator resource configurations (for RAQO).

    ``memoize_within_run`` (default True) switches both of the RAQO
    coster's memos: the per-run memo of sub-plan costings and the
    cross-query memo of resource searches that lives as long as the
    planner (see :class:`RaqoCoster`). Neither changes a plan, cost,
    counter or span tree. With False every sub-plan costing consults
    the plan cache and, on a miss, searches again: what the paper's
    Fig 12, 14 and 15 configurations time.
    """

    def __init__(
        self,
        catalog: Catalog,
        cluster: ClusterConditions = DEFAULT_CLUSTER,
        cost_model: Optional[JoinCostEstimator] = None,
        planner_kind: PlannerKind = PlannerKind.SELINGER,
        resource_method: ResourcePlanningMethod = (
            ResourcePlanningMethod.HILL_CLIMB
        ),
        cache_mode: Optional[LookupMode] = LookupMode.NEAREST,
        cache_threshold_gb: float = 0.0,
        clear_cache_between_queries: bool = True,
        resource_aware: bool = True,
        default_resources: ResourceConfiguration = DEFAULT_QO_RESOURCES,
        price_model: Optional[PriceModel] = None,
        objective: Optional[PlanObjective] = None,
        randomized_iterations: int = 10,
        seed: int = 0,
        memoize_within_run: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if objective is None:
            objective = PlanObjective.fastest()
        # Everything needed to build an equivalent planner (clone()).
        self._init_kwargs = dict(
            cluster=cluster,
            cost_model=cost_model,
            planner_kind=planner_kind,
            resource_method=resource_method,
            cache_mode=cache_mode,
            cache_threshold_gb=cache_threshold_gb,
            clear_cache_between_queries=clear_cache_between_queries,
            resource_aware=resource_aware,
            default_resources=default_resources,
            price_model=price_model,
            objective=objective,
            randomized_iterations=randomized_iterations,
            seed=seed,
            memoize_within_run=memoize_within_run,
            tracer=tracer,
        )
        self.objective = objective
        self.catalog = catalog
        self.cluster = cluster
        #: Shared (thread-safe) observability sink; clones reuse it so a
        #: parallel workload's spans land in one trace.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.estimator = StatisticsEstimator(catalog)
        self.cost_model = cost_model or default_cost_model()
        self.price_model = price_model or PriceModel()
        self.clear_cache_between_queries = clear_cache_between_queries
        self.resource_aware = resource_aware

        self.cache: Optional[ResourcePlanCache] = None
        if resource_aware and cache_mode is not None:
            self.cache = ResourcePlanCache(
                mode=cache_mode, threshold_gb=cache_threshold_gb
            )

        if resource_aware:
            self.coster: Union[RaqoCoster, QueryOptimizerCoster] = (
                RaqoCoster(
                    model=self.cost_model,
                    method=resource_method,
                    cache=self.cache,
                    price_model=self.price_model,
                    money_weight=objective.money_weight,
                    time_weight=objective.time_weight,
                    memoize=memoize_within_run,
                )
            )
        else:
            self.coster = QueryOptimizerCoster(
                model=self.cost_model,
                default_resources=default_resources,
                price_model=self.price_model,
            )

        if planner_kind is PlannerKind.SELINGER:
            self.query_planner = SelingerPlanner(
                self.coster,
                time_weight=objective.time_weight,
                money_weight=objective.money_weight,
            )
        else:
            self.query_planner = FastRandomizedPlanner(
                self.coster,
                iterations=randomized_iterations,
                time_weight=objective.time_weight,
                money_weight=objective.money_weight,
                seed=seed,
            )

    @classmethod
    def default(cls, catalog: Catalog, **kwargs: Any) -> "RaqoPlanner":
        """A RAQO planner with the paper's defaults (Selinger + hill
        climbing + nearest-neighbour cache on the 100 x 10 GB cluster)."""
        return cls(catalog, **kwargs)

    @classmethod
    def two_step_baseline(
        cls, catalog: Catalog, **kwargs: Any
    ) -> "RaqoPlanner":
        """The current-practice baseline ("QO"): plan first, resources
        later, at a fixed default configuration."""
        kwargs.setdefault("resource_aware", False)
        return cls(catalog, **kwargs)

    def clone(self) -> "RaqoPlanner":
        """An independent planner with the same configuration.

        The clone shares the (immutable, already-fitted) cost model but
        gets its own resource plan cache and coster, so clones can plan
        on separate threads without sharing mutable state. The optimizer
        service builds one clone per worker thread.
        """
        kwargs = dict(self._init_kwargs)
        kwargs["cost_model"] = self.cost_model  # skip any re-fitting
        kwargs["cluster"] = self.cluster  # reflect replan() updates
        return type(self)(self.catalog, **kwargs)

    def with_objective(self, objective: PlanObjective) -> "RaqoPlanner":
        """A clone of this planner planning for a different objective.

        The already-fitted cost model is shared (see :meth:`clone`);
        the serving layer and per-call ``objective=`` overrides on
        :class:`~repro.api.RaqoSession` build planners through here.
        """
        kwargs = dict(self._init_kwargs)
        kwargs["cost_model"] = self.cost_model
        kwargs["cluster"] = self.cluster
        kwargs["objective"] = objective
        return type(self)(self.catalog, **kwargs)

    def picklable_init_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs rebuilding this planner in another process.

        Mirrors :meth:`clone`, except the tracer is dropped -- it holds
        a lock and cannot cross a process boundary; the process-parallel
        workload runner installs a fresh same-seed child tracer in each
        worker instead. The already-fitted cost model ships along so
        workers never re-train.
        """
        kwargs = dict(self._init_kwargs)
        kwargs["cost_model"] = self.cost_model
        kwargs["cluster"] = self.cluster
        kwargs.pop("tracer", None)
        return kwargs

    def make_context(
        self,
        cluster: Optional[ClusterConditions] = None,
        query: Optional[Query] = None,
    ) -> PlanningContext:
        """A fresh planning context against given cluster conditions.

        When ``query`` carries scan filters (the paper's sampling
        filters), the context's estimator applies them to the base
        statistics before any join arithmetic.
        """
        estimator = self.estimator
        if query is not None and query.filters:
            estimator = estimator.with_filters(query.filter_factors)
        return PlanningContext(
            estimator=estimator,
            cluster=cluster or self.cluster,
            tracer=self.tracer,
        )

    def _traced_plan(
        self, query: Query, context: PlanningContext
    ) -> PlanningResult:
        """Run the query planner inside a ``plan`` span."""
        if not self.tracer.active:
            return self.query_planner.plan(query, context)
        with self.tracer.span("plan", kind="planner") as span:
            span.set_attributes(
                {
                    "query": query.name,
                    "resource_aware": self.resource_aware,
                }
            )
            result = self.query_planner.plan(query, context)
            span.set_attributes(
                {
                    "planner": result.planner_name,
                    "feasible": result.cost.is_finite,
                    "resource_iterations": (
                        result.counters.resource_iterations
                    ),
                    "join_costings": result.counters.join_costings,
                    "memo_hits": result.counters.memo_hits,
                    "cache_hits": result.counters.cache_hits,
                    "cache_misses": result.counters.cache_misses,
                    "wall_ms": result.wall_time_s * 1000.0,
                }
            )
            if result.cost.is_finite:
                span.set_attributes(
                    {
                        "cost_time_s": result.cost.time_s,
                        "cost_money": result.cost.money,
                    }
                )
            return result

    def optimize(
        self,
        query: Query,
        context: Optional[PlanningContext] = None,
    ) -> PlanningResult:
        """Produce a joint query and resource plan for ``query``."""
        if (
            self.cache is not None
            and self.clear_cache_between_queries
            and context is None
        ):
            self.cache.clear()
        if context is None:
            context = self.make_context(query=query)
        result = self._traced_plan(query, context)
        return self._finalize(result, context)

    def replan(
        self, query: Query, cluster: ClusterConditions
    ) -> PlanningResult:
        """Adaptive RAQO: re-optimize under changed cluster conditions.

        With ``clear_cache_between_queries`` (the default) the resource
        plan cache is dropped first: configurations planned for a
        different envelope remain *valid* in a larger one but are no
        longer optimal there. Planners configured for across-query
        caching keep the warm cache and accept that trade-off (the
        paper's Fig 15(b) study).
        """
        self.cluster = cluster
        if self.cache is not None and self.clear_cache_between_queries:
            self.cache.clear()
        context = self.make_context(cluster, query=query)
        result = self._traced_plan(query, context)
        return self._finalize(result, context)

    def _finalize(
        self, result: PlanningResult, context: PlanningContext
    ) -> PlanningResult:
        """Frontier selection for objectives that need it.

        ``fastest`` and ``weighted`` objectives return the search
        result untouched (bit-identical to the historic path);
        ``cheapest``/``latency_bounded``/``pareto`` compute the
        per-stage resource frontier of the chosen plan
        (:func:`~repro.core.pareto.compute_frontier`), pick the
        objective's point, and re-annotate the plan's joins with the
        point's per-stage allocations. The search's own cost survives
        as ``search_cost`` and the frontier pass's counters merge into
        the result's.
        """
        objective = self.objective
        if (
            not objective.needs_frontier
            or not self.resource_aware
            or not result.cost.is_finite
        ):
            return result
        before = dataclasses.replace(context.counters)
        if self.tracer.active:
            with self.tracer.span(
                "pareto-frontier", kind="planner"
            ) as span:
                resource_frontier = compute_frontier(
                    result.plan, context, self.cost_model,
                    self.price_model,
                )
                span.set_attributes(
                    {
                        "objective": str(objective),
                        "frontier_points": len(resource_frontier),
                        "dominated_pruned": (
                            resource_frontier.dominated_pruned
                        ),
                    }
                )
        else:
            resource_frontier = compute_frontier(
                result.plan, context, self.cost_model, self.price_model
            )
        counters = dataclasses.replace(result.counters)
        counters.merge(_counters_delta(before, context.counters))
        selected = objective.select(resource_frontier)
        if selected is None or not resource_frontier.stages:
            # No feasible frontier (or a join-free plan): keep the
            # search's plan and cost; the empty frontier still rides
            # along for observability.
            plan, cost = result.plan, result.cost
        else:
            stage_configs = iter(selected.configs)
            plan = result.plan.map_joins(
                lambda join: join.with_resources(next(stage_configs))
            )
            cost = selected.cost
        return ParetoPlanningResult(
            query=result.query,
            plan=plan,
            cost=cost,
            wall_time_s=result.wall_time_s,
            counters=counters,
            planner_name=result.planner_name,
            batch_sizes=result.batch_sizes,
            frontier=resource_frontier,
            objective=objective,
            selected=selected,
            search_cost=result.cost,
        )
