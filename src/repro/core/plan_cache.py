"""The resource plan cache (paper Sec VI-B3).

"For each cost model (e.g., SMJ, BHJ) and sub-plan (e.g., join operator,
scan operator), we maintain an in-memory index of data characteristic
keys, each of which point to the best resource configuration for those
data characteristics ... Our current prototype keeps a sorted array of
keys, with automatic resizing whenever the array gets full, and we perform
a binary search for lookup."

Data characteristics are keyed by the operator's smaller input size (the
same quantity the paper's Fig 14 thresholds range over). Three lookup
modes are provided, as in the paper:

- ``EXACT`` -- hit only on an exact key match;
- ``NEAREST`` -- the nearest neighbour within a data-delta threshold;
- ``WEIGHTED_AVERAGE`` -- the distance-weighted average of all neighbours
  within the threshold, snapped back onto the cluster's discrete grid.

A NaN key always misses, in every mode: it compares unequal to every
key, so no entry can lie "within" any threshold of it.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration


class LookupMode(enum.Enum):
    """Cache lookup behaviours (Sec VI-B3)."""

    EXACT = "exact"
    NEAREST = "nearest_neighbor"
    WEIGHTED_AVERAGE = "weighted_average"

    def __str__(self) -> str:
        return self.value


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    #: Distinct keys currently held across all indexes (re-inserting an
    #: existing key updates it in place and does not count).
    entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0 when never used)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class _SortedIndex:
    """A sorted array of (data_gb, config) with binary-search lookup.

    The paper describes "a sorted array of keys, with automatic resizing
    whenever the array gets full". A plain ``list.insert`` at the bisect
    position makes every miss O(n) in array shifts, which dominates once
    a warm across-query cache holds thousands of keys. New keys therefore
    land in a small unsorted pending buffer (a dict, so lookups there are
    O(1)) that is merged into the sorted main array whenever it reaches
    ``MERGE_THRESHOLD``: inserts are amortized O(1) plus an occasional
    O(n + t log t) merge, instead of O(n) every time. Main-array keys and
    pending keys are kept disjoint -- re-inserting a key that already
    made it into the main array updates it in place.
    """

    #: Pending-buffer size that triggers a merge into the sorted array.
    MERGE_THRESHOLD = 64

    def __init__(self) -> None:
        self._keys: List[float] = []
        self._configs: List[ResourceConfiguration] = []
        self._pending: Dict[float, ResourceConfiguration] = {}

    def insert(self, key: float, config: ResourceConfiguration) -> bool:
        """Insert or update one entry; True when the key is new."""
        position = bisect.bisect_left(self._keys, key)
        if (
            position < len(self._keys)
            and self._keys[position] == key
        ):
            self._configs[position] = config
            return False
        is_new = key not in self._pending
        self._pending[key] = config
        if len(self._pending) >= self.MERGE_THRESHOLD:
            self._merge_pending()
        return is_new

    def _merge_pending(self) -> None:
        """Fold the pending buffer into the sorted main array (one pass)."""
        if not self._pending:
            return
        incoming = sorted(self._pending.items())
        merged_keys: List[float] = []
        merged_configs: List[ResourceConfiguration] = []
        i = j = 0
        while i < len(self._keys) and j < len(incoming):
            if self._keys[i] <= incoming[j][0]:
                merged_keys.append(self._keys[i])
                merged_configs.append(self._configs[i])
                i += 1
            else:
                merged_keys.append(incoming[j][0])
                merged_configs.append(incoming[j][1])
                j += 1
        merged_keys.extend(self._keys[i:])
        merged_configs.extend(self._configs[i:])
        for key, config in incoming[j:]:
            merged_keys.append(key)
            merged_configs.append(config)
        self._keys = merged_keys
        self._configs = merged_configs
        self._pending.clear()

    def exact(self, key: float) -> Optional[ResourceConfiguration]:
        pending = self._pending.get(key)
        if pending is not None:
            return pending
        position = bisect.bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            return self._configs[position]
        return None

    def neighbors_within(
        self, key: float, threshold: float
    ) -> List[Tuple[float, ResourceConfiguration]]:
        """All entries with |entry_key - key| <= threshold, nearest first."""
        low = bisect.bisect_left(self._keys, key - threshold)
        high = bisect.bisect_right(self._keys, key + threshold)
        entries = [
            (self._keys[i], self._configs[i]) for i in range(low, high)
        ]
        entries.extend(
            (pending_key, config)
            for pending_key, config in self._pending.items()
            if abs(pending_key - key) <= threshold
        )
        # Key-sort first so equidistant neighbours tie-break by key
        # regardless of whether they sat in the buffer or the array.
        entries.sort(key=lambda entry: entry[0])
        entries.sort(key=lambda entry: abs(entry[0] - key))
        return entries

    def __len__(self) -> int:
        return len(self._keys) + len(self._pending)


class ResourcePlanCache:
    """Per-(cost model, operator) cached resource configurations."""

    def __init__(
        self,
        mode: LookupMode = LookupMode.NEAREST,
        threshold_gb: float = 0.0,
    ) -> None:
        if not threshold_gb >= 0:  # also rejects NaN
            raise ValueError(
                f"threshold_gb must be >= 0, got {threshold_gb}"
            )
        self.mode = mode
        self.threshold_gb = threshold_gb
        self._indexes: Dict[str, _SortedIndex] = {}
        self.stats = CacheStats()

    def _index(self, model_key: str) -> _SortedIndex:
        index = self._indexes.get(model_key)
        if index is None:
            index = _SortedIndex()
            self._indexes[model_key] = index
        return index

    def peek(
        self,
        model_key: str,
        data_gb: float,
        cluster: Optional[ClusterConditions] = None,
    ) -> Optional[ResourceConfiguration]:
        """What :meth:`lookup` would return, without touching the stats.

        The batched coster peeks a whole candidate batch first and
        charges each hit or miss afterwards, where the per-candidate
        lookup would have.
        """
        if math.isnan(data_gb):
            return None
        index = self._indexes.get(model_key)
        if index is None:
            return None
        result = index.exact(data_gb)
        # With a zero threshold the neighbour scan could only find the
        # keys exact() already checked, so it is skipped.
        if (
            result is None
            and self.mode is not LookupMode.EXACT
            and self.threshold_gb > 0
        ):
            neighbors = index.neighbors_within(
                data_gb, self.threshold_gb
            )
            if neighbors:
                if self.mode is LookupMode.NEAREST:
                    result = neighbors[0][1]
                else:
                    result = _weighted_average(
                        data_gb, neighbors, cluster
                    )
        if result is not None and cluster is not None:
            if not cluster.contains(result):
                result = None
        return result

    def lookup(
        self,
        model_key: str,
        data_gb: float,
        cluster: Optional[ClusterConditions] = None,
    ) -> Optional[ResourceConfiguration]:
        """Return a cached configuration for these data characteristics.

        All modes try an exact match first (the paper: "both variants
        first look for exact match before trying the interpolation").
        ``cluster`` is used by the weighted-average mode to snap the
        interpolated configuration back onto the discrete grid, and by
        all modes to reject cached entries that no longer fit the current
        cluster conditions. Counts one hit or miss in :attr:`stats`.
        """
        result = self.peek(model_key, data_gb, cluster)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def insert(
        self,
        model_key: str,
        data_gb: float,
        config: ResourceConfiguration,
    ) -> None:
        """Record the best configuration found for these characteristics."""
        if self._index(model_key).insert(data_gb, config):
            self.stats.entries += 1
        self.stats.inserts += 1

    def clear(self) -> None:
        """Drop all cached entries (the paper clears between queries
        unless testing across-query caching)."""
        self._indexes.clear()
        self.stats.entries = 0

    def size(self, model_key: Optional[str] = None) -> int:
        """Number of cached entries (for one model or in total)."""
        if model_key is not None:
            return len(self._index(model_key))
        return sum(len(index) for index in self._indexes.values())


def _weighted_average(
    data_gb: float,
    neighbors: List[Tuple[float, ResourceConfiguration]],
    cluster: Optional[ClusterConditions],
) -> ResourceConfiguration:
    """Distance-weighted average of neighbouring configurations.

    Weights are inverse distances (an exact-distance neighbour would have
    been returned by the exact path). The averaged point is rounded to
    the nearest discrete step and clamped into the cluster envelope.
    """
    epsilon = 1e-9
    total_weight = 0.0
    containers = 0.0
    size_gb = 0.0
    for key, config in neighbors:
        weight = 1.0 / (abs(key - data_gb) + epsilon)
        total_weight += weight
        containers += weight * config.num_containers
        size_gb += weight * config.container_gb
    averaged = ResourceConfiguration(
        num_containers=max(1, int(round(containers / total_weight))),
        container_gb=max(size_gb / total_weight, 1e-9),
    )
    if cluster is None:
        return averaged
    # Snap onto the discrete grid, selecting each axis by name (rule
    # RAQO007: positional indexing breaks if the axis list changes).
    count_dim = cluster.dimension("num_containers")
    size_dim = cluster.dimension("container_gb")
    count_steps = round(
        (averaged.num_containers - count_dim.minimum) / count_dim.step
    )
    size_steps = round(
        (averaged.container_gb - size_dim.minimum) / size_dim.step
    )
    snapped = ResourceConfiguration(
        num_containers=max(
            1, int(count_dim.minimum + count_steps * count_dim.step)
        ),
        container_gb=max(
            size_dim.minimum + size_steps * size_dim.step, 1e-9
        ),
    )
    return cluster.clamp(snapped)
