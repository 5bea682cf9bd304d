"""Tests for repro.core.plan_cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConditions
from repro.cluster.containers import ResourceConfiguration
from repro.core.plan_cache import (
    LookupMode,
    ResourcePlanCache,
    _SortedIndex,
)


def rc(nc, cs):
    return ResourceConfiguration(num_containers=nc, container_gb=cs)


class TestSortedIndex:
    def test_insert_keeps_lookup_order(self):
        index = _SortedIndex()
        for key in (3.0, 1.0, 2.0):
            index.insert(key, rc(int(key), 1.0))
        index._merge_pending()
        assert index._keys == [1.0, 2.0, 3.0]

    def test_exact(self):
        index = _SortedIndex()
        index.insert(2.0, rc(2, 1.0))
        assert index.exact(2.0) == rc(2, 1.0)
        assert index.exact(2.1) is None

    def test_exact_after_merge(self):
        index = _SortedIndex()
        index.insert(2.0, rc(2, 1.0))
        index._merge_pending()
        assert index.exact(2.0) == rc(2, 1.0)
        assert index.exact(2.1) is None

    def test_duplicate_key_overwrites(self):
        index = _SortedIndex()
        index.insert(2.0, rc(2, 1.0))
        index.insert(2.0, rc(9, 1.0))
        assert index.exact(2.0) == rc(9, 1.0)
        assert len(index) == 1

    def test_duplicate_key_overwrites_after_merge(self):
        index = _SortedIndex()
        index.insert(2.0, rc(2, 1.0))
        index._merge_pending()
        index.insert(2.0, rc(9, 1.0))
        assert index.exact(2.0) == rc(9, 1.0)
        assert len(index) == 1

    def test_insert_reports_new_keys(self):
        index = _SortedIndex()
        assert index.insert(2.0, rc(2, 1.0)) is True
        assert index.insert(2.0, rc(9, 1.0)) is False
        index._merge_pending()
        assert index.insert(2.0, rc(3, 1.0)) is False
        assert index.insert(4.0, rc(4, 1.0)) is True

    def test_neighbors_within(self):
        index = _SortedIndex()
        for key in (1.0, 2.0, 3.0, 10.0):
            index.insert(key, rc(int(key), 1.0))
        neighbors = index.neighbors_within(2.2, 1.5)
        keys = [k for k, _ in neighbors]
        assert set(keys) == {1.0, 2.0, 3.0}
        # Nearest first.
        assert keys[0] == 2.0

    def test_neighbors_span_buffer_and_array(self):
        index = _SortedIndex()
        index.insert(1.0, rc(1, 1.0))
        index.insert(3.0, rc(3, 1.0))
        index._merge_pending()
        index.insert(2.0, rc(2, 1.0))  # still in the pending buffer
        neighbors = index.neighbors_within(2.2, 1.5)
        assert [k for k, _ in neighbors] == [2.0, 3.0, 1.0]

    def test_automatic_merge_at_threshold(self):
        index = _SortedIndex()
        for offset in range(index.MERGE_THRESHOLD):
            index.insert(float(offset), rc(1, 1.0))
        # The buffer hit its threshold and was folded into the array.
        assert not index._pending
        assert index._keys == sorted(index._keys)
        assert len(index) == index.MERGE_THRESHOLD

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=40))
    @settings(max_examples=40)
    def test_property_sorted_invariant(self, keys):
        index = _SortedIndex()
        for key in keys:
            index.insert(key, rc(1, 1.0))
        index._merge_pending()
        assert index._keys == sorted(set(index._keys))
        assert len(index) == len(set(keys))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40)
    def test_property_lookups_unaffected_by_buffering(self, keys):
        """The pending buffer is invisible to exact/neighbour lookups."""
        buffered = _SortedIndex()
        eager = _SortedIndex()
        for key in keys:
            buffered.insert(key, rc(1, 1.0))
            eager.insert(key, rc(1, 1.0))
            eager._merge_pending()
        probe = keys[len(keys) // 2]
        assert buffered.exact(probe) == eager.exact(probe)
        assert buffered.neighbors_within(probe, 5.0) == (
            eager.neighbors_within(probe, 5.0)
        )
        assert len(buffered) == len(eager)


class TestExactMode:
    def test_miss_then_hit(self):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        assert cache.lookup("smj", 2.0) is None
        cache.insert("smj", 2.0, rc(10, 4.0))
        assert cache.lookup("smj", 2.0) == rc(10, 4.0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_near_miss_is_miss(self):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        cache.insert("smj", 2.0, rc(10, 4.0))
        assert cache.lookup("smj", 2.0001) is None

    def test_model_keys_isolated(self):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        cache.insert("smj", 2.0, rc(10, 4.0))
        assert cache.lookup("bhj", 2.0) is None


class TestNearestMode:
    def test_within_threshold_hits(self):
        cache = ResourcePlanCache(
            mode=LookupMode.NEAREST, threshold_gb=0.5
        )
        cache.insert("smj", 2.0, rc(10, 4.0))
        assert cache.lookup("smj", 2.3) == rc(10, 4.0)

    def test_outside_threshold_misses(self):
        cache = ResourcePlanCache(
            mode=LookupMode.NEAREST, threshold_gb=0.1
        )
        cache.insert("smj", 2.0, rc(10, 4.0))
        assert cache.lookup("smj", 2.3) is None

    def test_picks_nearest_of_several(self):
        cache = ResourcePlanCache(
            mode=LookupMode.NEAREST, threshold_gb=1.0
        )
        cache.insert("smj", 1.0, rc(1, 1.0))
        cache.insert("smj", 3.0, rc(3, 3.0))
        assert cache.lookup("smj", 2.6) == rc(3, 3.0)

    def test_exact_match_tried_first(self):
        cache = ResourcePlanCache(
            mode=LookupMode.NEAREST, threshold_gb=5.0
        )
        cache.insert("smj", 2.0, rc(2, 2.0))
        cache.insert("smj", 2.5, rc(5, 5.0))
        assert cache.lookup("smj", 2.0) == rc(2, 2.0)


class TestWeightedAverageMode:
    def test_averages_neighbors(self, paper_cluster):
        cache = ResourcePlanCache(
            mode=LookupMode.WEIGHTED_AVERAGE, threshold_gb=1.0
        )
        cache.insert("smj", 2.0, rc(10, 4.0))
        cache.insert("smj", 3.0, rc(20, 6.0))
        result = cache.lookup("smj", 2.5, paper_cluster)
        assert result is not None
        assert 10 <= result.num_containers <= 20
        assert 4.0 <= result.container_gb <= 6.0

    def test_weights_favor_closer_neighbor(self, paper_cluster):
        cache = ResourcePlanCache(
            mode=LookupMode.WEIGHTED_AVERAGE, threshold_gb=2.0
        )
        cache.insert("smj", 2.0, rc(10, 4.0))
        cache.insert("smj", 4.0, rc(20, 8.0))
        result = cache.lookup("smj", 2.2, paper_cluster)
        assert result.num_containers < 15

    def test_snaps_to_cluster_grid(self, paper_cluster):
        cache = ResourcePlanCache(
            mode=LookupMode.WEIGHTED_AVERAGE, threshold_gb=2.0
        )
        cache.insert("smj", 2.0, rc(10, 4.0))
        cache.insert("smj", 3.0, rc(11, 5.0))
        result = cache.lookup("smj", 2.5, paper_cluster)
        # Grid steps are 1 on both axes.
        assert result.container_gb == int(result.container_gb)

    def test_without_cluster_returns_raw_average(self):
        cache = ResourcePlanCache(
            mode=LookupMode.WEIGHTED_AVERAGE, threshold_gb=2.0
        )
        cache.insert("smj", 2.0, rc(10, 4.0))
        cache.insert("smj", 3.0, rc(20, 6.0))
        assert cache.lookup("smj", 2.5) is not None


class TestClusterValidation:
    def test_stale_entry_rejected_by_new_cluster(self):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        cache.insert("smj", 2.0, rc(50, 8.0))
        small = ClusterConditions(max_containers=10, max_container_gb=4.0)
        assert cache.lookup("smj", 2.0, small) is None

    def test_valid_entry_survives_cluster_change(self):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        cache.insert("smj", 2.0, rc(5, 2.0))
        small = ClusterConditions(max_containers=10, max_container_gb=4.0)
        assert cache.lookup("smj", 2.0, small) == rc(5, 2.0)


MODES = [
    (LookupMode.EXACT, 0.0),
    (LookupMode.NEAREST, 0.0),
    (LookupMode.NEAREST, 0.5),
    (LookupMode.WEIGHTED_AVERAGE, 2.0),
]


def _filled_cache(mode, threshold_gb):
    """Keys 0..69 (past the merge threshold, so some sit in the sorted
    array and some in the pending buffer) plus an outlier at 100."""
    cache = ResourcePlanCache(mode=mode, threshold_gb=threshold_gb)
    for key in list(range(70)) + [100]:
        cache.insert("m", float(key), rc(1, 2.0))
    return cache


class TestNanKey:
    """A NaN key compares unequal to everything: it must miss, not
    bisect across the whole sorted array and hit an arbitrary entry."""

    @pytest.mark.parametrize("mode,threshold_gb", MODES)
    def test_nan_key_misses(self, mode, threshold_gb, paper_cluster):
        cache = _filled_cache(mode, threshold_gb)
        assert cache.lookup("m", float("nan"), paper_cluster) is None
        assert cache.lookup("m", float("nan")) is None
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    @pytest.mark.parametrize("mode,threshold_gb", MODES)
    def test_finite_keys_still_hit(self, mode, threshold_gb):
        cache = _filled_cache(mode, threshold_gb)
        assert cache.lookup("m", 3.0) == rc(1, 2.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            ResourcePlanCache(threshold_gb=float("nan"))


class TestPeek:
    @pytest.mark.parametrize("mode,threshold_gb", MODES)
    def test_peek_matches_lookup_without_counting(
        self, mode, threshold_gb, paper_cluster
    ):
        cache = _filled_cache(mode, threshold_gb)
        for key in (3.0, 3.2, 70.4, 85.0, 101.0, float("nan")):
            peeked = cache.peek("m", key, paper_cluster)
            assert cache.stats.lookups == 0
            assert peeked == cache.lookup("m", key, paper_cluster)
            cache.stats.hits = cache.stats.misses = 0

    def test_peek_unknown_model_key(self):
        cache = ResourcePlanCache()
        assert cache.peek("smj", 1.0) is None
        assert cache.size() == 0


class TestStatsAndMaintenance:
    def test_hit_rate(self):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        cache.insert("smj", 1.0, rc(1, 1.0))
        cache.lookup("smj", 1.0)
        cache.lookup("smj", 2.0)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.lookups == 2

    def test_hit_rate_empty(self):
        assert ResourcePlanCache().stats.hit_rate == 0.0

    def test_size(self):
        cache = ResourcePlanCache()
        cache.insert("smj", 1.0, rc(1, 1.0))
        cache.insert("smj", 2.0, rc(2, 1.0))
        cache.insert("bhj", 1.0, rc(1, 1.0))
        assert cache.size("smj") == 2
        assert cache.size() == 3

    def test_entries_counts_distinct_keys(self):
        cache = ResourcePlanCache()
        cache.insert("smj", 1.0, rc(1, 1.0))
        cache.insert("smj", 1.0, rc(2, 1.0))  # update, not a new entry
        cache.insert("smj", 2.0, rc(2, 1.0))
        cache.insert("bhj", 1.0, rc(1, 1.0))
        assert cache.stats.entries == 3
        assert cache.stats.inserts == 4
        assert cache.stats.entries == cache.size()

    def test_clear(self):
        cache = ResourcePlanCache()
        cache.insert("smj", 1.0, rc(1, 1.0))
        cache.clear()
        assert cache.size() == 0
        assert cache.stats.entries == 0
        assert cache.lookup("smj", 1.0) is None

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ResourcePlanCache(threshold_gb=-0.1)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50.0),
                st.integers(min_value=1, max_value=100),
                st.integers(min_value=1, max_value=10),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_property_inserted_entries_always_exact_hit(self, entries):
        cache = ResourcePlanCache(mode=LookupMode.EXACT)
        expected = {}
        for key, nc, cs in entries:
            config = rc(nc, float(cs))
            cache.insert("smj", key, config)
            expected[key] = config
        for key, config in expected.items():
            assert cache.lookup("smj", key) == config
