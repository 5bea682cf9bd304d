"""Tests for repro.catalog.statistics."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.catalog import tpch
from repro.catalog.join_graph import JoinEdge, JoinGraph, JoinGraphError
from repro.catalog.random_schema import (
    RandomSchemaConfig,
    random_catalog,
    random_query,
)
from repro.catalog.schema import Catalog, Schema, Table
from repro.catalog.statistics import StatisticsEstimator, TableStats


def make_catalog():
    """a (1000 rows x 100B) - b (100 x 50B) - c (10 x 10B) chain."""
    schema = Schema(
        "s",
        tables=[
            Table("a", row_count=1000, row_width_bytes=100),
            Table("b", row_count=100, row_width_bytes=50),
            Table("c", row_count=10, row_width_bytes=10),
        ],
    )
    graph = JoinGraph(
        [
            JoinEdge("a", "b", selectivity=1.0 / 100),
            JoinEdge("b", "c", selectivity=1.0 / 10),
        ]
    )
    return Catalog(schema=schema, join_graph=graph)


class TestTableStats:
    def test_size_bytes(self):
        stats = TableStats(row_count=10, row_width_bytes=100)
        assert stats.size_bytes == 1000

    def test_size_gb(self):
        stats = TableStats(row_count=2**30, row_width_bytes=1)
        assert stats.size_gb == pytest.approx(1.0)

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            TableStats(row_count=-1, row_width_bytes=10)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            TableStats(row_count=1, row_width_bytes=0)


class TestEstimator:
    def test_base_stats(self):
        est = StatisticsEstimator(make_catalog())
        stats = est.base_stats("a")
        assert stats.row_count == 1000
        assert stats.row_width_bytes == 100

    def test_single_table_set(self):
        est = StatisticsEstimator(make_catalog())
        assert est.stats_for(["b"]).row_count == 100

    def test_pk_fk_join_cardinality(self):
        # |a >< b| = 1000 * 100 * (1/100) = 1000 (FK side preserved).
        est = StatisticsEstimator(make_catalog())
        stats = est.stats_for(["a", "b"])
        assert stats.row_count == pytest.approx(1000)
        assert stats.row_width_bytes == 150

    def test_three_way_join(self):
        # 1000 * 100 * 10 * (1/100) * (1/10) = 1000 rows, width 160.
        est = StatisticsEstimator(make_catalog())
        stats = est.stats_for(["a", "b", "c"])
        assert stats.row_count == pytest.approx(1000)
        assert stats.row_width_bytes == 160

    def test_disconnected_set_rejected(self):
        est = StatisticsEstimator(make_catalog())
        with pytest.raises(JoinGraphError):
            est.stats_for(["a", "c"])

    def test_empty_set_rejected(self):
        est = StatisticsEstimator(make_catalog())
        with pytest.raises(JoinGraphError):
            est.stats_for([])

    def test_join_stats_equals_union(self):
        est = StatisticsEstimator(make_catalog())
        union = est.stats_for(["a", "b", "c"])
        joined = est.join_stats(["a", "b"], ["c"])
        assert joined.row_count == union.row_count
        assert joined.row_width_bytes == union.row_width_bytes

    def test_join_io_gb_sorted(self):
        est = StatisticsEstimator(make_catalog())
        small, large = est.join_io_gb(["a"], ["b"])
        assert small <= large
        assert small == est.stats_for(["b"]).size_gb
        assert large == est.stats_for(["a"]).size_gb

    def test_memoisation_and_clear(self):
        est = StatisticsEstimator(make_catalog())
        first = est.stats_for(["a", "b"])
        assert est.stats_for(["a", "b"]) is first
        est.clear_cache()
        assert est.stats_for(["a", "b"]) is not first

    def test_order_insensitive(self):
        est = StatisticsEstimator(make_catalog())
        assert (
            est.stats_for(["b", "a"]).row_count
            == est.stats_for(["a", "b"]).row_count
        )


class TestTpchEstimates:
    def test_lineitem_orders_join_keeps_lineitem_cardinality(
        self, tpch_catalog_sf100
    ):
        est = StatisticsEstimator(tpch_catalog_sf100)
        lineitem = est.base_stats("lineitem")
        joined = est.stats_for(["lineitem", "orders"])
        assert joined.row_count == pytest.approx(lineitem.row_count)

    def test_join_io_identifies_orders_as_smaller(
        self, tpch_catalog_sf100
    ):
        est = StatisticsEstimator(tpch_catalog_sf100)
        small, large = est.join_io_gb(["orders"], ["lineitem"])
        assert small == est.base_stats("orders").size_gb
        assert large == est.base_stats("lineitem").size_gb


class TestGraphChanges:
    def test_added_edge_reaches_a_live_estimator(self):
        """A new edge changes the estimate of every set it lies in, also
        for an estimator that answered before the edge was added."""
        catalog = tpch.tpch_catalog(1)
        est = StatisticsEstimator(catalog)
        tables = ["nation", "supplier", "customer"]
        before = est.stats_for(tables)
        catalog.join_graph.add_edge(JoinEdge("supplier", "customer", 0.001))
        after = est.stats_for(tables)
        fresh = StatisticsEstimator(catalog).stats_for(tables)
        assert before.row_count == pytest.approx(60_000_000)
        assert after.row_count == fresh.row_count
        assert after.row_count == pytest.approx(60_000)

    def test_lone_table_outside_the_graph(self):
        schema = Schema(
            "s",
            tables=[
                Table("a", row_count=10, row_width_bytes=8),
                Table("b", row_count=20, row_width_bytes=8),
                Table("lone", row_count=30, row_width_bytes=8),
            ],
        )
        catalog = Catalog(
            schema=schema, join_graph=JoinGraph([JoinEdge("a", "b", 0.1)])
        )
        est = StatisticsEstimator(catalog)
        assert est.stats_for(["lone"]).row_count == 30
        assert est.stats_for(("lone",)) is est.stats_for(["lone"])
        with pytest.raises(JoinGraphError, match="not connected"):
            est.stats_for(["a", "lone"])


class TestMemoFootprint:
    """The estimator's memo after a stream of planned queries on a
    16-table schema: no state per subset on the join graph, and a small
    memo entry per subset.

    By ``sys.getsizeof`` a mask-keyed entry is ~115 B (int key, dict
    slot, ``TableStats``) and a frozenset-keyed one ~800 B. What
    clearing the memo frees, by ``tracemalloc`` on CPython 3.12, also
    counts the ``TableStats`` attribute dict and floats: ~205 B per
    mask-keyed entry on this stream, ~645 B per frozenset-keyed one
    (sets of 4-8 tables). 400 B sits midway: room for other interpreter
    versions, and still well below any frozenset key of 5 or more.
    """

    BYTES_PER_ENTRY = 400

    def test_memo_stays_small_and_the_graph_keeps_no_subsets(self):
        from repro.core.raqo import RaqoPlanner

        catalog = random_catalog(
            RandomSchemaConfig(num_tables=16), np.random.default_rng(7)
        )
        graph = catalog.join_graph
        graph_state = {name: repr(value) for name, value in vars(graph).items()}
        planner = RaqoPlanner(catalog)
        rng = np.random.default_rng(1)
        queries = [
            random_query(catalog, int(rng.integers(4, 9)), rng)
            for _ in range(24)
        ]
        tracemalloc.start()
        try:
            for query in queries:
                planner.optimize(query)
            entries = len(planner.estimator._cache)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            planner.estimator.clear_cache()
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries > 200
        assert freed / entries <= self.BYTES_PER_ENTRY, freed / entries
        assert {
            name: repr(value) for name, value in vars(graph).items()
        } == graph_state
